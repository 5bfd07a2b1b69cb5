#include "replay/binary.hpp"

#include <algorithm>
#include <chrono>

#include "support/bytes.hpp"
#include "support/checksum.hpp"

namespace umlsoc::replay {

namespace {

using support::ByteReader;
using support::ByteWriter;

constexpr std::uint32_t kFlagDelta = 1u;

constexpr std::uint8_t kEntryPayload = 0;
constexpr std::uint8_t kEntryReference = 1;
constexpr std::uint8_t kEntryRecorderAppend = 2;

/// Fixed byte cost of one recorder log entry (u64 at_ps + u32 process).
constexpr std::size_t kRecorderEntryBytes = 12;
/// Recorder payload header: u64 total + u32 count.
constexpr std::size_t kRecorderHeadBytes = 12;

/// Header bytes: magic, version, flags, seq, base_seq, section count and
/// the header checksum.
constexpr std::size_t kHeaderBytes = 8 + 4 + 4 + 8 + 8 + 4 + 8;
/// Frame bytes besides the name and payload: kind, name length, entry
/// flags, payload length and checksum.
constexpr std::size_t kFrameFixedBytes = 1 + 2 + 1 + 4 + 8;

/// A frame's checksum: XXH64 of its payload, seeded with XXH64 of its
/// metadata (kind, name, entry flags, payload length).
std::uint64_t frame_checksum(std::string_view meta, std::string_view payload) {
  return support::xxh64(payload, support::xxh64(meta));
}

std::string to_hex(std::uint64_t value) {
  char buffer[17];
  for (int i = 15; i >= 0; --i) {
    buffer[i] = "0123456789abcdef"[value & 0xF];
    value >>= 4;
  }
  buffer[16] = '\0';
  return std::string(buffer);
}

// --- section payload layouts -------------------------------------------------
//
// One transfer() per section kind: it encodes over a ByteWriter and decodes
// over a ByteReader (support/bytes.hpp), so each layout is written once.

template <typename Io>
void transfer(Io& io, sim::Kernel::Checkpoint& kernel) {
  io.field(kernel.now_ps);
  io.field(kernel.sequence);
  io.field(kernel.delta_count);
  io.field(kernel.events_processed);
  io.field(kernel.process_count);
  io.sequence(kernel.timed, [&io](sim::Kernel::Checkpoint::PendingTimed& timed) {
    io.field(timed.at_ps);
    io.field(timed.sequence);
    io.field(timed.process);
  });
  io.sequence(kernel.expectations, [&io](sim::Kernel::Checkpoint::ExpectationEntry& entry) {
    io.field(entry.label);
    io.field(entry.outstanding);
  });
}

template <typename Io>
void transfer(Io& io, SnapshotImage::FaultPlanState& plan) {
  io.field(plan.seed);
  io.sequence(plan.sites, [&io](auto& entry) {
    auto& [site, state] = entry;
    io.field(site);
    check(io, static_cast<std::size_t>(site) < sim::kFaultSiteCount);
    io.field(state.rng_state);
    io.field(state.counters.consults);
    io.field(state.counters.errors);
    io.field(state.counters.drops);
    io.field(state.counters.delays);
    io.field(state.counters.bit_flips);
    io.field(state.counters.glitches);
  });
}

template <typename Io>
void transfer(Io& io, SnapshotImage::RecorderState& recorder) {
  io.field(recorder.total);
  io.sequence(recorder.events, [&io](sim::RecordedEvent& event) {
    io.field(event.at_ps);
    io.field(event.process);
  });
  check(io, recorder.events.size() <= recorder.total);
}

template <typename Io>
void transfer(Io& io, statechart::InstanceSnapshot& machine) {
  io.field(machine.started);
  io.field(machine.terminated);
  io.field(machine.events_processed);
  io.field(machine.transitions_fired);
  io.field(machine.errors_raised);
  io.field(machine.errors_unhandled);
  statechart::transfer_execution_state(io, machine);
}

template <typename Io>
void transfer(Io& io, sim::MemoryMappedBus::Checkpoint& bus) {
  io.field(bus.stats.reads);
  io.field(bus.stats.writes);
  io.field(bus.stats.errors);
  io.field(bus.stats.injected_errors);
  io.field(bus.stats.injected_drops);
  io.field(bus.stats.injected_delays);
  io.field(bus.stats.injected_bit_flips);
  io.field(bus.stats.completions);
  io.field(bus.stats.dropped_completions);
  io.field(bus.last_completion_ps);
}

template <typename Io>
void transfer(Io& io, sim::Watchdog::Checkpoint& watchdog) {
  io.field(watchdog.armed);
  io.field(watchdog.tripped);
  io.field(watchdog.check_pending);
  io.field(watchdog.trip_at_ps);
  io.field(watchdog.trips);
  io.field(watchdog.kicks);
}

template <typename Io>
void transfer(Io& io, sim::Supervisor::Checkpoint& supervisor) {
  io.field(supervisor.gave_up);
  io.field(supervisor.give_up_reason);
  io.sequence(supervisor.window);
  io.sequence(supervisor.children, [&io](sim::Supervisor::Checkpoint::ChildState& child) {
    io.field(child.failures);
    io.field(child.restarts);
    io.field(child.failed_restarts);
    io.field(child.consecutive);
    io.field(child.last_failure_ps);
  });
  io.sequence(supervisor.pending, [&io](sim::Supervisor::Checkpoint::PendingRestart& pending) {
    io.field(pending.due_ps);
    io.field(pending.child);
  });
}

template <typename Io>
void transfer(Io& io, sim::CircuitBreaker::Checkpoint& breaker) {
  io.field(breaker.state);
  io.field(breaker.outcomes);
  io.field(breaker.cursor);
  io.field(breaker.samples);
  io.field(breaker.failures_in_window);
  io.field(breaker.open_duration_ps);
  io.field(breaker.reopen_at_ps);
  io.field(breaker.timer_pending);
  io.field(breaker.probe_in_flight);
  io.field(breaker.stats.issued);
  io.field(breaker.stats.ok);
  io.field(breaker.stats.failures);
  io.field(breaker.stats.fast_failed);
  io.field(breaker.stats.opens);
  io.field(breaker.stats.closes);
  io.field(breaker.stats.probes);
  io.field(breaker.stats.probe_failures);
}

template <typename Io>
void transfer(Io& io, sim::HealthRegistry::Checkpoint& health) {
  io.field(health.transitions);
  io.sequence(health.health);
}

template <typename Io>
void transfer(Io& io, std::vector<std::pair<std::string, std::uint64_t>>& bank) {
  io.sequence(bank, [&io](auto& entry) {
    io.field(entry.first);
    io.field(entry.second);
  });
}

template <typename Record>
std::string encode(const Record& record) {
  ByteWriter out;
  transfer(out, const_cast<Record&>(record));  // The writer only reads it.
  return out.take();
}

template <typename Record>
bool decode(ByteReader& in, Record& record) {
  transfer(in, record);
  return !in.failed();
}

// --- image <-> flat section list ---------------------------------------------

struct FlatSection {
  SectionKind kind;
  std::string name;
  std::string payload;
};

std::vector<FlatSection> flatten_image(const SnapshotImage& image) {
  std::vector<FlatSection> sections;
  sections.reserve(image.section_count());
  sections.push_back({SectionKind::kKernel, "", encode(image.kernel)});
  if (image.fault_plan) {
    sections.push_back({SectionKind::kFaultPlan, "", encode(*image.fault_plan)});
  }
  if (image.recorder) {
    sections.push_back({SectionKind::kRecorder, "", encode(*image.recorder)});
  }
  for (const auto& entry : image.machines) {
    sections.push_back({SectionKind::kMachine, entry.name, encode(entry.state)});
  }
  for (const auto& entry : image.buses) {
    sections.push_back({SectionKind::kBus, entry.name, encode(entry.state)});
  }
  for (const auto& entry : image.watchdogs) {
    sections.push_back({SectionKind::kWatchdog, entry.name, encode(entry.state)});
  }
  for (const auto& entry : image.supervisors) {
    sections.push_back({SectionKind::kSupervisor, entry.name, encode(entry.state)});
  }
  for (const auto& entry : image.breakers) {
    sections.push_back({SectionKind::kBreaker, entry.name, encode(entry.state)});
  }
  for (const auto& entry : image.health) {
    sections.push_back({SectionKind::kHealth, entry.name, encode(entry.state)});
  }
  for (const auto& entry : image.banks) {
    sections.push_back({SectionKind::kBank, entry.name, encode(entry.state)});
  }
  return sections;
}

std::string describe(SectionKind kind, std::string_view name) {
  std::string out = "<" + std::string(to_string(kind));
  if (!name.empty()) out += " name='" + std::string(name) + "'";
  return out + ">";
}

/// The image entry called `name`, reset for decoding; appended when absent.
template <typename T>
T& fresh_entry(std::vector<SnapshotImage::Named<T>>& entries, std::string_view name) {
  for (auto& entry : entries) {
    if (entry.name == name) return entry.state = T{};
  }
  entries.push_back({std::string(name), T{}});
  return entries.back().state;
}

/// Decodes one section's payload into `image`, replacing the entry of the
/// same kind and name. A failed decode leaves that entry partly written.
bool decode_section(SectionKind kind, std::string_view name, std::string_view payload,
                    SnapshotImage& image, support::DiagnosticSink& sink) {
  ByteReader in(payload);
  bool ok = false;
  switch (kind) {
    case SectionKind::kKernel:
      image.kernel = {};
      ok = decode(in, image.kernel);
      break;
    case SectionKind::kFaultPlan:
      ok = decode(in, image.fault_plan.emplace());
      break;
    case SectionKind::kRecorder:
      ok = decode(in, image.recorder.emplace());
      break;
    case SectionKind::kMachine:
      ok = decode(in, fresh_entry(image.machines, name));
      break;
    case SectionKind::kBus:
      ok = decode(in, fresh_entry(image.buses, name));
      break;
    case SectionKind::kWatchdog:
      ok = decode(in, fresh_entry(image.watchdogs, name));
      break;
    case SectionKind::kSupervisor:
      ok = decode(in, fresh_entry(image.supervisors, name));
      break;
    case SectionKind::kBreaker:
      ok = decode(in, fresh_entry(image.breakers, name));
      break;
    case SectionKind::kHealth:
      ok = decode(in, fresh_entry(image.health, name));
      break;
    case SectionKind::kBank:
      ok = decode(in, fresh_entry(image.banks, name));
      break;
  }
  if (!ok || !in.exhausted()) {
    sink.error("binary-snapshot", "malformed payload in " + describe(kind, name) +
                                      (ok ? " (trailing bytes)" : ""));
    return false;
  }
  return true;
}

// --- file framing ------------------------------------------------------------

/// One parsed frame. `name` and `payload` view the file's bytes, which must
/// outlive it.
struct Frame {
  SectionKind kind = SectionKind::kKernel;
  std::string_view name;
  std::uint8_t entry_flags = kEntryPayload;
  /// Stored frame payload. For reference frames this is the 8-byte expected
  /// XXH64 of the *resolved* payload from the base, so a drifted base is
  /// caught at resolve time while the frame checksum still guards the
  /// reference frame's own bytes.
  std::string_view payload;
};

/// Writes a file into one buffer: the header, then each frame's metadata
/// with its payload appended in place, then the trailer. A frame's payload
/// length and checksum are patched in when its payload is complete.
class FileWriter {
 public:
  /// `sections` sizes the buffer; the file holds one frame per section.
  FileWriter(std::uint32_t flags, std::uint64_t seq, std::uint64_t base_seq,
             const std::vector<FlatSection>& sections) {
    std::size_t capacity = kHeaderBytes + kBinaryTrailer.size();
    for (const FlatSection& section : sections) {
      capacity += kFrameFixedBytes + section.name.size() + section.payload.size();
    }
    out_.reserve(capacity);
    out_.bytes(kBinaryMagic);
    out_.u32(static_cast<std::uint32_t>(kSnapshotVersion));
    out_.u32(flags);
    out_.u64(seq);
    out_.u64(base_seq);
    out_.u32(static_cast<std::uint32_t>(sections.size()));
    out_.u64(support::xxh64(out_.buffer()));
  }

  /// Starts a frame and returns the writer its payload is appended to.
  ByteWriter& begin_frame(SectionKind kind, std::string_view name, std::uint8_t entry_flags) {
    frame_ = out_.buffer().size();
    out_.u8(static_cast<std::uint8_t>(kind));
    out_.u16(static_cast<std::uint16_t>(name.size()));
    out_.bytes(name);
    out_.u8(entry_flags);
    out_.u32(0);  // Payload length, patched by end_frame().
    meta_end_ = out_.buffer().size();
    out_.u64(0);  // Frame checksum, patched by end_frame().
    return out_;
  }

  /// Patches the payload length and the checksum, which covers the frame
  /// metadata AND the payload: a bit-flip anywhere in the frame — kind,
  /// name, flags, lengths, payload — fails this section's validation, not
  /// some later decode step.
  void end_frame() {
    const std::size_t payload = meta_end_ + sizeof(std::uint64_t);
    out_.patch(meta_end_ - sizeof(std::uint32_t),
               static_cast<std::uint32_t>(out_.buffer().size() - payload));
    const std::string_view file = out_.buffer();
    out_.patch(meta_end_, frame_checksum(file.substr(frame_, meta_end_ - frame_),
                                         file.substr(payload)));
  }

  std::string finish() {
    out_.bytes(kBinaryTrailer);
    return out_.take();
  }

 private:
  ByteWriter out_;
  std::size_t frame_ = 0;     ///< Offset of the open frame.
  std::size_t meta_end_ = 0;  ///< Offset of the open frame's checksum.
};

/// A full snapshot: every section as a payload frame.
std::string encode_full(std::uint64_t seq, const std::vector<FlatSection>& sections) {
  FileWriter file(0, seq, 0, sections);
  for (const FlatSection& section : sections) {
    file.begin_frame(section.kind, section.name, kEntryPayload).bytes(section.payload);
    file.end_frame();
  }
  return file.finish();
}

bool parse_header(ByteReader& in, std::string_view data, BinarySnapshotInfo& info,
                  support::DiagnosticSink& sink) {
  if (in.bytes(kBinaryMagic.size()) != kBinaryMagic) {
    sink.error("binary-snapshot", "bad magic: not a binary snapshot file");
    return false;
  }
  info.version = static_cast<int>(in.u32());
  const std::uint32_t flags = in.u32();
  info.delta = (flags & kFlagDelta) != 0;
  info.seq = in.u64();
  info.base_seq = in.u64();
  info.section_count = in.u32();
  const std::size_t hashed = in.position();
  const std::uint64_t stored = in.u64();
  if (in.failed()) {
    sink.error("binary-snapshot", "truncated header (" + std::to_string(data.size()) +
                                      " bytes)");
    return false;
  }
  if (info.version != kSnapshotVersion) {
    sink.error("binary-snapshot",
               "unsupported snapshot version " + std::to_string(info.version) +
                   " (this build reads version " + std::to_string(kSnapshotVersion) + ")");
    return false;
  }
  const std::uint64_t computed = support::xxh64(data.substr(0, hashed));
  if (stored != computed) {
    sink.error("binary-snapshot", "header checksum mismatch: stored " + to_hex(stored) +
                                      ", computed " + to_hex(computed));
    return false;
  }
  return true;
}

/// Full framing parse: header, every section frame (bounds + frame
/// checksums covering metadata and payload), trailer, exact length. The
/// frames view `data`; nothing is copied.
bool parse_file(std::string_view data, BinarySnapshotInfo& info, std::vector<Frame>& frames,
                support::DiagnosticSink& sink) {
  ByteReader in(data);
  if (!parse_header(in, data, info, sink)) return false;
  for (std::uint32_t i = 0; i < info.section_count; ++i) {
    const std::size_t offset = in.position();
    Frame frame;
    const std::uint8_t kind = in.u8();
    const std::uint16_t name_length = in.u16();
    frame.name = in.bytes(name_length);
    frame.entry_flags = in.u8();
    const std::uint32_t payload_length = in.u32();
    const std::size_t meta_end = in.position();
    const std::uint64_t stored = in.u64();
    frame.payload = in.bytes(payload_length);
    if (in.failed()) {
      sink.error("binary-snapshot", "truncated in section #" + std::to_string(i) +
                                        " at offset " + std::to_string(offset) + " (" +
                                        std::to_string(data.size()) + " bytes total)");
      return false;
    }
    if (kind < static_cast<std::uint8_t>(SectionKind::kKernel) ||
        kind > static_cast<std::uint8_t>(SectionKind::kBank)) {
      sink.error("binary-snapshot", "unknown section kind " + std::to_string(kind) +
                                        " at offset " + std::to_string(offset));
      return false;
    }
    frame.kind = static_cast<SectionKind>(kind);
    if (frame.entry_flags > kEntryRecorderAppend) {
      sink.error("binary-snapshot",
                 "unknown entry flags " + std::to_string(frame.entry_flags) + " in " +
                     describe(frame.kind, frame.name) + " at offset " +
                     std::to_string(offset));
      return false;
    }
    const std::uint64_t computed =
        frame_checksum(data.substr(offset, meta_end - offset), frame.payload);
    if (computed != stored) {
      sink.error("binary-snapshot", "section checksum mismatch in " +
                                        describe(frame.kind, frame.name) + " at offset " +
                                        std::to_string(offset) + ": stored " +
                                        to_hex(stored) + ", computed " + to_hex(computed));
      return false;
    }
    if (frame.entry_flags == kEntryReference && payload_length != sizeof(std::uint64_t)) {
      sink.error("binary-snapshot", "malformed reference frame in " +
                                        describe(frame.kind, frame.name) + " at offset " +
                                        std::to_string(offset));
      return false;
    }
    frames.push_back(frame);
  }
  if (in.bytes(kBinaryTrailer.size()) != kBinaryTrailer) {
    sink.error("binary-snapshot", "missing end-of-file trailer (truncated at " +
                                      std::to_string(in.position()) + " of " +
                                      std::to_string(data.size()) + " bytes)");
    return false;
  }
  if (!in.exhausted()) {
    sink.error("binary-snapshot", std::to_string(in.remaining()) +
                                      " trailing bytes after the end-of-file trailer");
    return false;
  }
  return true;
}

/// Decodes a parsed full snapshot into `image`; delta files and non-payload
/// frames are refused.
bool assemble_image(const BinarySnapshotInfo& info, const std::vector<Frame>& frames,
                    SnapshotImage& image, support::DiagnosticSink& sink) {
  if (info.delta) {
    sink.error("binary-snapshot",
               "checkpoint " + std::to_string(info.seq) +
                   " is a delta (base " + std::to_string(info.base_seq) +
                   "); it cannot be restored without its chain");
    return false;
  }
  SnapshotImage out;
  bool kernel_seen = false;
  for (const Frame& frame : frames) {
    if (frame.entry_flags != kEntryPayload) {
      sink.error("binary-snapshot", "full snapshot contains a non-payload frame in " +
                                        describe(frame.kind, frame.name));
      return false;
    }
    // Duplicate named sections of one kind are structural corruption.
    for (const Frame* other = frames.data(); other != &frame; ++other) {
      if (other->kind == frame.kind && other->name == frame.name) {
        sink.error("binary-snapshot", "duplicate " + describe(frame.kind, frame.name) + " section");
        return false;
      }
    }
    kernel_seen = kernel_seen || frame.kind == SectionKind::kKernel;
    if (!decode_section(frame.kind, frame.name, frame.payload, out, sink)) return false;
  }
  if (!kernel_seen) {
    sink.error("binary-snapshot", "missing kernel section");
    return false;
  }
  image = std::move(out);
  return true;
}

/// Splices a recorder append frame onto the materialized payload in place,
/// and its entries onto the decoded `recorder`: the 12-byte head is
/// rewritten and the new entries appended, so a delta costs O(appended).
/// The size and total checks prove the spliced payload decodes, so it is
/// never decoded whole.
bool splice_recorder_append(std::string& payload, std::string_view append,
                            SnapshotImage::RecorderState& recorder,
                            support::DiagnosticSink& sink) {
  ByteReader base_in(payload);
  const std::uint64_t base_total = base_in.u64();
  const std::uint32_t base_count = base_in.u32();
  ByteReader append_in(append);
  const std::uint64_t new_total = append_in.u64();
  const std::uint32_t appended = append_in.u32();
  if (base_in.failed() || append_in.failed() ||
      base_in.remaining() != static_cast<std::size_t>(base_count) * kRecorderEntryBytes ||
      append_in.remaining() != static_cast<std::size_t>(appended) * kRecorderEntryBytes ||
      new_total < base_total || new_total - base_total != appended) {
    sink.error("binary-snapshot", "malformed recorder append frame");
    return false;
  }
  ByteWriter head;
  head.u64(new_total);
  head.u32(base_count + appended);
  payload.replace(0, kRecorderHeadBytes, head.buffer());
  payload.append(append.substr(kRecorderHeadBytes));
  // The append payload is itself a recorder payload (the new entries under
  // the new total), so decoding it onto `recorder` appends them.
  ByteReader tail(append);
  return decode(tail, recorder);
}

/// Applies one delta's frames onto the materialized sections and keeps
/// `image` decoded in step: a payload frame is copied into its section and
/// decode-checked as it lands.
bool apply_delta(std::vector<FlatSection>& sections, const std::vector<Frame>& frames,
                 SnapshotImage& image, support::DiagnosticSink& sink) {
  for (const Frame& frame : frames) {
    auto match = std::find_if(sections.begin(), sections.end(), [&](const FlatSection& section) {
      return section.kind == frame.kind && section.name == frame.name;
    });
    switch (frame.entry_flags) {
      case kEntryPayload:
        if (match == sections.end()) {
          match = sections.insert(match, FlatSection{frame.kind, std::string(frame.name), {}});
        }
        match->payload.assign(frame.payload);
        if (!decode_section(frame.kind, frame.name, match->payload, image, sink)) return false;
        break;
      case kEntryReference: {
        if (match == sections.end()) {
          sink.error("binary-snapshot", "delta references " + describe(frame.kind, frame.name) +
                                            " which is absent from the base");
          return false;
        }
        ByteReader expected_in(frame.payload);
        const std::uint64_t expected = expected_in.u64();
        const std::uint64_t computed = support::xxh64(match->payload);
        if (computed != expected) {
          sink.error("binary-snapshot",
                     "reference checksum mismatch in " + describe(frame.kind, frame.name) +
                         ": delta expects " + to_hex(expected) + ", base holds " +
                         to_hex(computed));
          return false;
        }
        break;
      }
      case kEntryRecorderAppend:
        if (frame.kind != SectionKind::kRecorder || match == sections.end()) {
          sink.error("binary-snapshot", "append frame on non-recorder section " +
                                            describe(frame.kind, frame.name));
          return false;
        }
        if (!splice_recorder_append(match->payload, frame.payload, *image.recorder, sink)) {
          return false;
        }
        break;
      default:
        sink.error("binary-snapshot", "unknown entry flags in delta");
        return false;
    }
  }
  return true;
}

std::uint64_t elapsed_ns(std::chrono::steady_clock::time_point since) {
  return static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                        std::chrono::steady_clock::now() - since)
                                        .count());
}

}  // namespace

std::string_view to_string(SectionKind kind) {
  switch (kind) {
    case SectionKind::kKernel: return "kernel";
    case SectionKind::kFaultPlan: return "fault-plan";
    case SectionKind::kRecorder: return "recorder";
    case SectionKind::kMachine: return "machine";
    case SectionKind::kBus: return "bus";
    case SectionKind::kWatchdog: return "watchdog";
    case SectionKind::kSupervisor: return "supervisor";
    case SectionKind::kBreaker: return "breaker";
    case SectionKind::kHealth: return "health";
    case SectionKind::kBank: return "bank";
  }
  return "?";
}

bool read_binary_info(std::string_view data, BinarySnapshotInfo& info,
                      support::DiagnosticSink& sink) {
  ByteReader in(data);
  return parse_header(in, data, info, sink);
}

std::string image_to_binary(const SnapshotImage& image) {
  return encode_full(0, flatten_image(image));
}

bool image_from_binary(std::string_view data, SnapshotImage& image,
                       support::DiagnosticSink& sink) {
  BinarySnapshotInfo info;
  std::vector<Frame> frames;
  return parse_file(data, info, frames, sink) && assemble_image(info, frames, image, sink);
}

bool image_from_binary_chain(const std::vector<std::string_view>& chain, SnapshotImage& image,
                             support::DiagnosticSink& sink, std::size_t* failed_rung) {
  std::size_t rung = 0;
  const auto fail = [&] {
    if (failed_rung != nullptr) *failed_rung = rung;
    return false;
  };
  if (chain.empty()) {
    sink.error("binary-snapshot", "empty checkpoint chain");
    return fail();
  }
  BinarySnapshotInfo info;
  std::vector<Frame> frames;
  SnapshotImage out;
  if (!parse_file(chain.front(), info, frames, sink) ||
      !assemble_image(info, frames, out, sink)) {
    return fail();
  }
  // The base's payloads are materialized (copied once) for the deltas'
  // reference checks and recorder splices.
  std::vector<FlatSection> sections;
  sections.reserve(frames.size());
  for (const Frame& frame : frames) {
    sections.push_back({frame.kind, std::string(frame.name), std::string(frame.payload)});
  }
  for (rung = 1; rung < chain.size(); ++rung) {
    const std::uint64_t previous_seq = info.seq;
    frames.clear();
    if (!parse_file(chain[rung], info, frames, sink)) return fail();
    if (!info.delta) {
      sink.error("binary-snapshot", "chain element #" + std::to_string(rung) +
                                        " is a full snapshot, expected a delta");
      return fail();
    }
    if (info.base_seq != previous_seq) {
      sink.error("binary-snapshot", "chain break: delta " + std::to_string(info.seq) +
                                        " expects base " + std::to_string(info.base_seq) +
                                        ", chain holds " + std::to_string(previous_seq));
      return fail();
    }
    if (!apply_delta(sections, frames, out, sink)) return fail();
  }
  image = std::move(out);
  return true;
}

bool save_snapshot_binary(const SnapshotTargets& targets, std::string& out,
                          support::DiagnosticSink& sink) {
  const auto started = std::chrono::steady_clock::now();
  SnapshotImage image;
  if (!capture_image(targets, image, sink)) return false;
  out = image_to_binary(image);
  const std::size_t sections = image.section_count();
  targets.kernel->note_snapshot_encode(out.size(), sections, sections, elapsed_ns(started));
  return true;
}

bool restore_snapshot_binary(const SnapshotTargets& targets, std::string_view data,
                             support::DiagnosticSink& sink) {
  if (targets.kernel == nullptr) {
    sink.error("snapshot", "no kernel target registered");
    return false;
  }
  const auto started = std::chrono::steady_clock::now();
  SnapshotImage image;
  if (!image_from_binary(data, image, sink)) return false;
  if (!apply_image(targets, image, sink)) return false;
  targets.kernel->note_snapshot_restore(elapsed_ns(started));
  return true;
}

bool IncrementalEncoder::encode(const SnapshotTargets& targets, bool force_full, Result& out,
                                support::DiagnosticSink& sink) {
  const auto started = std::chrono::steady_clock::now();
  SnapshotImage image;
  if (!capture_image(targets, image, sink)) return false;
  std::vector<FlatSection> sections = flatten_image(image);

  // Delta encoding only makes sense against an identically-shaped base.
  bool same_shape = !previous_.empty() && previous_.size() == sections.size();
  if (same_shape) {
    for (std::size_t i = 0; i < sections.size(); ++i) {
      if (previous_[i].kind != sections[i].kind || previous_[i].name != sections[i].name) {
        same_shape = false;
        break;
      }
    }
  }

  Result result;
  result.seq = next_seq_++;
  result.sections_total = sections.size();
  if (force_full || !same_shape) {
    result.delta = false;
    result.base_seq = 0;
    result.sections_dirty = sections.size();
    result.bytes = encode_full(result.seq, sections);
  } else {
    result.delta = true;
    result.base_seq = last_seq_;
    FileWriter file(kFlagDelta, result.seq, result.base_seq, sections);
    for (std::size_t i = 0; i < sections.size(); ++i) {
      const std::string_view previous = previous_[i].payload;
      const std::string_view current = sections[i].payload;
      bool appendable = false;
      if (sections[i].kind == SectionKind::kRecorder && current.size() > previous.size() &&
          previous.size() >= kRecorderHeadBytes &&
          current.substr(kRecorderHeadBytes, previous.size() - kRecorderHeadBytes) ==
              previous.substr(kRecorderHeadBytes)) {
        // The splice invariant the decoder checks: the total grew by exactly
        // the number of appended entries. A log replaced by restore_log or
        // begin_verify with a count other than its length breaks this.
        ByteReader previous_head(previous);
        ByteReader current_head(current);
        const std::uint64_t previous_total = previous_head.u64();
        const std::uint64_t current_total = current_head.u64();
        appendable = current_total >= previous_total &&
                     current_total - previous_total ==
                         (current.size() - previous.size()) / kRecorderEntryBytes;
      }
      if (current == previous) {
        // Reference frame: the payload is the expected hash of the base's
        // payload, so drift is caught when the chain is resolved.
        file.begin_frame(sections[i].kind, sections[i].name, kEntryReference)
            .u64(support::xxh64(current));
      } else if (appendable) {
        // The log only grew: ship just the new entries. (A log replaced
        // since the last rung breaks the prefix property or the count and
        // falls through to a full payload.)
        ByteWriter& append =
            file.begin_frame(sections[i].kind, sections[i].name, kEntryRecorderAppend);
        append.bytes(current.substr(0, kRecorderHeadBytes - 4));
        append.u32(static_cast<std::uint32_t>((current.size() - previous.size()) /
                                              kRecorderEntryBytes));
        append.bytes(current.substr(previous.size()));
        ++result.sections_dirty;
      } else {
        file.begin_frame(sections[i].kind, sections[i].name, kEntryPayload).bytes(current);
        ++result.sections_dirty;
      }
      file.end_frame();
    }
    result.bytes = file.finish();
  }

  previous_.clear();
  previous_.reserve(sections.size());
  for (FlatSection& section : sections) {
    previous_.push_back({section.kind, std::move(section.name), std::move(section.payload)});
  }
  last_seq_ = result.seq;
  targets.kernel->note_snapshot_encode(result.bytes.size(), result.sections_dirty,
                                       result.sections_total, elapsed_ns(started));
  out = std::move(result);
  return true;
}

}  // namespace umlsoc::replay
