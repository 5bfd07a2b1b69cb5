#include "replay/binary.hpp"

#include <algorithm>
#include <bit>
#include <chrono>
#include <cstring>

namespace umlsoc::replay {

namespace {

constexpr std::uint64_t kFnvOffset = 1469598103934665603ULL;
constexpr std::uint64_t kFnvPrime = 1099511628211ULL;
constexpr std::uint32_t kFlagDelta = 1u;

constexpr std::uint8_t kEntryPayload = 0;
constexpr std::uint8_t kEntryReference = 1;
constexpr std::uint8_t kEntryRecorderAppend = 2;

/// Fixed byte cost of one recorder log entry (u64 at_ps + u32 process).
constexpr std::size_t kRecorderEntryBytes = 12;
/// Recorder payload header: u64 total + u32 count.
constexpr std::size_t kRecorderHeadBytes = 12;

std::uint64_t fnv1a(std::string_view data, std::uint64_t hash = kFnvOffset) {
  for (unsigned char c : data) {
    hash ^= c;
    hash *= kFnvPrime;
  }
  return hash;
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

// --- primitive codecs (little-endian, memcpy) --------------------------------

class ByteWriter {
 public:
  void u8(std::uint8_t value) { buffer_.push_back(static_cast<char>(value)); }
  void u16(std::uint16_t value) { raw(&value, sizeof value); }
  void u32(std::uint32_t value) { raw(&value, sizeof value); }
  void u64(std::uint64_t value) { raw(&value, sizeof value); }
  void i64(std::int64_t value) { u64(std::bit_cast<std::uint64_t>(value)); }
  void boolean(bool value) { u8(value ? 1 : 0); }
  /// u32 length + bytes.
  void str(std::string_view value) {
    u32(static_cast<std::uint32_t>(value.size()));
    bytes(value);
  }
  void bytes(std::string_view value) { buffer_.append(value); }

  [[nodiscard]] std::string take() { return std::move(buffer_); }
  [[nodiscard]] const std::string& buffer() const { return buffer_; }

 private:
  void raw(const void* data, std::size_t size) {
    if constexpr (std::endian::native == std::endian::little) {
      buffer_.append(static_cast<const char*>(data), size);
    } else {
      const auto* first = static_cast<const unsigned char*>(data);
      for (std::size_t i = size; i-- > 0;) buffer_.push_back(static_cast<char>(first[i]));
    }
  }

  std::string buffer_;
};

/// Bounds-checked reader. The first overrun latches `failed()`; subsequent
/// reads return zero so decoders can run to completion and report once.
class ByteReader {
 public:
  explicit ByteReader(std::string_view data) : data_(data) {}

  std::uint8_t u8() {
    std::uint8_t value = 0;
    raw(&value, 1);
    return value;
  }
  std::uint16_t u16() {
    std::uint16_t value = 0;
    raw(&value, sizeof value);
    return value;
  }
  std::uint32_t u32() {
    std::uint32_t value = 0;
    raw(&value, sizeof value);
    return value;
  }
  std::uint64_t u64() {
    std::uint64_t value = 0;
    raw(&value, sizeof value);
    return value;
  }
  std::int64_t i64() { return std::bit_cast<std::int64_t>(u64()); }
  bool boolean() { return u8() != 0; }
  std::string str() {
    const std::uint32_t length = u32();
    return std::string(bytes(length));
  }
  std::string_view bytes(std::size_t size) {
    if (failed_ || data_.size() - position_ < size) {
      failed_ = true;
      return {};
    }
    const std::string_view view = data_.substr(position_, size);
    position_ += size;
    return view;
  }

  [[nodiscard]] bool failed() const { return failed_; }
  [[nodiscard]] std::size_t position() const { return position_; }
  [[nodiscard]] std::size_t remaining() const { return failed_ ? 0 : data_.size() - position_; }
  [[nodiscard]] bool exhausted() const { return !failed_ && position_ == data_.size(); }

 private:
  void raw(void* out, std::size_t size) {
    const std::string_view view = bytes(size);
    if (view.size() != size) return;
    if constexpr (std::endian::native == std::endian::little) {
      std::memcpy(out, view.data(), size);
    } else {
      auto* first = static_cast<unsigned char*>(out);
      for (std::size_t i = 0; i < size; ++i) {
        first[i] = static_cast<unsigned char>(view[size - 1 - i]);
      }
    }
  }

  std::string_view data_;
  std::size_t position_ = 0;
  bool failed_ = false;
};

// --- section payload codecs ---------------------------------------------------

std::string encode_kernel(const sim::Kernel::Checkpoint& checkpoint) {
  ByteWriter out;
  out.u64(checkpoint.now_ps);
  out.u64(checkpoint.sequence);
  out.u64(checkpoint.delta_count);
  out.u64(checkpoint.events_processed);
  out.u64(checkpoint.process_count);
  out.u32(static_cast<std::uint32_t>(checkpoint.timed.size()));
  for (const auto& timed : checkpoint.timed) {
    out.u64(timed.at_ps);
    out.u64(timed.sequence);
    out.u32(timed.process);
  }
  out.u32(static_cast<std::uint32_t>(checkpoint.expectations.size()));
  for (const auto& expectation : checkpoint.expectations) {
    out.str(expectation.label);
    out.u64(expectation.outstanding);
  }
  return out.take();
}

bool decode_kernel(ByteReader& in, sim::Kernel::Checkpoint& out) {
  out.now_ps = in.u64();
  out.sequence = in.u64();
  out.delta_count = in.u64();
  out.events_processed = in.u64();
  out.process_count = in.u64();
  const std::uint32_t timed_count = in.u32();
  for (std::uint32_t i = 0; i < timed_count && !in.failed(); ++i) {
    sim::Kernel::Checkpoint::PendingTimed timed;
    timed.at_ps = in.u64();
    timed.sequence = in.u64();
    timed.process = in.u32();
    out.timed.push_back(timed);
  }
  const std::uint32_t expectation_count = in.u32();
  for (std::uint32_t i = 0; i < expectation_count && !in.failed(); ++i) {
    sim::Kernel::Checkpoint::ExpectationEntry entry;
    entry.label = in.str();
    entry.outstanding = in.u64();
    out.expectations.push_back(std::move(entry));
  }
  return !in.failed();
}

std::string encode_fault_plan(const SnapshotImage::FaultPlanState& plan) {
  ByteWriter out;
  out.u64(plan.seed);
  out.u32(static_cast<std::uint32_t>(plan.sites.size()));
  for (const auto& [site, state] : plan.sites) {
    out.u8(static_cast<std::uint8_t>(site));
    out.u64(state.rng_state);
    out.u64(state.counters.consults);
    out.u64(state.counters.errors);
    out.u64(state.counters.drops);
    out.u64(state.counters.delays);
    out.u64(state.counters.bit_flips);
    out.u64(state.counters.glitches);
  }
  return out.take();
}

bool decode_fault_plan(ByteReader& in, SnapshotImage::FaultPlanState& out) {
  out.seed = in.u64();
  const std::uint32_t site_count = in.u32();
  for (std::uint32_t i = 0; i < site_count && !in.failed(); ++i) {
    const std::uint8_t raw = in.u8();
    if (raw >= sim::kFaultSiteCount) return false;
    sim::FaultPlan::SiteState state;
    state.rng_state = in.u64();
    state.counters.consults = in.u64();
    state.counters.errors = in.u64();
    state.counters.drops = in.u64();
    state.counters.delays = in.u64();
    state.counters.bit_flips = in.u64();
    state.counters.glitches = in.u64();
    out.sites.emplace_back(static_cast<sim::FaultSite>(raw), state);
  }
  return !in.failed();
}

std::string encode_recorder(const SnapshotImage::RecorderState& recorder) {
  ByteWriter out;
  out.u64(recorder.total);
  out.u32(static_cast<std::uint32_t>(recorder.events.size()));
  for (const sim::RecordedEvent& event : recorder.events) {
    out.u64(event.at_ps);
    out.u32(event.process);
  }
  return out.take();
}

bool decode_recorder(ByteReader& in, SnapshotImage::RecorderState& out) {
  out.total = in.u64();
  const std::uint32_t count = in.u32();
  for (std::uint32_t i = 0; i < count && !in.failed(); ++i) {
    sim::RecordedEvent event;
    event.at_ps = in.u64();
    event.process = in.u32();
    out.events.push_back(event);
  }
  if (!in.failed() && out.events.size() > out.total) return false;
  return !in.failed();
}

void encode_event_records(ByteWriter& out,
                          const std::vector<statechart::InstanceSnapshot::EventRecord>& records) {
  out.u32(static_cast<std::uint32_t>(records.size()));
  for (const auto& record : records) {
    out.str(record.name);
    out.i64(record.data);
    out.str(record.tag);
  }
}

bool decode_event_records(ByteReader& in,
                          std::vector<statechart::InstanceSnapshot::EventRecord>& out) {
  const std::uint32_t count = in.u32();
  for (std::uint32_t i = 0; i < count && !in.failed(); ++i) {
    statechart::InstanceSnapshot::EventRecord record;
    record.name = in.str();
    record.data = in.i64();
    record.tag = in.str();
    out.push_back(std::move(record));
  }
  return !in.failed();
}

std::string encode_machine(const statechart::InstanceSnapshot& snapshot) {
  ByteWriter out;
  out.boolean(snapshot.started);
  out.boolean(snapshot.terminated);
  out.u64(snapshot.events_processed);
  out.u64(snapshot.transitions_fired);
  out.u64(snapshot.errors_raised);
  out.u64(snapshot.errors_unhandled);
  out.u32(static_cast<std::uint32_t>(snapshot.active_states.size()));
  for (std::uint32_t index : snapshot.active_states) out.u32(index);
  out.u32(static_cast<std::uint32_t>(snapshot.active_finals.size()));
  for (std::uint32_t index : snapshot.active_finals) out.u32(index);
  out.u32(static_cast<std::uint32_t>(snapshot.shallow_history.size()));
  for (const auto& [region, state] : snapshot.shallow_history) {
    out.u32(region);
    out.u32(state);
  }
  out.u32(static_cast<std::uint32_t>(snapshot.deep_history.size()));
  for (const auto& [region, leaves] : snapshot.deep_history) {
    out.u32(region);
    out.u32(static_cast<std::uint32_t>(leaves.size()));
    for (std::uint32_t leaf : leaves) out.u32(leaf);
  }
  out.u32(static_cast<std::uint32_t>(snapshot.variables.size()));
  for (const auto& [name, value] : snapshot.variables) {
    out.str(name);
    out.i64(value);
  }
  encode_event_records(out, snapshot.queue);
  encode_event_records(out, snapshot.deferred);
  return out.take();
}

bool decode_machine(ByteReader& in, statechart::InstanceSnapshot& out) {
  out.started = in.boolean();
  out.terminated = in.boolean();
  out.events_processed = in.u64();
  out.transitions_fired = in.u64();
  out.errors_raised = in.u64();
  out.errors_unhandled = in.u64();
  const std::uint32_t state_count = in.u32();
  for (std::uint32_t i = 0; i < state_count && !in.failed(); ++i) {
    out.active_states.push_back(in.u32());
  }
  const std::uint32_t final_count = in.u32();
  for (std::uint32_t i = 0; i < final_count && !in.failed(); ++i) {
    out.active_finals.push_back(in.u32());
  }
  const std::uint32_t shallow_count = in.u32();
  for (std::uint32_t i = 0; i < shallow_count && !in.failed(); ++i) {
    const std::uint32_t region = in.u32();
    out.shallow_history.emplace_back(region, in.u32());
  }
  const std::uint32_t deep_count = in.u32();
  for (std::uint32_t i = 0; i < deep_count && !in.failed(); ++i) {
    const std::uint32_t region = in.u32();
    std::vector<std::uint32_t> leaves;
    const std::uint32_t leaf_count = in.u32();
    for (std::uint32_t j = 0; j < leaf_count && !in.failed(); ++j) leaves.push_back(in.u32());
    out.deep_history.emplace_back(region, std::move(leaves));
  }
  const std::uint32_t variable_count = in.u32();
  for (std::uint32_t i = 0; i < variable_count && !in.failed(); ++i) {
    std::string name = in.str();
    out.variables.emplace_back(std::move(name), in.i64());
  }
  if (!decode_event_records(in, out.queue)) return false;
  if (!decode_event_records(in, out.deferred)) return false;
  return !in.failed();
}

std::string encode_bus(const sim::MemoryMappedBus::Checkpoint& checkpoint) {
  ByteWriter out;
  out.u64(checkpoint.stats.reads);
  out.u64(checkpoint.stats.writes);
  out.u64(checkpoint.stats.errors);
  out.u64(checkpoint.stats.injected_errors);
  out.u64(checkpoint.stats.injected_drops);
  out.u64(checkpoint.stats.injected_delays);
  out.u64(checkpoint.stats.injected_bit_flips);
  out.u64(checkpoint.stats.completions);
  out.u64(checkpoint.stats.dropped_completions);
  out.u64(checkpoint.last_completion_ps);
  return out.take();
}

bool decode_bus(ByteReader& in, sim::MemoryMappedBus::Checkpoint& out) {
  out.stats.reads = in.u64();
  out.stats.writes = in.u64();
  out.stats.errors = in.u64();
  out.stats.injected_errors = in.u64();
  out.stats.injected_drops = in.u64();
  out.stats.injected_delays = in.u64();
  out.stats.injected_bit_flips = in.u64();
  out.stats.completions = in.u64();
  out.stats.dropped_completions = in.u64();
  out.last_completion_ps = in.u64();
  return !in.failed();
}

std::string encode_watchdog(const sim::Watchdog::Checkpoint& checkpoint) {
  ByteWriter out;
  out.boolean(checkpoint.armed);
  out.boolean(checkpoint.tripped);
  out.boolean(checkpoint.check_pending);
  out.u64(checkpoint.trip_at_ps);
  out.u64(checkpoint.trips);
  out.u64(checkpoint.kicks);
  return out.take();
}

bool decode_watchdog(ByteReader& in, sim::Watchdog::Checkpoint& out) {
  out.armed = in.boolean();
  out.tripped = in.boolean();
  out.check_pending = in.boolean();
  out.trip_at_ps = in.u64();
  out.trips = in.u64();
  out.kicks = in.u64();
  return !in.failed();
}

std::string encode_supervisor(const sim::Supervisor::Checkpoint& checkpoint) {
  ByteWriter out;
  out.boolean(checkpoint.suspended);
  out.boolean(checkpoint.gave_up);
  out.str(checkpoint.give_up_reason);
  out.u64(checkpoint.escalations);
  out.u32(static_cast<std::uint32_t>(checkpoint.window.size()));
  for (std::uint64_t at_ps : checkpoint.window) out.u64(at_ps);
  out.u32(static_cast<std::uint32_t>(checkpoint.children.size()));
  for (const auto& child : checkpoint.children) {
    out.u64(child.failures);
    out.u64(child.restarts);
    out.u64(child.failed_restarts);
    out.u32(child.consecutive);
    out.u64(child.last_failure_ps);
  }
  out.u32(static_cast<std::uint32_t>(checkpoint.pending.size()));
  for (const auto& pending : checkpoint.pending) {
    out.u64(pending.due_ps);
    out.u32(pending.child);
  }
  return out.take();
}

bool decode_supervisor(ByteReader& in, sim::Supervisor::Checkpoint& out) {
  out.suspended = in.boolean();
  out.gave_up = in.boolean();
  out.give_up_reason = in.str();
  out.escalations = in.u64();
  const std::uint32_t window_count = in.u32();
  for (std::uint32_t i = 0; i < window_count && !in.failed(); ++i) out.window.push_back(in.u64());
  const std::uint32_t child_count = in.u32();
  for (std::uint32_t i = 0; i < child_count && !in.failed(); ++i) {
    sim::Supervisor::Checkpoint::ChildState child;
    child.failures = in.u64();
    child.restarts = in.u64();
    child.failed_restarts = in.u64();
    child.consecutive = in.u32();
    child.last_failure_ps = in.u64();
    out.children.push_back(child);
  }
  const std::uint32_t pending_count = in.u32();
  for (std::uint32_t i = 0; i < pending_count && !in.failed(); ++i) {
    sim::Supervisor::Checkpoint::PendingRestart pending;
    pending.due_ps = in.u64();
    pending.child = in.u32();
    out.pending.push_back(pending);
  }
  return !in.failed();
}

std::string encode_breaker(const sim::CircuitBreaker::Checkpoint& checkpoint) {
  ByteWriter out;
  out.u8(checkpoint.state);
  out.u64(checkpoint.outcomes);
  out.u32(checkpoint.cursor);
  out.u32(checkpoint.samples);
  out.u32(checkpoint.failures_in_window);
  out.u64(checkpoint.open_duration_ps);
  out.u64(checkpoint.reopen_at_ps);
  out.boolean(checkpoint.timer_pending);
  out.boolean(checkpoint.probe_in_flight);
  out.u64(checkpoint.stats.issued);
  out.u64(checkpoint.stats.ok);
  out.u64(checkpoint.stats.failures);
  out.u64(checkpoint.stats.fast_failed);
  out.u64(checkpoint.stats.opens);
  out.u64(checkpoint.stats.closes);
  out.u64(checkpoint.stats.probes);
  out.u64(checkpoint.stats.probe_failures);
  return out.take();
}

bool decode_breaker(ByteReader& in, sim::CircuitBreaker::Checkpoint& out) {
  out.state = in.u8();
  out.outcomes = in.u64();
  out.cursor = in.u32();
  out.samples = in.u32();
  out.failures_in_window = in.u32();
  out.open_duration_ps = in.u64();
  out.reopen_at_ps = in.u64();
  out.timer_pending = in.boolean();
  out.probe_in_flight = in.boolean();
  out.stats.issued = in.u64();
  out.stats.ok = in.u64();
  out.stats.failures = in.u64();
  out.stats.fast_failed = in.u64();
  out.stats.opens = in.u64();
  out.stats.closes = in.u64();
  out.stats.probes = in.u64();
  out.stats.probe_failures = in.u64();
  return !in.failed();
}

std::string encode_health(const sim::HealthRegistry::Checkpoint& checkpoint) {
  ByteWriter out;
  out.u64(checkpoint.transitions);
  out.u32(static_cast<std::uint32_t>(checkpoint.health.size()));
  for (std::uint8_t value : checkpoint.health) out.u8(value);
  return out.take();
}

bool decode_health(ByteReader& in, sim::HealthRegistry::Checkpoint& out) {
  out.transitions = in.u64();
  const std::uint32_t unit_count = in.u32();
  for (std::uint32_t i = 0; i < unit_count && !in.failed(); ++i) out.health.push_back(in.u8());
  return !in.failed();
}

std::string encode_bank(const std::vector<std::pair<std::string, std::uint64_t>>& values) {
  ByteWriter out;
  out.u32(static_cast<std::uint32_t>(values.size()));
  for (const auto& [key, value] : values) {
    out.str(key);
    out.u64(value);
  }
  return out.take();
}

bool decode_bank(ByteReader& in, std::vector<std::pair<std::string, std::uint64_t>>& out) {
  const std::uint32_t count = in.u32();
  for (std::uint32_t i = 0; i < count && !in.failed(); ++i) {
    std::string key = in.str();
    out.emplace_back(std::move(key), in.u64());
  }
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
  sections.push_back({SectionKind::kKernel, "", encode_kernel(image.kernel)});
  if (image.fault_plan) {
    sections.push_back({SectionKind::kFaultPlan, "", encode_fault_plan(*image.fault_plan)});
  }
  if (image.recorder) {
    sections.push_back({SectionKind::kRecorder, "", encode_recorder(*image.recorder)});
  }
  for (const auto& entry : image.machines) {
    sections.push_back({SectionKind::kMachine, entry.name, encode_machine(entry.state)});
  }
  for (const auto& entry : image.buses) {
    sections.push_back({SectionKind::kBus, entry.name, encode_bus(entry.state)});
  }
  for (const auto& entry : image.watchdogs) {
    sections.push_back({SectionKind::kWatchdog, entry.name, encode_watchdog(entry.state)});
  }
  for (const auto& entry : image.supervisors) {
    sections.push_back({SectionKind::kSupervisor, entry.name, encode_supervisor(entry.state)});
  }
  for (const auto& entry : image.breakers) {
    sections.push_back({SectionKind::kBreaker, entry.name, encode_breaker(entry.state)});
  }
  for (const auto& entry : image.health) {
    sections.push_back({SectionKind::kHealth, entry.name, encode_health(entry.state)});
  }
  for (const auto& entry : image.banks) {
    sections.push_back({SectionKind::kBank, entry.name, encode_bank(entry.state)});
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
T& fresh_entry(std::vector<SnapshotImage::Named<T>>& entries, const std::string& name) {
  for (auto& entry : entries) {
    if (entry.name == name) return entry.state = T{};
  }
  entries.push_back({name, T{}});
  return entries.back().state;
}

/// Decodes one section's payload into `image`, replacing the entry of the
/// same kind and name. A failed decode leaves that entry partly written.
bool decode_section(const FlatSection& section, SnapshotImage& image,
                    support::DiagnosticSink& sink) {
  ByteReader in(section.payload);
  bool ok = false;
  switch (section.kind) {
    case SectionKind::kKernel:
      image.kernel = {};
      ok = decode_kernel(in, image.kernel);
      break;
    case SectionKind::kFaultPlan:
      ok = decode_fault_plan(in, image.fault_plan.emplace());
      break;
    case SectionKind::kRecorder:
      ok = decode_recorder(in, image.recorder.emplace());
      break;
    case SectionKind::kMachine:
      ok = decode_machine(in, fresh_entry(image.machines, section.name));
      break;
    case SectionKind::kBus:
      ok = decode_bus(in, fresh_entry(image.buses, section.name));
      break;
    case SectionKind::kWatchdog:
      ok = decode_watchdog(in, fresh_entry(image.watchdogs, section.name));
      break;
    case SectionKind::kSupervisor:
      ok = decode_supervisor(in, fresh_entry(image.supervisors, section.name));
      break;
    case SectionKind::kBreaker:
      ok = decode_breaker(in, fresh_entry(image.breakers, section.name));
      break;
    case SectionKind::kHealth:
      ok = decode_health(in, fresh_entry(image.health, section.name));
      break;
    case SectionKind::kBank:
      ok = decode_bank(in, fresh_entry(image.banks, section.name));
      break;
  }
  if (!ok || !in.exhausted()) {
    sink.error("binary-snapshot", "malformed payload in " + describe(section.kind, section.name) +
                                      (ok ? " (trailing bytes)" : ""));
    return false;
  }
  return true;
}

bool assemble_image(const std::vector<FlatSection>& sections, SnapshotImage& image,
                    support::DiagnosticSink& sink) {
  SnapshotImage out;
  bool kernel_seen = false;
  for (const FlatSection& section : sections) {
    // Duplicate named sections of one kind are structural corruption.
    for (const FlatSection* other = sections.data(); other != &section; ++other) {
      if (other->kind == section.kind && other->name == section.name) {
        sink.error("binary-snapshot",
                   "duplicate " + describe(section.kind, section.name) + " section");
        return false;
      }
    }
    kernel_seen = kernel_seen || section.kind == SectionKind::kKernel;
    if (!decode_section(section, out, sink)) return false;
  }
  if (!kernel_seen) {
    sink.error("binary-snapshot", "missing kernel section");
    return false;
  }
  image = std::move(out);
  return true;
}

// --- file framing ------------------------------------------------------------

struct FrameEntry {
  SectionKind kind = SectionKind::kKernel;
  std::string name;
  std::uint8_t entry_flags = kEntryPayload;
  /// Stored frame payload. For reference frames this is the 8-byte expected
  /// FNV of the *resolved* payload from the base, so a drifted base is
  /// caught at resolve time while the frame checksum still guards the
  /// reference frame's own bytes.
  std::string payload;
};

std::string encode_file(std::uint32_t flags, std::uint64_t seq, std::uint64_t base_seq,
                        const std::vector<FrameEntry>& entries) {
  ByteWriter out;
  out.bytes(kBinaryMagic);
  out.u32(static_cast<std::uint32_t>(kSnapshotVersion));
  out.u32(flags);
  out.u64(seq);
  out.u64(base_seq);
  out.u32(static_cast<std::uint32_t>(entries.size()));
  out.u64(fnv1a(out.buffer()));
  for (const FrameEntry& entry : entries) {
    // The frame checksum covers the frame metadata AND the payload, so a
    // bit-flip anywhere in the frame — kind, name, flags, lengths, payload
    // — fails this section's validation, not some later decode step.
    ByteWriter meta;
    meta.u8(static_cast<std::uint8_t>(entry.kind));
    meta.u16(static_cast<std::uint16_t>(entry.name.size()));
    meta.bytes(entry.name);
    meta.u8(entry.entry_flags);
    meta.u32(static_cast<std::uint32_t>(entry.payload.size()));
    out.bytes(meta.buffer());
    out.u64(fnv1a(entry.payload, fnv1a(meta.buffer())));
    out.bytes(entry.payload);
  }
  out.bytes(kBinaryTrailer);
  return out.take();
}

std::vector<FrameEntry> payload_frames(const std::vector<FlatSection>& sections) {
  std::vector<FrameEntry> entries;
  entries.reserve(sections.size());
  for (const FlatSection& section : sections) {
    entries.push_back({section.kind, section.name, kEntryPayload, section.payload});
  }
  return entries;
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
  const std::uint64_t computed = fnv1a(data.substr(0, hashed));
  if (stored != computed) {
    sink.error("binary-snapshot", "header checksum mismatch: stored " + to_hex(stored) +
                                      ", computed " + to_hex(computed));
    return false;
  }
  return true;
}

/// Full framing parse: header, every section frame (bounds + frame
/// checksums covering metadata and payload), trailer, exact length.
bool parse_file(std::string_view data, BinarySnapshotInfo& info,
                std::vector<FrameEntry>& entries, support::DiagnosticSink& sink) {
  ByteReader in(data);
  if (!parse_header(in, data, info, sink)) return false;
  for (std::uint32_t i = 0; i < info.section_count; ++i) {
    const std::size_t offset = in.position();
    FrameEntry entry;
    const std::uint8_t kind = in.u8();
    const std::uint16_t name_length = in.u16();
    entry.name = std::string(in.bytes(name_length));
    entry.entry_flags = in.u8();
    const std::uint32_t payload_length = in.u32();
    const std::size_t meta_end = in.position();
    const std::uint64_t stored = in.u64();
    entry.payload = std::string(in.bytes(payload_length));
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
    entry.kind = static_cast<SectionKind>(kind);
    if (entry.entry_flags > kEntryRecorderAppend) {
      sink.error("binary-snapshot",
                 "unknown entry flags " + std::to_string(entry.entry_flags) + " in " +
                     describe(entry.kind, entry.name) + " at offset " +
                     std::to_string(offset));
      return false;
    }
    const std::uint64_t computed =
        fnv1a(entry.payload, fnv1a(data.substr(offset, meta_end - offset)));
    if (computed != stored) {
      sink.error("binary-snapshot", "section checksum mismatch in " +
                                        describe(entry.kind, entry.name) + " at offset " +
                                        std::to_string(offset) + ": stored " +
                                        to_hex(stored) + ", computed " + to_hex(computed));
      return false;
    }
    if (entry.entry_flags == kEntryReference && payload_length != sizeof(std::uint64_t)) {
      sink.error("binary-snapshot", "malformed reference frame in " +
                                        describe(entry.kind, entry.name) + " at offset " +
                                        std::to_string(offset));
      return false;
    }
    entries.push_back(std::move(entry));
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
  return decode_recorder(tail, recorder);
}

/// Materializes a full section list from a parsed full-snapshot frame list.
bool resolve_full(const BinarySnapshotInfo& info, std::vector<FrameEntry>& entries,
                  std::vector<FlatSection>& sections, support::DiagnosticSink& sink) {
  if (info.delta) {
    sink.error("binary-snapshot",
               "checkpoint " + std::to_string(info.seq) +
                   " is a delta (base " + std::to_string(info.base_seq) +
                   "); it cannot be restored without its chain");
    return false;
  }
  sections.clear();
  sections.reserve(entries.size());
  for (FrameEntry& entry : entries) {
    if (entry.entry_flags != kEntryPayload) {
      sink.error("binary-snapshot", "full snapshot contains a non-payload frame in " +
                                        describe(entry.kind, entry.name));
      return false;
    }
    sections.push_back({entry.kind, std::move(entry.name), std::move(entry.payload)});
  }
  return true;
}

/// Applies one delta's frames onto the materialized sections and keeps
/// `image` decoded in step: a payload frame is decode-checked as it lands.
bool apply_delta(std::vector<FlatSection>& sections, std::vector<FrameEntry>& entries,
                 SnapshotImage& image, support::DiagnosticSink& sink) {
  for (FrameEntry& entry : entries) {
    auto match = std::find_if(sections.begin(), sections.end(), [&](const FlatSection& section) {
      return section.kind == entry.kind && section.name == entry.name;
    });
    switch (entry.entry_flags) {
      case kEntryPayload:
        if (match == sections.end()) {
          match = sections.insert(match, FlatSection{entry.kind, std::move(entry.name), {}});
        }
        match->payload = std::move(entry.payload);
        if (!decode_section(*match, image, sink)) return false;
        break;
      case kEntryReference: {
        if (match == sections.end()) {
          sink.error("binary-snapshot", "delta references " + describe(entry.kind, entry.name) +
                                            " which is absent from the base");
          return false;
        }
        ByteReader expected_in(entry.payload);
        const std::uint64_t expected = expected_in.u64();
        const std::uint64_t computed = fnv1a(match->payload);
        if (computed != expected) {
          sink.error("binary-snapshot",
                     "reference checksum mismatch in " + describe(entry.kind, entry.name) +
                         ": delta expects " + to_hex(expected) + ", base holds " +
                         to_hex(computed));
          return false;
        }
        break;
      }
      case kEntryRecorderAppend:
        if (entry.kind != SectionKind::kRecorder || match == sections.end()) {
          sink.error("binary-snapshot", "append frame on non-recorder section " +
                                            describe(entry.kind, entry.name));
          return false;
        }
        if (!splice_recorder_append(match->payload, entry.payload, *image.recorder, sink)) {
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
  return encode_file(0, 0, 0, payload_frames(flatten_image(image)));
}

bool image_from_binary(std::string_view data, SnapshotImage& image,
                       support::DiagnosticSink& sink) {
  BinarySnapshotInfo info;
  std::vector<FrameEntry> entries;
  if (!parse_file(data, info, entries, sink)) return false;
  std::vector<FlatSection> sections;
  if (!resolve_full(info, entries, sections, sink)) return false;
  return assemble_image(sections, image, sink);
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
  std::vector<FrameEntry> entries;
  std::vector<FlatSection> sections;
  SnapshotImage out;
  if (!parse_file(chain.front(), info, entries, sink) ||
      !resolve_full(info, entries, sections, sink) || !assemble_image(sections, out, sink)) {
    return fail();
  }
  for (rung = 1; rung < chain.size(); ++rung) {
    const std::uint64_t previous_seq = info.seq;
    entries.clear();
    if (!parse_file(chain[rung], info, entries, sink)) return fail();
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
    if (!apply_delta(sections, entries, out, sink)) return fail();
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
    result.bytes = encode_file(0, result.seq, 0, payload_frames(sections));
  } else {
    result.delta = true;
    result.base_seq = last_seq_;
    std::vector<FrameEntry> entries;
    entries.reserve(sections.size());
    for (std::size_t i = 0; i < sections.size(); ++i) {
      const std::string& previous = previous_[i].payload;
      const std::string& current = sections[i].payload;
      FrameEntry entry;
      entry.kind = sections[i].kind;
      entry.name = sections[i].name;
      bool appendable = false;
      if (sections[i].kind == SectionKind::kRecorder && current.size() > previous.size() &&
          previous.size() >= kRecorderHeadBytes &&
          current.compare(kRecorderHeadBytes, previous.size() - kRecorderHeadBytes, previous,
                          kRecorderHeadBytes, previous.size() - kRecorderHeadBytes) == 0) {
        // The splice invariant the decoder checks: the total grew by exactly
        // the number of appended entries (a ring drop breaks this).
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
        ByteWriter expected;
        expected.u64(fnv1a(current));
        entry.entry_flags = kEntryReference;
        entry.payload = expected.take();
      } else if (appendable) {
        // The log only grew: ship just the new entries. (A ring wraparound
        // breaks the prefix property and falls through to a full payload.)
        ByteWriter append;
        append.bytes(std::string_view(current).substr(0, kRecorderHeadBytes - 4));
        append.u32(static_cast<std::uint32_t>((current.size() - previous.size()) /
                                              kRecorderEntryBytes));
        append.bytes(std::string_view(current).substr(previous.size()));
        entry.entry_flags = kEntryRecorderAppend;
        entry.payload = append.take();
        ++result.sections_dirty;
      } else {
        entry.entry_flags = kEntryPayload;
        entry.payload = current;
        ++result.sections_dirty;
      }
      entries.push_back(std::move(entry));
    }
    result.bytes = encode_file(kFlagDelta, result.seq, result.base_seq, entries);
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
