// Binary checkpointing tests: round trips on a rig that exercises every
// section kind, a mutation-fuzz corpus for the binary decoder (truncation,
// bit-flips, replaced/erased/inserted bytes, duplicated sections, version
// skew), incremental delta chains, and the CheckpointStore recovery ladder
// over one append-only file per chain (a corrupt, version-skewed or missing
// rung cut off its chain, a bad base's file set aside, write faults
// injected through FaultSite::kCheckpoint, a store reusing its last decode
// only while the chain reads back byte-identical, and the one chain file
// descriptor it holds: reused only for the inode it was opened on, never
// left on a set-aside or pruned file).
#include <gtest/gtest.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "replay/binary.hpp"
#include "replay/snapshot.hpp"
#include "replay/store.hpp"
#include "sim/bus.hpp"
#include "sim/fault.hpp"
#include "sim/kernel.hpp"
#include "sim/replay.hpp"
#include "sim/supervise.hpp"
#include "statechart/interpreter.hpp"
#include "statechart/model.hpp"
#include "support/checksum.hpp"
#include "support/rng.hpp"

namespace umlsoc::replay {
namespace {

using sim::SimTime;

std::unique_ptr<statechart::StateMachine> make_machine() {
  auto machine = std::make_unique<statechart::StateMachine>("Rig");
  statechart::Region& top = machine->top();
  statechart::State& idle = top.add_state("Idle");
  statechart::State& busy = top.add_state("Busy");
  top.add_transition(top.add_initial(), idle);
  top.add_transition(idle, busy).set_trigger("go");
  top.add_transition(busy, idle).set_trigger("done");
  return machine;
}

/// A deterministic mini-SoC covering every snapshot section kind: kernel,
/// fault plan, recorder, statechart, bus, watchdog, supervisor (with a
/// restart pending mid-run), circuit breaker (driving bus writes), health
/// registry and a value bank. Constructed identically every time.
struct FullRig {
  static constexpr int kTicks = 40;
  static constexpr std::uint64_t kTickPs = 10000;  // 10ns.

  sim::Kernel kernel;
  sim::MemoryMappedBus bus;
  sim::FaultPlan plan;
  statechart::StateMachineInstance instance;
  sim::Watchdog watchdog;
  sim::EventRecorder recorder;
  sim::BusMasterPort port;
  sim::CircuitBreaker breaker;
  sim::Supervisor supervisor;
  sim::HealthRegistry health;
  std::array<std::uint64_t, 8> memory{};
  sim::ProcessId ticker = sim::kInvalidProcess;
  sim::Supervisor::ChildId dma_child = 0;
  sim::HealthRegistry::UnitId dma_unit = sim::HealthRegistry::kInvalidUnit;
  int ticks = 0;
  int child_restarts = 0;
  std::uint64_t read_sum = 0;

  explicit FullRig(const statechart::StateMachine& machine)
      : bus(kernel, "mem", SimTime::ns(4)),
        plan(/*seed=*/7),
        instance(machine),
        watchdog(kernel, "rig", SimTime::us(1)),
        port(kernel, bus, "port"),
        breaker(kernel, port, "dma", breaker_config()),
        supervisor(kernel, "soc", sim::RestartStrategy::kOneForOne, restart_policy()) {
    for (std::size_t i = 0; i < memory.size(); ++i) memory[i] = 0x100 + i;
    bus.map_device(
        "ram", 0x0, memory.size() * 8,
        [this](std::uint64_t address) { return memory[address / 8]; },
        [this](std::uint64_t address, std::uint64_t value) { memory[address / 8] = value; });
    sim::FaultPlan::SiteConfig config;
    config.error_rate = 0.3;    // Timing-neutral faults only: completions
    config.bit_flip_rate = 0.2; // always land exactly one latency later.
    plan.configure(sim::FaultSite::kBusRead, config);
    bus.install_fault_plan(&plan);
    dma_unit = health.register_unit("dma");
    breaker.bind_health(&health, dma_unit);
    dma_child = supervisor.add_child("dma", [this] {
      ++child_restarts;
      return true;
    });
    instance.set_trace_enabled(false);
    instance.start();
    ticker = kernel.register_process([this] { tick(); }, "rig.ticker");
    kernel.set_recorder(&recorder);
    watchdog.arm();
    kernel.schedule(SimTime(kTickPs), ticker);
  }

  static sim::CircuitBreaker::Config breaker_config() {
    sim::CircuitBreaker::Config config;
    config.window = 4;
    config.min_samples = 2;
    config.failure_threshold = 0.5;
    config.open_duration = SimTime::ns(100);
    config.reopen_multiplier = 2;
    config.max_open_duration = SimTime::ns(300);
    return config;
  }

  static sim::RestartPolicy restart_policy() {
    sim::RestartPolicy policy;
    policy.backoff = SimTime::ns(100);
    policy.backoff_multiplier = 2;
    policy.max_backoff = SimTime::ns(350);
    policy.max_restarts = 3;
    policy.window = SimTime::us(50);
    return policy;
  }

  void tick() {
    ++ticks;
    watchdog.kick();
    bus.read((static_cast<std::uint64_t>(ticks) % memory.size()) * 8,
             sim::MemoryMappedBus::ReadCompletion(
                 [this](sim::BusStatus, std::uint64_t value) { read_sum += value; }));
    if (ticks % 2 == 1) {
      instance.dispatch(statechart::Event{"go", ticks});
    } else {
      instance.dispatch(statechart::Event{"done", ticks});
    }
    if (ticks == 1) {
      // A breaker-mediated write and a child failure whose restart stays
      // pending (due at 110ns) across every mid-run checkpoint instant.
      breaker.write(5 * 8, 0xAB, nullptr);
      supervisor.report_failure(dma_child, "tick-1 crash");
    }
    if (ticks == 3) breaker.write(6 * 8, 0xCD, nullptr);
    if (ticks == 2) instance.post(statechart::Event{"pending", 99, "tagged"});
    if (ticks < kTicks) kernel.schedule(SimTime(kTickPs), ticker);
  }

  void run(std::uint64_t end_ps = 0) {
    if (end_ps == 0) {
      kernel.run();
      watchdog.disarm();
    } else {
      kernel.run(SimTime(end_ps));
    }
  }

  [[nodiscard]] SnapshotTargets targets() {
    SnapshotTargets out;
    out.kernel = &kernel;
    out.fault_plan = &plan;
    out.recorder = &recorder;
    out.machines.push_back({"rig", &instance});
    out.buses.push_back({"mem", &bus});
    out.watchdogs.push_back({"rig", &watchdog});
    out.supervisors.push_back({"soc", &supervisor});
    out.breakers.push_back({"dma", &breaker});
    out.health.push_back({"health", &health});
    out.banks.push_back(
        {"memory",
         [this] {
           std::vector<std::pair<std::string, std::uint64_t>> values;
           for (std::size_t i = 0; i < memory.size(); ++i) {
             values.emplace_back("w" + std::to_string(i), memory[i]);
           }
           values.emplace_back("ticks", static_cast<std::uint64_t>(ticks));
           values.emplace_back("restarts", static_cast<std::uint64_t>(child_restarts));
           values.emplace_back("read-sum", read_sum);
           return values;
         },
         [this](const std::vector<std::pair<std::string, std::uint64_t>>& values,
                support::DiagnosticSink& sink) {
           for (const auto& [key, value] : values) {
             if (key == "ticks") {
               ticks = static_cast<int>(value);
             } else if (key == "restarts") {
               child_restarts = static_cast<int>(value);
             } else if (key == "read-sum") {
               read_sum = value;
             } else if (key.size() > 1 && key[0] == 'w') {
               memory[static_cast<std::size_t>(key[1] - '0')] = value;
             } else {
               sink.error("memory", "unknown key '" + key + "'");
               return false;
             }
           }
           return true;
         }});
    return out;
  }
};

constexpr std::size_t kSectionKinds = 10;  // Every kind FullRig serializes.

// Quiescent checkpoint instants: ticks land at multiples of 10ns, bus and
// breaker completions 4ns later, so N*10000 + 5000 is always between a
// completed transaction and the next tick.
constexpr std::uint64_t kMidRunPs = 25000;

void expect_same_outcome(FullRig& restored, FullRig& reference,
                         const std::vector<sim::RecordedEvent>& reference_log) {
  EXPECT_EQ(restored.recorder.log(), reference_log);
  EXPECT_EQ(restored.kernel.now(), reference.kernel.now());
  EXPECT_EQ(restored.kernel.events_processed(), reference.kernel.events_processed());
  EXPECT_EQ(restored.ticks, reference.ticks);
  EXPECT_EQ(restored.read_sum, reference.read_sum);
  EXPECT_EQ(restored.memory, reference.memory);
  EXPECT_EQ(restored.bus.stats().reads, reference.bus.stats().reads);
  EXPECT_EQ(restored.bus.stats().errors, reference.bus.stats().errors);
  EXPECT_EQ(restored.plan.str(), reference.plan.str());
  EXPECT_EQ(restored.watchdog.trips(), reference.watchdog.trips());
  EXPECT_EQ(restored.watchdog.kicks(), reference.watchdog.kicks());
  EXPECT_EQ(restored.instance.active_leaf_names(), reference.instance.active_leaf_names());
  EXPECT_EQ(restored.instance.events_processed(), reference.instance.events_processed());
  EXPECT_EQ(restored.breaker.stats().issued, reference.breaker.stats().issued);
  EXPECT_EQ(restored.breaker.stats().ok, reference.breaker.stats().ok);
  EXPECT_EQ(restored.child_restarts, reference.child_restarts);
  EXPECT_EQ(restored.supervisor.pending_restarts(), reference.supervisor.pending_restarts());
  EXPECT_EQ(restored.health.aggregate(), reference.health.aggregate());
}

// Helpers matching the on-disk format (support::xxh64 checksums), for
// surgically repairing a checksum after a deliberate mutation.
using support::xxh64;
constexpr std::size_t kHeaderHashedBytes = 36;  // Everything before the checksum.
constexpr std::size_t kHeaderVersionOffset = 8;

void put_u32(std::string& bytes, std::size_t offset, std::uint32_t value) {
  for (int i = 0; i < 4; ++i) bytes[offset + i] = static_cast<char>((value >> (8 * i)) & 0xff);
}

void put_u64(std::string& bytes, std::size_t offset, std::uint64_t value) {
  for (int i = 0; i < 8; ++i) bytes[offset + i] = static_cast<char>((value >> (8 * i)) & 0xff);
}

void patch_version(std::string& bytes, std::uint32_t version) {
  put_u32(bytes, kHeaderVersionOffset, version);
  put_u64(bytes, kHeaderHashedBytes,
          xxh64(std::string_view(bytes).substr(0, kHeaderHashedBytes)));
}

class BinarySnapshotTest : public ::testing::Test {
 protected:
  std::unique_ptr<statechart::StateMachine> machine_ = make_machine();
};

TEST_F(BinarySnapshotTest, RoundTripIsBitIdentical) {
  FullRig reference(*machine_);
  reference.run();
  const std::vector<sim::RecordedEvent> reference_log = reference.recorder.log();
  ASSERT_GT(reference_log.size(), 0u);

  FullRig source(*machine_);
  source.run(kMidRunPs);
  ASSERT_EQ(source.bus.pending_transactions(), 0u);
  ASSERT_EQ(source.supervisor.pending_restarts(), 1u) << "restart must be in flight";
  std::string snapshot;
  support::DiagnosticSink sink;
  ASSERT_TRUE(save_snapshot_binary(source.targets(), snapshot, sink)) << sink.str();
  EXPECT_EQ(snapshot.substr(0, kBinaryMagic.size()), kBinaryMagic);

  FullRig restored(*machine_);
  support::DiagnosticSink restore_sink;
  ASSERT_TRUE(restore_snapshot_binary(restored.targets(), snapshot, restore_sink))
      << restore_sink.str();
  restored.run();
  expect_same_outcome(restored, reference, reference_log);
}

TEST_F(BinarySnapshotTest, EncodeAndRestoreUpdateSnapshotStats) {
  FullRig source(*machine_);
  source.run(kMidRunPs);
  ASSERT_EQ(source.kernel.stats().snapshot.encodes, 0u);

  std::string snapshot;
  support::DiagnosticSink sink;
  ASSERT_TRUE(save_snapshot_binary(source.targets(), snapshot, sink)) << sink.str();
  const sim::Kernel::SnapshotStats& encoded = source.kernel.stats().snapshot;
  EXPECT_EQ(encoded.encodes, 1u);
  EXPECT_EQ(encoded.bytes_written, snapshot.size());
  EXPECT_EQ(encoded.sections_total, kSectionKinds);
  EXPECT_EQ(encoded.sections_dirty, kSectionKinds) << "a full snapshot is all-dirty";

  FullRig restored(*machine_);
  support::DiagnosticSink restore_sink;
  ASSERT_TRUE(restore_snapshot_binary(restored.targets(), snapshot, restore_sink))
      << restore_sink.str();
  EXPECT_EQ(restored.kernel.stats().snapshot.restores, 1u);
}

TEST_F(BinarySnapshotTest, TruncatedFilesAreRejectedAtEveryLength) {
  FullRig source(*machine_);
  source.run(kMidRunPs);
  std::string snapshot;
  support::DiagnosticSink sink;
  ASSERT_TRUE(save_snapshot_binary(source.targets(), snapshot, sink)) << sink.str();

  std::size_t accepted = 0;
  std::size_t silent = 0;
  for (std::size_t length = 0; length < snapshot.size(); ++length) {
    SnapshotImage image;
    support::DiagnosticSink attempt;
    if (image_from_binary(std::string_view(snapshot).substr(0, length), image, attempt)) {
      ++accepted;
    } else if (!attempt.has_errors()) {
      ++silent;
    }
  }
  EXPECT_EQ(accepted, 0u) << "no strict prefix may decode";
  EXPECT_EQ(silent, 0u) << "every rejection must carry a diagnostic";
}

TEST_F(BinarySnapshotTest, EveryBitFlipIsRejected) {
  FullRig source(*machine_);
  source.run(kMidRunPs);
  IncrementalEncoder encoder;
  IncrementalEncoder::Result full;
  IncrementalEncoder::Result delta;
  support::DiagnosticSink sink;
  ASSERT_TRUE(encoder.encode(source.targets(), /*force_full=*/true, full, sink)) << sink.str();
  source.run(45000);
  ASSERT_TRUE(encoder.encode(source.targets(), /*force_full=*/false, delta, sink)) << sink.str();
  ASSERT_LT(delta.sections_dirty, delta.sections_total) << "the delta needs reference frames";
  // Recorder kind, empty name, entry flags 2: a recorder append frame.
  ASSERT_NE(delta.bytes.find(std::string("\x03\x00\x00\x02", 4)), std::string::npos)
      << "the delta needs a recorder append frame";

  const auto decodes_full = [](const std::string& bytes) {
    SnapshotImage image;
    support::DiagnosticSink attempt;
    return image_from_binary(bytes, image, attempt);
  };
  const auto decodes_chain = [&](const std::string& bytes) {
    SnapshotImage image;
    support::DiagnosticSink attempt;
    return image_from_binary_chain({full.bytes, bytes}, image, attempt);
  };
  // Flips each of the eight bits of every byte, together with the same bit
  // `stride` bytes further on when `stride` is nonzero; counts the decodes
  // that still succeed.
  const auto accepted_flips = [](std::string bytes, std::size_t stride, const auto& decodes) {
    std::size_t accepted = 0;
    for (std::size_t i = 0; i + stride < bytes.size(); ++i) {
      for (unsigned bit = 0; bit < 8; ++bit) {
        const char mask = static_cast<char>(1u << bit);
        bytes[i] ^= mask;
        if (stride != 0) bytes[i + stride] ^= mask;
        if (decodes(bytes)) ++accepted;
        bytes[i] ^= mask;
        if (stride != 0) bytes[i + stride] ^= mask;
      }
    }
    return accepted;
  };
  ASSERT_TRUE(decodes_full(full.bytes));
  ASSERT_TRUE(decodes_chain(delta.bytes));

  // Frame checksums cover metadata and payload, the header checksum covers
  // the header, and magic/trailer are compared literally — so flipping any
  // bit anywhere must fail the decode, in a base and in a delta.
  EXPECT_EQ(accepted_flips(full.bytes, 0, decodes_full), 0u);
  EXPECT_EQ(accepted_flips(delta.bytes, 0, decodes_chain), 0u);
  // Same-bit pairs one 32-byte stripe apart: a lane of the form
  // (acc ^ word) * prime passes every single flip, but two bit-63 flips one
  // stripe apart cancel in it.
  EXPECT_EQ(accepted_flips(full.bytes, 32, decodes_full), 0u);
  EXPECT_EQ(accepted_flips(delta.bytes, 32, decodes_chain), 0u);
}

/// Replacing, erasing or inserting bytes anywhere in a real snapshot must
/// fail restore with a diagnostic and leave the victim rig as constructed.
TEST(SnapshotFuzz, TruncatedAndMutatedSnapshotsAreRejected) {
  const std::unique_ptr<statechart::StateMachine> machine = make_machine();
  FullRig source(*machine);
  source.run(kMidRunPs);
  std::string snapshot;
  support::DiagnosticSink save_sink;
  ASSERT_TRUE(save_snapshot_binary(source.targets(), snapshot, save_sink)) << save_sink.str();

  auto victim = std::make_unique<FullRig>(*machine);
  const auto untouched = [&] {
    return victim->kernel.now().picoseconds() == 0 && victim->kernel.events_processed() == 0 &&
           victim->ticks == 0 && victim->recorder.total_events() == 0 &&
           victim->instance.events_processed() == 0;
  };
  for (std::size_t length = 0; length < snapshot.size(); ++length) {
    support::DiagnosticSink sink;
    EXPECT_FALSE(restore_snapshot_binary(victim->targets(),
                                         std::string_view(snapshot).substr(0, length), sink));
    EXPECT_TRUE(sink.has_errors()) << "silent failure at length " << length;
  }
  ASSERT_TRUE(untouched());

  support::Rng rng(23);
  for (int i = 0; i < 4000; ++i) {
    std::string mutated = snapshot;
    const std::size_t position = rng.below(mutated.size());
    switch (rng.below(3)) {
      case 0:
        mutated[position] = static_cast<char>('!' + rng.below(90));
        break;
      case 1:
        mutated.erase(position, 1 + rng.below(6));
        break;
      default:
        mutated.insert(position, mutated.substr(position, 1 + rng.below(6)));
    }
    support::DiagnosticSink sink;
    // Magic and trailer are compared literally, the exact length is checked
    // and every other byte is covered by the header or a frame checksum, so
    // only a replacement that wrote the byte already there can survive;
    // re-saving the restored rig must then reproduce the original.
    if (restore_snapshot_binary(victim->targets(), mutated, sink)) {
      std::string resaved;
      support::DiagnosticSink resave_sink;
      ASSERT_TRUE(save_snapshot_binary(victim->targets(), resaved, resave_sink))
          << resave_sink.str();
      EXPECT_EQ(resaved, snapshot) << "mutation " << i << " restored";
      victim = std::make_unique<FullRig>(*machine);
    } else {
      EXPECT_TRUE(sink.has_errors()) << "silent failure on mutation " << i;
      ASSERT_TRUE(untouched()) << "mutation " << i << " changed the victim";
    }
  }
}

TEST_F(BinarySnapshotTest, CorruptSectionIsNamedInDiagnostics) {
  FullRig source(*machine_);
  source.run(kMidRunPs);
  std::string snapshot;
  support::DiagnosticSink sink;
  ASSERT_TRUE(save_snapshot_binary(source.targets(), snapshot, sink)) << sink.str();

  // The byte just before the trailer sits in the bank payload (the last
  // section FullRig emits): the failure must name that section and offset.
  std::string mutated = snapshot;
  mutated[mutated.size() - kBinaryTrailer.size() - 1] ^= 0x01;
  SnapshotImage image;
  support::DiagnosticSink attempt;
  EXPECT_FALSE(image_from_binary(mutated, image, attempt));
  EXPECT_NE(attempt.str().find("section checksum mismatch in <bank"), std::string::npos)
      << attempt.str();
  EXPECT_NE(attempt.str().find("at offset "), std::string::npos) << attempt.str();
}

TEST_F(BinarySnapshotTest, DuplicateSectionsAreRejected) {
  FullRig source(*machine_);
  source.run(kMidRunPs);
  SnapshotImage image;
  support::DiagnosticSink sink;
  ASSERT_TRUE(capture_image(source.targets(), image, sink)) << sink.str();
  ASSERT_EQ(image.machines.size(), 1u);
  image.machines.push_back(image.machines.front());

  const std::string binary = image_to_binary(image);
  SnapshotImage decoded;
  support::DiagnosticSink attempt;
  EXPECT_FALSE(image_from_binary(binary, decoded, attempt));
  EXPECT_NE(attempt.str().find("duplicate"), std::string::npos) << attempt.str();
}

TEST_F(BinarySnapshotTest, GarbageInputsAreRejected) {
  const std::string inputs[] = {
      "",
      std::string(kBinaryMagic),
      "definitely not a snapshot",
      "<umlsoc-snapshot version=\"3\"/>",
      std::string(200, '\xff'),
  };
  for (const std::string& input : inputs) {
    SnapshotImage image;
    support::DiagnosticSink attempt;
    EXPECT_FALSE(image_from_binary(input, image, attempt));
    EXPECT_TRUE(attempt.has_errors());
  }
}

TEST_F(BinarySnapshotTest, VersionSkewIsRejectedWithStructuredMessage) {
  FullRig source(*machine_);
  source.run(kMidRunPs);
  std::string snapshot;
  support::DiagnosticSink sink;
  ASSERT_TRUE(save_snapshot_binary(source.targets(), snapshot, sink)) << sink.str();

  // Bump the version and repair the header checksum so the version check
  // itself — not the checksum — must catch the skew.
  std::string mutated = snapshot;
  patch_version(mutated, static_cast<std::uint32_t>(kSnapshotVersion) + 1);
  SnapshotImage image;
  support::DiagnosticSink attempt;
  EXPECT_FALSE(image_from_binary(mutated, image, attempt));
  EXPECT_NE(attempt.str().find("unsupported snapshot version " +
                               std::to_string(kSnapshotVersion + 1)),
            std::string::npos)
      << attempt.str();

  BinarySnapshotInfo info;
  support::DiagnosticSink info_sink;
  EXPECT_FALSE(read_binary_info(mutated, info, info_sink));
}

TEST_F(BinarySnapshotTest, CleanDeltaIsEmptyAndTiny) {
  FullRig source(*machine_);
  // Run deep enough that the full snapshot carries a real event log; the
  // 5x claim is about amortized payload, not framing overhead.
  source.run(205000);

  IncrementalEncoder encoder;
  IncrementalEncoder::Result full;
  IncrementalEncoder::Result delta;
  support::DiagnosticSink sink;
  ASSERT_TRUE(encoder.encode(source.targets(), /*force_full=*/false, full, sink)) << sink.str();
  EXPECT_FALSE(full.delta) << "the first encode has no base to chain to";
  EXPECT_EQ(full.sections_dirty, kSectionKinds);

  // Nothing ran in between: every section dedups to a reference frame.
  ASSERT_TRUE(encoder.encode(source.targets(), /*force_full=*/false, delta, sink)) << sink.str();
  EXPECT_TRUE(delta.delta);
  EXPECT_EQ(delta.base_seq, full.seq);
  EXPECT_EQ(delta.sections_dirty, 0u);
  EXPECT_LT(delta.bytes.size() * 5, full.bytes.size())
      << "an all-clean delta must be at least 5x smaller than its base";

  // The resolved chain re-encodes to exactly a direct standalone snapshot.
  SnapshotImage chained;
  ASSERT_TRUE(image_from_binary_chain({full.bytes, delta.bytes}, chained, sink)) << sink.str();
  std::string direct;
  ASSERT_TRUE(save_snapshot_binary(source.targets(), direct, sink)) << sink.str();
  EXPECT_EQ(image_to_binary(chained), direct);
}

// Round trips cannot see a change that moves the encoder and the decoder
// together; pinned bytes can. Changing a section layout on purpose means
// bumping kSnapshotVersion and re-pinning these values.
TEST_F(BinarySnapshotTest, EncodingIsPinned) {
  FullRig source(*machine_);
  source.run(kMidRunPs);
  support::DiagnosticSink sink;
  std::string full;
  ASSERT_TRUE(save_snapshot_binary(source.targets(), full, sink)) << sink.str();
  EXPECT_EQ(full.size(), 1221u);
  EXPECT_EQ(xxh64(full), 0xed90f78a1b2a13f3ULL);

  IncrementalEncoder encoder;
  IncrementalEncoder::Result base;
  IncrementalEncoder::Result delta;
  ASSERT_TRUE(encoder.encode(source.targets(), /*force_full=*/true, base, sink)) << sink.str();
  source.run();
  ASSERT_TRUE(encoder.encode(source.targets(), /*force_full=*/false, delta, sink)) << sink.str();
  ASSERT_TRUE(delta.delta);
  EXPECT_EQ(delta.bytes.size(), 2015u);
  EXPECT_EQ(xxh64(delta.bytes), 0x7f8afbbce1d553eeULL);
}

TEST_F(BinarySnapshotTest, DeltaChainRestoresBitIdentically) {
  FullRig reference(*machine_);
  reference.run();
  const std::vector<sim::RecordedEvent> reference_log = reference.recorder.log();

  FullRig source(*machine_);
  source.run(kMidRunPs);
  IncrementalEncoder encoder;
  IncrementalEncoder::Result full;
  IncrementalEncoder::Result delta;
  support::DiagnosticSink sink;
  ASSERT_TRUE(encoder.encode(source.targets(), /*force_full=*/true, full, sink)) << sink.str();

  source.run(45000);
  ASSERT_TRUE(encoder.encode(source.targets(), /*force_full=*/false, delta, sink)) << sink.str();
  EXPECT_TRUE(delta.delta);
  EXPECT_GT(delta.sections_dirty, 0u);
  EXPECT_LT(delta.sections_dirty, delta.sections_total)
      << "idle sections (supervisor, health) must dedup to references";
  EXPECT_LT(delta.bytes.size(), full.bytes.size());

  // Resolving the chain and applying it continues bit-identically — this
  // drives the recorder-append splice and reference verification paths.
  SnapshotImage image;
  ASSERT_TRUE(image_from_binary_chain({full.bytes, delta.bytes}, image, sink)) << sink.str();
  FullRig restored(*machine_);
  support::DiagnosticSink apply_sink;
  ASSERT_TRUE(apply_image(restored.targets(), image, apply_sink)) << apply_sink.str();
  restored.run();
  expect_same_outcome(restored, reference, reference_log);
}

TEST_F(BinarySnapshotTest, ChainMissingItsBaseIsRefused) {
  FullRig source(*machine_);
  source.run(kMidRunPs);
  IncrementalEncoder encoder;
  IncrementalEncoder::Result full;
  IncrementalEncoder::Result delta;
  support::DiagnosticSink sink;
  ASSERT_TRUE(encoder.encode(source.targets(), /*force_full=*/true, full, sink)) << sink.str();
  source.run(45000);
  ASSERT_TRUE(encoder.encode(source.targets(), /*force_full=*/false, delta, sink)) << sink.str();
  ASSERT_TRUE(delta.delta);

  SnapshotImage image;
  support::DiagnosticSink empty_attempt;
  EXPECT_FALSE(image_from_binary_chain({}, image, empty_attempt));
  EXPECT_NE(empty_attempt.str().find("empty checkpoint chain"), std::string::npos)
      << empty_attempt.str();

  // A delta at the front of the chain has no base to resolve against; the
  // refusal names the missing base so operators know which rung to fetch.
  support::DiagnosticSink attempt;
  EXPECT_FALSE(image_from_binary_chain({delta.bytes}, image, attempt));
  EXPECT_NE(attempt.str().find("is a delta (base " + std::to_string(full.seq) +
                               "); it cannot be restored without its chain"),
            std::string::npos)
      << attempt.str();
}

TEST_F(BinarySnapshotTest, OutOfOrderDeltaChainIsRefused) {
  FullRig source(*machine_);
  source.run(kMidRunPs);
  IncrementalEncoder encoder;
  IncrementalEncoder::Result full;
  IncrementalEncoder::Result delta1;
  IncrementalEncoder::Result delta2;
  support::DiagnosticSink sink;
  ASSERT_TRUE(encoder.encode(source.targets(), /*force_full=*/true, full, sink)) << sink.str();
  source.run(45000);
  ASSERT_TRUE(encoder.encode(source.targets(), /*force_full=*/false, delta1, sink)) << sink.str();
  source.run(65000);
  ASSERT_TRUE(encoder.encode(source.targets(), /*force_full=*/false, delta2, sink)) << sink.str();
  ASSERT_EQ(delta2.base_seq, delta1.seq);

  // Swapping the deltas breaks the base linkage at the first out-of-order
  // element; the refusal names both the expected and the presented base.
  SnapshotImage image;
  support::DiagnosticSink attempt;
  EXPECT_FALSE(image_from_binary_chain({full.bytes, delta2.bytes, delta1.bytes}, image, attempt));
  EXPECT_NE(attempt.str().find("chain break: delta " + std::to_string(delta2.seq) +
                               " expects base " + std::to_string(delta2.base_seq) +
                               ", chain holds " + std::to_string(full.seq)),
            std::string::npos)
      << attempt.str();
}

TEST_F(BinarySnapshotTest, FullSnapshotInDeltaPositionIsRefused) {
  FullRig source(*machine_);
  source.run(kMidRunPs);
  IncrementalEncoder encoder;
  IncrementalEncoder::Result first;
  IncrementalEncoder::Result second;
  support::DiagnosticSink sink;
  ASSERT_TRUE(encoder.encode(source.targets(), /*force_full=*/true, first, sink)) << sink.str();
  source.run(45000);
  ASSERT_TRUE(encoder.encode(source.targets(), /*force_full=*/true, second, sink)) << sink.str();
  ASSERT_FALSE(second.delta);

  SnapshotImage image;
  support::DiagnosticSink attempt;
  EXPECT_FALSE(image_from_binary_chain({first.bytes, second.bytes}, image, attempt));
  EXPECT_NE(attempt.str().find("chain element #1 is a full snapshot, expected a delta"),
            std::string::npos)
      << attempt.str();
}

TEST_F(BinarySnapshotTest, DeltaAgainstTheWrongBaseIsRefusedByReferenceChecksum) {
  // Two rigs encoded by two fresh encoders produce the same sequence
  // numbering, so a delta from rig A chains structurally onto rig B's full
  // snapshot — the per-section reference checksums are the only defense
  // against assembling a frankenstate.
  FullRig source(*machine_);
  source.run(kMidRunPs);
  IncrementalEncoder encoder_a;
  IncrementalEncoder::Result full_a;
  IncrementalEncoder::Result delta_a;
  support::DiagnosticSink sink;
  ASSERT_TRUE(encoder_a.encode(source.targets(), /*force_full=*/true, full_a, sink)) << sink.str();
  // No work between encodes: every section dedups to a reference frame, so
  // every section of the foreign base gets checksum-verified.
  ASSERT_TRUE(encoder_a.encode(source.targets(), /*force_full=*/false, delta_a, sink))
      << sink.str();
  ASSERT_EQ(delta_a.sections_dirty, 0u);

  FullRig other(*machine_);
  other.run(kMidRunPs + 20000);
  IncrementalEncoder encoder_b;
  IncrementalEncoder::Result full_b;
  ASSERT_TRUE(encoder_b.encode(other.targets(), /*force_full=*/true, full_b, sink)) << sink.str();
  ASSERT_EQ(full_b.seq, delta_a.base_seq) << "chain must be structurally valid to reach "
                                             "the checksum check";

  SnapshotImage image;
  support::DiagnosticSink attempt;
  EXPECT_FALSE(image_from_binary_chain({full_b.bytes, delta_a.bytes}, image, attempt));
  EXPECT_NE(attempt.str().find("reference checksum mismatch in"), std::string::npos)
      << attempt.str();
  EXPECT_NE(attempt.str().find("delta expects"), std::string::npos) << attempt.str();
}

TEST_F(BinarySnapshotTest, ChainFailureNamesTheRungThatCausedIt) {
  // A base and three deltas. Each corruption is pinned to its own rung, and
  // the chain before that rung resolves on its own.
  FullRig source(*machine_);
  IncrementalEncoder encoder;
  std::vector<std::string> rungs;
  support::DiagnosticSink sink;
  for (std::uint64_t i = 0; i < 4; ++i) {
    source.run(kMidRunPs + 20000 * i);
    IncrementalEncoder::Result result;
    ASSERT_TRUE(encoder.encode(source.targets(), /*force_full=*/i == 0, result, sink))
        << sink.str();
    ASSERT_EQ(result.delta, i != 0);
    rungs.push_back(std::move(result.bytes));
  }
  const auto resolve = [&](const std::vector<std::string>& chain, std::size_t& failed,
                           support::DiagnosticSink& diagnostics) {
    SnapshotImage image;
    return image_from_binary_chain({chain.begin(), chain.end()}, image, diagnostics, &failed);
  };
  std::size_t failed = 0;
  ASSERT_TRUE(resolve(rungs, failed, sink)) << sink.str();

  // A delta whose bank payload claims one entry more than it holds, with
  // its frame checksum repaired: only decoding the payload can refuse it.
  std::vector<std::string> malformed = rungs;
  std::string& delta = malformed[2];
  const std::string bank_frame("\x0a\x06\x00memory", 9);  // kind, name length, name.
  const std::size_t frame = delta.rfind(bank_frame);
  ASSERT_NE(frame, std::string::npos);
  const std::size_t meta_bytes = bank_frame.size() + 1 + 4;  // + entry flags, payload length.
  ASSERT_EQ(delta[frame + bank_frame.size()], '\0') << "a payload frame, not a reference";
  const std::size_t payload = frame + meta_bytes + 8;
  std::uint32_t entries = 0;
  std::memcpy(&entries, delta.data() + payload, sizeof entries);
  put_u32(delta, payload, entries + 1);
  const std::size_t payload_bytes = delta.size() - kBinaryTrailer.size() - payload;
  put_u64(delta, frame + meta_bytes,
          xxh64(std::string_view(delta).substr(payload, payload_bytes),
                xxh64(std::string_view(delta).substr(frame, meta_bytes))));
  support::DiagnosticSink decode_attempt;
  EXPECT_FALSE(resolve(malformed, failed, decode_attempt));
  EXPECT_EQ(failed, 2u);
  EXPECT_NE(decode_attempt.str().find("malformed payload in <bank name='memory'>"),
            std::string::npos)
      << decode_attempt.str();
  support::DiagnosticSink prefix_attempt;
  EXPECT_TRUE(resolve({rungs[0], rungs[1]}, failed, prefix_attempt)) << prefix_attempt.str();

  // A flipped payload bit in the base fails the base's frame checksum.
  std::vector<std::string> flipped = rungs;
  flipped[0][flipped[0].size() - kBinaryTrailer.size() - 1] ^= 0x04;
  support::DiagnosticSink base_attempt;
  EXPECT_FALSE(resolve(flipped, failed, base_attempt));
  EXPECT_EQ(failed, 0u);
  EXPECT_NE(base_attempt.str().find("section checksum mismatch"), std::string::npos)
      << base_attempt.str();
}

TEST_F(BinarySnapshotTest, RungSizeDelimitsEachSnapshotOfAChainFile) {
  // Two snapshots back to back, as a chain file holds its rungs: the size
  // of the first is found from its own bytes, whatever follows it.
  FullRig source(*machine_);
  IncrementalEncoder encoder;
  support::DiagnosticSink sink;
  std::string chain;
  std::vector<std::size_t> sizes;
  for (std::uint64_t i = 0; i < 2; ++i) {
    source.run(kMidRunPs + 20000 * i);
    IncrementalEncoder::Result result;
    ASSERT_TRUE(encoder.encode(source.targets(), /*force_full=*/i == 0, result, sink))
        << sink.str();
    sizes.push_back(result.bytes.size());
    chain += result.bytes;
  }
  BinarySnapshotInfo info;
  EXPECT_EQ(binary_rung_size(chain, info, sink), sizes[0]) << sink.str();
  EXPECT_EQ(info.seq, 1u);
  EXPECT_EQ(binary_rung_size(std::string_view(chain).substr(sizes[0]), info, sink), sizes[1]);
  EXPECT_TRUE(info.delta);

  // Cut short, the second rung has no size but still names its seq.
  support::DiagnosticSink torn;
  const std::string_view half = std::string_view(chain).substr(sizes[0], sizes[1] / 2);
  EXPECT_EQ(binary_rung_size(half, info, torn), 0u);
  EXPECT_EQ(info.seq, 2u);
  EXPECT_NE(torn.str().find("no end-of-file trailer"), std::string::npos) << torn.str();

  // A header that fails its checksum names nothing.
  std::string flipped = chain;
  flipped[12] ^= 0x01;  // In the seq.
  support::DiagnosticSink bad_header;
  EXPECT_EQ(binary_rung_size(flipped, info, bad_header), 0u);
  EXPECT_EQ(info.seq, 0u);
  EXPECT_NE(bad_header.str().find("header checksum mismatch"), std::string::npos)
      << bad_header.str();
}

// --- CheckpointStore ---------------------------------------------------------

bool read_file(const std::filesystem::path& path, std::string& out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  out.assign(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
  return true;
}

bool write_file(const std::filesystem::path& path, std::string_view bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  return out.good();
}

/// Where each of this process's open descriptors links to, read from
/// /proc/self/fd (the listing's own descriptor is gone by the time its link
/// is read, so it does not show).
std::vector<std::string> open_descriptor_links() {
  std::vector<std::string> links;
  for (const auto& entry : std::filesystem::directory_iterator("/proc/self/fd")) {
    std::error_code ec;
    const std::filesystem::path target = std::filesystem::read_symlink(entry.path(), ec);
    if (!ec) links.push_back(target.string());
  }
  return links;
}

/// Open descriptors whose link ends in `.quarantined` or ` (deleted)`.
std::vector<std::string> descriptors_on_dead_chains() {
  std::vector<std::string> dead;
  for (const std::string& link : open_descriptor_links()) {
    if (link.ends_with(".quarantined") || link.ends_with(" (deleted)")) dead.push_back(link);
  }
  return dead;
}

std::uint64_t inode_of(const std::filesystem::path& path) {
  struct stat status {};
  EXPECT_EQ(::stat(path.c_str(), &status), 0) << path;
  return status.st_ino;
}

/// The chain files in `dir`, oldest first.
std::vector<std::filesystem::path> chain_files(const std::filesystem::path& dir) {
  std::vector<std::filesystem::path> files;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().extension() == ".usnap") files.push_back(entry.path());
  }
  std::sort(files.begin(), files.end());  // Zero-padded names: seq order.
  return files;
}

/// The rungs of chain file `path`, delimited as the store delimits them, up
/// to the first that cannot be.
std::vector<std::string> rungs_of(const std::filesystem::path& path) {
  std::string bytes;
  EXPECT_TRUE(read_file(path, bytes)) << path;
  std::vector<std::string> rungs;
  for (std::string_view rest = bytes; !rest.empty();) {
    BinarySnapshotInfo info;
    support::DiagnosticSink sink;
    const std::size_t size = binary_rung_size(rest, info, sink);
    if (size == 0) break;
    rungs.emplace_back(rest.substr(0, size));
    rest.remove_prefix(size);
  }
  return rungs;
}

/// Rewrites chain file `path` in place to hold `rungs` back to back.
bool write_chain(const std::filesystem::path& path, const std::vector<std::string>& rungs) {
  std::string bytes;
  for (const std::string& rung : rungs) bytes += rung;
  return write_file(path, bytes);
}

class CheckpointStoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // System temp, not the working directory: a relative scratch root would
    // litter whatever directory ctest runs from. ctest runs cases as
    // parallel processes, so the pid isolates concurrent cases and lets
    // TearDown remove the whole per-process root without racing a sibling
    // test's live store.
    std::string scratch = "umlsoc-checkpoint-store-";
    scratch += std::to_string(::getpid());
    root_ = std::filesystem::temp_directory_path() / scratch;
    dir_ = root_ /
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
    std::filesystem::remove_all(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(root_); }

  CheckpointStoreConfig config(unsigned full_interval = 3, unsigned keep_fulls = 2) {
    CheckpointStoreConfig out;
    out.directory = dir_;
    out.full_interval = full_interval;
    out.keep_fulls = keep_fulls;
    return out;
  }

  /// Advances the rig through quiescent savepoints, writing one checkpoint
  /// at each.
  void write_checkpoints(FullRig& rig, CheckpointStore& store, int count, int first = 0) {
    for (int k = first; k < first + count; ++k) {
      rig.run(kMidRunPs + 20000 * static_cast<std::uint64_t>(k));
      CheckpointStore::WriteResult result;
      support::DiagnosticSink sink;
      ASSERT_TRUE(store.checkpoint(rig.targets(), result, sink)) << sink.str();
    }
  }

  std::filesystem::path root_;
  std::filesystem::path dir_;
  std::unique_ptr<statechart::StateMachine> machine_ = make_machine();
};

TEST_F(CheckpointStoreTest, RestoreLatestGoodContinuesBitIdentically) {
  FullRig reference(*machine_);
  reference.run();
  const std::vector<sim::RecordedEvent> reference_log = reference.recorder.log();

  FullRig source(*machine_);
  CheckpointStore store(config());
  write_checkpoints(source, store, 5);
  EXPECT_EQ(store.stats().checkpoints, 5u);
  EXPECT_EQ(store.stats().fulls, 2u) << "full cadence: seq 1 and 4";
  EXPECT_EQ(store.stats().deltas, 3u);
  // One file per chain, named by its base: rungs 1..3 and 4..5.
  const std::vector<std::filesystem::path> files = chain_files(dir_);
  ASSERT_EQ(files.size(), 2u);
  EXPECT_EQ(files[0].filename().string(), "ckpt-00000001.usnap");
  EXPECT_EQ(files[1].filename().string(), "ckpt-00000004.usnap");
  EXPECT_EQ(rungs_of(files[0]).size(), 3u);
  EXPECT_EQ(rungs_of(files[1]).size(), 2u);

  // A fresh store instance recovers purely from the on-disk ladder.
  FullRig restored(*machine_);
  CheckpointStore recovery(config());
  support::DiagnosticSink sink;
  ASSERT_TRUE(recovery.restore_latest_good(restored.targets(), sink)) << sink.str();
  EXPECT_EQ(recovery.stats().restored_seq, 5u);
  EXPECT_EQ(recovery.stats().quarantines, 0u);
  restored.run();
  expect_same_outcome(restored, reference, reference_log);
}

TEST_F(CheckpointStoreTest, LadderStepsPastCorruptNewest) {
  FullRig reference(*machine_);
  reference.run();
  const std::vector<sim::RecordedEvent> reference_log = reference.recorder.log();

  FullRig source(*machine_);
  CheckpointStore store(config());
  write_checkpoints(source, store, 5);

  // Tear the newest rung in half, as a crash mid-append would.
  const std::vector<std::filesystem::path> files = chain_files(dir_);
  ASSERT_EQ(files.size(), 2u);
  std::vector<std::string> rungs = rungs_of(files.back());
  ASSERT_EQ(rungs.size(), 2u);
  rungs.back().resize(rungs.back().size() / 2);
  ASSERT_TRUE(write_chain(files.back(), rungs));

  FullRig restored(*machine_);
  CheckpointStore recovery(config());
  support::DiagnosticSink sink;
  ASSERT_TRUE(recovery.restore_latest_good(restored.targets(), sink)) << sink.str();
  EXPECT_EQ(recovery.stats().quarantines, 1u);
  EXPECT_EQ(recovery.stats().restored_seq, 4u) << "one rung down the ladder";
  ASSERT_EQ(recovery.quarantined().size(), 1u);
  EXPECT_EQ(recovery.quarantined().front().path, files.back());
  EXPECT_NE(recovery.quarantined().front().reason.find("rung 5: "), std::string::npos)
      << recovery.quarantined().front().reason;
  EXPECT_EQ(std::filesystem::file_size(files.back()), rungs.front().size())
      << "the torn rung is cut off its chain";

  restored.run();
  expect_same_outcome(restored, reference, reference_log);
}

TEST_F(CheckpointStoreTest, VersionSkewedCheckpointIsQuarantined) {
  FullRig source(*machine_);
  CheckpointStore store(config());
  write_checkpoints(source, store, 5);

  const std::vector<std::filesystem::path> files = chain_files(dir_);
  std::vector<std::string> rungs = rungs_of(files.back());
  ASSERT_EQ(rungs.size(), 2u);
  patch_version(rungs.back(), static_cast<std::uint32_t>(kSnapshotVersion) + 1);
  ASSERT_TRUE(write_chain(files.back(), rungs));

  FullRig restored(*machine_);
  CheckpointStore recovery(config());
  support::DiagnosticSink sink;
  ASSERT_TRUE(recovery.restore_latest_good(restored.targets(), sink)) << sink.str();
  EXPECT_EQ(recovery.stats().restored_seq, 4u);
  ASSERT_EQ(recovery.quarantined().size(), 1u);
  EXPECT_NE(recovery.quarantined().front().reason.find("unsupported snapshot version"),
            std::string::npos)
      << recovery.quarantined().front().reason;
}

TEST_F(CheckpointStoreTest, ExhaustedLadderReportsAndFailsHealth) {
  FullRig source(*machine_);
  CheckpointStore store(config());
  write_checkpoints(source, store, 5);

  // Flip a bit in the middle of every rung: nothing is restorable.
  for (const std::filesystem::path& path : chain_files(dir_)) {
    std::vector<std::string> rungs = rungs_of(path);
    for (std::string& rung : rungs) rung[rung.size() / 2] ^= 0x10;
    ASSERT_TRUE(write_chain(path, rungs));
  }

  FullRig restored(*machine_);
  CheckpointStore recovery(config());
  support::DiagnosticSink sink;
  EXPECT_FALSE(recovery.restore_latest_good(restored.targets(), sink));
  EXPECT_NE(sink.str().find("no restorable checkpoint"), std::string::npos) << sink.str();
  EXPECT_EQ(recovery.quarantined().size(), 2u)
      << "every chain file's base fails, so every file steps aside with a reason";
  EXPECT_TRUE(chain_files(dir_).empty()) << "set-aside files leave the listing";
  // The victim rig was never touched: it can still run from scratch.
  restored.run();
  EXPECT_EQ(restored.ticks, FullRig::kTicks);
}

TEST_F(CheckpointStoreTest, RotationPrunesOldChainsAndKeepsBases) {
  FullRig reference(*machine_);
  reference.run();
  const std::vector<sim::RecordedEvent> reference_log = reference.recorder.log();

  FullRig source(*machine_);
  CheckpointStore store(config(/*full_interval=*/2, /*keep_fulls=*/2));
  write_checkpoints(source, store, 12);

  // Bases at seq 1,3,5,7,9,11; retaining two keeps chains 9 and 11, so only
  // seq 9..12 survive and every surviving delta still has its base on disk.
  const std::vector<std::filesystem::path> files = chain_files(dir_);
  EXPECT_EQ(files.size(), 2u);
  EXPECT_EQ(store.stats().pruned, 4u) << "whole chain files are deleted";
  EXPECT_EQ(files.front().filename().string(), "ckpt-00000009.usnap");

  FullRig restored(*machine_);
  CheckpointStore recovery(config(2, 2));
  support::DiagnosticSink sink;
  ASSERT_TRUE(recovery.restore_latest_good(restored.targets(), sink)) << sink.str();
  EXPECT_EQ(recovery.stats().restored_seq, 12u);
  restored.run();
  expect_same_outcome(restored, reference, reference_log);
}

TEST_F(CheckpointStoreTest, InjectedWriteFaultsRecoverViaLadder) {
  FullRig reference(*machine_);
  reference.run();
  const std::vector<sim::RecordedEvent> reference_log = reference.recorder.log();

  FullRig source(*machine_);
  CheckpointStore store(config());
  // First checkpoint lands clean so a good base is guaranteed, then every
  // later write rolls the dice on torn/lost/bit-flipped outcomes.
  write_checkpoints(source, store, 1);
  sim::FaultPlan corruption(/*seed=*/99);
  sim::FaultPlan::SiteConfig faults;
  faults.error_rate = 0.25;
  faults.drop_rate = 0.25;
  faults.bit_flip_rate = 0.25;
  corruption.configure(sim::FaultSite::kCheckpoint, faults);
  store.install_fault_plan(&corruption);
  write_checkpoints(source, store, 7, /*first=*/1);
  EXPECT_GT(store.stats().write_faults, 0u)
      << "seed 99 must actually injure some checkpoints";

  FullRig restored(*machine_);
  CheckpointStore recovery(config());
  support::DiagnosticSink sink;
  ASSERT_TRUE(recovery.restore_latest_good(restored.targets(), sink)) << sink.str();
  EXPECT_GE(recovery.stats().restored_seq, 1u);
  restored.run();
  expect_same_outcome(restored, reference, reference_log);
}

// A lost base creates its chain file empty and the chain's deltas land in
// it, with nothing to resolve against: that chain never restores. Nor does
// the lost base count as a retained one, or rotation would delete the last
// chain that does restore.
TEST_F(CheckpointStoreTest, LostBaseChainNeverRestoresAndIsNotARetainedBase) {
  FullRig source(*machine_);
  CheckpointStore store(config(/*full_interval=*/2, /*keep_fulls=*/2));
  write_checkpoints(source, store, 2);
  sim::FaultPlan drop(/*seed=*/1);
  sim::FaultPlan::SiteConfig lose_every_write;
  lose_every_write.drop_rate = 1.0;
  drop.configure(sim::FaultSite::kCheckpoint, lose_every_write);
  store.install_fault_plan(&drop);
  write_checkpoints(source, store, 1, /*first=*/2);
  store.install_fault_plan(nullptr);
  const std::filesystem::path lost_chain = dir_ / "ckpt-00000003.usnap";
  ASSERT_TRUE(std::filesystem::exists(lost_chain));
  EXPECT_EQ(std::filesystem::file_size(lost_chain), 0u);
  write_checkpoints(source, store, 2, /*first=*/3);  // Delta 4, base 5.
  EXPECT_GT(std::filesystem::file_size(lost_chain), 0u) << "delta 4 is appended";
  EXPECT_EQ(store.stats().fulls, 3u);
  EXPECT_EQ(store.stats().pruned, 0u) << "bases 1 and 5 are the two retained";
  ASSERT_EQ(chain_files(dir_).size(), 3u);

  // Rewound to seq 4, the ladder sets chain 3 aside and lands on seq 2.
  FullRig rewound(*machine_);
  CheckpointStore recovery(config(2, 2));
  support::DiagnosticSink sink;
  ASSERT_TRUE(recovery.restore_to(4, rewound.targets(), sink)) << sink.str();
  EXPECT_EQ(recovery.stats().restored_seq, 2u);
  ASSERT_EQ(recovery.quarantined().size(), 1u);
  EXPECT_EQ(recovery.quarantined().front().path, lost_chain);
  EXPECT_NE(recovery.quarantined().front().reason.find("is a delta"), std::string::npos)
      << recovery.quarantined().front().reason;
  EXPECT_FALSE(std::filesystem::exists(lost_chain));
  FullRig at_rung_2(*machine_);
  at_rung_2.run(kMidRunPs + 20000);
  EXPECT_EQ(rewound.ticks, at_rung_2.ticks);
}

TEST_F(CheckpointStoreTest, StrayFilesAreIgnored) {
  FullRig source(*machine_);
  CheckpointStore store(config());
  write_checkpoints(source, store, 3);

  // Foreign files, foreign prefixes and malformed names must neither crash
  // the listing nor shadow real chains.
  ASSERT_TRUE(write_file(dir_ / "ckpt-00000099.usnap.tmp", "half-written junk"));
  ASSERT_TRUE(write_file(dir_ / "ckpt-0000000x.usnap", "bad digits"));
  ASSERT_TRUE(write_file(dir_ / "other-00000001.usnap", "foreign prefix"));
  ASSERT_TRUE(write_file(dir_ / "notes.txt", "not a checkpoint"));
  ASSERT_TRUE(write_file(dir_ / "ckpt-00000002.usnap.quarantined", "stepped aside"));
  ASSERT_TRUE(write_file(dir_ / "ckpt-0000042.usnap", "seven digits"));
  ASSERT_TRUE(write_file(dir_ / "ckpt-000000042.usnap", "nine digits"));
  // Named like newer chains, but not regular files: a listing that trusted
  // names alone would open them and quarantine them. Symlinks are followed,
  // so one to a directory and a dangling one are not chains either.
  ASSERT_TRUE(std::filesystem::create_directory(dir_ / "ckpt-00000042.usnap"));
  std::filesystem::create_directory_symlink(dir_ / "ckpt-00000042.usnap",
                                            dir_ / "ckpt-00000043.usnap");
  std::filesystem::create_symlink(dir_ / "missing", dir_ / "ckpt-00000044.usnap");

  FullRig restored(*machine_);
  CheckpointStore recovery(config());
  support::DiagnosticSink sink;
  ASSERT_TRUE(recovery.restore_latest_good(restored.targets(), sink)) << sink.str();
  EXPECT_EQ(recovery.stats().restored_seq, 3u);
  EXPECT_EQ(recovery.stats().quarantines, 0u);
  EXPECT_TRUE(std::filesystem::is_directory(dir_ / "ckpt-00000042.usnap"));
  EXPECT_TRUE(std::filesystem::exists(dir_ / "ckpt-00000099.usnap.tmp"))
      << "a foreign file is left alone";
}

TEST_F(CheckpointStoreTest, StoreWritesAreTimedApartFromEncodeAndRestore) {
  FullRig source(*machine_);
  CheckpointStore store(config());
  write_checkpoints(source, store, 2);
  const sim::Kernel::SnapshotStats& written = source.kernel.stats().snapshot;
  EXPECT_EQ(written.encodes, 2u);
  EXPECT_GT(written.store_wall_ns, 0u) << "creating and appending to the chain are timed";

  FullRig restored(*machine_);
  CheckpointStore recovery(config());
  support::DiagnosticSink sink;
  ASSERT_TRUE(recovery.restore_latest_good(restored.targets(), sink)) << sink.str();
  const sim::Kernel::SnapshotStats& read = restored.kernel.stats().snapshot;
  EXPECT_EQ(read.restores, 1u);
  EXPECT_GT(read.restore_wall_ns, 0u);
  EXPECT_EQ(read.store_wall_ns, 0u) << "a restore writes nothing";
}

TEST_F(CheckpointStoreTest, UnchangedChainIsDecodedOnceForTwoRestores) {
  FullRig reference(*machine_);
  reference.run();
  const std::vector<sim::RecordedEvent> reference_log = reference.recorder.log();

  FullRig source(*machine_);
  CheckpointStore store(config());
  write_checkpoints(source, store, 5);

  // One store restores the same untouched chain into two rigs: the second
  // restore reads and checks the chain again but reuses the decode.
  CheckpointStore recovery(config());
  FullRig first(*machine_);
  support::DiagnosticSink sink;
  ASSERT_TRUE(recovery.restore_latest_good(first.targets(), sink)) << sink.str();
  EXPECT_EQ(recovery.stats().restored_seq, 5u);
  EXPECT_EQ(recovery.stats().reused_decodes, 0u);
  FullRig second(*machine_);
  ASSERT_TRUE(recovery.restore_latest_good(second.targets(), sink)) << sink.str();
  EXPECT_EQ(recovery.stats().restores, 2u);
  EXPECT_EQ(recovery.stats().reused_decodes, 1u);
  EXPECT_EQ(recovery.stats().restored_seq, 5u);
  EXPECT_EQ(recovery.stats().quarantines, 0u);
  // A reused decode reports like a decoded one: timed on the kernel, noted
  // on the sink, and the encoder resumes above the newest rung.
  EXPECT_EQ(second.kernel.stats().snapshot.restores, 1u);
  EXPECT_GT(second.kernel.stats().snapshot.restore_wall_ns, 0u);
  const std::string notes = sink.str();
  const std::string note = "restored checkpoint 5 (chain of 2)";
  const std::size_t at = notes.find(note);
  ASSERT_NE(at, std::string::npos) << notes;
  EXPECT_NE(notes.find(note, at + note.size()), std::string::npos) << notes;

  first.run();
  expect_same_outcome(first, reference, reference_log);
  CheckpointStore::WriteResult next;
  second.run(kMidRunPs + 20000 * 5);
  ASSERT_TRUE(recovery.checkpoint(second.targets(), next, sink)) << sink.str();
  EXPECT_EQ(next.seq, 6u);
  EXPECT_FALSE(next.delta) << "a restore starts a new chain";
  EXPECT_EQ(next.path, dir_ / "ckpt-00000006.usnap");
  second.run();
  expect_same_outcome(second, reference, reference_log);
}

TEST_F(CheckpointStoreTest, RungWrittenAfterARestoreIsTheNextRestore) {
  FullRig reference(*machine_);
  reference.run();
  const std::vector<sim::RecordedEvent> reference_log = reference.recorder.log();

  FullRig source(*machine_);
  CheckpointStore store(config());
  write_checkpoints(source, store, 5);

  // The store that restored seq 5 writes seq 6 itself; the next restore
  // must land on it, not on the chain it remembers.
  CheckpointStore recovery(config());
  FullRig resumed(*machine_);
  support::DiagnosticSink sink;
  ASSERT_TRUE(recovery.restore_latest_good(resumed.targets(), sink)) << sink.str();
  ASSERT_EQ(recovery.stats().restored_seq, 5u);
  write_checkpoints(resumed, recovery, 1, /*first=*/5);

  FullRig restored(*machine_);
  const std::uint64_t held_reads = recovery.stats().held_reads;
  ASSERT_TRUE(recovery.restore_latest_good(restored.targets(), sink)) << sink.str();
  EXPECT_EQ(recovery.stats().restored_seq, 6u);
  EXPECT_EQ(recovery.stats().reused_decodes, 0u);
  EXPECT_EQ(recovery.stats().held_reads, held_reads + 1)
      << "read through the descriptor of the chain it appended to";
  EXPECT_EQ(restored.kernel.now(), resumed.kernel.now());
  EXPECT_EQ(restored.ticks, resumed.ticks);
  restored.run();
  expect_same_outcome(restored, reference, reference_log);
}

// A rewind numbers the chain it starts next above every rung on disk, the
// rungs above its target included, though it reads none of them.
TEST_F(CheckpointStoreTest, ChainStartedAfterARewindIsNumberedAboveEveryRung) {
  FullRig source(*machine_);
  CheckpointStore store(config(/*full_interval=*/8));
  write_checkpoints(source, store, 5);

  CheckpointStore recovery(config(8));
  FullRig rewound(*machine_);
  support::DiagnosticSink sink;
  ASSERT_TRUE(recovery.restore_to(2, rewound.targets(), sink)) << sink.str();
  ASSERT_EQ(recovery.stats().restored_seq, 2u);
  CheckpointStore::WriteResult next;
  ASSERT_TRUE(recovery.checkpoint(rewound.targets(), next, sink)) << sink.str();
  EXPECT_EQ(next.seq, 6u);
  EXPECT_FALSE(next.delta);
  EXPECT_EQ(chain_files(dir_).size(), 2u);
}

TEST_F(CheckpointStoreTest, LadderRewrittenUnderTheSameSeqsIsDecodedAfresh) {
  FullRig reference(*machine_);
  reference.run();
  const std::vector<sim::RecordedEvent> reference_log = reference.recorder.log();

  FullRig source(*machine_);
  CheckpointStore store(config());
  write_checkpoints(source, store, 5);
  CheckpointStore recovery(config());
  FullRig first(*machine_);
  support::DiagnosticSink sink;
  ASSERT_TRUE(recovery.restore_latest_good(first.targets(), sink)) << sink.str();
  ASSERT_EQ(recovery.stats().restored_seq, 5u);

  // Another writer that never restored numbers from 1 again: it rewrites
  // chains 1 and 4 in place, chain 4..5 included, with savepoints taken
  // 20ns later.
  FullRig later(*machine_);
  CheckpointStore rewriter(config());
  write_checkpoints(later, rewriter, 5, /*first=*/1);
  ASSERT_EQ(chain_files(dir_).size(), 2u);

  FullRig restored(*machine_);
  ASSERT_TRUE(recovery.restore_latest_good(restored.targets(), sink)) << sink.str();
  EXPECT_EQ(recovery.stats().restored_seq, 5u);
  EXPECT_EQ(recovery.stats().reused_decodes, 0u);
  EXPECT_EQ(restored.kernel.now(), later.kernel.now());
  EXPECT_EQ(restored.ticks, later.ticks);
  EXPECT_NE(restored.ticks, first.ticks);
  restored.run();
  expect_same_outcome(restored, reference, reference_log);
}

TEST_F(CheckpointStoreTest, RestoreToARungInsideTheRememberedChain) {
  FullRig reference(*machine_);
  reference.run();
  const std::vector<sim::RecordedEvent> reference_log = reference.recorder.log();

  FullRig source(*machine_);
  CheckpointStore store(config(/*full_interval=*/8));
  write_checkpoints(source, store, 5);

  // The store remembers chain 1..5; rewinding to 3, a prefix of it, must
  // restore rung 3's state.
  CheckpointStore recovery(config(8));
  FullRig latest(*machine_);
  support::DiagnosticSink sink;
  ASSERT_TRUE(recovery.restore_latest_good(latest.targets(), sink)) << sink.str();
  ASSERT_EQ(recovery.stats().restored_seq, 5u);
  FullRig rewound(*machine_);
  ASSERT_TRUE(recovery.restore_to(3, rewound.targets(), sink)) << sink.str();
  EXPECT_EQ(recovery.stats().restored_seq, 3u);
  EXPECT_EQ(recovery.stats().reused_decodes, 0u);
  FullRig at_rung_3(*machine_);
  at_rung_3.run(kMidRunPs + 20000 * 2);
  EXPECT_EQ(rewound.kernel.now(), at_rung_3.kernel.now());
  EXPECT_EQ(rewound.ticks, at_rung_3.ticks);
  EXPECT_NE(rewound.ticks, latest.ticks);
  EXPECT_NE(sink.str().find("restored checkpoint 3 (chain of 3)"), std::string::npos)
      << sink.str();
  rewound.run();
  expect_same_outcome(rewound, reference, reference_log);
}

// restore_to(seq) splits a chain only up to `seq`. A rung right above it,
// torn so short that not even its seq reads, is neither judged nor cut.
TEST_F(CheckpointStoreTest, RestoreToLeavesATornRungAboveItsTargetByteIdentical) {
  FullRig source(*machine_);
  CheckpointStore store(config(/*full_interval=*/8));
  write_checkpoints(source, store, 5);
  const std::filesystem::path chain = dir_ / "ckpt-00000001.usnap";
  std::vector<std::string> rungs = rungs_of(chain);
  ASSERT_EQ(rungs.size(), 5u);
  rungs.back().resize(20);  // Less than a header.
  ASSERT_TRUE(write_chain(chain, rungs));
  std::string torn;
  ASSERT_TRUE(read_file(chain, torn));

  CheckpointStore recovery(config(8));
  support::DiagnosticSink sink;
  for (const std::uint64_t target : {4u, 5u}) {
    FullRig rewound(*machine_);
    ASSERT_TRUE(recovery.restore_to(target, rewound.targets(), sink)) << sink.str();
    EXPECT_EQ(recovery.stats().restored_seq, 4u) << "restore_to(" << target << ")";
    std::string after;
    ASSERT_TRUE(read_file(chain, after));
    EXPECT_EQ(after, torn) << "restore_to(" << target << ") changed the chain";
  }
  EXPECT_EQ(recovery.stats().quarantines, 0u);

  // The newest-good restore is the one that cuts it off.
  FullRig latest(*machine_);
  ASSERT_TRUE(recovery.restore_latest_good(latest.targets(), sink)) << sink.str();
  EXPECT_EQ(recovery.stats().restored_seq, 4u);
  ASSERT_EQ(recovery.quarantined().size(), 1u);
  EXPECT_NE(recovery.quarantined().front().reason.find("the rung after 4: "), std::string::npos)
      << recovery.quarantined().front().reason;
  EXPECT_EQ(std::filesystem::file_size(chain), torn.size() - 20);
}

TEST_F(CheckpointStoreTest, RungRecreatedUnderItsNameIsReopened) {
  FullRig reference(*machine_);
  reference.run();
  const std::vector<sim::RecordedEvent> reference_log = reference.recorder.log();

  {
    FullRig source(*machine_);
    CheckpointStore store(config(/*full_interval=*/8));
    write_checkpoints(source, store, 5);
  }

  // The first restore opens chain 1..5 by name and holds it; the second
  // reads it through the held descriptor.
  CheckpointStore recovery(config(8));
  support::DiagnosticSink sink;
  FullRig first(*machine_);
  ASSERT_TRUE(recovery.restore_latest_good(first.targets(), sink)) << sink.str();
  EXPECT_EQ(recovery.stats().held_reads, 0u);
  FullRig second(*machine_);
  ASSERT_TRUE(recovery.restore_latest_good(second.targets(), sink)) << sink.str();
  EXPECT_EQ(recovery.stats().held_reads, 1u);
  EXPECT_EQ(recovery.stats().reused_decodes, 1u);

  // The chain file is recreated under its name with the same bytes: a new
  // file, renamed over the old one. The store must open the name again,
  // not read the file it holds (which no name links to any more).
  const std::filesystem::path chain = chain_files(dir_).front();
  const std::uint64_t old_inode = inode_of(chain);
  std::string bytes;
  ASSERT_TRUE(read_file(chain, bytes));
  const std::filesystem::path copy = chain.string() + ".copy";
  ASSERT_TRUE(write_file(copy, bytes));
  std::filesystem::rename(copy, chain);
  ASSERT_NE(inode_of(chain), old_inode) << "the held descriptor pins the old inode";

  FullRig third(*machine_);
  ASSERT_TRUE(recovery.restore_latest_good(third.targets(), sink)) << sink.str();
  EXPECT_EQ(recovery.stats().held_reads, 1u) << "the chain is opened by name";
  EXPECT_EQ(recovery.stats().reused_decodes, 2u) << "the bytes read are the same";
  EXPECT_EQ(recovery.stats().restored_seq, 5u);
  EXPECT_EQ(descriptors_on_dead_chains(), std::vector<std::string>{})
      << "the old file's descriptor is closed";
  third.run();
  expect_same_outcome(third, reference, reference_log);

  // The new file's descriptor is held from then on.
  FullRig fourth(*machine_);
  ASSERT_TRUE(recovery.restore_latest_good(fourth.targets(), sink)) << sink.str();
  EXPECT_EQ(recovery.stats().held_reads, 2u);
  fourth.run();
  expect_same_outcome(fourth, reference, reference_log);
}

TEST_F(CheckpointStoreTest, StoreHoldsAtMostOneChainOfDescriptors) {
  {
    FullRig source(*machine_);
    CheckpointStore store(config(/*full_interval=*/8));
    write_checkpoints(source, store, 5);
  }
  const std::size_t before = open_descriptor_links().size();
  {
    CheckpointStore recovery(config(8));
    support::DiagnosticSink sink;
    for (int restore = 0; restore < 6; ++restore) {
      FullRig restored(*machine_);
      ASSERT_TRUE(recovery.restore_latest_good(restored.targets(), sink)) << sink.str();
      EXPECT_LE(open_descriptor_links().size(), before + 1) << "one chain file, one descriptor";
    }
    EXPECT_EQ(recovery.stats().held_reads, 5u);
    // Rewinding to rung 3 reads the same file through the same descriptor.
    FullRig rewound(*machine_);
    ASSERT_TRUE(recovery.restore_to(3, rewound.targets(), sink)) << sink.str();
    EXPECT_LE(open_descriptor_links().size(), before + 1);
    EXPECT_EQ(recovery.stats().held_reads, 6u);
    // Writing swaps the restored chain's descriptor for the new chain's.
    write_checkpoints(rewound, recovery, 2, /*first=*/3);
    EXPECT_LE(open_descriptor_links().size(), before + 1);
  }
  EXPECT_EQ(open_descriptor_links().size(), before) << "the destructor closes it";
}

TEST_F(CheckpointStoreTest, PrunedRungLeavesNoDescriptorOpen) {
  {
    FullRig source(*machine_);
    CheckpointStore store(config());
    write_checkpoints(source, store, 5);
  }

  // The store that restored chain 4..5 writes on until its rotation
  // deletes that chain.
  CheckpointStore recovery(config(/*full_interval=*/3, /*keep_fulls=*/1));
  FullRig resumed(*machine_);
  support::DiagnosticSink sink;
  ASSERT_TRUE(recovery.restore_latest_good(resumed.targets(), sink)) << sink.str();
  write_checkpoints(resumed, recovery, 4, /*first=*/5);
  ASSERT_GT(recovery.stats().pruned, 0u);
  ASSERT_FALSE(std::filesystem::exists(dir_ / "ckpt-00000004.usnap"));
  EXPECT_EQ(descriptors_on_dead_chains(), std::vector<std::string>{});
}

/// Faults in the middle of a chain. Two chain files (bases at seq 1 and 5,
/// full_interval 4); the newest chain's second delta, seq 7, is damaged.
/// The ladder must blame seq 7 itself when it is present, cut it and the
/// delta that chains to it off the file, and restore seq 6, which continues
/// bit-identically.
class CheckpointStoreMidChainTest : public CheckpointStoreTest {
 protected:
  void SetUp() override {
    CheckpointStoreTest::SetUp();
    FullRig source(*machine_);
    CheckpointStore store(config(/*full_interval=*/4));
    write_checkpoints(source, store, 8);
    ASSERT_EQ(chain_files(dir_).size(), 2u);
    rungs_ = rungs_of(chain_5());
    ASSERT_EQ(rungs_.size(), 4u);
  }

  [[nodiscard]] std::filesystem::path chain_5() const { return dir_ / "ckpt-00000005.usnap"; }

  /// Rewrites chain 5 in place with rung `seq` replaced by `bytes`.
  void replace_rung(std::uint64_t seq, const std::string& bytes) {
    std::vector<std::string> rungs = rungs_;
    rungs[seq - 5] = bytes;
    ASSERT_TRUE(write_chain(chain_5(), rungs));
  }

  /// Restores through a fresh store and expects exactly one quarantine of
  /// chain 5, for a reason containing `reason`, and a restore of seq 6.
  void expect_ladder(const std::string& reason) {
    CheckpointStore recovery(config(4));
    expect_ladder(recovery, reason);
  }

  /// The same through `recovery`, which may have restored before. The cut
  /// leaves rungs 5 and 6 in the file.
  void expect_ladder(CheckpointStore& recovery, const std::string& reason) {
    FullRig reference(*machine_);
    reference.run();
    FullRig restored(*machine_);
    support::DiagnosticSink sink;
    ASSERT_TRUE(recovery.restore_latest_good(restored.targets(), sink)) << sink.str();
    ASSERT_EQ(recovery.quarantined().size(), 1u) << sink.str();
    const CheckpointStore::QuarantineRecord& record = recovery.quarantined().front();
    EXPECT_EQ(record.path, chain_5());
    EXPECT_NE(record.reason.find(reason), std::string::npos) << record.reason;
    EXPECT_EQ(recovery.stats().quarantines, 1u);
    EXPECT_EQ(recovery.stats().restored_seq, 6u);
    EXPECT_EQ(std::filesystem::file_size(chain_5()), rungs_[0].size() + rungs_[1].size());
    restored.run();
    expect_same_outcome(restored, reference, reference.recorder.log());
  }

  /// Restores the undamaged ladder (seq 8) through `recovery`, so that it
  /// remembers the chain 5..8 when the damage lands.
  void restore_undamaged(CheckpointStore& recovery) {
    FullRig restored(*machine_);
    support::DiagnosticSink sink;
    ASSERT_TRUE(recovery.restore_latest_good(restored.targets(), sink)) << sink.str();
    ASSERT_EQ(recovery.stats().restored_seq, 8u);
    ASSERT_EQ(recovery.stats().quarantines, 0u);
  }

  /// Flips a bit of rung `seq`'s last payload byte before the trailer, in
  /// place: only its frame checksum can notice.
  void flip_payload_bit_of_rung(std::uint64_t seq) {
    std::string bytes = rungs_[seq - 5];
    bytes[bytes.size() - kBinaryTrailer.size() - 1] ^= 0x04;
    replace_rung(seq, bytes);
  }

  /// Overwrites rung 7 with the seq 7 of a rig that ran exactly as ours but
  /// marked its `dma` unit degraded before its seq 6. Every frame of that
  /// rung matches ours in size and checksum, and so does its header; only
  /// the health section's reference checksum, which points at a seq 6 that
  /// is not ours, tells the two apart.
  void write_same_size_foreign_rung_7() {
    FullRig other(*machine_);
    CheckpointStoreConfig foreign = config(4);
    foreign.directory = dir_.string() + "-foreign";
    CheckpointStore foreign_store(foreign);
    write_checkpoints(other, foreign_store, 5);
    other.health.set_health(other.dma_unit, sim::UnitHealth::kDegraded);
    write_checkpoints(other, foreign_store, 2, /*first=*/5);
    const std::string theirs = rungs_of(foreign.directory / "ckpt-00000005.usnap")[2];
    const std::string& ours = rungs_[2];
    ASSERT_EQ(theirs.size(), ours.size());
    ASSERT_EQ(theirs.substr(0, kHeaderHashedBytes + 8), ours.substr(0, kHeaderHashedBytes + 8))
        << "same header";
    ASSERT_NE(theirs, ours);
    replace_rung(7, theirs);
  }

  std::vector<std::string> rungs_;  ///< Chain 5 as written: rungs 5..8.
};

TEST_F(CheckpointStoreMidChainTest, BitFlipInAFrameQuarantinesTheDeltaAndItsDependent) {
  flip_payload_bit_of_rung(7);
  expect_ladder(
      "rung 7: error: binary-snapshot: section checksum mismatch in <bank name='memory'>");
}

TEST_F(CheckpointStoreMidChainTest, ForeignDeltaIsCaughtByItsReferenceChecksums) {
  // Another rig's seq 7 has the same numbering, links to base 6 and keeps
  // every frame checksum intact. Its own seq 6 was taken 20ns later than
  // ours and nothing ran before its seq 7, so every section is a reference
  // frame: only the reference checksums can refuse it.
  FullRig other(*machine_);
  CheckpointStoreConfig foreign = config(4);
  foreign.directory = dir_.string() + "-foreign";
  CheckpointStore foreign_store(foreign);
  write_checkpoints(other, foreign_store, 5);
  other.run(kMidRunPs + 20000 * 6);
  CheckpointStore::WriteResult result;
  support::DiagnosticSink sink;
  ASSERT_TRUE(foreign_store.checkpoint(other.targets(), result, sink)) << sink.str();
  ASSERT_TRUE(foreign_store.checkpoint(other.targets(), result, sink)) << sink.str();
  ASSERT_EQ(result.seq, 7u);
  ASSERT_TRUE(result.delta);
  replace_rung(7, rungs_of(result.path).back());
  expect_ladder("rung 7: error: binary-snapshot: reference checksum mismatch in <kernel>");
}

// The same damage landing after a store has restored the chain: the store's
// next restore reads the damaged bytes, so it neither reuses its decode nor
// ladders any differently from a fresh store.
TEST_F(CheckpointStoreMidChainTest, BitFlipAfterARestoreBypassesTheRememberedDecode) {
  CheckpointStore recovery(config(4));
  restore_undamaged(recovery);
  flip_payload_bit_of_rung(7);
  expect_ladder(recovery, "section checksum mismatch in <bank name='memory'>");
  EXPECT_EQ(recovery.stats().restores, 2u);
  EXPECT_EQ(recovery.stats().reused_decodes, 0u);
}

TEST_F(CheckpointStoreMidChainTest, SameSizeForeignDeltaAfterARestoreBypassesTheRememberedDecode) {
  CheckpointStore recovery(config(4));
  restore_undamaged(recovery);
  write_same_size_foreign_rung_7();
  expect_ladder(recovery, "reference checksum mismatch in <health name='health'>");
  EXPECT_EQ(recovery.stats().restores, 2u);
  EXPECT_EQ(recovery.stats().reused_decodes, 0u);
}

// A bad base sets its whole file aside, and the store lets go of the
// descriptor it held on it.
TEST_F(CheckpointStoreMidChainTest, QuarantinedRungLeavesNoDescriptorOpen) {
  CheckpointStore recovery(config(4));
  restore_undamaged(recovery);
  flip_payload_bit_of_rung(5);
  FullRig restored(*machine_);
  support::DiagnosticSink sink;
  ASSERT_TRUE(recovery.restore_latest_good(restored.targets(), sink)) << sink.str();
  EXPECT_EQ(recovery.stats().restored_seq, 4u);
  ASSERT_EQ(recovery.quarantined().size(), 1u);
  EXPECT_NE(recovery.quarantined().front().reason.find("rung 5: "), std::string::npos)
      << recovery.quarantined().front().reason;
  EXPECT_TRUE(std::filesystem::exists(chain_5().string() + ".quarantined"));
  EXPECT_EQ(chain_files(dir_).size(), 1u);
  EXPECT_EQ(descriptors_on_dead_chains(), std::vector<std::string>{});
}

TEST_F(CheckpointStoreMidChainTest, MissingDeltaQuarantinesTheDeltaThatNeedsIt) {
  ASSERT_TRUE(write_chain(chain_5(), {rungs_[0], rungs_[1], rungs_[3]}));
  expect_ladder(
      "rung 8: error: binary-snapshot: chain break: delta 8 expects base 7, chain holds 6");
}

}  // namespace
}  // namespace umlsoc::replay
