// Checkpoint/restore and deterministic-replay tests: snapshot round-trips
// into a freshly constructed setup and into the live rig itself, rejection
// of version-bumped, corrupted and truncated snapshots, save-side refusal of
// unserializable states, and event-sequence divergence detection.
#include <gtest/gtest.h>

#include <array>
#include <iterator>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "replay/binary.hpp"
#include "replay/snapshot.hpp"
#include "sim/bus.hpp"
#include "sim/fault.hpp"
#include "sim/kernel.hpp"
#include "sim/replay.hpp"
#include "statechart/interpreter.hpp"
#include "statechart/model.hpp"

namespace umlsoc::replay {
namespace {

using sim::SimTime;

/// Shared machine structure; every rig binds its own instance, mirroring
/// "the restoring process rebuilds the same model".
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

/// A deterministic mini-SoC: a ticker process drives bus reads against a
/// small memory, kicks a watchdog, and alternates a statechart between two
/// states. Constructed identically every time, so ProcessIds and vertex
/// indices are stable across rig instances.
struct Rig {
  static constexpr int kTicks = 40;
  static constexpr std::uint64_t kTickPs = 10000;  // 10ns.

  sim::Kernel kernel;
  sim::MemoryMappedBus bus;
  sim::FaultPlan plan;
  statechart::StateMachineInstance instance;
  sim::Watchdog watchdog;
  sim::EventRecorder recorder;
  std::array<std::uint64_t, 8> memory{};
  /// Optional master port with timeout supervision; reads go through it
  /// when present.
  std::unique_ptr<sim::BusMasterPort> port;
  sim::ProcessId ticker = sim::kInvalidProcess;
  sim::ProcessId perturb = sim::kInvalidProcess;
  int ticks = 0;
  std::uint64_t read_sum = 0;

  explicit Rig(const statechart::StateMachine& machine, SimTime port_timeout = SimTime())
      : bus(kernel, "mem", SimTime::ns(4)),
        plan(/*seed=*/7),
        instance(machine),
        watchdog(kernel, "rig", SimTime::us(1)) {
    if (port_timeout.picoseconds() != 0) {
      sim::RetryPolicy policy;
      policy.timeout = port_timeout;
      port = std::make_unique<sim::BusMasterPort>(kernel, bus, "cpu", policy);
    }
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
    instance.set_trace_enabled(false);
    instance.start();
    ticker = kernel.register_process([this] { tick(); }, "rig.ticker");
    perturb = kernel.register_process([] {}, "rig.perturb");
    kernel.set_recorder(&recorder);
    watchdog.arm();
    kernel.schedule(SimTime(kTickPs), ticker);
  }

  void tick() {
    ++ticks;
    watchdog.kick();
    const std::uint64_t address = (static_cast<std::uint64_t>(ticks) % memory.size()) * 8;
    sim::MemoryMappedBus::ReadCompletion done(
        [this](sim::BusStatus, std::uint64_t value) { read_sum += value; });
    if (port != nullptr) {
      port->read(address, std::move(done));
    } else {
      bus.read(address, std::move(done));
    }
    if (ticks % 2 == 1) {
      instance.dispatch(statechart::Event{"go", ticks});
    } else {
      instance.dispatch(statechart::Event{"done", ticks});
    }
    if (ticks == 2) instance.post(statechart::Event{"pending", 99, "tagged"});
    if (ticks < kTicks) kernel.schedule(SimTime(kTickPs), ticker);
  }

  /// Runs to `end_ps` and on to full quiescence when end_ps is 0. A full
  /// run ends with the un-kicked watchdog tripping at its deadline.
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
    out.banks.push_back(
        {"memory",
         [this] {
           std::vector<std::pair<std::string, std::uint64_t>> values;
           for (std::size_t i = 0; i < memory.size(); ++i) {
             values.emplace_back("w" + std::to_string(i), memory[i]);
           }
           values.emplace_back("ticks", static_cast<std::uint64_t>(ticks));
           values.emplace_back("read-sum", read_sum);
           return values;
         },
         [this](const std::vector<std::pair<std::string, std::uint64_t>>& values,
                support::DiagnosticSink& sink) {
           for (const auto& [key, value] : values) {
             if (key == "ticks") {
               ticks = static_cast<int>(value);
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
    if (port != nullptr) {
      out.banks.push_back(
          {"port",
           [this] {
             const sim::BusMasterPort::Stats& stats = port->stats();
             return std::vector<std::pair<std::string, std::uint64_t>>{
                 {"transactions", stats.transactions}, {"timeouts", stats.timeouts},
                 {"retries", stats.retries},           {"exhausted", stats.exhausted},
                 {"recovered", stats.recovered},       {"late", stats.late_completions}};
           },
           [this](const std::vector<std::pair<std::string, std::uint64_t>>& values,
                  support::DiagnosticSink& sink) {
             sim::BusMasterPort::Stats stats;
             std::uint64_t* fields[] = {&stats.transactions, &stats.timeouts,
                                        &stats.retries,      &stats.exhausted,
                                        &stats.recovered,    &stats.late_completions};
             if (values.size() != std::size(fields)) {
               sink.error("port", "expected " + std::to_string(std::size(fields)) + " counters");
               return false;
             }
             for (std::size_t i = 0; i < values.size(); ++i) *fields[i] = values[i].second;
             port->restore_checkpoint(stats);
             return true;
           }});
    }
    return out;
  }
};

// Checkpoint instant: ticks 10..25ns completed (bus completions land 4ns
// after each tick), the 30ns tick still pending — bus quiescent, kernel not.
constexpr std::uint64_t kMidRunPs = 25000;

class ReplayTest : public ::testing::Test {
 protected:
  std::unique_ptr<statechart::StateMachine> machine_ = make_machine();
};

TEST_F(ReplayTest, SnapshotRoundTripIsBitIdentical) {
  Rig reference(*machine_);
  reference.run();
  const std::vector<sim::RecordedEvent> reference_log = reference.recorder.log();
  ASSERT_GT(reference_log.size(), 0u);

  Rig source(*machine_);
  source.run(kMidRunPs);
  ASSERT_EQ(source.bus.pending_transactions(), 0u);
  std::string snapshot;
  support::DiagnosticSink sink;
  ASSERT_TRUE(save_snapshot_binary(source.targets(), snapshot, sink)) << sink.str();

  Rig restored(*machine_);
  support::DiagnosticSink restore_sink;
  ASSERT_TRUE(restore_snapshot_binary(restored.targets(), snapshot, restore_sink))
      << restore_sink.str();
  restored.run();

  // Event sequence: the restored run's complete log (snapshot prefix +
  // continuation) equals the uninterrupted reference's.
  EXPECT_EQ(restored.recorder.log(), reference_log);
  // Final state, component by component.
  EXPECT_EQ(restored.kernel.now(), reference.kernel.now());
  EXPECT_EQ(restored.kernel.events_processed(), reference.kernel.events_processed());
  EXPECT_EQ(restored.ticks, reference.ticks);
  EXPECT_EQ(restored.read_sum, reference.read_sum);
  EXPECT_EQ(restored.memory, reference.memory);
  EXPECT_EQ(restored.bus.stats().reads, reference.bus.stats().reads);
  EXPECT_EQ(restored.bus.stats().errors, reference.bus.stats().errors);
  EXPECT_EQ(restored.bus.stats().injected_bit_flips, reference.bus.stats().injected_bit_flips);
  EXPECT_EQ(restored.plan.str(), reference.plan.str());
  EXPECT_EQ(restored.watchdog.trips(), reference.watchdog.trips());
  EXPECT_EQ(restored.watchdog.kicks(), reference.watchdog.kicks());
  EXPECT_EQ(restored.instance.active_leaf_names(), reference.instance.active_leaf_names());
  EXPECT_EQ(restored.instance.events_processed(), reference.instance.events_processed());
  EXPECT_EQ(restored.instance.transitions_fired(), reference.instance.transitions_fired());
}

TEST_F(ReplayTest, SnapshotCapturesQueuedEventsAndVariables) {
  Rig source(*machine_);
  source.instance.set_variable("budget", -12);
  source.run(kMidRunPs);
  source.instance.post(statechart::Event{"late", 5});

  std::string snapshot;
  support::DiagnosticSink sink;
  ASSERT_TRUE(save_snapshot_binary(source.targets(), snapshot, sink)) << sink.str();

  Rig restored(*machine_);
  support::DiagnosticSink restore_sink;
  ASSERT_TRUE(restore_snapshot_binary(restored.targets(), snapshot, restore_sink))
      << restore_sink.str();
  EXPECT_EQ(restored.instance.variable("budget"), -12);
  const statechart::InstanceSnapshot roundtrip = restored.instance.capture();
  // Two undispatched events: "pending" posted by the tick-2 process, then
  // the explicit "late" post — queue order and payloads survive the trip.
  ASSERT_EQ(roundtrip.queue.size(), 2u);
  EXPECT_EQ(roundtrip.queue[0].name, "pending");
  EXPECT_EQ(roundtrip.queue[0].data, 99);
  EXPECT_EQ(roundtrip.queue[0].tag, "tagged");
  EXPECT_EQ(roundtrip.queue[1].name, "late");
  EXPECT_EQ(roundtrip.queue[1].data, 5);
}

TEST_F(ReplayTest, VersionMismatchIsRejected) {
  Rig source(*machine_);
  source.run(kMidRunPs);
  std::string snapshot;
  support::DiagnosticSink sink;
  ASSERT_TRUE(save_snapshot_binary(source.targets(), snapshot, sink)) << sink.str();

  // The header's u32 version follows the 8-byte magic; the version is
  // checked before the header checksum, so no checksum repair is needed.
  constexpr std::size_t kVersionOffset = 8;
  const auto bumped = static_cast<std::uint32_t>(kSnapshotVersion + 1);
  for (std::size_t i = 0; i < 4; ++i) {
    snapshot[kVersionOffset + i] = static_cast<char>((bumped >> (8 * i)) & 0xff);
  }

  Rig restored(*machine_);
  support::DiagnosticSink restore_sink;
  EXPECT_FALSE(restore_snapshot_binary(restored.targets(), snapshot, restore_sink));
  EXPECT_NE(restore_sink.str().find("unsupported snapshot version " +
                                    std::to_string(kSnapshotVersion + 1)),
            std::string::npos)
      << restore_sink.str();
  // The failed restore left the fresh rig untouched.
  EXPECT_EQ(restored.kernel.now().picoseconds(), 0u);
  EXPECT_EQ(restored.ticks, 0);
}

TEST_F(ReplayTest, CorruptedContentFailsTheChecksum) {
  Rig source(*machine_);
  source.run(kMidRunPs);
  std::string snapshot;
  support::DiagnosticSink sink;
  ASSERT_TRUE(save_snapshot_binary(source.targets(), snapshot, sink)) << sink.str();

  // Flip one bit of the fault plan's bus-read RNG state, a payload byte.
  const std::uint64_t rng_state = source.plan.site_state(sim::FaultSite::kBusRead).rng_state;
  std::string needle;
  for (std::size_t i = 0; i < 8; ++i) needle += static_cast<char>((rng_state >> (8 * i)) & 0xff);
  const std::size_t at = snapshot.find(needle);
  ASSERT_NE(at, std::string::npos);
  snapshot[at] ^= 0x01;

  Rig restored(*machine_);
  support::DiagnosticSink restore_sink;
  EXPECT_FALSE(restore_snapshot_binary(restored.targets(), snapshot, restore_sink));
  EXPECT_NE(restore_sink.str().find("checksum mismatch"), std::string::npos)
      << restore_sink.str();
  EXPECT_EQ(restored.kernel.now().picoseconds(), 0u);
}

TEST_F(ReplayTest, TruncatedSnapshotsAreRejectedAtEveryLength) {
  Rig source(*machine_);
  source.run(kMidRunPs);
  std::string snapshot;
  support::DiagnosticSink sink;
  ASSERT_TRUE(save_snapshot_binary(source.targets(), snapshot, sink)) << sink.str();

  Rig restored(*machine_);
  const SnapshotTargets targets = restored.targets();
  for (std::size_t length = 0; length < snapshot.size(); ++length) {
    support::DiagnosticSink restore_sink;
    EXPECT_FALSE(restore_snapshot_binary(targets, snapshot.substr(0, length), restore_sink));
    EXPECT_TRUE(restore_sink.has_errors()) << "silent failure at length " << length;
  }
  EXPECT_EQ(restored.kernel.now().picoseconds(), 0u);
}

TEST_F(ReplayTest, SaveRefusesPendingBusTransactions) {
  Rig source(*machine_);
  source.run(kMidRunPs);
  source.bus.read(0, sim::MemoryMappedBus::ReadCompletion(nullptr));
  ASSERT_GT(source.bus.pending_transactions(), 0u);

  std::string snapshot;
  support::DiagnosticSink sink;
  EXPECT_FALSE(save_snapshot_binary(source.targets(), snapshot, sink));
  EXPECT_NE(sink.str().find("pending transactions"), std::string::npos) << sink.str();
}

TEST_F(ReplayTest, SaveRefusesForeignOutstandingExpectations) {
  Rig source(*machine_);
  source.run(kMidRunPs);
  const sim::ExpectationId custom = source.kernel.register_expectation("custom in-flight");
  source.kernel.expect(custom);

  std::string snapshot;
  support::DiagnosticSink sink;
  EXPECT_FALSE(save_snapshot_binary(source.targets(), snapshot, sink));
  EXPECT_NE(sink.str().find("custom in-flight"), std::string::npos) << sink.str();
}

TEST_F(ReplayTest, RestoreRejectsMissingAndForeignSections) {
  Rig source(*machine_);
  source.run(kMidRunPs);
  std::string snapshot;
  support::DiagnosticSink sink;
  ASSERT_TRUE(save_snapshot_binary(source.targets(), snapshot, sink)) << sink.str();

  Rig restored(*machine_);
  SnapshotTargets targets = restored.targets();
  targets.machines[0].name = "other";  // Registered target not in the snapshot.
  support::DiagnosticSink restore_sink;
  EXPECT_FALSE(restore_snapshot_binary(targets, snapshot, restore_sink));
  EXPECT_NE(restore_sink.str().find("no <machine> section named 'other'"), std::string::npos)
      << restore_sink.str();
  EXPECT_NE(restore_sink.str().find("has no registered target"), std::string::npos)
      << restore_sink.str();
}

TEST_F(ReplayTest, VerifyModeFlagsInjectedDivergence) {
  Rig reference(*machine_);
  reference.run();
  const std::vector<sim::RecordedEvent> reference_log = reference.recorder.log();

  Rig source(*machine_);
  source.run(kMidRunPs);
  std::string snapshot;
  support::DiagnosticSink sink;
  ASSERT_TRUE(save_snapshot_binary(source.targets(), snapshot, sink)) << sink.str();

  Rig perturbed(*machine_);
  support::DiagnosticSink restore_sink;
  ASSERT_TRUE(restore_snapshot_binary(perturbed.targets(), snapshot, restore_sink))
      << restore_sink.str();
  perturbed.recorder.begin_verify(reference_log, perturbed.recorder.total_events());
  perturbed.kernel.schedule(SimTime::ns(1), perturbed.perturb);  // Event the reference lacks.
  perturbed.run();

  ASSERT_TRUE(perturbed.recorder.divergence().has_value());
  const sim::EventRecorder::Divergence& divergence = *perturbed.recorder.divergence();
  EXPECT_EQ(divergence.actual_label, "rig.perturb");
  EXPECT_NE(divergence.str().find("rig.perturb"), std::string::npos);
}

TEST_F(ReplayTest, VerifyModePassesOnFaithfulReplay) {
  Rig reference(*machine_);
  reference.run();

  Rig replayed(*machine_);
  replayed.recorder.begin_verify(reference.recorder.log());
  replayed.run();
  EXPECT_EQ(replayed.recorder.divergence(), std::nullopt);
  EXPECT_EQ(replayed.recorder.missing_events(), std::nullopt);
}

TEST_F(ReplayTest, SharedExpectedLogVerifiesAsACopiedLogDoes) {
  Rig reference(*machine_);
  reference.run();
  const std::vector<sim::RecordedEvent> reference_log = reference.recorder.log();
  const sim::SharedEventLog shared =
      std::make_shared<const std::vector<sim::RecordedEvent>>(reference_log);

  // Two verify windows of one rig against the one shared log, as two
  // root-cause probes run: up to mid-run, then on to the end.
  Rig replayed(*machine_);
  replayed.recorder.begin_verify(shared);
  replayed.run(kMidRunPs);
  EXPECT_EQ(replayed.recorder.divergence(), std::nullopt);
  replayed.recorder.end_verify();
  EXPECT_EQ(shared.use_count(), 1) << "end_verify lets go of the log";
  replayed.recorder.begin_verify(shared, replayed.recorder.total_events());
  replayed.run();
  EXPECT_EQ(replayed.recorder.divergence(), std::nullopt);
  EXPECT_EQ(replayed.recorder.missing_events(), std::nullopt);
  EXPECT_EQ(replayed.recorder.log(), reference_log);

  // A perturbed run latches the same divergence against either log.
  const auto diverge = [this](const auto& expected) {
    Rig perturbed(*machine_);
    perturbed.recorder.begin_verify(expected);
    perturbed.kernel.schedule(SimTime::ns(1), perturbed.perturb);
    perturbed.run();
    return perturbed.recorder.divergence();
  };
  const std::optional<sim::EventRecorder::Divergence> copied = diverge(reference_log);
  const std::optional<sim::EventRecorder::Divergence> from_shared = diverge(shared);
  ASSERT_TRUE(copied.has_value());
  ASSERT_TRUE(from_shared.has_value());
  EXPECT_EQ(from_shared->str(), copied->str());
  EXPECT_EQ(*shared, reference_log);
}

TEST_F(ReplayTest, VerifyModeReportsRunsThatStopShort) {
  Rig reference(*machine_);
  reference.run();

  Rig replayed(*machine_);
  replayed.recorder.begin_verify(reference.recorder.log());
  replayed.run(kMidRunPs);
  EXPECT_EQ(replayed.recorder.divergence(), std::nullopt);
  ASSERT_TRUE(replayed.recorder.missing_events().has_value());
}

TEST_F(ReplayTest, StatechartRestoreRejectsForeignIndices) {
  Rig source(*machine_);
  source.run(kMidRunPs);
  statechart::InstanceSnapshot snapshot = source.instance.capture();
  snapshot.active_states.push_back(1000);

  Rig restored(*machine_);
  support::DiagnosticSink sink;
  EXPECT_FALSE(restored.instance.restore(snapshot, sink));
  EXPECT_TRUE(sink.has_errors());
  // Validation happens before mutation: the instance still runs normally.
  EXPECT_TRUE(restored.instance.is_in("Idle"));
}

// A restore into the rig that is still running (how time travel and
// root-cause probes use it) must drop the abandoned timeline's in-flight
// transactions: capture refuses while any exist, so the restored state has
// none. A stale one would swallow the next completion, every later read
// landing one tick late.
void expect_live_restore_replays_faithfully(const statechart::StateMachine& machine,
                                            SimTime port_timeout) {
  Rig reference(machine, port_timeout);
  reference.run();

  Rig rig(machine, port_timeout);
  rig.run(kMidRunPs);
  std::string snapshot;
  support::DiagnosticSink sink;
  ASSERT_TRUE(save_snapshot_binary(rig.targets(), snapshot, sink)) << sink.str();
  rig.run(31000);  // The 30ns tick's read is in flight until 34ns.
  ASSERT_EQ(rig.bus.pending_transactions(), 1u);

  support::DiagnosticSink restore_sink;
  ASSERT_TRUE(restore_snapshot_binary(rig.targets(), snapshot, restore_sink)) << restore_sink.str();
  EXPECT_EQ(rig.bus.pending_transactions(), 0u);
  rig.recorder.begin_verify(reference.recorder.log(), rig.recorder.total_events());
  rig.run();

  EXPECT_EQ(rig.recorder.divergence(), std::nullopt);
  EXPECT_EQ(rig.recorder.missing_events(), std::nullopt);
  EXPECT_EQ(rig.bus.pending_transactions(), 0u);
  EXPECT_EQ(rig.read_sum, reference.read_sum);
  EXPECT_EQ(rig.memory, reference.memory);
  EXPECT_EQ(rig.bus.stats().completions, reference.bus.stats().completions);
  EXPECT_EQ(rig.kernel.outstanding_expectations(), 0u);
  if (port_timeout.picoseconds() != 0) {
    EXPECT_EQ(rig.port->stats().timeouts, reference.port->stats().timeouts);
    EXPECT_EQ(rig.port->stats().exhausted, reference.port->stats().exhausted);
    EXPECT_EQ(rig.port->stats().transactions, reference.port->stats().transactions);
  }
}

TEST_F(ReplayTest, RestoreIntoLiveRigDropsInFlightBusTransactions) {
  expect_live_restore_replays_faithfully(*machine_, SimTime());
}

TEST_F(ReplayTest, RestoreIntoLiveRigDropsStalePortSupervision) {
  expect_live_restore_replays_faithfully(*machine_, SimTime::ns(8));
}

TEST_F(ReplayTest, RecorderDetachedCostsNothingAndRecordsNothing) {
  Rig rig(*machine_);
  rig.kernel.set_recorder(nullptr);
  rig.run();
  EXPECT_EQ(rig.recorder.total_events(), 0u);
  EXPECT_GT(rig.kernel.events_processed(), 0u);
}

}  // namespace
}  // namespace umlsoc::replay
