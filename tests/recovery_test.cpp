// RecoveryCoordinator tests: policy-driven background checkpointing
// (interval, co-batched refusal-retry), crash recovery through the ladder
// with a bounded lost-work window, time travel via restore_to, and the
// root-cause binary search pinpointing a seeded poison event, clipping the
// window it reports and never writing rungs from a probe's replay.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdint>
#include <filesystem>
#include <string>
#include <utility>
#include <vector>

#include "codegen/plantuml.hpp"
#include "interaction/from_trace.hpp"
#include "interaction/trace.hpp"
#include "replay/recovery.hpp"
#include "replay/snapshot.hpp"
#include "replay/store.hpp"
#include "sim/fault.hpp"
#include "sim/kernel.hpp"
#include "sim/replay.hpp"

namespace umlsoc::replay {
namespace {

using sim::SimTime;

/// A minimal workload: a worker process ticks every 10 ns, incrementing a
/// checkpointed counter. A host-side knob (not checkpointed, playing the
/// role of an external fault source) can corrupt the counter at one tick;
/// the corruption recurs on every replay. Construction order is identical
/// across instances, so ProcessIds line up for replay.
struct WorkerRig {
  static constexpr std::uint64_t kWorkerPs = 10'000;  // 10 ns.

  sim::Kernel kernel;
  sim::EventRecorder recorder;
  sim::ProcessId worker = sim::kInvalidProcess;
  std::uint64_t ticks = 0;
  std::uint64_t counter = 0;
  std::uint64_t corrupt_at_tick = 0;  ///< 0: never.

  WorkerRig() {
    worker = kernel.register_process([this] { work(); }, "rig.worker");
    kernel.set_recorder(&recorder);
  }

  void start() { kernel.schedule(SimTime(kWorkerPs), worker); }

  void work() {
    // Chain first: a restored pending activation keeps the workload alive.
    kernel.schedule(SimTime(kWorkerPs), worker);
    ++ticks;
    ++counter;
    if (corrupt_at_tick != 0 && ticks == corrupt_at_tick) counter += 1000;
  }

  [[nodiscard]] SnapshotTargets targets() {
    SnapshotTargets out;
    out.kernel = &kernel;
    out.recorder = &recorder;
    out.banks.push_back(
        {"state",
         [this] {
           return std::vector<std::pair<std::string, std::uint64_t>>{{"ticks", ticks},
                                                                     {"counter", counter}};
         },
         [this](const std::vector<std::pair<std::string, std::uint64_t>>& values,
                support::DiagnosticSink& sink) {
           for (const auto& [key, value] : values) {
             if (key == "ticks") {
               ticks = value;
             } else if (key == "counter") {
               counter = value;
             } else {
               sink.error("state", "unknown key '" + key + "'");
               return false;
             }
           }
           return true;
         }});
    return out;
  }
};

class RecoveryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // System temp, not the working directory: ctest runs many test
    // processes in one directory, and a relative scratch root would both
    // collide across suites and outlive aborted runs as litter. The pid
    // keeps concurrently-running test processes apart; the test name keeps
    // cases within one process apart.
    std::string scratch = "umlsoc-recovery-";
    scratch += std::to_string(::getpid());
    root_ = std::filesystem::temp_directory_path() / scratch;
    dir_ = root_ /
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
    std::filesystem::remove_all(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(root_); }

  CheckpointStoreConfig store_config() {
    CheckpointStoreConfig out;
    out.directory = dir_;
    out.full_interval = 4;
    out.keep_fulls = 3;
    return out;
  }

  /// Interval cadence with a tick off the worker's 10 ns grid, so captures
  /// are never refused for co-batching within the horizons used here.
  static RecoveryPolicy policy_100ns() {
    RecoveryPolicy policy;
    policy.checkpoint_interval = SimTime::ns(100);
    policy.tick_interval = SimTime(20'001);
    return policy;
  }

  std::filesystem::path root_;
  std::filesystem::path dir_;
};

TEST_F(RecoveryTest, BackgroundTicksWriteAtTheCheckpointInterval) {
  WorkerRig rig;
  CheckpointStore store(store_config());
  RecoveryCoordinator coordinator(rig.kernel, store, rig.targets(), policy_100ns());
  coordinator.start();
  rig.start();
  rig.kernel.run(SimTime::us(2));

  const RecoveryCoordinator::Stats& stats = coordinator.stats();
  EXPECT_GT(stats.ticks, 50u);
  EXPECT_GE(stats.written, 10u) << "2us at a 100ns interval";
  EXPECT_LE(stats.written, 25u) << "the interval gates writes, not every tick";
  EXPECT_EQ(stats.written, store.stats().checkpoints);
  EXPECT_GT(stats.last_checkpoint_ps, 0u);
  EXPECT_EQ(stats.last_checkpoint_seq, store.stats().checkpoints);
  EXPECT_EQ(stats.written + stats.refusals, stats.attempts);
  EXPECT_GT(store.stats().deltas, 0u) << "full-every-Nth cadence emits deltas between bases";
}

TEST_F(RecoveryTest, CoBatchedTickIsRefusedAndRetries) {
  WorkerRig rig;
  CheckpointStore store(store_config());
  RecoveryPolicy policy;
  policy.checkpoint_interval = SimTime::ns(100);
  // Deliberately ON the worker grid, and started first so the coordinator
  // tick always has a co-batch member still to run: every capture refuses.
  policy.tick_interval = SimTime(WorkerRig::kWorkerPs);
  RecoveryCoordinator coordinator(rig.kernel, store, rig.targets(), policy);
  coordinator.start();
  rig.start();
  rig.kernel.run(SimTime::us(1));

  EXPECT_GT(coordinator.stats().refusals, 0u);
  EXPECT_EQ(coordinator.stats().written, 0u);
  EXPECT_EQ(store.stats().checkpoints, 0u);
}

TEST_F(RecoveryTest, CrashRecoveryBoundsLostWorkAndReplaysBitIdentically) {
  const SimTime horizon = SimTime::us(3);
  const SimTime crash_tick(1'000'003);

  // Reference twin: same construction (injector with a null plan), no crash.
  WorkerRig reference;
  sim::CrashInjector reference_injector(reference.kernel, nullptr, crash_tick);
  CheckpointStoreConfig reference_config = store_config();
  reference_config.directory = dir_ / "reference";
  CheckpointStore reference_store(reference_config);
  RecoveryCoordinator reference_coordinator(reference.kernel, reference_store,
                                            reference.targets(), policy_100ns());
  reference_coordinator.start();
  reference_injector.start();
  reference.start();
  reference.kernel.run(horizon);
  const std::vector<sim::RecordedEvent> reference_log = reference.recorder.log();

  // Crashing rig: first armed injector tick dies (p=1, one fault).
  WorkerRig crashing;
  sim::FaultPlan plan(/*seed=*/11);
  sim::FaultPlan::SiteConfig site;
  site.error_rate = 1.0;
  site.max_faults = 1;
  plan.configure(sim::FaultSite::kCrash, site);
  sim::CrashInjector injector(crashing.kernel, &plan, crash_tick);
  CheckpointStoreConfig crash_config = store_config();
  crash_config.directory = dir_ / "crash";
  CheckpointStore crash_store(crash_config);
  RecoveryCoordinator crash_coordinator(crashing.kernel, crash_store, crashing.targets(),
                                        policy_100ns());
  crash_coordinator.start();
  injector.start();
  crashing.start();
  std::uint64_t crash_ps = 0;
  try {
    crashing.kernel.run(horizon);
    FAIL() << "the injector must kill the rig";
  } catch (const sim::SimulatedCrash& crash) {
    crash_ps = crash.at_ps;
  }
  EXPECT_EQ(crash_ps, crash_tick.picoseconds()) << "p=1.0: the first tick dies";
  ASSERT_GT(crash_store.stats().checkpoints, 0u);

  // A freshly constructed twin recovers through the coordinator.
  WorkerRig recovered;
  sim::CrashInjector recovered_injector(recovered.kernel, nullptr, crash_tick);
  CheckpointStore recovery_store(crash_config);
  RecoveryCoordinator recovered_coordinator(recovered.kernel, recovery_store,
                                            recovered.targets(), policy_100ns());
  support::DiagnosticSink sink;
  ASSERT_TRUE(recovered_coordinator.recover(sink)) << sink.str();
  const std::uint64_t restored_ps = recovered.kernel.now().picoseconds();
  ASSERT_LE(restored_ps, crash_ps);
  const RecoveryPolicy& policy = recovered_coordinator.policy();
  EXPECT_LE(crash_ps - restored_ps, policy.checkpoint_interval.picoseconds() +
                                        2 * policy.tick_interval.picoseconds())
      << "lost work is bounded by the checkpoint cadence";

  // The restored schedule carries every tick chain: no start() calls, and
  // the run must verify bit-identically against the reference stream.
  recovered.recorder.begin_verify(reference_log, recovered.recorder.total_events());
  recovered.kernel.run(horizon);
  EXPECT_EQ(recovered.recorder.divergence(), std::nullopt);
  EXPECT_EQ(recovered.ticks, reference.ticks);
  EXPECT_EQ(recovered.counter, reference.counter);
  EXPECT_EQ(recovered.kernel.events_processed(), reference.kernel.events_processed());
  EXPECT_GT(recovery_store.stats().checkpoints, 0u)
      << "the restored pending tick must keep the ladder growing";
}

TEST_F(RecoveryTest, RecoverFailsCleanlyOnAnEmptyLadder) {
  WorkerRig rig;
  CheckpointStore store(store_config());
  RecoveryCoordinator coordinator(rig.kernel, store, rig.targets(), policy_100ns());
  support::DiagnosticSink sink;
  EXPECT_FALSE(coordinator.recover(sink));
  EXPECT_NE(sink.str().find("no restorable checkpoint"), std::string::npos) << sink.str();
}

TEST_F(RecoveryTest, RestoreToTravelsToAnEarlierRung) {
  WorkerRig rig;
  CheckpointStore store(store_config());
  RecoveryCoordinator coordinator(rig.kernel, store, rig.targets(), policy_100ns());
  rig.start();

  // Three rungs at known instants, written from outside the simulation.
  for (int k = 1; k <= 3; ++k) {
    rig.kernel.run(SimTime::us(static_cast<std::uint64_t>(k)));
    CheckpointStore::WriteResult result;
    support::DiagnosticSink write_sink;
    ASSERT_TRUE(store.checkpoint(rig.targets(), result, write_sink)) << write_sink.str();
    ASSERT_EQ(result.seq, static_cast<std::uint64_t>(k));
  }
  ASSERT_EQ(rig.ticks, 300u);

  support::DiagnosticSink sink;
  ASSERT_TRUE(coordinator.restore_to(2, sink)) << sink.str();
  EXPECT_EQ(rig.kernel.now(), SimTime::us(2));
  EXPECT_EQ(rig.ticks, 200u);
  EXPECT_EQ(rig.counter, 200u);

  // Resumed checkpointing numbers rungs above every survivor (no overwrite,
  // no sort-below): the next write outranks the abandoned future.
  CheckpointStore::WriteResult resumed;
  support::DiagnosticSink resume_sink;
  ASSERT_TRUE(store.checkpoint(rig.targets(), resumed, resume_sink)) << resume_sink.str();
  EXPECT_GT(resumed.seq, 3u);

  ASSERT_TRUE(coordinator.restore_to(1, sink)) << sink.str();
  EXPECT_EQ(rig.ticks, 100u);

  support::DiagnosticSink missing;
  EXPECT_FALSE(coordinator.restore_to(0, missing)) << "no rung at or below seq 0";
  EXPECT_NE(missing.str().find("no restorable checkpoint"), std::string::npos)
      << missing.str();
}

TEST_F(RecoveryTest, RootCausePinpointsTheSeededPoisonEvent) {
  WorkerRig rig;
  rig.corrupt_at_tick = 30;  // The seeded poison: counter jumps at t = 300ns.
  CheckpointStore store(store_config());
  RecoveryPolicy policy;
  policy.checkpoint_interval = SimTime::ns(50);
  policy.tick_interval = SimTime(10'001);
  RecoveryCoordinator coordinator(rig.kernel, store, rig.targets(), policy);
  coordinator.start();
  rig.start();

  // Checkpoints stop before the poison tick; the corruption happens in the
  // uncovered suffix and is only noticed at the end of the run.
  rig.kernel.run(SimTime::ns(200));
  coordinator.stop();
  rig.kernel.run(SimTime::ns(600));
  ASSERT_EQ(rig.ticks, 60u);
  ASSERT_EQ(rig.counter, rig.ticks + 1000) << "the failure is live";

  const std::vector<sim::RecordedEvent> expected = rig.recorder.log();
  support::DiagnosticSink sink;
  const RecoveryCoordinator::RootCauseReport report = coordinator.root_cause(
      expected, expected.size() - 1, [&rig] { return rig.counter != rig.ticks; }, sink);

  ASSERT_TRUE(report.found) << report.summary << "\n" << sink.str();
  ASSERT_LT(report.first_bad_index, expected.size());
  EXPECT_EQ(expected[report.first_bad_index].at_ps, 30 * WorkerRig::kWorkerPs)
      << "the earliest failing probe instant is the corrupted tick";
  EXPECT_EQ(expected[report.first_bad_index].process, rig.worker);
  EXPECT_GE(report.probes, 3u) << "binary search, not a linear scan";
  EXPECT_NE(report.summary.find("earliest divergent activation"), std::string::npos)
      << report.summary;
  EXPECT_NE(report.summary.find("rig.worker"), std::string::npos) << report.summary;

  // The window brackets the culprit (at most four activations before it,
  // three after) and starts no earlier than the rung the rig was rewound
  // to.
  EXPECT_LE(report.window_begin, report.first_bad_index);
  EXPECT_LT(report.first_bad_index, report.window_end);
  EXPECT_LE(report.window_end - report.window_begin, 8u);
  EXPECT_LE(report.window_end, expected.size());
  EXPECT_GE(report.window_begin, rig.recorder.total_events());

  // The window renders as a sequence diagram: each activation a
  // kernel->process dispatch message, the culprit marked.
  interaction::Trace trace;
  for (std::uint64_t i = report.window_begin; i < report.window_end; ++i) {
    std::string message = "activate #" + std::to_string(i) + " at " +
                          SimTime(expected[i].at_ps).str();
    if (i == report.first_bad_index) message += " [first divergent]";
    trace.push_back("kernel->" + rig.kernel.process_label(expected[i].process) + ":" + message);
  }
  std::size_t skipped = 0;
  const auto diagram = interaction::interaction_from_trace("root-cause", trace, &skipped);
  ASSERT_NE(diagram, nullptr);
  EXPECT_EQ(skipped, 0u) << "every label parses as From->To:message";
  const std::string plantuml = codegen::to_plantuml_sequence(*diagram);
  EXPECT_NE(plantuml.find("@startuml"), std::string::npos) << plantuml;
  EXPECT_NE(plantuml.find("rig.worker"), std::string::npos) << plantuml;
  EXPECT_NE(plantuml.find("first divergent"), std::string::npos) << plantuml;

  // The rig is left rewound to the last good rung, before the poison.
  EXPECT_LT(rig.ticks, 30u);
  EXPECT_EQ(rig.counter, rig.ticks);
}

TEST_F(RecoveryTest, RootCauseWindowIsClippedToTheRungAndTheLogEnd) {
  // The same workload as above, checkpointed until 200 ns (last rung at
  // ~150 ns) and run to 600 ns, poisoned at the first tick after the rung
  // or at the very last activation of the log.
  const auto search = [this](std::uint64_t poison_tick, const char* subdir,
                             std::uint64_t& rewound_position) {
    WorkerRig rig;
    rig.corrupt_at_tick = poison_tick;
    CheckpointStoreConfig config = store_config();
    config.directory = dir_ / subdir;
    CheckpointStore store(config);
    RecoveryPolicy policy;
    policy.checkpoint_interval = SimTime::ns(50);
    policy.tick_interval = SimTime(10'001);
    RecoveryCoordinator coordinator(rig.kernel, store, rig.targets(), policy);
    coordinator.start();
    rig.start();
    rig.kernel.run(SimTime::ns(200));
    coordinator.stop();
    rig.kernel.run(SimTime::ns(600));
    const std::vector<sim::RecordedEvent> expected = rig.recorder.log();
    support::DiagnosticSink sink;
    const RecoveryCoordinator::RootCauseReport report = coordinator.root_cause(
        expected, expected.size() - 1, [&rig] { return rig.counter != rig.ticks; }, sink);
    EXPECT_TRUE(report.found) << report.summary << "\n" << sink.str();
    rewound_position = rig.recorder.total_events();
    return std::make_pair(report, expected.size());
  };

  std::uint64_t rung = 0;
  const auto [early, early_size] = search(16, "early", rung);
  ASSERT_LT(early.first_bad_index, rung + 4) << "the culprit sits right after the rung";
  EXPECT_EQ(early.window_begin, rung);
  EXPECT_EQ(early.window_end, early.first_bad_index + 4);

  const auto [late, late_size] = search(60, "late", rung);
  ASSERT_GT(late.first_bad_index + 4, late_size) << "the culprit sits near the log's end";
  EXPECT_EQ(late.window_begin, late.first_bad_index - 4);
  EXPECT_EQ(late.window_end, late_size);
}

TEST_F(RecoveryTest, RootCauseProbesNeverWriteLadderRungs) {
  // Regression: with the newest rung gone, restores step DOWN the ladder,
  // leaving stats_.last_checkpoint_ps ahead of restored sim time. Un-gated
  // probe ticks would see the unsigned due-math underflow, write rungs of
  // mid-replay state with the highest sequence numbers, and every later
  // probe's restore_latest_good would adopt them — corrupting the search.
  WorkerRig rig;
  rig.corrupt_at_tick = 55;  // Poison at 550 ns, after every surviving rung.
  CheckpointStore store(store_config());
  RecoveryPolicy policy;
  policy.checkpoint_interval = SimTime::ns(100);
  policy.tick_interval = SimTime(10'001);
  RecoveryCoordinator coordinator(rig.kernel, store, rig.targets(), policy);
  coordinator.start();
  rig.start();
  rig.kernel.run(SimTime::ns(600));  // No stop(): checkpointing stays live.
  ASSERT_EQ(rig.counter, rig.ticks + 1000) << "the failure is live";

  // Drop the newest rung (written at ~500 ns, still before the poison):
  // restores now land on the ~400 ns rung, behind the coordinator's clock.
  const std::uint64_t newest = coordinator.stats().last_checkpoint_seq;
  ASSERT_EQ(newest, 5u);
  ASSERT_TRUE(std::filesystem::remove(dir_ / "ckpt-00000005.usnap"));

  const std::vector<sim::RecordedEvent> expected = rig.recorder.log();
  const std::uint64_t rungs_before = store.stats().checkpoints;
  support::DiagnosticSink sink;
  const RecoveryCoordinator::RootCauseReport report = coordinator.root_cause(
      expected, expected.size() - 1, [&rig] { return rig.counter != rig.ticks; }, sink);

  ASSERT_TRUE(report.found) << report.summary << "\n" << sink.str();
  ASSERT_LT(report.first_bad_index, expected.size());
  EXPECT_EQ(expected[report.first_bad_index].at_ps, 55 * WorkerRig::kWorkerPs)
      << "the search must pinpoint the poison from the stepped-down rung";
  EXPECT_EQ(expected[report.first_bad_index].process, rig.worker);
  EXPECT_EQ(store.stats().checkpoints, rungs_before)
      << "verify replays must never write ladder rungs";
  // Left rewound to the surviving rung, before the poison.
  EXPECT_EQ(rig.ticks, 40u);
  EXPECT_EQ(rig.counter, rig.ticks);
}

TEST_F(RecoveryTest, RootCauseSurfacesALadderFailureMidSearch) {
  WorkerRig rig;
  rig.corrupt_at_tick = 30;
  CheckpointStore store(store_config());
  RecoveryPolicy policy;
  policy.checkpoint_interval = SimTime::ns(50);
  policy.tick_interval = SimTime(10'001);
  RecoveryCoordinator coordinator(rig.kernel, store, rig.targets(), policy);
  coordinator.start();
  rig.start();
  rig.kernel.run(SimTime::ns(200));
  coordinator.stop();
  rig.kernel.run(SimTime::ns(600));

  const std::vector<sim::RecordedEvent> expected = rig.recorder.log();
  support::DiagnosticSink sink;
  // The oracle nukes the ladder after the anchor probe: the next probe's
  // failed restore must abort the search, not read as "probe passed" and
  // steer the bisection toward a plausible-but-wrong index.
  const RecoveryCoordinator::RootCauseReport report = coordinator.root_cause(
      expected, expected.size() - 1,
      [this, &rig] {
        std::filesystem::remove_all(dir_);
        return rig.counter != rig.ticks;
      },
      sink);
  EXPECT_FALSE(report.found);
  EXPECT_NE(report.summary.find("ladder exhausted during probing"), std::string::npos)
      << report.summary;
  // The final rewind has no ladder either: the report must not claim it.
  EXPECT_NE(report.summary.find("could not be rewound and holds the last probe's state"),
            std::string::npos)
      << report.summary;
}

TEST_F(RecoveryTest, PolicyReportsTheDerivedTickCadence) {
  WorkerRig rig;
  CheckpointStore store(store_config());
  RecoveryPolicy policy;
  policy.checkpoint_interval = SimTime::ns(100);
  policy.tick_interval = SimTime(0);  // Derive: checkpoint_interval / 4.
  RecoveryCoordinator coordinator(rig.kernel, store, rig.targets(), policy);
  EXPECT_EQ(coordinator.policy().tick_interval, SimTime::ns(25))
      << "policy() must report the effective cadence, not the zero sentinel";
  EXPECT_EQ(coordinator.policy().checkpoint_interval, SimTime::ns(100));
}

TEST_F(RecoveryTest, RootCauseReportsAFailurePredatingTheLadder) {
  WorkerRig rig;
  rig.corrupt_at_tick = 5;  // Poison *before* the first checkpoint.
  CheckpointStore store(store_config());
  RecoveryPolicy policy;
  policy.checkpoint_interval = SimTime::ns(100);
  policy.tick_interval = SimTime(10'001);
  RecoveryCoordinator coordinator(rig.kernel, store, rig.targets(), policy);
  coordinator.start();
  rig.start();
  rig.kernel.run(SimTime::ns(600));

  const std::vector<sim::RecordedEvent> expected = rig.recorder.log();
  support::DiagnosticSink sink;
  const RecoveryCoordinator::RootCauseReport report = coordinator.root_cause(
      expected, 6, [&rig] { return rig.counter != rig.ticks; }, sink);
  EXPECT_FALSE(report.found);
  EXPECT_NE(report.summary.find("precedes the last good checkpoint"), std::string::npos)
      << report.summary;
}

}  // namespace
}  // namespace umlsoc::replay
