// soak: the chaos-soak pipeline, one fleet rig per seed. Chosen because it
// is the only workload where the kernel, bus and ports, supervision and the
// checkpoint write path (capture -> encode -> store I/O) all do real work.
#include <algorithm>
#include <filesystem>
#include <iterator>

#include "fleet/driver.hpp"
#include "fleet/report.hpp"
#include "replay/binary.hpp"
#include "replay/recovery.hpp"
#include "replay/store.hpp"
#include "rig.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

namespace fs = std::filesystem;

struct FaultTemplate {
  double error_rate;
  double drop_rate;
  double crash_rate;  ///< Per crash-injector tick (1 us).
};

constexpr FaultTemplate kTemplates[] = {
    {0.010, 0.010, 0.10},
    {0.020, 0.005, 0.15},
    {0.005, 0.020, 0.05},
    {0.015, 0.015, 0.20},
};

constexpr std::uint64_t kPool = 128;  ///< Seeds per block.
const sim::SimTime kHorizon = sim::SimTime::us(2000);

/// Host-side measurements of one seed.
struct SeedHost {
  std::uint64_t encode_ns = 0;             ///< Kernel-counted encode time, all legs.
  std::uint64_t checkpoint_encode_ns = 0;  ///< Encode time inside explicit checkpoints.
  std::uint64_t quarantines = 0;
  std::uint64_t dispatches = 0;
  std::uint64_t fallbacks = 0;
};

/// CheckpointStore::checkpoint under a span, attributing the encode time
/// spent inside it (the rest of the span is store I/O).
bool checkpoint(replay::CheckpointStore& store, SocRig& rig, SeedHost& host,
                support::DiagnosticSink& sink) {
  const std::uint64_t encode_before = rig.kernel.stats().snapshot.encode_wall_ns;
  replay::CheckpointStore::WriteResult result;
  bool ok = false;
  {
    Span span("replay.checkpoint");
    ok = store.checkpoint(rig.targets(), result, sink);
  }
  host.checkpoint_encode_ns += rig.kernel.stats().snapshot.encode_wall_ns - encode_before;
  return ok;
}

class SoakWorkload final : public Workload {
 public:
  explicit SoakWorkload(const WorkloadOptions& options) : options_(options) {}

  const char* work_name() const override { return "sim_events"; }

  bool set_up(std::string& problem) override {
    support::DiagnosticSink sink;
    model_ = std::make_unique<SocModel>();
    if (!model_->build(sink)) {
      problem = "soak model: " + sink.str();
      return false;
    }
    // Compile the link machine once up front, as the rigs will.
    bool fell_back = false;
    (void)make_engine(model_->link, &fell_back);
    return true;
  }

  bool run_block(std::vector<UnitSample>& out, std::string& problem) override {
    std::vector<std::uint64_t> seeds;
    for (std::uint64_t k = 0; k < kPool; ++k) seeds.push_back(seed_for(k));
    SeedHost host;
    const std::vector<fleet::RigOutcome> outcomes = run_fleet(seeds, host);
    std::uint64_t runner_ns = 0;
    for (const fleet::RigOutcome& outcome : outcomes) {
      runner_ns += outcome.wall_ns;
      out.push_back(UnitSample{outcome.wall_ns, outcome.ok,
                               static_cast<double>(outcome.events_processed)});
      if (!outcome.ok && first_failure.empty()) {
        first_failure = "seed " + std::to_string(outcome.seed) + ": " + outcome.failure;
      }
    }
    const std::uint64_t driver_ns = driver_.stats().wall_ns;
    wall["fleet.dispatch_ns"] +=
        driver_ns > runner_ns ? static_cast<double>(driver_ns - runner_ns) : 0.0;
    wall["replay.encode_ns"] += static_cast<double>(host.encode_ns);
    wall["replay.checkpoint_encode_ns"] += static_cast<double>(host.checkpoint_encode_ns);

    // Every block runs the same seeds: the fleet rollup must not change.
    const fleet::FleetReport report = fleet::FleetReport::aggregate(outcomes);
    if (fingerprint_.empty()) {
      fingerprint_ = report.fingerprint();
      record_counts(report, host);
    } else if (report.fingerprint() != fingerprint_) {
      problem = "fleet fingerprint differs from the first block's";
      return false;
    }
    return true;
  }

 private:
  void record_counts(const fleet::FleetReport& report, const SeedHost& host) {
    const double n = static_cast<double>(report.rigs_total);
    const sim::Kernel::SnapshotStats& snap = report.kernel.snapshot;
    counts["sim.events"] = static_cast<double>(report.events_total) / n;
    counts["sim.timed_peak"] = static_cast<double>(report.kernel.timed_peak);
    counts["sim.heap_hits"] = static_cast<double>(report.kernel.heap_hits) / n;
    counts["sim.bus_transactions"] = static_cast<double>(report.slo.transactions) / n;
    counts["sim.timeouts"] = static_cast<double>(report.slo.timeouts) / n;
    counts["sim.retries"] = static_cast<double>(report.slo.retries) / n;
    counts["sim.breaker_opens"] = static_cast<double>(report.slo.breaker_opens) / n;
    counts["sim.restarts"] = static_cast<double>(report.slo.restarts) / n;
    counts["sim.watchdog_trips"] = static_cast<double>(report.slo.watchdog_trips) / n;
    counts["statechart.dispatches"] = static_cast<double>(host.dispatches) / n;
    counts["statechart.fallback_machines"] = static_cast<double>(host.fallbacks) / n;
    counts["replay.encodes"] = static_cast<double>(snap.encodes) / n;
    counts["replay.bytes_written"] = static_cast<double>(snap.bytes_written) / n;
    counts["replay.dirty_ratio"] =
        snap.sections_total == 0 ? 0.0
                                 : static_cast<double>(snap.sections_dirty) /
                                       static_cast<double>(snap.sections_total);
    counts["replay.restores"] = static_cast<double>(snap.restores) / n;
    counts["replay.quarantines"] = static_cast<double>(host.quarantines) / n;
  }

  std::uint64_t seed_for(std::uint64_t k) const { return mix(options_.seed, k) >> 16; }

  std::vector<fleet::RigOutcome> run_fleet(const std::vector<std::uint64_t>& seeds,
                                           SeedHost& host) {
    return driver_.run(seeds, [&](const fleet::RigJob& job) {
      trace_unit(job.index);
      fleet::RigOutcome outcome;
      outcome.failure = run_seed(job.seed, outcome, host);
      outcome.ok = outcome.failure.empty();
      clear_scratch();
      return outcome;
    });
  }

  /// Ladders live in fixed directories that are emptied after each seed
  /// (one rig at a time: the fleet runs with jobs=1).
  fs::path leg_dir(const char* leg) const { return options_.scratch / "soak" / leg; }

  void clear_scratch() const {
    std::error_code ec;
    for (const char* leg : {"ladder", "crash"}) {
      for (const auto& entry : fs::directory_iterator(leg_dir(leg), ec)) {
        fs::remove(entry.path(), ec);
      }
    }
  }

  /// One chaos-soak seed. Returns the first oracle failure, or "".
  std::string run_seed(std::uint64_t seed, fleet::RigOutcome& outcome, SeedHost& host) {
    const FaultTemplate& faults = kTemplates[seed % std::size(kTemplates)];
    RigConfig config;
    config.error_rate = faults.error_rate;
    config.drop_rate = faults.drop_rate;
    config.burst = 4 + seed % 4;
    config.total = 2048;
    support::DiagnosticSink sink;
    std::vector<const SocRig*> rigs;
    const auto finish = [&](std::string problem) {
      for (const SocRig* rig : rigs) {
        fleet::reduce(outcome.kernel, rig->kernel.stats());
        outcome.events_processed += rig->events_executed;
        host.encode_ns += rig->kernel.stats().snapshot.encode_wall_ns;
        host.dispatches += rig->dispatches;
        host.fallbacks += rig->fell_back ? 1 : 0;
      }
      if (problem.empty() && sink.has_errors()) problem = "diagnostics: " + sink.str();
      return problem;
    };

    // --- Reference run --------------------------------------------------------
    SocRig reference(*model_, config, seed, sink);
    rigs.push_back(&reference);
    reference.start();
    reference.run(kHorizon);
    if (std::string problem = reference.check_end_state("reference"); !problem.empty()) {
      return finish(problem);
    }
    const std::vector<sim::RecordedEvent> reference_log = reference.recorder.log();

    // --- Checkpointed twin and restored twin under verify-replay -------------
    SocRig checkpointed(*model_, config, seed, sink);
    rigs.push_back(&checkpointed);
    checkpointed.start();
    checkpointed.run(sim::SimTime::us(10 + seed % 1000));
    std::string snapshot;
    bool saved = false;
    for (int attempt = 0; attempt < 64 && !saved; ++attempt) {
      support::DiagnosticSink save_sink;
      {
        Span span("replay.save");
        saved = replay::save_snapshot_binary(checkpointed.targets(), snapshot, save_sink);
      }
      if (!saved) checkpointed.run(checkpointed.kernel.now() + sim::SimTime::us(1));
    }
    if (!saved) return finish("checkpointed twin found no checkpointable state");

    SocRig restored(*model_, config, seed, sink);
    rigs.push_back(&restored);
    {
      support::DiagnosticSink restore_sink;
      Span span("replay.restore");
      if (!replay::restore_snapshot_binary(restored.targets(), snapshot, restore_sink)) {
        return finish("binary restore failed: " + restore_sink.str());
      }
    }
    restored.recorder.begin_verify(reference_log, restored.recorder.total_events());
    restored.run(kHorizon, "replay.verify_replay");
    if (std::string problem = compare_final_state(reference, restored, "restored");
        !problem.empty()) {
      return finish(problem);
    }

    // --- On-disk ladder under torn / lost / bit-flipped writes ---------------
    replay::CheckpointStoreConfig ladder_config;
    ladder_config.directory = leg_dir("ladder");
    ladder_config.prefix = "soak";
    ladder_config.full_interval = 4;
    ladder_config.keep_fulls = 64;  // The clean base must never rotate out.
    SocRig ladder(*model_, config, seed, sink);
    rigs.push_back(&ladder);
    replay::CheckpointStore store(ladder_config);
    sim::FaultPlan corruption(seed ^ 0xC0FFEEULL);
    sim::FaultPlan::SiteConfig write_faults;
    write_faults.error_rate = 0.2;
    write_faults.drop_rate = 0.2;
    write_faults.bit_flip_rate = 0.2;
    corruption.configure(sim::FaultSite::kCheckpoint, write_faults);
    ladder.start();
    ladder.run(sim::SimTime::us(5));
    // The base lands before the faults arm, so every seed can recover.
    bool based = false;
    for (int attempt = 0; attempt < 64 && !based; ++attempt) {
      support::DiagnosticSink base_sink;
      based = checkpoint(store, ladder, host, base_sink);
      if (!based) ladder.run(ladder.kernel.now() + sim::SimTime::us(1));
    }
    if (!based) return finish("ladder found no checkpointable state for its base");
    store.install_fault_plan(&corruption);
    while (!ladder.done() && ladder.kernel.now() < kHorizon) {
      ladder.run(ladder.kernel.now() + sim::SimTime::us(250));
      support::DiagnosticSink refused;  // Refusals only mean fewer rungs.
      (void)checkpoint(store, ladder, host, refused);
    }
    ladder.run(kHorizon);
    // Crash-style tear of the newest rung before recovery.
    std::vector<fs::path> rungs;
    for (const auto& entry : fs::directory_iterator(ladder_config.directory)) {
      if (entry.path().extension() == ".usnap") rungs.push_back(entry.path());
    }
    std::sort(rungs.begin(), rungs.end());
    if (rungs.size() > 1) {
      std::error_code ec;
      fs::resize_file(rungs.back(), fs::file_size(rungs.back(), ec) / 2, ec);
    }
    SocRig recovered(*model_, config, seed, sink);
    rigs.push_back(&recovered);
    replay::CheckpointStore recovery(ladder_config);
    {
      support::DiagnosticSink recover_sink;
      Span span("replay.restore");
      if (!recovery.restore_latest_good(recovered.targets(), recover_sink)) {
        return finish("recovery ladder exhausted: " + recover_sink.str());
      }
    }
    host.quarantines += recovery.stats().quarantines;
    recovered.recorder.begin_verify(reference_log, recovered.recorder.total_events());
    recovered.run(kHorizon, "replay.verify_replay");
    if (std::string problem = compare_final_state(reference, recovered, "ladder");
        !problem.empty()) {
      return finish(problem);
    }

    // --- Crash leg -------------------------------------------------------------
    // A CrashInjector kills the rig mid-run while a RecoveryCoordinator
    // checkpoints in the background; a fresh rig recovers through the
    // coordinator and must replay bit-identically to an uninterrupted twin
    // built the same way (null injector plan, stopped coordinator).
    replay::CheckpointStoreConfig crash_config;
    crash_config.directory = leg_dir("crash");
    crash_config.prefix = "crash";
    crash_config.full_interval = 4;
    crash_config.keep_fulls = 2;
    replay::RecoveryPolicy policy;
    policy.checkpoint_interval = sim::SimTime::us(4);
    policy.tick_interval = sim::SimTime(999'001);  // Off the traffic grid.
    const sim::SimTime crash_tick(1'000'003);

    SocRig crash_reference(*model_, config, seed, sink);
    rigs.push_back(&crash_reference);
    sim::CrashInjector reference_injector(crash_reference.kernel, nullptr, crash_tick);
    // Never written to: the twin's coordinator is stopped before it runs.
    replay::CheckpointStore unused_store(crash_config);
    replay::RecoveryCoordinator reference_coordinator(
        crash_reference.kernel, unused_store, crash_reference.targets(), policy);
    crash_reference.start();
    reference_injector.start();
    reference_coordinator.start();
    reference_coordinator.stop();
    crash_reference.run(kHorizon);
    if (std::string problem = crash_reference.check_end_state("crash reference");
        !problem.empty()) {
      return finish(problem);
    }
    const std::vector<sim::RecordedEvent> crash_log = crash_reference.recorder.log();

    SocRig crash_rig(*model_, config, seed, sink);
    rigs.push_back(&crash_rig);
    sim::FaultPlan crash_plan(seed ^ 0xDEADBEEFULL);
    sim::FaultPlan::SiteConfig crash_site;
    crash_site.error_rate = faults.crash_rate;
    crash_site.max_faults = 1;
    crash_plan.configure(sim::FaultSite::kCrash, crash_site);
    sim::CrashInjector injector(crash_rig.kernel, &crash_plan, crash_tick);
    replay::CheckpointStore crash_store(crash_config);
    replay::RecoveryCoordinator coordinator(crash_rig.kernel, crash_store, crash_rig.targets(),
                                            policy);
    crash_rig.start();
    injector.start();
    coordinator.start();
    // Disarmed until a clean base has landed, so recovery is always possible.
    injector.disarm();
    if (support::DiagnosticSink base_sink; !checkpoint(crash_store, crash_rig, host, base_sink)) {
      return finish("crash base checkpoint failed: " + base_sink.str());
    }
    injector.arm();
    std::uint64_t crash_ps = 0;
    try {
      crash_rig.run(kHorizon);
    } catch (const sim::SimulatedCrash& crash) {
      crash_ps = crash.at_ps;
    }
    if (crash_ps == 0) return finish("crash leg: the injector never fired");

    SocRig crash_recovered(*model_, config, seed, sink);
    rigs.push_back(&crash_recovered);
    sim::CrashInjector recovered_injector(crash_recovered.kernel, nullptr, crash_tick);
    replay::CheckpointStore recovered_store(crash_config);
    replay::RecoveryCoordinator recovered_coordinator(
        crash_recovered.kernel, recovered_store, crash_recovered.targets(), policy);
    {
      support::DiagnosticSink recover_sink;
      Span span("replay.restore");
      if (!recovered_coordinator.recover(recover_sink)) {
        return finish("crash recovery ladder exhausted: " + recover_sink.str());
      }
    }
    // The twin replays without writing, like its uninterrupted reference.
    recovered_coordinator.stop();
    const std::uint64_t restored_ps = crash_recovered.kernel.now().picoseconds();
    const std::uint64_t lost_bound =
        policy.checkpoint_interval.picoseconds() + 2 * policy.tick_interval.picoseconds();
    if (restored_ps > crash_ps || crash_ps - restored_ps > lost_bound) {
      return finish("crash leg: lost work outside the checkpoint-interval bound");
    }
    crash_recovered.recorder.begin_verify(crash_log, crash_recovered.recorder.total_events());
    crash_recovered.run(kHorizon, "replay.verify_replay");
    if (std::string problem = compare_final_state(crash_reference, crash_recovered, "crash");
        !problem.empty()) {
      return finish(problem);
    }

    // Service and supervision counters come from the uninterrupted reference.
    outcome.slo.requests = reference.sent;
    outcome.slo.delivered = reference.delivered;
    outcome.slo.lost = reference.lost;
    for (const sim::BusMasterPort* port : {&reference.dma_port, &reference.pio_port}) {
      outcome.slo.transactions += port->stats().transactions;
      outcome.slo.timeouts += port->stats().timeouts;
      outcome.slo.retries += port->stats().retries;
      outcome.slo.recovered += port->stats().recovered;
      outcome.slo.exhausted += port->stats().exhausted;
    }
    outcome.slo.errors_raised = reference.link->errors_raised();
    outcome.slo.errors_unhandled = reference.link->errors_unhandled();
    outcome.slo.restarts = reference.sup.child_stats(reference.link_child).restarts;
    outcome.slo.watchdog_trips = reference.watchdog.trips();
    outcome.slo.breaker_opens = reference.breaker.stats().opens;
    outcome.slo.breaker_closes = reference.breaker.stats().closes;
    outcome.slo.breaker_fast_failed = reference.breaker.stats().fast_failed;
    outcome.slo.checkpoints_written = store.stats().checkpoints + crash_store.stats().checkpoints;
    outcome.slo.checkpoint_write_faults = store.stats().write_faults;
    outcome.slo.rungs_quarantined = recovery.stats().quarantines;
    outcome.slo.ladder_recoveries = 1;
    outcome.slo.crash_recoveries = 1;
    outcome.slo.lost_work_ps_max = crash_ps - restored_ps;
    outcome.health.add(reference.health);
    outcome.sim_time_ps = reference.kernel.now().picoseconds();
    return finish({});
  }

  WorkloadOptions options_;
  std::unique_ptr<SocModel> model_;
  fleet::FleetDriver driver_{fleet::FleetConfig{.jobs = 1}};
  std::string fingerprint_;  ///< The first block's fleet rollup.
};

}  // namespace

std::unique_ptr<Workload> make_soak(const WorkloadOptions& options) {
  return std::make_unique<SoakWorkload>(options);
}

}  // namespace perfbench
