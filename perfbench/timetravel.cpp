// timetravel: one long rig whose RecoveryCoordinator writes a deep
// checkpoint ladder, then restore_to on seeded rungs and root_cause
// searches at seeded failure indices. Chosen because it uses the replay
// layer the other way round from soak: restore, delta-chain decode and
// verify-replay dominate and there are few encodes, so a change that makes
// writes cheaper and restores slower shows here and not in soak.
#include <algorithm>
#include <filesystem>

#include "replay/recovery.hpp"
#include "replay/store.hpp"
#include "rig.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

namespace fs = std::filesystem;

constexpr std::uint64_t kPool = 128;  ///< Units (search sites) per block.
/// The coordinator stops writing here; root-cause failure indices fall in
/// the recorded tail after the newest rung.
const sim::SimTime kStopWriting = sim::SimTime::us(240);
const sim::SimTime kHorizon = sim::SimTime::us(2000);
/// Sim time verify-replayed after each restore_to.
const sim::SimTime kReplayWindow = sim::SimTime::us(30);

/// The live rig with its ladder. Members are destroyed in reverse order:
/// the coordinator before the store and rig it references.
struct Ladder {
  Ladder(const SocModel& model, const RigConfig& config, std::uint64_t seed,
         const fs::path& directory, support::DiagnosticSink& sink)
      : rig(model, config, seed, sink), store(store_config(directory)),
        coordinator(rig.kernel, store, rig.targets(), policy()) {}

  static replay::CheckpointStoreConfig store_config(const fs::path& directory) {
    replay::CheckpointStoreConfig config;
    config.directory = directory;
    config.prefix = "tt";
    config.full_interval = 16;  // Deep delta chains.
    config.keep_fulls = 1000;   // Nothing rotates out.
    return config;
  }
  static replay::RecoveryPolicy policy() {
    replay::RecoveryPolicy policy;
    policy.checkpoint_interval = sim::SimTime::us(4);
    policy.tick_interval = sim::SimTime(999'001);  // Off the traffic grid.
    return policy;
  }

  SocRig rig;
  replay::CheckpointStore store;
  replay::RecoveryCoordinator coordinator;
};

class TimetravelWorkload final : public Workload {
 public:
  explicit TimetravelWorkload(const WorkloadOptions& options) : options_(options) {}

  const char* work_name() const override { return "sim_events"; }

  bool set_up(std::string& problem) override {
    ladder_.reset();
    support::DiagnosticSink sink;
    model_ = std::make_unique<SocModel>();
    if (!model_->build(sink)) {
      problem = "timetravel model: " + sink.str();
      return false;
    }
    const fs::path directory = options_.scratch / "timetravel";
    std::error_code ec;
    fs::remove_all(directory, ec);
    RigConfig config;
    config.total = 600;
    config.burst = 4 + options_.seed % 4;
    // Restores land in this live rig, not in a fresh one: no hung writes
    // and no port timeouts (see SocRig::drain).
    config.drop_rate = 0;
    config.port_timeout = sim::SimTime(0);
    ladder_ = std::make_unique<Ladder>(*model_, config, mix(options_.seed) >> 16, directory,
                                       sink_);
    SocRig& rig = ladder_->rig;
    rig.start();
    ladder_->coordinator.start();
    rig.run(kStopWriting);
    ladder_->coordinator.stop();
    rig.run(kHorizon);
    if (std::string end = rig.check_end_state("long rig"); !end.empty()) {
      problem = end;
      return false;
    }
    rungs_ = ladder_->coordinator.stats().last_checkpoint_seq;
    reference_ = rig.recorder.log();
    // Rewind to the newest rung once to learn where root-cause searches
    // start: its stream position and kernel event count.
    if (rungs_ < 2 || !ladder_->coordinator.restore_to(rungs_, sink)) {
      problem = "ladder too short or newest rung unrestorable: " + sink.str();
      return false;
    }
    base_total_ = rig.recorder.total_events();
    base_events_ = rig.kernel.events_processed();
    if (base_total_ + 2 >= reference_.size()) {
      problem = "no recorded tail after the newest rung";
      return false;
    }
    return true;
  }

  bool run_block(std::vector<UnitSample>& out, std::string& problem) override {
    Totals block;
    for (std::uint64_t k = 0; k < kPool; ++k) {
      trace_unit(k);
      const std::uint64_t start = now_ns();
      Totals totals;
      std::string unit_problem;
      const bool ok = unit(k, totals, unit_problem);
      if (!ok && first_failure.empty()) first_failure = unit_problem;
      out.push_back(UnitSample{now_ns() - start, ok, static_cast<double>(totals.events)});
      wall["replay.encode_ns"] += static_cast<double>(totals.encode_ns);
      block.events += totals.events;
      block.probes += totals.probes;
      block.restores += totals.restores;
      block.encodes += totals.encodes;
    }
    if (counts.empty()) {
      const double n = static_cast<double>(kPool);
      counts["sim.events"] = static_cast<double>(block.events) / n;
      counts["replay.probes"] = static_cast<double>(block.probes) / n;
      counts["replay.restores"] = static_cast<double>(block.restores) / n;
      counts["replay.encodes"] = static_cast<double>(block.encodes) / n;
    }
    (void)problem;
    return true;
  }

 private:
  struct Totals {
    std::uint64_t events = 0;
    std::uint64_t probes = 0;
    std::uint64_t restores = 0;
    std::uint64_t encodes = 0;
    std::uint64_t encode_ns = 0;
  };

  /// restore_to a seeded rung and verify-replay a window; then a root-cause
  /// search for a seeded failure index in the tail after the newest rung.
  bool unit(std::uint64_t k, Totals& totals, std::string& problem) {
    SocRig& rig = ladder_->rig;
    replay::RecoveryCoordinator& coordinator = ladder_->coordinator;
    const sim::Kernel::SnapshotStats before = rig.kernel.stats().snapshot;
    const std::uint64_t executed_before = rig.events_executed;
    // Rungs and failure indices are spread evenly over the ladder and the
    // recorded tail, so every seed's block does the same mix of restore
    // depths and search lengths; the seed rotates and jitters them.
    const std::uint64_t slot = (k + mix(options_.seed, kPool) % kPool) % kPool;
    const std::uint64_t rung = 1 + slot * rungs_ / kPool;
    support::DiagnosticSink sink;
    {
      Span span("replay.restore");
      if (!coordinator.restore_to(rung, sink)) {
        problem = "restore_to(" + std::to_string(rung) + ") failed: " + sink.str();
        return false;
      }
    }
    rig.recorder.begin_verify(reference_, rig.recorder.total_events());
    rig.run(rig.kernel.now() + kReplayWindow, "replay.verify_replay");
    if (rig.recorder.divergence().has_value()) {
      problem = "replay after restore_to(" + std::to_string(rung) +
                ") diverged: " + rig.recorder.divergence()->str();
      return false;
    }
    rig.recorder.end_verify();
    rig.drain();

    const std::uint64_t tail = reference_.size() - base_total_ - 1;
    const std::uint64_t stride = std::max<std::uint64_t>(1, tail / kPool);
    const std::uint64_t failure =
        base_total_ + 1 + std::min(tail - 1, slot * tail / kPool + mix(options_.seed, k) % stride);
    // Probes run through whole instants, so the search lands on the first
    // event of the failure's instant.
    std::uint64_t expected = failure;
    while (expected > base_total_ && reference_[expected - 1].at_ps == reference_[failure].at_ps) {
      --expected;
    }
    std::uint64_t probe_events = 0;
    replay::RecoveryCoordinator::RootCauseReport report;
    {
      Span span("replay.root_cause");
      report = coordinator.root_cause(
          reference_, failure,
          [&] {
            probe_events += rig.kernel.events_processed() - base_events_;
            const bool tripped = rig.recorder.total_events() > failure;
            rig.drain();  // The next probe restores into this rig.
            return tripped;
          },
          sink);
    }
    totals.events += rig.events_executed - executed_before + probe_events;
    totals.probes += report.probes;
    const sim::Kernel::SnapshotStats& after = rig.kernel.stats().snapshot;
    totals.restores += after.restores - before.restores;
    totals.encodes += after.encodes - before.encodes;
    totals.encode_ns += after.encode_wall_ns - before.encode_wall_ns;
    if (!report.found || report.first_bad_index != expected) {
      problem = "root_cause(" + std::to_string(failure) + ") expected index " +
                std::to_string(expected) + ", got " +
                (report.found ? std::to_string(report.first_bad_index) : "nothing") + ": " +
                report.summary;
      return false;
    }
    return true;
  }

  WorkloadOptions options_;
  support::DiagnosticSink sink_;  ///< Outlives the rig's restart callback.
  std::unique_ptr<SocModel> model_;
  std::unique_ptr<Ladder> ladder_;
  std::uint64_t rungs_ = 0;
  std::vector<sim::RecordedEvent> reference_;
  std::uint64_t base_total_ = 0;
  std::uint64_t base_events_ = 0;
};

}  // namespace

std::unique_ptr<Workload> make_timetravel(const WorkloadOptions& options) {
  return std::make_unique<TimetravelWorkload>(options);
}

}  // namespace perfbench
