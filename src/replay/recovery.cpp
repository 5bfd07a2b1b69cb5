#include "replay/recovery.hpp"

#include <algorithm>
#include <memory>
#include <utility>

namespace umlsoc::replay {

RecoveryCoordinator::RecoveryCoordinator(sim::Kernel& kernel, CheckpointStore& store,
                                         SnapshotTargets targets, RecoveryPolicy policy)
    : kernel_(kernel), store_(store), targets_(std::move(targets)), policy_(policy) {
  if (policy_.checkpoint_interval.picoseconds() == 0) {
    policy_.checkpoint_interval = sim::SimTime(1);
  }
  // Derive the cadence in place so policy() reports the effective value
  // (callers build lost-work bounds from it).
  if (policy_.tick_interval.picoseconds() == 0) {
    policy_.tick_interval = sim::SimTime(std::max<std::uint64_t>(
        1, policy_.checkpoint_interval.picoseconds() / 4));
  }
  tick_process_ = kernel_.register_process([this] { tick(); }, "recovery.tick");
}

void RecoveryCoordinator::start() {
  if (started_) return;
  started_ = true;
  kernel_.schedule(policy_.tick_interval, tick_process_);
}

void RecoveryCoordinator::tick() {
  ++stats_.ticks;
  // Reschedule before anything else: the pending next tick must be part of
  // every checkpoint captured at this instant, so a restored rig's ladder
  // keeps growing on its own.
  kernel_.schedule(policy_.tick_interval, tick_process_);
  // Inside a root-cause probe's verify replay the restored schedule
  // re-executes this tick, but stats_.last_checkpoint_ps still holds the
  // pre-restore value — the due-math would underflow and a rung of
  // mid-replay (possibly diverged) state would land at the top of the
  // ladder, which the next restore_latest_good would adopt as newest-good.
  // Writes stay gated until adopt_restored_state() refreshes the clocks.
  if (replaying_) return;
  if (!running_) return;

  const std::uint64_t now_ps = kernel_.now().picoseconds();
  if (now_ps - stats_.last_checkpoint_ps < policy_.checkpoint_interval.picoseconds()) {
    return;
  }

  ++stats_.attempts;
  support::DiagnosticSink sink;
  CheckpointStore::WriteResult result;
  if (!store_.checkpoint(targets_, result, sink)) {
    // Capture refused (in-flight bus transactions, co-batched work): leave
    // the due-tracking untouched so the next tick retries.
    ++stats_.refusals;
    return;
  }
  ++stats_.written;
  stats_.last_checkpoint_ps = now_ps;
  stats_.last_checkpoint_seq = result.seq;
}

void RecoveryCoordinator::adopt_restored_state() {
  stats_.last_checkpoint_ps = kernel_.now().picoseconds();
  stats_.last_checkpoint_seq = store_.stats().restored_seq;
}

bool RecoveryCoordinator::recover(support::DiagnosticSink& sink) {
  if (!store_.restore_latest_good(targets_, sink)) return false;
  adopt_restored_state();
  // The restored schedule contains the crashed rig's pending tick, which
  // reschedules itself — the chain continues without a fresh start().
  started_ = true;
  running_ = true;
  return true;
}

bool RecoveryCoordinator::restore_to(std::uint64_t seq, support::DiagnosticSink& sink) {
  if (!store_.restore_to(seq, targets_, sink)) return false;
  adopt_restored_state();
  return true;
}

RecoveryCoordinator::ProbeOutcome RecoveryCoordinator::probe_prefix(
    const sim::SharedEventLog& expected, std::uint64_t index,
    const std::function<bool()>& failed,
    std::optional<sim::EventRecorder::Divergence>& divergence,
    support::DiagnosticSink& sink) {
  // A failed restore is NOT a passing probe: conflating the two would let a
  // mid-search ladder failure silently steer the binary search.
  if (!store_.restore_latest_good(targets_, sink)) return ProbeOutcome::kError;
  sim::EventRecorder* recorder = targets_.recorder;
  recorder->begin_verify(expected, recorder->total_events());
  // Timestamp granularity: the probe executes through the whole instant
  // containing the indexed event.
  replaying_ = true;
  kernel_.run(sim::SimTime((*expected)[index].at_ps));
  replaying_ = false;
  bool bad = recorder->divergence().has_value();
  if (bad) divergence = recorder->divergence();
  recorder->end_verify();
  if (!bad && failed != nullptr) bad = failed();
  return bad ? ProbeOutcome::kTripped : ProbeOutcome::kPassed;
}

RecoveryCoordinator::RootCauseReport RecoveryCoordinator::root_cause(
    const std::vector<sim::RecordedEvent>& expected, std::uint64_t failure_index,
    const std::function<bool()>& failed, support::DiagnosticSink& sink) {
  RootCauseReport report;
  sim::EventRecorder* recorder = targets_.recorder;
  if (recorder == nullptr) {
    sink.error("recovery", "root-cause search requires a recorder target");
    return report;
  }
  if (expected.empty()) {
    report.summary = "empty expected log";
    return report;
  }
  failure_index = std::min<std::uint64_t>(failure_index, expected.size() - 1);

  // Rewind once to learn where the last good rung sits in the stream.
  if (!store_.restore_latest_good(targets_, sink)) {
    report.summary = "checkpoint ladder exhausted";
    return report;
  }
  const std::uint64_t base_seq = store_.stats().restored_seq;
  const std::uint64_t base_total = recorder->total_events();
  if (failure_index < base_total) {
    report.summary = "failure at stream index " + std::to_string(failure_index) +
                     " precedes the last good checkpoint (stream position " +
                     std::to_string(base_total) + ")";
    adopt_restored_state();
    return report;
  }

  // Epilogue for every path that ran at least one probe: leave the rig
  // rewound to the last good rung. A rewind that cannot restore says so;
  // adopting the state either way keeps the tick's due math anchored to
  // the rig's clock.
  const auto rewind = [&] {
    if (!store_.restore_latest_good(targets_, sink)) {
      report.summary += "; the rig could not be rewound and holds the last probe's state";
    }
    adopt_restored_state();
  };

  // Every probe verifies against this one copy of the log.
  const sim::SharedEventLog shared_expected =
      std::make_shared<const std::vector<sim::RecordedEvent>>(expected);

  // The search invariant needs probe(failure_index) to trip the oracle.
  std::optional<sim::EventRecorder::Divergence> culprit_divergence;
  ++report.probes;
  const ProbeOutcome anchor =
      probe_prefix(shared_expected, failure_index, failed, culprit_divergence, sink);
  if (anchor == ProbeOutcome::kError) {
    report.summary = "checkpoint ladder exhausted during probing";
    rewind();
    return report;
  }
  if (anchor == ProbeOutcome::kPassed) {
    report.summary = "failure does not reproduce under replay through stream index " +
                     std::to_string(failure_index);
    rewind();
    return report;
  }

  // Earliest index in [base_total, failure_index] whose probe trips.
  std::uint64_t lo = base_total;
  std::uint64_t hi = failure_index;
  while (lo < hi) {
    const std::uint64_t mid = lo + (hi - lo) / 2;
    ++report.probes;
    std::optional<sim::EventRecorder::Divergence> div;
    const ProbeOutcome outcome = probe_prefix(shared_expected, mid, failed, div, sink);
    if (outcome == ProbeOutcome::kError) {
      report.summary = "checkpoint ladder exhausted during probing (after " +
                       std::to_string(report.probes) + " probes)";
      rewind();
      return report;
    }
    if (outcome == ProbeOutcome::kTripped) {
      hi = mid;
      culprit_divergence = div;
    } else {
      lo = mid + 1;
    }
  }
  report.found = true;
  report.first_bad_index = hi;
  report.divergence = culprit_divergence;

  const sim::RecordedEvent& culprit = expected[hi];
  const std::string& label = kernel_.process_label(culprit.process);
  report.summary =
      "earliest divergent activation at stream index " + std::to_string(hi) + ": process " +
      std::to_string(culprit.process) + (label.empty() ? "" : " '" + label + "'") + " at " +
      sim::SimTime(culprit.at_ps).str() + " (" + std::to_string(report.probes) +
      " probes from checkpoint " + std::to_string(base_seq) + " at stream position " +
      std::to_string(base_total) + ")";

  // The activations surrounding the culprit, within the replayed suffix.
  report.window_begin = std::max<std::uint64_t>(base_total, hi >= 4 ? hi - 4 : 0);
  report.window_end = std::min<std::uint64_t>(expected.size(), hi + 4);

  // The final probe left the rig mid-replay somewhere inside the window.
  rewind();
  return report;
}

}  // namespace umlsoc::replay
