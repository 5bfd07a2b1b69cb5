#include "replay/recovery.hpp"

#include <algorithm>
#include <memory>
#include <utility>

#include "codegen/plantuml.hpp"
#include "interaction/from_trace.hpp"
#include "interaction/trace.hpp"

namespace umlsoc::replay {

namespace {

// Trace labels are "From->To:message"; a process label containing the
// separator tokens would corrupt the parse, so they are rewritten.
std::string sanitize_participant(std::string label) {
  for (char& c : label) {
    if (c == ':' || c == '>' || c == '-') c = '_';
  }
  return label;
}

}  // namespace

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
  // Inside a verify replay (rollback or root-cause probe) the restored
  // schedule re-executes this tick, but stats_.last_checkpoint_ps still
  // holds the pre-restore value — the due-math would underflow and a rung
  // of mid-replay (possibly diverged) state would land at the top of the
  // ladder, which the next restore_latest_good would adopt as newest-good.
  // Writes stay gated until adopt_restored_state() refreshes the clocks.
  if (replaying_) return;
  if (!running_) return;
  // With a rollback latched, the rig is running post-poison state until the
  // driver gets around to maybe_rollback(); writing rungs now would let the
  // restore land *after* the poison instant. The pending flag is set inside
  // the simulation (the escalation is a process body), so skipping here is
  // just as sim-deterministic as writing.
  if (pending_.has_value()) return;

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

void RecoveryCoordinator::attach_supervisor(sim::Supervisor& supervisor) {
  supervisor_ = &supervisor;
  supervisor.set_rollback_handler([this](const std::string& reason) {
    // An escalation re-executed under verify replay must reproduce the
    // original acceptance (the recorded trajectory suspended here) without
    // latching a new poison or spending rollback budget.
    if (replaying_) return true;
    if (pending_.has_value()) return false;
    if (stats_.rollbacks >= policy_.max_rollbacks) return false;
    sim::EventRecorder* recorder = targets_.recorder;
    if (recorder == nullptr || recorder->total_events() == 0) return false;
    // The poison is the most recently recorded activation: run_process
    // records before the body runs, and the escalation is synchronous
    // within the failing body.
    pending_ = PoisonPoint{reason, recorder->total_events() - 1,
                           kernel_.now().picoseconds()};
    return true;
  });
}

bool RecoveryCoordinator::maybe_rollback(support::DiagnosticSink& sink) {
  if (!pending_.has_value()) return true;
  const PoisonPoint poison = *pending_;
  pending_.reset();

  sim::EventRecorder* recorder = targets_.recorder;
  if (recorder == nullptr) {
    ++stats_.failed_rollbacks;
    sink.error("recovery", "rollback requires a recorder target");
    if (supervisor_ != nullptr) supervisor_->force_give_up("rollback failed: no recorder");
    return false;
  }
  // Snapshot the failure run's log BEFORE the restore overwrites it.
  std::vector<sim::RecordedEvent> expected = recorder->log();
  if (recorder->total_events() != expected.size() ||
      poison.event_index >= expected.size()) {
    ++stats_.failed_rollbacks;
    sink.error("recovery",
               "rollback requires an unbounded recorder (ring overwrote the suffix)");
    if (supervisor_ != nullptr) {
      supervisor_->force_give_up("rollback failed: recorder log incomplete");
    }
    return false;
  }

  if (!store_.restore_latest_good(targets_, sink)) {
    ++stats_.failed_rollbacks;
    if (supervisor_ != nullptr) {
      supervisor_->force_give_up("rollback failed: checkpoint ladder exhausted (" +
                                 poison.reason + ")");
    }
    return false;
  }

  // Replay the recorded suffix up to — but excluding — the poison instant,
  // under verification: a restored rig that does not reproduce its own
  // history bit-for-bit must not be resumed.
  const std::uint64_t poison_at = expected[poison.event_index].at_ps;
  const std::uint64_t restored_total = recorder->total_events();
  std::vector<sim::RecordedEvent> prefix(
      expected.begin(), expected.begin() + static_cast<std::ptrdiff_t>(poison.event_index));
  recorder->begin_verify(std::move(prefix), restored_total);
  replaying_ = true;
  if (poison_at > 0) kernel_.run(sim::SimTime(poison_at - 1));
  replaying_ = false;
  const std::optional<sim::EventRecorder::Divergence> divergence = recorder->divergence();
  recorder->end_verify();
  if (divergence.has_value()) {
    ++stats_.failed_rollbacks;
    if (supervisor_ != nullptr) {
      supervisor_->force_give_up("rollback replay diverged: " + divergence->str());
    }
    return false;
  }

  // The model's chance to suppress the poison before it re-executes live.
  if (on_rollback_ != nullptr) on_rollback_(poison.reason);
  if (supervisor_ != nullptr) supervisor_->resume_after_rollback();
  adopt_restored_state();
  running_ = true;
  // The resume itself is a host-side discontinuity (suspension and restart
  // window cleared between run() slices) that no recorded activation marks,
  // so a later rollback must never verify-replay across it: seed the ladder
  // with a fresh post-resume rung. A refused capture here is tolerable —
  // the background tick retries, and a replay that does cross the gap fails
  // closed as a divergence.
  CheckpointStore::WriteResult resume_rung;
  if (store_.checkpoint(targets_, resume_rung, sink)) {
    stats_.last_checkpoint_ps = kernel_.now().picoseconds();
    stats_.last_checkpoint_seq = resume_rung.seq;
  }
  ++stats_.rollbacks;
  sink.note("recovery",
            "rolled back to checkpoint " + std::to_string(stats_.last_checkpoint_seq) +
                ", replayed " + std::to_string(poison.event_index - restored_total) +
                " events to " + kernel_.now().str() + " (" + poison.reason + ")");
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
  // rewound to the last good rung, and clear a suspension a probed
  // escalation may have latched on a supervisor that is not itself a
  // snapshot target (mirrors maybe_rollback's resume). A rewind that cannot
  // restore says so; adopting the state either way keeps the tick's due
  // math anchored to the rig's clock.
  const auto rewind = [&] {
    if (!store_.restore_latest_good(targets_, sink)) {
      report.summary += "; the rig could not be rewound and holds the last probe's state";
    }
    if (supervisor_ != nullptr) supervisor_->resume_after_rollback();
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

  // Sequence diagram of the activations surrounding the culprit: each
  // recorded activation is drawn as a kernel->process dispatch message.
  interaction::Trace trace;
  const std::uint64_t window_begin = std::max<std::uint64_t>(
      base_total, hi >= 4 ? hi - 4 : 0);
  const std::uint64_t window_end =
      std::min<std::uint64_t>(expected.size(), hi + 4);
  for (std::uint64_t i = window_begin; i < window_end; ++i) {
    const sim::RecordedEvent& event = expected[i];
    std::string participant = sanitize_participant(kernel_.process_label(event.process));
    if (participant.empty()) participant = "p" + std::to_string(event.process);
    std::string message = "activate #" + std::to_string(i) + " at " +
                          sim::SimTime(event.at_ps).str();
    if (i == hi) message += " [first divergent]";
    trace.push_back("kernel->" + participant + ":" + message);
  }
  const auto diagram = interaction::interaction_from_trace("root-cause", trace);
  if (diagram != nullptr) {
    report.sequence_diagram = codegen::to_plantuml_sequence(*diagram);
  }

  // The final probe left the rig mid-replay somewhere inside the window.
  rewind();
  return report;
}

}  // namespace umlsoc::replay
