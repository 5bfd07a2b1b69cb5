// Recovery orchestration over the checkpoint ladder.
//
// RecoveryCoordinator closes the loop between the checkpoint machinery
// (replay/store.hpp), the event recorder (sim/replay.hpp) and supervision
// (sim/supervise.hpp). Three capabilities, one owner:
//
//  1. Policy-driven background checkpointing. A kernel process ticks at a
//     fixed sim-time cadence; each tick writes the next ladder rung when the
//     checkpoint interval has elapsed. The tick reschedules itself *before*
//     capturing, so the pending next tick is part of every checkpoint — a
//     restored rig's ladder keeps growing without anyone re-arming it.
//
//  2. Rollback escalation. attach_supervisor() installs a rollback handler
//     one rung below the supervisor's terminal give-up: when the restart
//     budget is exhausted at the root, the coordinator accepts the failure
//     (bounded by policy.max_rollbacks), latches the poison point, and the
//     supervisor suspends instead of giving up. The driver then calls
//     maybe_rollback() between run() slices: the newest good checkpoint is
//     restored into the live rig, the recorded suffix up to (but excluding)
//     the poison instant is replayed under verify mode, and — if the replay
//     is bit-identical — the rig resumes with the on_rollback hook given a
//     chance to suppress the poison (disarm a fault site, drop a request).
//     A diverged replay, an exhausted ladder or a spent retry budget
//     escalates to Supervisor::force_give_up.
//
//  3. Time travel. restore_to(seq) rewinds the live rig to any surviving
//     rung, and root_cause() binary-searches the recorded event log between
//     the last good checkpoint and a failure point — restoring and
//     verify-replaying a probe prefix per step — to find the earliest
//     activation at which the failure oracle first trips, rendered as a
//     PlantUML sequence diagram of the surrounding activations.
//
// Determinism contract: everything the coordinator schedules depends only
// on sim time and policy, never on wall clock or disk outcomes.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "replay/store.hpp"
#include "sim/kernel.hpp"
#include "sim/replay.hpp"
#include "sim/supervise.hpp"
#include "support/diagnostics.hpp"

namespace umlsoc::replay {

struct RecoveryPolicy {
  /// Target sim time between written checkpoints; the lost-work bound after
  /// a crash. Must be nonzero.
  sim::SimTime checkpoint_interval{1'000'000};  // 1us
  /// Cadence of the background tick process. Zero: checkpoint_interval / 4
  /// (so a refused capture — e.g. in-flight bus transactions — retries well
  /// before a full interval of work is at risk). The coordinator writes the
  /// derived cadence back, so policy() always reports the effective value
  /// (lost-work bounds can be built from it either way).
  sim::SimTime tick_interval{0};
  /// Rollback recoveries accepted before the handler lets the supervisor
  /// give up terminally.
  unsigned max_rollbacks = 3;
};

class RecoveryCoordinator {
 public:
  struct Stats {
    std::uint64_t ticks = 0;             ///< Background tick executions.
    std::uint64_t attempts = 0;          ///< Due ticks that tried to write.
    std::uint64_t written = 0;           ///< Checkpoints actually written.
    std::uint64_t refusals = 0;          ///< Captures refused (retry next tick).
    std::uint64_t rollbacks = 0;         ///< Successful rollback recoveries.
    std::uint64_t failed_rollbacks = 0;  ///< Rollbacks that ended in give-up.
    std::uint64_t last_checkpoint_ps = 0;
    std::uint64_t last_checkpoint_seq = 0;
  };

  /// The poison point latched when a supervisor escalates into rollback.
  struct PoisonPoint {
    std::string reason;          ///< The exhausted-budget escalation reason.
    std::uint64_t event_index = 0;  ///< Recorder stream index of the poison event.
    std::uint64_t at_ps = 0;        ///< Sim time of the escalation.
  };

  /// Root-cause search result. `first_bad_index` is the earliest recorder
  /// stream index whose replay-probe trips the failure oracle; probes run
  /// at timestamp granularity (the probe executes through the whole instant
  /// containing the indexed event).
  struct RootCauseReport {
    bool found = false;
    std::uint64_t first_bad_index = 0;
    std::uint64_t probes = 0;
    std::optional<sim::EventRecorder::Divergence> divergence;
    std::string summary;
    std::string sequence_diagram;  ///< PlantUML of activations around the culprit.
  };

  /// `targets` must include the kernel and, for rollback/root-cause, an
  /// unbounded (non-ring) recorder. All referenced components must outlive
  /// the coordinator. Registers the tick process immediately (construction
  /// order is part of the deterministic-setup contract), but nothing runs
  /// until start() or recover().
  RecoveryCoordinator(sim::Kernel& kernel, CheckpointStore& store, SnapshotTargets targets,
                      RecoveryPolicy policy);

  /// Schedules the first background tick. Call exactly once per fresh run;
  /// a recovered rig must NOT call it (the restored pending tick continues
  /// the chain).
  void start();

  /// Stops writing checkpoints; ticks keep running (determinism) but do
  /// nothing.
  void stop() { running_ = false; }

  /// Cold-start crash recovery: restores the newest good rung of `store`
  /// into the (freshly constructed, same-setup) targets, resets the encoder
  /// chain, and adopts the restored schedule — including the pending tick
  /// captured by the crashed rig, which is why start() must not be called.
  /// Returns false when the ladder is exhausted.
  [[nodiscard]] bool recover(support::DiagnosticSink& sink);

  /// Installs this coordinator as `supervisor`'s rollback escalation
  /// handler. The handler accepts failures while the rollback budget lasts,
  /// latching the poison point for maybe_rollback().
  void attach_supervisor(sim::Supervisor& supervisor);

  /// Hook invoked after a successful rollback replay, before the rig
  /// resumes — the model's chance to suppress the poison (disarm a fault
  /// site, drop the offending request) so the failure does not simply
  /// recur. Receives the escalation reason.
  void set_on_rollback(std::function<void(const std::string& reason)> hook) {
    on_rollback_ = std::move(hook);
  }

  [[nodiscard]] bool rollback_pending() const { return pending_.has_value(); }
  [[nodiscard]] const std::optional<PoisonPoint>& poison() const { return pending_; }

  /// Executes a pending rollback; call between run() slices when
  /// rollback_pending(). Restores the newest good checkpoint into the live
  /// rig, verify-replays the recorded suffix up to (but excluding) the
  /// poison instant, invokes the on_rollback hook, clears the supervisor's
  /// suspension and resumes checkpointing. Returns true when the rig is
  /// live again; false means terminal give-up (ladder exhausted or replay
  /// diverged) and the supervisor has been force_give_up'd. With no pending
  /// rollback, returns true and does nothing.
  [[nodiscard]] bool maybe_rollback(support::DiagnosticSink& sink);

  /// Time travel: rewinds the live rig to the newest rung with sequence
  /// <= `seq` and resumes checkpointing from there (chain reset, next write
  /// is a full). Returns false when no such rung restores.
  [[nodiscard]] bool restore_to(std::uint64_t seq, support::DiagnosticSink& sink);

  /// Binary-searches `expected[last-good-checkpoint .. failure_index]` for
  /// the earliest activation at which `failed` first reports true (or, when
  /// `failed` is null, at which the replay itself first diverges). Each
  /// probe rewinds the rig to the last good rung and verify-replays the
  /// prefix through the probe instant. Every probe's restore re-reads and
  /// re-checks that rung's chain from disk; only its decode is reused while
  /// the bytes read back unchanged (see CheckpointStore). The search makes
  /// one shared copy of `expected` and verifies every probe against it. A
  /// restore that fails mid-search aborts with a "ladder exhausted during
  /// probing" summary instead of skewing the search. The rig is left
  /// rewound to the last good checkpoint, with an attached supervisor
  /// resumed (a probed escalation suspends it, and a supervisor outside the
  /// snapshot targets is not un-suspended by the restore); when that final
  /// rewind cannot restore, the summary says the rig holds the last probe's
  /// state instead. Callers that want the failure state back must replay it
  /// themselves.
  [[nodiscard]] RootCauseReport root_cause(const std::vector<sim::RecordedEvent>& expected,
                                           std::uint64_t failure_index,
                                           const std::function<bool()>& failed,
                                           support::DiagnosticSink& sink);

  [[nodiscard]] const Stats& stats() const { return stats_; }
  [[nodiscard]] const SnapshotTargets& targets() const { return targets_; }
  [[nodiscard]] const RecoveryPolicy& policy() const { return policy_; }

 private:
  /// A probe either reproduces the failure, runs clean, or could not run at
  /// all (restore failed) — the last must never be read as "passed".
  enum class ProbeOutcome { kPassed, kTripped, kError };

  void tick();
  void adopt_restored_state();
  [[nodiscard]] ProbeOutcome probe_prefix(
      const sim::SharedEventLog& expected, std::uint64_t index,
      const std::function<bool()>& failed,
      std::optional<sim::EventRecorder::Divergence>& divergence,
      support::DiagnosticSink& sink);

  sim::Kernel& kernel_;
  CheckpointStore& store_;
  SnapshotTargets targets_;
  RecoveryPolicy policy_;
  sim::ProcessId tick_process_ = sim::kInvalidProcess;
  sim::Supervisor* supervisor_ = nullptr;
  std::function<void(const std::string&)> on_rollback_;
  std::optional<PoisonPoint> pending_;
  bool started_ = false;
  bool running_ = true;
  bool replaying_ = false;  ///< Inside a verify replay (rollback or probe).
  Stats stats_;
};

}  // namespace umlsoc::replay
