// Per-rig fleet results: the data one independently-seeded rig contributes
// to the fleet-level SLO rollup.
//
// A fleet run executes thousands of isolated SoC rigs (one kernel + fault
// plan + supervisor + checkpoint ladder each) across worker threads.
// Every rig reduces its run to a RigOutcome: a verdict, the SLO-relevant
// counters (traffic, resilience, supervision, recovery), a HealthRegistry
// rollup and a reduced kernel Stats record. Outcomes are pure functions of
// the rig's seed — nothing in them may depend on which worker ran the rig
// or in what order — which is what makes fleet results bit-identical across
// `--jobs` counts. Host wall time is the one deliberate exception: the
// host-side RigOutcome fields and the kWall kernel counters, all excluded
// from the determinism checks.
//
// Each of the three counter records (SloCounters, HealthRollup and
// sim::Kernel::Stats) names its fields once, in a static counters() list
// that tags each with its sim::Counter kind. The fold (reduce), the
// determinism check, the wire codec (handoff.cpp) and the report
// fingerprint all walk those lists; a static_assert per record fails the
// build when a field has no list entry.
#pragma once

#include <algorithm>
#include <cstdint>
#include <string>

#include "sim/kernel.hpp"
#include "sim/supervise.hpp"

namespace umlsoc::fleet {

/// Identifies one rig of a fleet run: its dense index into the result
/// vector and the seed it runs under. `worker` is the worker slot that
/// happened to execute the rig — observability only; rig behavior and
/// outcome content must never read it.
struct RigJob {
  std::uint64_t index = 0;
  std::uint64_t seed = 0;
  unsigned worker = 0;

  /// Re-dispatch count: 0 on the first execution, incremented every time the
  /// seed is handed to a new worker after the previous one died. Runners may
  /// use it to look for a predecessor's checkpoint ladder (handoff resume);
  /// deterministic outcome content must never depend on it.
  std::uint32_t attempt = 0;

  /// Fault-plan template slot, assigned by the driver as `index % templates`
  /// so the same rig gets the same template regardless of worker count or
  /// isolation mode. Clients map it to a concrete fault configuration
  /// (error/drop/crash-rate sweeps across the fleet).
  std::uint32_t fault_template = 0;
};

/// SLO-relevant counters a rig contributes to the fleet rollup. All fields
/// are simulation-deterministic (derived from kernel/bus/supervision state,
/// never from host clocks), so per-seed values are identical across thread
/// counts and the fleet totals reduce deterministically.
struct SloCounters {
  // Traffic served by the rig's workload.
  std::uint64_t requests = 0;   ///< Bytes/operations the workload attempted.
  std::uint64_t delivered = 0;  ///< Completed OK.
  std::uint64_t lost = 0;       ///< Completed with error (incl. fast-fails).

  // Bus/port resilience.
  std::uint64_t transactions = 0;  ///< Port-level transactions issued.
  std::uint64_t timeouts = 0;      ///< Attempts that timed out.
  std::uint64_t retries = 0;       ///< Retry attempts issued.
  std::uint64_t recovered = 0;     ///< Transactions that recovered via retry.
  std::uint64_t exhausted = 0;     ///< Transactions that exhausted retries.

  // Statechart error channel.
  std::uint64_t errors_raised = 0;
  std::uint64_t errors_unhandled = 0;

  // Supervision.
  std::uint64_t restarts = 0;        ///< Successful supervised restarts.
  std::uint64_t give_ups = 0;        ///< Terminal supervisor give-ups.
  std::uint64_t watchdog_trips = 0;
  std::uint64_t breaker_opens = 0;
  std::uint64_t breaker_closes = 0;
  std::uint64_t breaker_fast_failed = 0;

  // Checkpointing and recovery.
  std::uint64_t checkpoints_written = 0;
  std::uint64_t checkpoint_write_faults = 0;  ///< Injected write faults taken.
  std::uint64_t rungs_quarantined = 0;        ///< Corrupt rungs skipped on restore.
  std::uint64_t ladder_recoveries = 0;        ///< restore_latest_good successes.
  std::uint64_t crash_recoveries = 0;         ///< Crash-twin coordinator recoveries.
  std::uint64_t lost_work_ps_max = 0;         ///< Worst crash-recovery lost work.

  // Cross-process fleet.
  std::uint64_t seeds_poisoned = 0;  ///< Seeds quarantined after killing K workers.

  /// Every counter once, in wire order (seeds_poisoned precedes
  /// lost_work_ps_max): `visit(name, kind, r.field...)`.
  template <typename Visit, typename... Self>
  static constexpr void counters(Visit&& visit, Self&... r) {
    using enum sim::Counter;
    visit("requests", kSum, r.requests...);
    visit("delivered", kSum, r.delivered...);
    visit("lost", kSum, r.lost...);
    visit("transactions", kSum, r.transactions...);
    visit("timeouts", kSum, r.timeouts...);
    visit("retries", kSum, r.retries...);
    visit("recovered", kSum, r.recovered...);
    visit("exhausted", kSum, r.exhausted...);
    visit("errors_raised", kSum, r.errors_raised...);
    visit("errors_unhandled", kSum, r.errors_unhandled...);
    visit("restarts", kSum, r.restarts...);
    visit("give_ups", kSum, r.give_ups...);
    visit("watchdog_trips", kSum, r.watchdog_trips...);
    visit("breaker_opens", kSum, r.breaker_opens...);
    visit("breaker_closes", kSum, r.breaker_closes...);
    visit("breaker_fast_failed", kSum, r.breaker_fast_failed...);
    visit("checkpoints_written", kSum, r.checkpoints_written...);
    visit("checkpoint_write_faults", kSum, r.checkpoint_write_faults...);
    visit("rungs_quarantined", kSum, r.rungs_quarantined...);
    visit("ladder_recoveries", kSum, r.ladder_recoveries...);
    visit("crash_recoveries", kSum, r.crash_recoveries...);
    visit("seeds_poisoned", kSum, r.seeds_poisoned...);
    visit("lost_work_ps_max", kMax, r.lost_work_ps_max...);
  }

  friend bool operator==(const SloCounters&, const SloCounters&) = default;
};
static_assert(sizeof(SloCounters) == 8 * sim::counter_count<SloCounters>(),
              "every SloCounters field needs an entry in counters()");

/// HealthRegistry rollup: unit counts per final health state. A fleet
/// aggregates these across rigs — "how many units fleet-wide ended
/// degraded" is the availability signal the per-rig boolean all_healthy()
/// cannot express.
struct HealthRollup {
  std::uint64_t healthy = 0;
  std::uint64_t degraded = 0;
  std::uint64_t failed = 0;

  /// Counts `registry`'s units into this rollup.
  void add(const sim::HealthRegistry& registry);

  /// Every counter once, in wire order: `visit(name, kind, r.field...)`.
  template <typename Visit, typename... Self>
  static constexpr void counters(Visit&& visit, Self&... r) {
    using enum sim::Counter;
    visit("healthy", kSum, r.healthy...);
    visit("degraded", kSum, r.degraded...);
    visit("failed", kSum, r.failed...);
  }

  [[nodiscard]] std::uint64_t units() const { return healthy + degraded + failed; }
  friend bool operator==(const HealthRollup&, const HealthRollup&) = default;
};
static_assert(sizeof(HealthRollup) == 8 * sim::counter_count<HealthRollup>(),
              "every HealthRollup field needs an entry in counters()");

/// Folds `from` into `into` counter by counter: kSum and kWall counters
/// add, kMax counters keep the larger value. Folds a multi-kernel rig (e.g.
/// the chaos soak's reference / restored / crash legs) into one record and
/// rig records into the fleet report.
template <typename Record>
void reduce(Record& into, const Record& from) {
  Record::counters(
      [](const char*, sim::Counter kind, std::uint64_t& total, std::uint64_t value) {
        total = kind == sim::Counter::kMax ? std::max(total, value) : total + value;
      },
      into, from);
}

/// Everything one rig reports back to the fleet. Aside from `wall_ns`
/// (host time, nondeterministic by nature) every field must be a pure
/// function of `seed`.
struct RigOutcome {
  std::uint64_t seed = 0;
  bool ok = false;
  std::string failure;  ///< Empty iff ok.

  std::uint64_t sim_time_ps = 0;         ///< Simulated time the rig covered.
  std::uint64_t events_processed = 0;    ///< Kernel callbacks across the rig's kernels.
  SloCounters slo;
  HealthRollup health;
  sim::Kernel::Stats kernel;  ///< reduce()d across the rig's kernels.

  /// Fault-plan template the rig ran under (RigJob::fault_template, stamped
  /// by the driver). Deterministic: assignment is index-based.
  std::uint32_t fault_template = 0;

  std::uint64_t wall_ns = 0;  ///< Host time; excluded from determinism checks.

  // Cross-process execution accounting. Which worker ran a rig, how many
  // times it was dispatched and whether a re-dispatch resumed from a dead
  // predecessor's checkpoint ladder all depend on host scheduling and kill
  // timing — like wall_ns they are excluded from determinism checks.
  std::uint32_t attempts = 0;          ///< Dispatches it took to land this outcome.
  std::uint64_t resumed_from_seq = 0;  ///< Handoff resume rung (0 = ran from scratch).

  /// Deterministic equality: every field except the host-dependent ones —
  /// wall_ns, attempts, resumed_from_seq and the kWall kernel counters. The
  /// fleet determinism gate compares per-seed outcomes across thread counts
  /// with this, not operator==.
  [[nodiscard]] bool deterministic_equal(const RigOutcome& other) const;
};

}  // namespace umlsoc::fleet
