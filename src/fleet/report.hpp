// FleetReport: per-rig outcomes reduced to fleet-level SLO metrics.
//
// The rollup answers the traffic-serving questions: what fraction of rigs
// finished healthy (availability), what fraction of traffic was delivered,
// how often the resilience machinery had to act (timeouts, retries,
// breaker trips, restarts, give-ups), what checkpointing cost on top of
// the run, and how much work a crash could lose at worst. Every aggregate
// except the wall-clock fields is a deterministic reduction of
// deterministic per-seed outcomes, so two fleet runs over the same seed
// set produce identical fingerprints no matter how many workers executed
// them — the property the fleet determinism gate pins.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "fleet/driver.hpp"  // FleetStats, RigOutcome


namespace umlsoc::fleet {

struct FleetReport {
  std::uint64_t rigs_total = 0;
  std::uint64_t rigs_ok = 0;
  std::uint64_t rigs_failed = 0;
  std::vector<std::uint64_t> failed_seeds;  ///< Seed order (result-index order).
  std::vector<std::uint64_t> poisoned_seeds;  ///< Quarantined by the process pool.

  SloCounters slo;            ///< reduce()d across rigs.
  HealthRollup health;        ///< Final per-unit health counts across rigs.
  sim::Kernel::Stats kernel;  ///< reduce()d across rigs.

  /// Per-fault-template slice of the rollup: how each swept fault
  /// configuration fared across its share of the fleet. Indexed by
  /// RigOutcome::fault_template (dense; deterministic because template
  /// assignment is index-based). Single-template fleets get one entry.
  struct TemplateRollup {
    std::uint64_t rigs = 0;
    std::uint64_t rigs_ok = 0;
    SloCounters slo;
    [[nodiscard]] double availability() const {
      return rigs == 0 ? 1.0 : static_cast<double>(rigs_ok) / static_cast<double>(rigs);
    }
  };
  std::vector<TemplateRollup> templates;

  std::uint64_t sim_time_ps_total = 0;
  std::uint64_t sim_time_ps_max = 0;
  std::uint64_t events_total = 0;

  /// Host-time fields — nondeterministic, excluded from fingerprint().
  std::uint64_t rig_wall_ns_total = 0;  ///< Sum of per-rig wall times (~CPU time).

  // --- Derived SLO metrics (deterministic) -----------------------------------

  /// Fraction of rigs that finished ok (1.0 for an empty fleet).
  [[nodiscard]] double availability() const;
  /// delivered / (delivered + lost); 1.0 with no traffic.
  [[nodiscard]] double delivery_rate() const;
  /// timeouts / transactions; 0.0 with no transactions.
  [[nodiscard]] double timeout_rate() const;
  /// errors_unhandled / errors_raised; 0.0 with none raised.
  [[nodiscard]] double unhandled_error_rate() const;
  /// Fraction of fleet-wide units that ended healthy; 1.0 with no units.
  [[nodiscard]] double unit_health_rate() const;
  /// Host time spent encoding, storing (write, rename, prune) and restoring
  /// checkpoints relative to total rig wall time — the checkpoint tax on
  /// the fleet. Nondeterministic (wall).
  [[nodiscard]] double checkpoint_overhead() const;

  /// Reduces outcomes in index order. Deterministic given deterministic
  /// outcomes: same seeds, same report, regardless of how they were run.
  [[nodiscard]] static FleetReport aggregate(const std::vector<RigOutcome>& outcomes);

  /// Canonical serialization of every deterministic field — the value the
  /// jobs=1 vs jobs=N gate compares. Each counter record prints every
  /// counter of its counters() list as `name=value`, except the kWall ones;
  /// the other wall-time fields are excluded too.
  [[nodiscard]] std::string fingerprint() const;

  /// Multi-line human rollup ("fleet SLO rollup: ..."), ending in a
  /// "fingerprint: <xxh64 of fingerprint()>" line that covers the counters
  /// the rollup does not print; includes the wall-time-derived throughput
  /// numbers when `stats` is provided.
  [[nodiscard]] std::string str(const FleetStats* stats = nullptr) const;
};

}  // namespace umlsoc::fleet
