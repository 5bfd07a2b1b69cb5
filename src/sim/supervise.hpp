// Supervision, circuit breaking and degraded-mode recovery.
//
// PR 2 gave models fault *injection* and detection (bus status, watchdogs,
// error events); this layer closes the loop with *recovery*, borrowing the
// two battle-tested shapes of fault-tolerant software:
//
//  * OTP-style supervision: a Supervisor owns restartable units
//    (statechart instances, bus channels, arbitrary processes) and restarts
//    a failed child after exponential backoff — one-for-one or all-for-one.
//    A restart-intensity budget (max R restarts within window W) guards
//    against restart storms: exceeding it gives up terminally with a
//    report. Restarts are *warm*: the restart callback reinitializes the
//    child from a restart snapshot (see replay::restart_from_snapshot),
//    so recovery is deterministic and replay-compatible.
//
//  * Circuit breakers: a CircuitBreaker wraps a BusMasterPort target with
//    the classic closed/open/half-open automaton. Failures (error or
//    timeout completions) feed a sliding outcome window; when the failure
//    rate crosses the threshold the breaker opens and fast-fails callers
//    without touching the bus. After the open duration a single half-open
//    probe is let through: success closes the breaker, failure re-opens it
//    with the duration doubled (clamped). State changes surface as
//    breaker_open / breaker_closed events for the statechart error channel.
//
// A HealthRegistry aggregates per-unit health (healthy/degraded/failed) and
// notifies listeners on every transition — the hook a model uses to route
// around an open device (the uart_soc demo falls back from DMA to PIO while
// the DMA breaker is open).
//
// Everything here is checkpointable: supervisors and breakers schedule only
// registered kernel processes (their pending work is plain data restored by
// the kernel checkpoint), and each exposes capture/restore of its local
// state for the snapshot machinery in replay/snapshot.
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <string>
#include <string_view>
#include <vector>

#include "sim/bus.hpp"
#include "sim/fault.hpp"
#include "sim/kernel.hpp"
#include "support/diagnostics.hpp"

namespace umlsoc::sim {

/// Error-channel hook: supervision components report named error events
/// ("breaker_open", "watchdog_trip", "supervisor_give_up", ...) through this
/// callback; the model layer forwards them to a statechart instance's
/// dispatch_error / dispatch. Kept as a plain function so sim/ stays
/// independent of the statechart layer.
using ErrorEmitter = std::function<void(const std::string& event, std::int64_t data)>;

// --- HealthRegistry ----------------------------------------------------------

enum class UnitHealth : std::uint8_t {
  kHealthy = 0,
  kDegraded,  ///< Alive but impaired (breaker open, restart pending).
  kFailed,    ///< Terminally down (supervision gave up).
};

[[nodiscard]] std::string_view to_string(UnitHealth health);

/// Aggregates the health of named units and notifies listeners on every
/// transition. Degraded-mode hooks subscribe here: a model reroutes traffic
/// when a unit degrades and routes back when it recovers.
class HealthRegistry {
 public:
  using UnitId = std::uint32_t;
  static constexpr UnitId kInvalidUnit = std::numeric_limits<UnitId>::max();

  /// Registers a unit (initially healthy) and returns its stable id.
  UnitId register_unit(std::string name);

  [[nodiscard]] std::size_t unit_count() const { return units_.size(); }
  [[nodiscard]] const std::string& unit_name(UnitId unit) const {
    return units_[unit].name;
  }

  void set_health(UnitId unit, UnitHealth health, std::string_view reason = {});
  [[nodiscard]] UnitHealth health(UnitId unit) const { return units_[unit].health; }

  /// Worst health across all units (healthy when no unit is registered).
  [[nodiscard]] UnitHealth aggregate() const;
  [[nodiscard]] bool all_healthy() const { return aggregate() == UnitHealth::kHealthy; }

  /// Monotonic count of health *transitions* (set_health calls that changed
  /// the value).
  [[nodiscard]] std::uint64_t transitions() const { return transitions_; }

  using Listener = std::function<void(UnitId unit, UnitHealth from, UnitHealth to,
                                      std::string_view reason)>;
  void add_listener(Listener listener) { listeners_.push_back(std::move(listener)); }

  /// "dma=degraded uart-driver=healthy".
  [[nodiscard]] std::string str() const;

  /// Checkpointable state: per-unit health plus the transition counter.
  /// Restore validates the unit count (the restoring setup registers the
  /// same units in the same order). Listeners do not fire during restore —
  /// restore reproduces state, not history.
  struct Checkpoint {
    std::vector<std::uint8_t> health;  ///< One per unit, registration order.
    std::uint64_t transitions = 0;
  };
  [[nodiscard]] Checkpoint capture_checkpoint() const;
  bool restore_checkpoint(const Checkpoint& checkpoint, support::DiagnosticSink& sink);

 private:
  struct Unit {
    std::string name;
    UnitHealth health = UnitHealth::kHealthy;
  };
  std::vector<Unit> units_;
  std::vector<Listener> listeners_;
  std::uint64_t transitions_ = 0;
};

// --- CircuitBreaker ----------------------------------------------------------

/// Closed/open/half-open breaker in front of a BusMasterPort. Closed
/// traffic flows through; each completion's status is recorded in a sliding
/// window of the last `Config::window` outcomes. When the window holds at
/// least `min_samples` outcomes and the failure rate reaches
/// `failure_threshold`, the breaker opens: requests fast-fail with
/// BusStatus::kError (synchronously — no bus traffic, no simulated time)
/// until `open_duration` elapses. The breaker then goes half-open and admits
/// exactly one probe request; a successful probe closes the breaker (window
/// reset, open duration reset), a failed probe re-opens it with the duration
/// multiplied by `reopen_multiplier` (clamped to `max_open_duration`).
class CircuitBreaker {
 public:
  enum class State : std::uint8_t { kClosed = 0, kOpen, kHalfOpen };

  struct Config {
    std::uint32_t window = 16;  ///< Sliding outcome window size (<= 64).
    std::uint32_t min_samples = 4;
    double failure_threshold = 0.5;
    SimTime open_duration = SimTime::us(1);
    unsigned reopen_multiplier = 2;  ///< Applied after a failed half-open probe.
    SimTime max_open_duration = SimTime::us(64);
  };

  struct Stats {
    std::uint64_t issued = 0;        ///< Requests forwarded to the port.
    std::uint64_t ok = 0;            ///< Forwarded requests that completed kOk.
    std::uint64_t failures = 0;      ///< Forwarded requests that completed kError/kTimeout.
    std::uint64_t fast_failed = 0;   ///< Requests rejected while open/half-open.
    std::uint64_t opens = 0;         ///< Closed/half-open -> open transitions.
    std::uint64_t closes = 0;        ///< Half-open -> closed transitions.
    std::uint64_t probes = 0;        ///< Half-open probes admitted.
    std::uint64_t probe_failures = 0;
  };

  CircuitBreaker(Kernel& kernel, BusMasterPort& port, std::string name, Config config);
  /// Default Config. (An overload rather than a default argument: a nested
  /// aggregate's member initializers are not parsable as a default argument
  /// inside the enclosing class.)
  CircuitBreaker(Kernel& kernel, BusMasterPort& port, std::string name);

  /// Issue through the breaker. While open (or half-open with the probe
  /// already in flight) the completion is invoked synchronously with
  /// kError and the request never reaches the bus.
  void read(std::uint64_t address, MemoryMappedBus::ReadCompletion done);
  void write(std::uint64_t address, std::uint64_t value,
             MemoryMappedBus::WriteCompletion done);

  [[nodiscard]] State state() const { return state_; }
  [[nodiscard]] const Stats& stats() const { return stats_; }
  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] const Config& config() const { return config_; }
  /// The open duration the *next* open would use (doubles on failed probes).
  [[nodiscard]] SimTime current_open_duration() const {
    return SimTime(open_duration_ps_);
  }
  [[nodiscard]] std::uint32_t window_samples() const { return samples_; }
  [[nodiscard]] std::uint32_t window_failures() const { return failures_in_window_; }

  /// Emits "breaker_open" on every open and "breaker_closed" on every close
  /// (data = breaker stats opens/closes count).
  void set_error_emitter(ErrorEmitter emitter) { emitter_ = std::move(emitter); }

  /// Health binding: open => kDegraded, closed => kHealthy.
  void bind_health(HealthRegistry* registry, HealthRegistry::UnitId unit) {
    registry_ = registry;
    health_unit_ = unit;
  }

  /// Administrative reset to closed (a supervised "power-cycle the device"
  /// restart action): clears the window and restores the configured open
  /// duration. Emits breaker_closed if the breaker was not closed.
  void force_closed();

  /// Checkpointable breaker state. The pending open-duration timer event
  /// itself lives in the kernel checkpoint (the timer is a registered
  /// process); this covers the automaton state, the sliding window, the
  /// doubled duration and the counters. A half-open probe in flight blocks
  /// the snapshot upstream (the port's in-flight expectation), so
  /// `probe_in_flight` is captured for completeness but is false in any
  /// restorable state.
  struct Checkpoint {
    std::uint8_t state = 0;
    std::uint64_t outcomes = 0;  ///< Window ring bits, 1 = failure.
    std::uint32_t cursor = 0;
    std::uint32_t samples = 0;
    std::uint32_t failures_in_window = 0;
    std::uint64_t open_duration_ps = 0;
    std::uint64_t reopen_at_ps = 0;
    bool timer_pending = false;
    bool probe_in_flight = false;
    Stats stats;
  };
  [[nodiscard]] Checkpoint capture_checkpoint() const;
  bool restore_checkpoint(const Checkpoint& checkpoint, support::DiagnosticSink& sink);

 private:
  void record_outcome(bool failure);
  void reset_window();
  void open(std::string_view cause);
  void close();
  void on_open_elapsed();
  void emit(const char* event, std::int64_t data);
  void set_health(UnitHealth health, std::string_view reason);
  /// True when the request may flow to the port; marks the probe slot taken
  /// in half-open.
  bool admit();
  void on_completion(bool admitted_as_probe, BusStatus status);

  Kernel& kernel_;
  BusMasterPort& port_;
  std::string name_;
  Config config_;
  ErrorEmitter emitter_;
  HealthRegistry* registry_ = nullptr;
  HealthRegistry::UnitId health_unit_ = HealthRegistry::kInvalidUnit;
  ProcessId timer_process_ = kInvalidProcess;

  State state_ = State::kClosed;
  std::uint64_t outcomes_ = 0;  ///< Ring of window bits, 1 = failure.
  std::uint32_t cursor_ = 0;
  std::uint32_t samples_ = 0;
  std::uint32_t failures_in_window_ = 0;
  std::uint64_t open_duration_ps_ = 0;
  std::uint64_t reopen_at_ps_ = 0;
  bool timer_pending_ = false;
  bool probe_in_flight_ = false;
  Stats stats_;
};

[[nodiscard]] std::string_view to_string(CircuitBreaker::State state);

// --- Supervisor --------------------------------------------------------------

enum class RestartStrategy : std::uint8_t {
  kOneForOne = 0,  ///< A failure restarts only the failed child.
  kAllForOne,      ///< A failure restarts every child of the supervisor.
};

struct RestartPolicy {
  /// Delay before the first restart attempt of a failure burst.
  SimTime backoff = SimTime::ns(100);
  /// Each consecutive failure (within `window` of the previous one)
  /// multiplies the delay; 1 keeps it constant.
  unsigned backoff_multiplier = 2;
  SimTime max_backoff = SimTime::us(100);
  /// Restart-intensity budget: a failure that would schedule more than
  /// `max_restarts` restarts within `window` makes the supervisor give up.
  std::uint32_t max_restarts = 5;
  SimTime window = SimTime::us(50);
};

/// A supervisor over restartable units. Children are registered with a
/// restart callback (typically replay::restart_from_snapshot — a warm
/// restart from a captured snapshot); report_failure schedules the restart
/// after the current backoff on a single registered kernel process, so the
/// whole mechanism is checkpoint- and replay-compatible. Restart scheduling
/// holds a kernel expectation, so a run that drains with a restart pending
/// shows up in the QuiescenceReport.
class Supervisor {
 public:
  using ChildId = std::uint32_t;
  static constexpr ChildId kInvalidChild = std::numeric_limits<ChildId>::max();

  Supervisor(Kernel& kernel, std::string name,
             RestartStrategy strategy = RestartStrategy::kOneForOne,
             RestartPolicy policy = {});

  /// Registers a restartable unit. `restart` reinitializes the unit and
  /// returns success; a failed restart counts as a fresh failure (backoff
  /// grows, intensity budget shrinks).
  ChildId add_child(std::string name, std::function<bool()> restart);

  /// Wires a watchdog trip into the recovery path: a trip emits a
  /// "watchdog_trip" error event and reports a failure of `child`; after
  /// the child's successful restart the watchdog is re-armed.
  void attach_watchdog(ChildId child, Watchdog& watchdog);

  /// Health binding for one child: failure reported => kDegraded, restart
  /// succeeded => kHealthy, gave up => kFailed.
  void bind_child_health(ChildId child, HealthRegistry& registry,
                         HealthRegistry::UnitId unit);

  void set_error_emitter(ErrorEmitter emitter) { emitter_ = std::move(emitter); }

  /// Reports a child failure. Ignored after the supervisor gave up.
  void report_failure(ChildId child, std::string_view reason);

  [[nodiscard]] const std::string& name() const { return name_; }

  struct ChildStats {
    std::uint64_t failures = 0;         ///< report_failure calls for this child.
    std::uint64_t restarts = 0;         ///< Successful restart invocations.
    std::uint64_t failed_restarts = 0;  ///< Restart callbacks that returned false.
    std::uint32_t consecutive = 0;      ///< Failure burst length (drives backoff).
  };
  [[nodiscard]] const ChildStats& child_stats(ChildId child) const {
    return children_[child].stats;
  }

  /// The delay the next restart of `child` would use.
  [[nodiscard]] SimTime backoff_for(ChildId child) const;

  /// Terminal give-up: the supervisor exhausted its restart budget.
  [[nodiscard]] bool gave_up() const { return gave_up_; }
  [[nodiscard]] const std::string& give_up_reason() const { return give_up_reason_; }
  [[nodiscard]] std::size_t pending_restarts() const { return pending_.size(); }
  /// True when no restart is pending and the supervisor has not given up.
  [[nodiscard]] bool quiescent() const { return pending_.empty() && !gave_up_; }

  /// "sup soc: 2 children, 3 restarts".
  [[nodiscard]] std::string str() const;

  /// Checkpointable supervision state. The scheduled restart event lives in
  /// the kernel checkpoint (the drain process is registered); this covers
  /// the pending-restart queue payload, per-child counters, the intensity
  /// window and the give-up state. Restore validates it against this
  /// supervisor's registrations and policy.
  struct Checkpoint {
    bool gave_up = false;
    std::string give_up_reason;
    std::vector<std::uint64_t> window;  ///< Restart timestamps (ps), ascending.
    struct ChildState {
      std::uint64_t failures = 0;
      std::uint64_t restarts = 0;
      std::uint64_t failed_restarts = 0;
      std::uint32_t consecutive = 0;
      std::uint64_t last_failure_ps = 0;
    };
    std::vector<ChildState> children;
    struct PendingRestart {
      std::uint64_t due_ps = 0;
      ChildId child = kInvalidChild;
    };
    std::vector<PendingRestart> pending;  ///< Insertion (FIFO) order.
  };
  [[nodiscard]] Checkpoint capture_checkpoint() const;
  bool restore_checkpoint(const Checkpoint& checkpoint, support::DiagnosticSink& sink);

  /// The expectation this supervisor holds once per pending restart
  /// (capture_image accepts it outstanding when the supervisor is a
  /// registered snapshot target).
  [[nodiscard]] ExpectationId restart_expectation() const { return restart_expectation_; }

 private:
  struct Child {
    std::string name;
    std::function<bool()> restart;
    Watchdog* watchdog = nullptr;
    HealthRegistry* registry = nullptr;
    HealthRegistry::UnitId health_unit = HealthRegistry::kInvalidUnit;
    ChildStats stats;
    std::uint64_t last_failure_ps = 0;
  };
  struct PendingRestart {
    std::uint64_t due_ps;
    ChildId child;
  };

  void schedule_restart(ChildId child, SimTime delay);
  void drain_due_restarts();
  void execute_restart(ChildId child);
  /// Prunes the intensity window and records one restart at `now_ps`;
  /// returns false when the budget is exceeded (caller gives up).
  bool budget_allows(std::uint64_t now_ps);
  void give_up(std::string_view reason);
  void set_child_health(ChildId child, UnitHealth health, std::string_view reason);
  void emit(const char* event, std::int64_t data);

  Kernel& kernel_;
  std::string name_;
  RestartStrategy strategy_;
  RestartPolicy policy_;
  ErrorEmitter emitter_;
  ProcessId restart_process_ = kInvalidProcess;
  ExpectationId restart_expectation_ = kInvalidExpectation;

  std::vector<Child> children_;
  std::vector<PendingRestart> pending_;  // Insertion (FIFO) order.
  std::vector<PendingRestart> due_scratch_;
  std::vector<std::uint64_t> window_;  // Restart timestamps, ascending.
  bool gave_up_ = false;
  std::string give_up_reason_;
};

}  // namespace umlsoc::sim
