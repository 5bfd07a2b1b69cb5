// Deterministic fault injection and resilience helpers.
//
// A FaultPlan is a seeded, reproducible source of fault decisions that
// components consult at fixed injection sites (bus read/write issue,
// checkpoint writes, crash ticks). Each site owns an independent SplitMix64
// stream derived from the plan seed, so configuring or consulting one site
// never perturbs the decision sequence of another, and a fixed seed replays
// the exact same fault sequence for a deterministic simulation.
//
// Nothing in the simulation pays for this when no plan is installed: the
// bus, the checkpoint store and the crash injector hold a nullable
// FaultPlan pointer and the only cost on the fault-free path is that null
// check.
//
// The Watchdog models the classic hardware watchdog timer: a registered
// kernel process that trips (optionally invoking a callback) when not
// kicked within its deadline. While armed it registers a kernel
// expectation, so a run that drains with a watchdog still armed shows up
// in the Kernel's QuiescenceReport instead of passing silently.
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <stdexcept>
#include <string>
#include <string_view>

#include "sim/kernel.hpp"
#include "support/rng.hpp"

namespace umlsoc::sim {

/// Injection sites. Every site draws from its own seeded stream in consult
/// order; the per-site split keeps sequences stable across configuration
/// changes at other sites.
enum class FaultSite : std::uint8_t {
  kBusRead = 0,     ///< Consulted when a bus read is issued.
  kBusWrite = 1,    ///< Consulted when a bus write is issued.
  kCheckpoint = 2,  ///< Consulted per CheckpointStore write (torn/corrupt files).
  kCrash = 3,       ///< Consulted by CrashInjector ticks (simulated process death).
};
inline constexpr std::size_t kFaultSiteCount = 4;

[[nodiscard]] std::string_view to_string(FaultSite site);

/// What a consult decided to break, if anything.
enum class FaultKind : std::uint8_t {
  kNone = 0,
  kError,         ///< Transaction completes with BusStatus::kError.
  kDropResponse,  ///< Device hangs: the completion callback never fires.
  kBitFlip,       ///< Data corrupted by `flip_mask` during the data phase.
};

struct FaultDecision {
  FaultKind kind = FaultKind::kNone;
  std::uint64_t flip_mask = 0;  ///< Valid for kBitFlip (single bit set).

  [[nodiscard]] bool faulted() const { return kind != FaultKind::kNone; }
};

/// Seeded, per-site-configurable fault source.
class FaultPlan {
 public:
  /// Per-site behavior. Rates are probabilities per consult, resolved by a
  /// single uniform draw partitioned into bands (error, then drop, then
  /// flip) — at most one fault per consult.
  struct SiteConfig {
    double error_rate = 0.0;
    double drop_rate = 0.0;
    double bit_flip_rate = 0.0;
    /// Hard cap on faults injected at this site; consults past the cap
    /// decide kNone (counters keep counting consults).
    std::uint64_t max_faults = std::numeric_limits<std::uint64_t>::max();
  };

  struct SiteCounters {
    std::uint64_t consults = 0;
    std::uint64_t errors = 0;
    std::uint64_t drops = 0;
    std::uint64_t bit_flips = 0;

    [[nodiscard]] std::uint64_t injected() const { return errors + drops + bit_flips; }
  };

  explicit FaultPlan(std::uint64_t seed);

  [[nodiscard]] std::uint64_t seed() const { return seed_; }

  void configure(FaultSite site, SiteConfig config);

  /// Draws the next decision for `site`. Deterministic: same seed, same
  /// per-site consult sequence => same decisions.
  FaultDecision consult(FaultSite site);

  [[nodiscard]] const SiteCounters& counters(FaultSite site) const {
    return sites_[static_cast<std::size_t>(site)].counters;
  }
  [[nodiscard]] std::uint64_t total_injected() const;

  /// Checkpointable per-site stream position: RNG state plus counters.
  /// Restoring both resumes the decision sequence exactly where the
  /// captured plan left off (configs are not captured — the restoring setup
  /// reconstructs them).
  struct SiteState {
    std::uint64_t rng_state = 0;
    SiteCounters counters;
  };
  [[nodiscard]] SiteState site_state(FaultSite site) const {
    const Site& entry = sites_[static_cast<std::size_t>(site)];
    return SiteState{entry.rng.state(), entry.counters};
  }
  void restore_site_state(FaultSite site, const SiteState& state) {
    Site& entry = sites_[static_cast<std::size_t>(site)];
    entry.rng.set_state(state.rng_state);
    entry.counters = state.counters;
  }

  /// "site=kind*count ..." summary for logs and reports.
  [[nodiscard]] std::string str() const;

 private:
  struct Site {
    SiteConfig config;
    SiteCounters counters;
    support::Rng rng;

    Site() : rng(0) {}
  };

  std::uint64_t seed_;
  Site sites_[kFaultSiteCount];
};

/// Hardware-style watchdog timer. Arm it, kick it within the deadline or it
/// trips: `tripped()` turns true, the optional on_trip callback runs, and
/// the watchdog disarms (re-arm explicitly to continue supervision). While
/// armed it holds a kernel expectation so an end-of-run QuiescenceReport
/// lists watchdogs that were never resolved.
class Watchdog {
 public:
  Watchdog(Kernel& kernel, std::string name, SimTime deadline,
           std::function<void()> on_trip = nullptr);

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] SimTime deadline() const { return deadline_; }
  /// The expectation held outstanding while the watchdog is armed.
  [[nodiscard]] ExpectationId expectation() const { return expectation_; }

  /// Replaces (or clears, with nullptr) the trip callback. Supervision
  /// wiring installs its failure handler here after construction
  /// (Supervisor::attach_watchdog).
  void set_on_trip(std::function<void()> on_trip) { on_trip_ = std::move(on_trip); }

  /// Starts (or restarts) supervision; clears a previous trip.
  void arm();
  /// Pushes the trip point out to now + deadline. No-op when not armed.
  void kick();
  /// Stops supervision without tripping.
  void disarm();

  [[nodiscard]] bool armed() const { return armed_; }
  [[nodiscard]] bool tripped() const { return tripped_; }
  [[nodiscard]] std::uint64_t trips() const { return trips_; }
  [[nodiscard]] std::uint64_t kicks() const { return kicks_; }

  /// Checkpointable supervision state. The scheduled check event itself
  /// lives in the kernel checkpoint (the check process is a registered
  /// handle), and the armed expectation count is restored by the kernel's
  /// expectation registry — restore_checkpoint only reinstates the
  /// watchdog-local flags, so it must run after Kernel::restore_checkpoint.
  struct Checkpoint {
    bool armed = false;
    bool tripped = false;
    bool check_pending = false;
    std::uint64_t trip_at_ps = 0;
    std::uint64_t trips = 0;
    std::uint64_t kicks = 0;
  };
  [[nodiscard]] Checkpoint capture_checkpoint() const {
    return Checkpoint{armed_, tripped_, check_pending_, trip_at_ps_, trips_, kicks_};
  }
  void restore_checkpoint(const Checkpoint& checkpoint) {
    armed_ = checkpoint.armed;
    tripped_ = checkpoint.tripped;
    check_pending_ = checkpoint.check_pending;
    trip_at_ps_ = checkpoint.trip_at_ps;
    trips_ = checkpoint.trips;
    kicks_ = checkpoint.kicks;
  }

 private:
  void check();

  Kernel& kernel_;
  std::string name_;
  SimTime deadline_;
  std::function<void()> on_trip_;
  ProcessId check_process_ = kInvalidProcess;
  ExpectationId expectation_ = kInvalidExpectation;
  std::uint64_t trip_at_ps_ = 0;  ///< Current trip point (last kick + deadline).
  bool armed_ = false;
  bool check_pending_ = false;
  bool tripped_ = false;
  std::uint64_t trips_ = 0;
  std::uint64_t kicks_ = 0;
};

/// Simulated process death: thrown out of the kernel's run loop by a
/// CrashInjector mid-delta-cycle. The throwing rig is *not* expected to
/// stay usable — the crash models the whole process dying, so recovery
/// means abandoning the rig and warm-restarting a fresh one from the
/// on-disk checkpoint ladder (replay::RecoveryCoordinator::recover).
struct SimulatedCrash : std::runtime_error {
  explicit SimulatedCrash(std::uint64_t at)
      : std::runtime_error("simulated crash at " + SimTime(at).str()), at_ps(at) {}

  std::uint64_t at_ps = 0;  ///< Simulation time the crash fired.
};

/// Periodically consults the plan's kCrash site and, on a kError decision,
/// throws SimulatedCrash from inside its tick process — process death in
/// the middle of a delta cycle, with whatever in-memory state existed at
/// that instant lost.
///
/// The plan is nullable so a reference twin can run an identical injector
/// (same registered process, same tick schedule, hence an identical
/// recorded event stream) that never crashes. The tick reschedules itself
/// unconditionally, so after a snapshot restore the pending tick restored
/// by the kernel checkpoint keeps the chain alive without calling start()
/// again — call start() exactly once, before the first run().
class CrashInjector {
 public:
  CrashInjector(Kernel& kernel, FaultPlan* plan, SimTime interval);

  /// Schedules the first tick. Call once; after a checkpoint restore the
  /// restored pending tick continues the chain automatically.
  void start();
  /// Disarms the crash draw; ticks continue (the tick chain is part of the
  /// recorded event stream and must look identical on rigs that never
  /// crash). Arm/disarm have no simulation-visible effect, so a harness can
  /// hold the injector disarmed until a first clean checkpoint has landed.
  void disarm() { armed_ = false; }
  void arm() { armed_ = true; }
  [[nodiscard]] bool armed() const { return armed_; }

 private:
  void tick();

  Kernel& kernel_;
  FaultPlan* plan_;
  SimTime interval_;
  ProcessId tick_process_ = kInvalidProcess;
  bool armed_ = true;
  bool started_ = false;
};

}  // namespace umlsoc::sim
