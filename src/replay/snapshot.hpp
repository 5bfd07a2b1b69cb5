// Versioned checkpoint/restore for executable models.
//
// A snapshot captures everything a deterministic setup cannot reconstruct
// on its own: kernel time, sequence counter and pending timed-event
// metadata; fault-plan RNG stream positions and counters; statechart
// instance configurations (active states, history, variables, event pools);
// bus pipeline state; watchdog supervision flags; generic value banks
// (register files); and the event-recorder log. It has one encoding, the
// checksummed binary format in replay/binary.hpp.
//
// What is NOT captured — and why restore works anyway: process bodies,
// callbacks and model structure. The restoring process re-runs the same
// deterministic setup code (same construction order => same ProcessIds,
// same vertex pre-order => same statechart indices), then apply_image
// replaces the *state* of those freshly built components. The contract is
// therefore "same setup, different process", not "cold start from bytes".
//
// Robustness: capture refuses states it could not faithfully restore
// (pending bus transactions, expectations owned by anything but a
// registered watchdog or supervisor, transient one-shot processes in the
// queue). Apply matches every section against the registered targets before
// touching any of them; the binary decoder checks version and checksums
// before that. Malformed, truncated, corrupted or version-bumped input fails
// with structured diagnostics and leaves the targets unchanged.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "sim/bus.hpp"
#include "sim/fault.hpp"
#include "sim/kernel.hpp"
#include "sim/replay.hpp"
#include "sim/supervise.hpp"
#include "statechart/engine.hpp"
#include "support/diagnostics.hpp"

namespace umlsoc::replay {

/// Format version written by every snapshot encode; decoding rejects any
/// other value (forward- and backward-incompatible by design: the format
/// mirrors internal state). Version 2 added the supervision sections
/// (<supervisor>, <breaker>, <health>); version 3 added per-section
/// checksums, so corruption reports name the damaged section instead of
/// just failing the document hash, and a fourth fault-plan site
/// (checkpoint-path faults); version 4 added the fifth fault-plan site
/// (simulated-crash ticks); version 5 dropped the process labels the kernel
/// section carried for each pending timed entry; version 6 replaced the
/// FNV-1a header, frame and reference checksums with XXH64 (same layout and
/// sizes); version 7 dropped the supervisor section's suspension flag and
/// escalation counter (9 bytes per supervisor), which only a child
/// supervisor in a supervision tree could set.
inline constexpr int kSnapshotVersion = 7;

struct MachineTarget {
  std::string name;
  statechart::Engine* instance = nullptr;
};

struct BusTarget {
  std::string name;
  sim::MemoryMappedBus* bus = nullptr;
};

struct WatchdogTarget {
  std::string name;
  sim::Watchdog* watchdog = nullptr;
};

struct SupervisorTarget {
  std::string name;
  sim::Supervisor* supervisor = nullptr;
};

struct BreakerTarget {
  std::string name;
  sim::CircuitBreaker* breaker = nullptr;
};

struct HealthTarget {
  std::string name;
  sim::HealthRegistry* registry = nullptr;
};

/// Generic named key/value section for components without first-class
/// snapshot support (register files, scoreboards). Capture returns the
/// values to store; restore applies a stored set and reports problems
/// through the sink.
struct ValueBank {
  std::string name;
  std::function<std::vector<std::pair<std::string, std::uint64_t>>()> capture;
  std::function<bool(const std::vector<std::pair<std::string, std::uint64_t>>&,
                     support::DiagnosticSink&)>
      restore;
};

/// The components one snapshot covers. `kernel` is required; everything
/// else is optional. Section names must be unique per kind — they are the
/// join keys between a snapshot document and a restoring process's targets.
struct SnapshotTargets {
  sim::Kernel* kernel = nullptr;
  sim::FaultPlan* fault_plan = nullptr;
  sim::EventRecorder* recorder = nullptr;
  std::vector<MachineTarget> machines;
  std::vector<BusTarget> buses;
  std::vector<WatchdogTarget> watchdogs;
  std::vector<SupervisorTarget> supervisors;
  std::vector<BreakerTarget> breakers;
  std::vector<HealthTarget> health;
  std::vector<ValueBank> banks;
};

/// Decoded snapshot content: exactly the state the binary encoding carries,
/// section order preserved. capture_image and apply_image own the refusal
/// rules and the section/target matching; the codec in replay/binary.hpp
/// only transcodes this struct.
struct SnapshotImage {
  template <typename T>
  struct Named {
    std::string name;
    T state;
  };

  sim::Kernel::Checkpoint kernel;

  struct FaultPlanState {
    std::uint64_t seed = 0;
    std::vector<std::pair<sim::FaultSite, sim::FaultPlan::SiteState>> sites;
  };
  std::optional<FaultPlanState> fault_plan;

  struct RecorderState {
    std::uint64_t total = 0;
    std::vector<sim::RecordedEvent> events;
  };
  std::optional<RecorderState> recorder;

  std::vector<Named<statechart::InstanceSnapshot>> machines;
  std::vector<Named<sim::MemoryMappedBus::Checkpoint>> buses;
  std::vector<Named<sim::Watchdog::Checkpoint>> watchdogs;
  std::vector<Named<sim::Supervisor::Checkpoint>> supervisors;
  std::vector<Named<sim::CircuitBreaker::Checkpoint>> breakers;
  std::vector<Named<sim::HealthRegistry::Checkpoint>> health;
  std::vector<Named<std::vector<std::pair<std::string, std::uint64_t>>>> banks;

  /// Sections the image would serialize (kernel + optionals + named ones).
  [[nodiscard]] std::size_t section_count() const {
    return 1 + (fault_plan ? 1 : 0) + (recorder ? 1 : 0) + machines.size() + buses.size() +
           watchdogs.size() + supervisors.size() + breakers.size() + health.size() +
           banks.size();
  }
};

/// Captures the targets' state into `image`. Owns the refusal rules: fails
/// (reporting through `sink`) on a mid-delta kernel, pending transient
/// events, in-flight bus transactions, or outstanding expectations not
/// owned by a registered watchdog or supervisor.
[[nodiscard]] bool capture_image(const SnapshotTargets& targets, SnapshotImage& image,
                                 support::DiagnosticSink& sink);

/// Applies a decoded image to `targets`: validates fault-plan/recorder
/// presence and seed, matches every named section one-to-one against the
/// registered targets, then restores kernel first, recorder last. Matching
/// or validation failures report through `sink` and return false before any
/// mutation; component-level apply failures may leave earlier sections
/// applied — treat a failed apply as fatal.
[[nodiscard]] bool apply_image(const SnapshotTargets& targets, const SnapshotImage& image,
                               support::DiagnosticSink& sink);

// --- warm-restart factories --------------------------------------------------
// Supervisor children restart through plain callbacks; these build the
// common ones from the snapshot machinery, so recovery reuses exactly the
// deterministic state capture the checkpoint format relies on.

/// Captures `instance`'s current state (call at the known-good point, e.g.
/// right after start()) and returns a Supervisor restart callback that
/// warm-restarts the instance from that captured snapshot. Restore failures
/// report through `sink` and make the callback return false (counted by the
/// supervisor as a failed restart). `instance` and `sink` must outlive the
/// returned callback.
[[nodiscard]] std::function<bool()> restart_from_snapshot(
    statechart::Engine& instance, support::DiagnosticSink& sink);

}  // namespace umlsoc::replay
