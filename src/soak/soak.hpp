// Chaos soak: the supervised UART SoC under seeded traffic faults, one
// fully isolated rig pipeline per seed, sharded by fleet::FleetDriver.
//
// The rig is a CPU sender streaming bytes to the UART tx register over a
// DMA channel wrapped in a CircuitBreaker, with a plain PIO port as the
// degraded route. Breaker state changes and supervisor activity surface
// as error events on a UartLink statechart; a Supervisor owns the link
// (warm restart from a snapshot captured at the known-good point) and a
// watchdog converts traffic starvation into a supervised failure.
//
// One seed runs the rig under a seeded error/drop fault plan (1% + 1%
// for the baseline template) and walks these legs, in order:
//   - an uninterrupted reference run;
//   - an identical rig checkpointed mid-stream, and a rig restored from
//     that checkpoint that finishes the run under the replay verifier:
//     final state and the full event sequence must match, every unit must
//     end healthy and no error event may go unhandled;
//   - a recovery-ladder leg that streams checkpoints to disk under
//     injected write faults (torn, lost, bit-flipped), tears the newest
//     rung in half and recovers through restore_latest_good;
//   - a crash leg that kills the rig mid-run (CrashInjector throwing
//     SimulatedCrash from a kernel process) while a RecoveryCoordinator
//     checkpoints in the background: a freshly constructed rig must
//     recover through the coordinator with lost work bounded by the
//     checkpoint interval and replay bit-identically to an uninterrupted
//     twin.
// What the soak checks is recovery to healthy, bit-identical replay, the
// ladder and the crash leg. It does not drive the supervision stack: at
// the templates' 0.5-2% write-fault rates no seed of a 64-seed or a
// 256-seed, 4-template run opens the breaker (8-outcome window, 50%
// threshold), trips the 50 us watchdog or restarts the link. Their
// rollups read 0 restarts, watchdog trips, give-ups, breaker opens and
// errors raised, so the UartLink machine receives no event and "no error
// event may go unhandled" holds with none raised. The breaker, watchdog
// and supervisor are built, checkpointed and restored in every leg; only
// supervise_test, the uart_soc demo and perfbench's rig take them through
// a failure (ROADMAP item 12).
// Each seed is its own kernels, fault plans, supervisor and
// checkpoint ladders, so per-seed results are bit-identical regardless of
// the fleet's job count or isolation mode, and a failure reproduces with
// the seed alone. The outcome's SLO counters come from the reference leg
// (service), the ladder and crash legs (recovery accounting) and every
// leg's kernel (reduced stats).
//
// Every attempt also writes two handoff rungs (the t=0 base and the
// post-phase-1 save point). A seed the process fleet re-dispatches after
// its worker died (attempt > 0) first restores the newest rung its
// predecessor left and replays the remainder under the verifier, proving
// resume-from-ladder, before re-running the legs from scratch.
//
// Per-seed scratch (checkpoint ladders) lives under a temp directory and is
// removed on success. A failing seed also writes the event logs of the
// reference rigs its legs ran, and run_fleet copies its scratch to
// `<artifact_root>/seed-N` with a problem.txt for forensics.
#pragma once

#include <cstdint>
#include <filesystem>
#include <functional>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "codegen/hwmodel.hpp"
#include "fleet/driver.hpp"
#include "mda/transform.hpp"
#include "replay/snapshot.hpp"
#include "sim/bus.hpp"
#include "sim/fault.hpp"
#include "sim/replay.hpp"
#include "sim/supervise.hpp"
#include "soc/iplibrary.hpp"
#include "statechart/compile.hpp"

namespace umlsoc::soak {

/// The model-side flow every rig is built from: IP library -> PIM ->
/// hardware PSM, plus the UartLink machine the rigs compile. Rigs keep
/// pointers into it, so it outlives them and is not copied.
struct Model {
  soc::IpLibrary library;
  uml::Model pim{"UartSoc"};
  std::optional<mda::MdaResult> hw;
  uml::Component* psm_uart = nullptr;
  std::optional<soc::SocProfile> psm_profile;
  std::uint64_t base = 0x40000000;
  /// UartLink: Normal <-> Fallback on breaker_open/breaker_closed, Dead on
  /// supervisor_give_up. Every other supervision signal is absorbed
  /// internally, so a new signal name would surface as an unhandled error
  /// event.
  statechart::StateMachine link{"UartLink"};

  /// Instantiates the Uart IP, maps it to the hardware platform and builds
  /// the link machine. False, with the problem in `sink`, when the PSM has
  /// no ip.Uart.
  bool build(support::DiagnosticSink& sink);
};

struct TrafficFaults {
  double error_rate = 0.0;
  double drop_rate = 0.0;
  std::uint64_t max_faults = std::numeric_limits<std::uint64_t>::max();
};

/// One fault-plan template the fleet sweep can assign to a rig: the traffic
/// fault rates the resilience stack absorbs plus the per-tick crash
/// probability of the crash leg. Template 0 is the historical baseline
/// (single-template fleets behave exactly as before the sweep existed).
/// Rates stay within what the supervision stack absorbs by design — the
/// sweep varies stress, it does not manufacture failures.
struct SoakTemplate {
  double error_rate;
  double drop_rate;
  double crash_rate;
};

inline constexpr SoakTemplate kSoakTemplates[] = {
    {0.010, 0.010, 0.10},  // 0: baseline
    {0.020, 0.005, 0.15},  // 1: error-heavy traffic, eager crash
    {0.005, 0.020, 0.05},  // 2: drop-heavy traffic, reluctant crash
    {0.015, 0.015, 0.20},  // 3: everything turned up
};
inline constexpr std::uint32_t kSoakTemplateCount =
    static_cast<std::uint32_t>(sizeof(kSoakTemplates) / sizeof(kSoakTemplates[0]));

/// Compiles one of the soak's statecharts onto the plan-table engine. The
/// models are fixed and valid, so a rejection is a programming error
/// (thrown as std::invalid_argument with the diagnostics).
std::unique_ptr<statechart::CompiledMachine> compile_machine(
    const statechart::StateMachine& machine);

/// The supervised SoC: identical construction sequence per instance (same
/// ProcessIds, same statechart indices), so the snapshot contract holds for
/// the whole supervision stack — breaker, supervisor, health registry and
/// traffic counters are all snapshot sections.
struct DegradedRig {
  static constexpr std::uint64_t kSendPeriodPs = 500'000;  // One byte per 500 ns.

  sim::Kernel kernel;
  sim::MemoryMappedBus bus;
  codegen::HwModuleSim uart;
  sim::FaultPlan plan;
  sim::BusMasterPort dma_port;
  sim::BusMasterPort pio_port;
  sim::CircuitBreaker breaker;
  sim::HealthRegistry health;
  sim::HealthRegistry::UnitId dma_unit = sim::HealthRegistry::kInvalidUnit;
  sim::HealthRegistry::UnitId link_unit = sim::HealthRegistry::kInvalidUnit;
  std::unique_ptr<statechart::CompiledMachine> link;
  sim::Supervisor sup;
  sim::Watchdog watchdog;
  sim::EventRecorder recorder;
  sim::Supervisor::ChildId link_child = sim::Supervisor::kInvalidChild;
  std::function<bool()> link_restart;
  std::uint64_t base = 0;
  sim::ProcessId sender = sim::kInvalidProcess;
  std::uint64_t target = 0;
  std::uint64_t sent = 0;
  std::uint64_t delivered = 0;
  std::uint64_t via_dma = 0;
  std::uint64_t via_pio = 0;
  std::uint64_t lost = 0;

  DegradedRig(const Model& model, const TrafficFaults& faults, std::uint64_t seed,
              support::DiagnosticSink& sink);

  /// Degraded-mode routing: bytes flow through the breaker-guarded DMA
  /// channel unless the breaker is open, in which case they fall back to
  /// PIO. Half-open deliberately routes through the breaker — that request
  /// *is* the recovery probe.
  void send_tick();

  [[nodiscard]] replay::SnapshotTargets targets();
};

/// Streams bytes until `total` have been sent and the bus has drained.
/// State-driven (no wall-count of run calls), so a reference run, a
/// checkpointed run and a restored run walk identical event sequences.
/// Returns an empty string on success, else what stalled.
std::string run_phase(DegradedRig& rig, std::uint64_t total);

/// Runs until the rig reaches a checkpointable state (e.g. no in-flight
/// port expectation from a retry) and captures a snapshot. `out == nullptr`
/// runs the identical search without keeping the snapshot — the reference
/// run uses it to stay on the checkpointed run's timeline (capturing a
/// snapshot has no side effects on the simulation).
bool run_to_save_point(DegradedRig& rig, std::string* out);

/// Drives the rig to full recovery: breaker closed, every unit healthy,
/// no supervision work pending. Each iteration sends one keepalive byte —
/// routed around an open breaker — so simulated time advances through open
/// durations and restart backoffs. Returns an empty string on success, else
/// why it did not converge.
std::string run_recovery_tail(DegradedRig& rig);

/// Disarms supervision and drains the queue; stale timer/check events
/// fizzle by design.
void finish_run(DegradedRig& rig);

/// Verifies a replayed twin against the reference run: recorded-event
/// divergence, counter-by-counter final state, health/supervision end
/// checks. Returns an empty string on success, else the failure naming
/// `leg`.
std::string compare_final_state(const DegradedRig& reference, const DegradedRig& twin,
                                const char* leg);

/// One chaos-soak seed: every leg above under the job's fault template,
/// with per-seed scratch in `scratch / "seed-N"` (removed on success, left
/// in place on failure). `ok` is false and `failure` names the first
/// broken leg, with the stalled loop's detail where one stalled, when the
/// seed fails. Everything it touches is rig-local or
/// the read-only `model`, so fleet workers may run seeds concurrently.
fleet::RigOutcome run_seed(const Model& model, const fleet::RigJob& job,
                           const std::filesystem::path& scratch);

/// Runs seeds [first_seed, first_seed + count) through `driver` with
/// run_seed, under a fresh scratch root in the system temp directory.
/// Copies each failing seed's scratch to `artifact_root / "seed-N"` with
/// its failure in problem.txt, then removes the scratch root. Prints
/// nothing. Returns the outcomes in seed order.
std::vector<fleet::RigOutcome> run_fleet(const Model& model, fleet::FleetDriver& driver,
                                         std::uint64_t first_seed, std::uint64_t count,
                                         const std::filesystem::path& artifact_root);

}  // namespace umlsoc::soak
