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
// Every rig is built one way, as a DegradedRig, and carries the same
// kernel processes in the same order: the SoC's own, then the script, a
// crash injector and a RecoveryCoordinator. The script is a kernel process
// that takes the supervision stack through both of its failures in every
// seed. Its first 32-byte traffic phase starts with a burst of DMA writes
// to an unmapped address: the bus answers kError, the breaker opens, bytes
// fall back to PIO and a half-open probe closes it again. Once that phase
// has drained the script sends nothing until the 50 us watchdog trips and
// the supervisor warm-restarts the link. It then sends the second phase,
// sends keepalive bytes until the link has recovered and disarms the
// watchdog. Each of its decisions reads checkpointed rig state, so a rig
// restored anywhere resumes the script where the capture left it. The
// host only runs the kernel in whole-microsecond slices and takes captures
// between them.
//
// One seed runs five rigs under the job's fault template, in this order:
//   - the crash victim: its CrashInjector throws SimulatedCrash from a
//     kernel process mid-run while its coordinator checkpoints in the
//     background;
//   - the reference, which runs uninterrupted to the stop rule and writes
//     everything the twins restore from: two handoff rungs (at t=0 and at
//     the save point after the first traffic phase, while the watchdog
//     starves), the standalone snapshot at the save point, and the
//     recovery ladder, which its coordinator writes after a clean t=0 base
//     under injected torn, lost and bit-flipped writes;
//   - three twins, fresh rigs that restore a capture, stop their
//     coordinators (twins write nothing) and replay to the stop rule under
//     the verifier against the reference's event log: the restored twin
//     from the standalone snapshot, the ladder twin through
//     restore_latest_good after the ladder's newest rung is torn in half,
//     and the crash twin through RecoveryCoordinator::recover from the
//     victim's ladder, with lost work bounded by the checkpoint interval.
// The reference must open and close the breaker, trip the watchdog and
// restart the link at least once each. Each twin must end bit-identical to
// the reference: the same event sequence and final counters, every unit
// healthy and no error event unhandled.
// Each seed is its own kernels, fault plans, supervisor and
// checkpoint ladders, so per-seed results are bit-identical regardless of
// the fleet's job count or isolation mode, and a failure reproduces with
// the seed alone. The outcome's SLO counters come from the reference
// (service), the ladder and crash twins and the victim (recovery
// accounting) and the five rigs' kernels (reduced stats).
//
// A seed the process fleet re-dispatches after its worker died
// (attempt > 0) runs a sixth rig. Before wiping its scratch it sets aside
// the handoff rungs (prefix "handoff", in `seed-N/handoff`) that its dead
// predecessor left; once the reference has run, a twin restores the newest
// good one and replays the rest against the reference, proving
// resume-from-ladder.
//
// Per-seed scratch (checkpoint ladders) lives under a temp directory and is
// removed on success. A failing seed also writes the reference's event
// log, and run_fleet copies its scratch to `<artifact_root>/seed-N` with a
// problem.txt for forensics.
#pragma once

#include <cstdint>
#include <filesystem>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "codegen/hwmodel.hpp"
#include "fleet/driver.hpp"
#include "mda/transform.hpp"
#include "replay/recovery.hpp"
#include "replay/snapshot.hpp"
#include "replay/store.hpp"
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

/// One fault-plan template the fleet sweep can assign to a rig: the traffic
/// fault rates the resilience stack absorbs plus the per-tick crash
/// probability of the crash leg. Template 0 is the historical baseline
/// (single-template fleets behave exactly as before the sweep existed).
/// Rates stay within what the supervision stack absorbs by design — the
/// sweep varies stress on top of the script's failures, it adds none.
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

/// The supervised SoC with its script, crash injector and checkpoint
/// coordinator: identical construction sequence per instance (same
/// ProcessIds, same statechart indices), so the snapshot contract holds for
/// the whole supervision stack — breaker, supervisor, health registry and
/// traffic counters are all snapshot sections — and a capture of one rig
/// restores into any other.
struct DegradedRig {
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
  std::uint64_t target = 0;
  std::uint64_t sent = 0;
  std::uint64_t delivered = 0;
  std::uint64_t via_dma = 0;
  std::uint64_t via_pio = 0;
  std::uint64_t lost = 0;
  // The last processes registered, in declaration order, after those of
  // the bus, ports, breaker, supervisor and watchdog above.
  sim::ProcessId sender = kernel.register_process([this] { send_tick(); }, "cpu.sender");
  sim::ProcessId script = kernel.register_process([this] { script_tick(); }, "soak.script");
  sim::CrashInjector injector;
  /// The ladder the coordinator writes while running; a twin restores from it.
  replay::CheckpointStore store;
  replay::RecoveryCoordinator coordinator;

  /// The bus takes `faults`' traffic error and drop rates. `store_config`
  /// configures the coordinator's ladder; the default names no directory,
  /// for rigs that never write or restore one. `crash_plan` arms the
  /// injector (nullptr: it ticks and never fires) and must outlive the rig.
  DegradedRig(const Model& model, const SoakTemplate& faults, std::uint64_t seed,
              support::DiagnosticSink& sink, replay::CheckpointStoreConfig store_config = {},
              sim::FaultPlan* crash_plan = nullptr);

  /// Schedules the first script, injector and coordinator ticks, and the
  /// coordinator starts writing. Call it once on a rig that runs from time
  /// zero. A restored rig must not call it: its schedule carries the
  /// pending ticks, and each chain reschedules itself.
  void start();

  /// Degraded-mode routing: bytes flow through the breaker-guarded DMA
  /// channel unless the breaker is open, in which case they fall back to
  /// PIO. Half-open deliberately routes through the breaker — that request
  /// *is* the recovery probe. The run's first DMA writes go to an unmapped
  /// address: the error burst that opens the breaker.
  void send_tick();

  /// One step of the script: raise the target to 32 bytes; once they have
  /// drained, send nothing until the watchdog has tripped; then raise the
  /// target to 64, then send one keepalive byte at a time (routed around an
  /// open breaker, so simulated time advances through open durations and
  /// restart backoffs) until the link has recovered, then disarm the
  /// watchdog.
  void script_tick();

  [[nodiscard]] replay::SnapshotTargets targets();
};

/// One chaos-soak seed: every rig above under the job's fault template,
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
