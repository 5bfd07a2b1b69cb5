// The supervised UART SoC rig shared by the soak and timetravel workloads,
// assembled from the library's public APIs: an IP-library UART mapped
// through the hardware MDA transform onto a faulty simulated bus, a DMA
// channel behind a CircuitBreaker with a PIO fallback port, a Supervisor
// owning the UartLink statechart (warm restarts from a restart snapshot),
// a watchdog, and an event recorder.
//
// The traffic script is a kernel process whose every decision is a pure
// function of checkpointed rig state, so a rig restored from any
// checkpoint continues exactly where the snapshot left off. The script
// drives every supervision path once per run:
//   1. a deterministic burst of failing DMA writes (writes to an unmapped
//      address) opens the breaker; bytes fall back to PIO until a
//      half-open probe closes it again;
//   2. a starvation window with no traffic trips the watchdog, and the
//      supervisor warm-restarts the link;
//   3. a second traffic phase and keepalive bytes until every unit is
//      healthy, then the watchdog is disarmed and the script stops.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>

#include "codegen/hwmodel.hpp"
#include "mda/transform.hpp"
#include "replay/snapshot.hpp"
#include "sim/bus.hpp"
#include "sim/fault.hpp"
#include "sim/replay.hpp"
#include "sim/supervise.hpp"
#include "soc/iplibrary.hpp"
#include "statechart/engine.hpp"
#include "support/diagnostics.hpp"

namespace perfbench {

using namespace umlsoc;

/// Builds an engine for `machine` through statechart::compile(), falling
/// back to the reference interpreter for machines the compiler rejects.
std::unique_ptr<statechart::Engine> make_engine(const statechart::StateMachine& machine,
                                                bool* fell_back = nullptr);

/// The model side every rig is built from: IP library -> PIM -> hardware
/// PSM, plus the UartLink supervision statechart.
struct SocModel {
  soc::IpLibrary library;
  uml::Model pim{"PerfSoc"};
  std::optional<mda::MdaResult> hw;
  const uml::Component* psm_uart = nullptr;
  std::optional<soc::SocProfile> profile;
  std::uint64_t base = 0x40000000;
  statechart::StateMachine link{"UartLink"};

  bool build(support::DiagnosticSink& sink);
};

/// Per-rig traffic and fault parameters.
struct RigConfig {
  double error_rate = 0.01;  ///< Random bus-write errors.
  double drop_rate = 0.01;   ///< Random hung bus writes (timeouts).
  std::uint64_t burst = 4;   ///< Leading DMA writes that fail.
  std::uint64_t total = 64;  ///< Bytes by the end of the script.
  /// Port attempt deadline; zero disables timeouts and retries (see
  /// SocRig::drain for why a rig restored in place runs without them).
  sim::SimTime port_timeout = sim::SimTime::ns(100);
};

class SocRig {
 public:
  static constexpr std::uint64_t kSendPeriodPs = 500'000;
  /// Off the 500 ns traffic grid, so script ticks never share an instant
  /// with the sender.
  static constexpr std::uint64_t kTickPs = 1'000'037;
  /// Bytes sent before the starvation window.
  static constexpr std::uint64_t kPhase1Bytes = 24;
  /// Traffic-free window; longer than the 50 us watchdog deadline.
  static constexpr std::uint64_t kStarvePs = 60'000'000;

  SocRig(const SocModel& model, const RigConfig& config, std::uint64_t seed,
         support::DiagnosticSink& sink);
  SocRig(const SocRig&) = delete;
  SocRig& operator=(const SocRig&) = delete;

  [[nodiscard]] replay::SnapshotTargets targets();

  /// Schedules the first script tick (fresh rigs only; a restored rig
  /// inherits the pending tick from its snapshot).
  void start() { kernel.schedule(sim::SimTime(kTickPs), script); }

  /// kernel.run(end) under a span; counts the events it executed.
  void run(sim::SimTime end, const char* span_name = "sim.run");

  /// Runs until no bus transaction is in flight. A BusMasterPort's and a
  /// CircuitBreaker's in-flight bookkeeping is not snapshot state: restoring
  /// into a live rig mid-transaction would leave a stale transaction to
  /// swallow the next completion. A rig that is restored in place must be
  /// drained first (and run without port timeouts and hung writes, whose
  /// stale deadlines a drain cannot clear).
  void drain();

  [[nodiscard]] bool recovered() const;
  [[nodiscard]] bool done() const { return stage == kDone; }

  /// Empty when the rig ended healthy with every supervision path taken.
  [[nodiscard]] std::string check_end_state(const char* leg) const;

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
  std::unique_ptr<statechart::Engine> link;
  sim::Supervisor sup;
  sim::Watchdog watchdog;
  sim::EventRecorder recorder;
  sim::Supervisor::ChildId link_child = sim::Supervisor::kInvalidChild;
  std::function<bool()> link_restart;
  sim::ProcessId sender = sim::kInvalidProcess;
  sim::ProcessId script = sim::kInvalidProcess;

  // Script and traffic state (checkpointed through the "traffic" bank).
  enum Stage : std::uint64_t { kStart = 0, kPhase1, kStarving, kPhase2, kDone };
  std::uint64_t stage = kStart;
  std::uint64_t starve_until_ps = 0;
  std::uint64_t target = 0;
  std::uint64_t sent = 0;
  std::uint64_t delivered = 0;
  std::uint64_t via_dma = 0;
  std::uint64_t via_pio = 0;
  std::uint64_t lost = 0;

  // Host-side work counters (not simulation state).
  std::uint64_t events_executed = 0;
  std::uint64_t dispatches = 0;
  bool fell_back = false;

 private:
  void send_tick();
  void script_tick();
  void kick() { kernel.schedule(sim::SimTime(kSendPeriodPs), sender); }
  void dispatch_error(const std::string& event);

  RigConfig config_;
  std::uint64_t base_;
};

/// Empty when `twin` replayed `reference` bit-identically: no recorder
/// divergence, every expected event consumed, identical final state.
[[nodiscard]] std::string compare_final_state(const SocRig& reference, const SocRig& twin,
                                              const char* leg);

}  // namespace perfbench
