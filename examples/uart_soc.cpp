// UART SoC flow: instantiate the Uart IP from the library, run the MDA
// hardware mapping, generate RTL + SystemC-style C++, then execute the
// design: a runtime hardware model mapped on the simulated bus, driven by
// ASL driver code (exactly what the software mapping generates).
//
// Then re-runs the driver under an adversarial bus (seeded fault plan
// dropping responses) to show the resilience layer: timeouts retry with
// backoff, a watchdog supervises progress, and the driver's health
// statechart walks through its declared error/recovery states.
//
// Demonstrates checkpoint/restore and deterministic replay: the
// adversarial run is checkpointed mid-flight, restored into a freshly
// constructed setup (as a restarted process would), continued to the end,
// and shown to be bit-identical to an uninterrupted reference — final
// state and complete event sequence. A deliberately perturbed restore and
// a corrupted snapshot show divergence detection and rejection. Any
// mismatch exits nonzero, so CI runs this binary as the snapshot smoke
// test.
//
// Closes with the supervision demo: the CPU streams bytes to the UART over
// a DMA channel guarded by a CircuitBreaker. A deterministic burst of bus
// errors opens the breaker, the HealthRegistry flags the channel degraded
// and traffic falls back to a PIO port; after the open duration a half-open
// probe succeeds and DMA is restored. A watchdog starvation trip then
// drives a supervised warm restart of the link statechart (from a restart
// snapshot) and re-arms the dog. Every supervision signal lands in the
// UartLink statechart's error channel, which must absorb all of them.
//
// With --chaos-soak[=N] the binary instead soaks that supervision loop
// under a seeded 1% error + 1% drop fault plan over N seeds (default 16),
// sharded across worker threads by the fleet engine (--jobs=M; default 1,
// 0 = one per core). Each seed is one fully isolated rig pipeline — its own
// kernels, fault plans, supervision tree and checkpoint ladder — so
// per-seed results are bit-identical regardless of the job count, and the
// run ends with the fleet SLO rollup (availability, delivery/timeout
// rates, restarts, rollbacks, checkpoint overhead, lost-work bounds):
// each seed runs an uninterrupted reference, an identical rig checkpointed
// mid-stream, and a restored rig that finishes the run under the replay
// verifier — final state and the full event sequence must match, every
// unit must end healthy and no error event may go unhandled. A
// recovery-ladder leg streams checkpoints to disk under injected write
// faults and recovers through restore_latest_good, and a crash leg kills
// the rig mid-run (CrashInjector throwing SimulatedCrash from a kernel
// process) while a RecoveryCoordinator checkpoints in the background: a
// freshly constructed rig must recover through the coordinator with lost
// work bounded by the checkpoint interval and replay bit-identically to
// an uninterrupted twin. Per-seed scratch (checkpoint ladders, event
// logs) lives under the system temp dir and is removed on success; a
// failing seed's scratch is copied to ./chaos-soak-failure/ for CI
// artifact upload. Failing seeds are listed so CI logs pinpoint the
// reproduction.
//
// With --check-properties the binary instead runs the explicit-state
// verification engine on the driver-supervision statecharts: a seeded
// notification bug is found by exhaustive exploration, its counterexample
// is replayed through the compiled engines under the replay verifier and
// rendered as a PlantUML sequence diagram, and the fixed model verifies
// clean. `--check-properties=buggy` exits nonzero exactly when the bug is
// caught end-to-end; `--check-properties=fixed` exits zero exactly when
// the fixed model is exhaustively verified — CI runs both as the
// verification smoke test.
//
// --isolation=thread|process picks how the fleet shards seeds: worker
// threads (default) or supervised worker processes. Process isolation
// forks workers over a pipe-based handoff protocol; a worker that dies
// (SIGKILL, nonzero exit, heartbeat silence, or a seed hung past
// --worker-timeout seconds) is reaped and respawned, its in-flight seed
// re-dispatched — resuming from the seed's on-disk handoff ladder when one
// survives — with at-most-once accounting, so the rollup fingerprint is
// bit-identical to an in-process run. A seed that kills 3 consecutive
// workers is quarantined with its forensics under ./chaos-soak-failure/.
// --kill-workers=N makes the supervisor SIGKILL N random busy workers
// mid-run (the CI chaos gate). --fault-templates=K sweeps K fault-plan
// templates (error/drop/crash-rate variations) across the fleet by rig
// index; the rollup then breaks the SLOs down per template.
//
//   $ ./example_uart_soc
//   $ ./example_uart_soc --chaos-soak
//   $ ./example_uart_soc --chaos-soak=256 --jobs=$(nproc)
//   $ ./example_uart_soc --chaos-soak=64 --isolation=process --kill-workers=2
//   $ ./example_uart_soc --chaos-soak=64 --fault-templates=4
//   $ ./example_uart_soc --check-properties
#include <chrono>
#include <climits>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <random>
#include <stdexcept>

#include "codegen/hwmodel.hpp"
#include "fleet/driver.hpp"
#include "fleet/report.hpp"
#include "codegen/plantuml.hpp"
#include "codegen/rtl.hpp"
#include "codegen/swruntime.hpp"
#include "codegen/systemc.hpp"
#include "mda/transform.hpp"
#include "replay/binary.hpp"
#include "replay/recovery.hpp"
#include "replay/snapshot.hpp"
#include "replay/store.hpp"
#include "sim/fault.hpp"
#include "sim/replay.hpp"
#include "sim/supervise.hpp"
#include "soc/iplibrary.hpp"
#include "soc/validate.hpp"
#include "support/strings.hpp"
#include "uml/query.hpp"
#include "verify/counterexample.hpp"
#include "statechart/compile.hpp"
#include "verify/explore.hpp"

using namespace umlsoc;

namespace {

/// Compiles one of the example's statecharts onto the plan-table engine
/// that both modes run on. The models are fixed and valid, so a rejection
/// is a programming error.
std::unique_ptr<statechart::CompiledMachine> compile_machine(
    const statechart::StateMachine& machine) {
  support::DiagnosticSink sink;
  std::unique_ptr<statechart::CompiledMachine> compiled = statechart::compile(machine, sink);
  if (compiled == nullptr) throw std::invalid_argument(sink.str());
  return compiled;
}

/// Snapshot bank over a BusMasterPort's retry counters; both the replay rig
/// and each leg of the degraded-mode rig checkpoint their ports this way.
replay::ValueBank port_stats_bank(std::string name, sim::BusMasterPort& port) {
  replay::ValueBank bank;
  bank.name = std::move(name);
  bank.capture = [&port] {
    const sim::BusMasterPort::Stats& stats = port.stats();
    return std::vector<std::pair<std::string, std::uint64_t>>{
        {"transactions", stats.transactions}, {"timeouts", stats.timeouts},
        {"retries", stats.retries},           {"exhausted", stats.exhausted},
        {"recovered", stats.recovered},       {"late-completions",
                                               stats.late_completions}};
  };
  bank.restore = [&port, bank_name = bank.name](
                     const std::vector<std::pair<std::string, std::uint64_t>>& values,
                     support::DiagnosticSink& bank_sink) {
    sim::BusMasterPort::Stats stats;
    for (const auto& [key, value] : values) {
      if (key == "transactions") {
        stats.transactions = value;
      } else if (key == "timeouts") {
        stats.timeouts = value;
      } else if (key == "retries") {
        stats.retries = value;
      } else if (key == "exhausted") {
        stats.exhausted = value;
      } else if (key == "recovered") {
        stats.recovered = value;
      } else if (key == "late-completions") {
        stats.late_completions = value;
      } else {
        bank_sink.error(bank_name, "unknown counter '" + key + "'");
        return false;
      }
    }
    port.restore_checkpoint(stats);
    return true;
  };
  return bank;
}

/// One complete adversarial setup — kernel, faulty bus, UART model, health
/// statechart instance, supervised driver, watchdog, event recorder. Every
/// instance runs the identical construction sequence, so ProcessIds and
/// statechart indices are stable across instances: exactly the property
/// snapshot restore relies on ("same setup, different process").
struct ReplayRig {
  sim::Kernel kernel;
  sim::MemoryMappedBus bus;
  codegen::HwModuleSim uart;
  sim::FaultPlan plan;
  statechart::StateMachineInstance health;
  codegen::BusMasterContext driver;
  sim::Watchdog watchdog;
  sim::EventRecorder recorder;
  sim::ProcessId perturb = sim::kInvalidProcess;

  static sim::RetryPolicy retry_policy() {
    sim::RetryPolicy policy;
    policy.timeout = sim::SimTime::ns(40);
    policy.max_attempts = 4;
    return policy;
  }

  ReplayRig(const uml::Component& psm_uart, const soc::SocProfile& profile,
            const statechart::StateMachine& health_machine, std::uint64_t base,
            support::DiagnosticSink& sink)
      : bus(kernel, "axi-faulty", sim::SimTime::ns(8)),
        uart(psm_uart, profile, sink),
        plan(/*seed=*/42),
        health(health_machine),
        driver(kernel, bus, retry_policy()),
        watchdog(kernel, "driver-watchdog", sim::SimTime::us(10)) {
    uart.map_onto(bus, base);
    sim::FaultPlan::SiteConfig adversarial;
    adversarial.drop_rate = 0.25;  // 1 in 4 writes hangs: no response, ever.
    plan.configure(sim::FaultSite::kBusWrite, adversarial);
    bus.install_fault_plan(&plan);
    health.set_trace_enabled(false);
    health.start();
    driver.set_error_sink(&health);
    driver.set_attribute("base", asl::Value{static_cast<std::int64_t>(base)});
    perturb = kernel.register_process([] {}, "demo.perturb");
    kernel.set_recorder(&recorder);
  }

  [[nodiscard]] replay::SnapshotTargets targets() {
    replay::SnapshotTargets out;
    out.kernel = &kernel;
    out.fault_plan = &plan;
    out.recorder = &recorder;
    out.machines.push_back({"health", &health});
    out.buses.push_back({"axi-faulty", &bus});
    out.watchdogs.push_back({"driver-watchdog", &watchdog});
    out.banks.push_back(
        {"uart", [this] { return uart.capture_values(); },
         [this](const std::vector<std::pair<std::string, std::uint64_t>>& values,
                support::DiagnosticSink& bank_sink) {
           return uart.restore_values(values, bank_sink);
         }});
    out.banks.push_back(port_stats_bank("port", driver.port()));
    return out;
  }
};

constexpr const char* kPhase1 = "bus_write(self.base + 12, 434);";
constexpr const char* kPhase2 =
    "i := 0;"
    "while (i < 4) {"
    "  bus_write(self.base + 0, 65 + i);"
    "  i := i + 1;"
    "}";

// --- Supervision / degraded-mode demo -----------------------------------------
//
// The recovery loop under demonstration: a CPU sender streams bytes to the
// UART tx register over a DMA channel wrapped in a CircuitBreaker, with a
// plain PIO port as the degraded route. Breaker state changes and
// supervisor activity surface as error events on a UartLink statechart; a
// Supervisor owns the link (warm restart from a snapshot captured at the
// known-good point) and a watchdog converts traffic starvation into a
// supervised failure.

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

constexpr SoakTemplate kSoakTemplates[] = {
    {0.010, 0.010, 0.10},  // 0: baseline
    {0.020, 0.005, 0.15},  // 1: error-heavy traffic, eager crash
    {0.005, 0.020, 0.05},  // 2: drop-heavy traffic, reluctant crash
    {0.015, 0.015, 0.20},  // 3: everything turned up
};
constexpr std::uint32_t kSoakTemplateCount =
    static_cast<std::uint32_t>(sizeof(kSoakTemplates) / sizeof(kSoakTemplates[0]));

/// UartLink: Normal <-> Fallback on breaker_open/breaker_closed, Dead on
/// supervisor_give_up. Every other supervision signal is absorbed
/// internally so the soak's "zero unhandled errors" check is meaningful:
/// a new signal name would surface as an unhandled error event.
void build_link_machine(statechart::StateMachine& machine) {
  statechart::Region& top = machine.top();
  statechart::State& normal = top.add_state("Normal");
  statechart::State& fallback = top.add_state("Fallback");
  statechart::State& dead = top.add_state("Dead");
  top.add_transition(top.add_initial(), normal);
  top.add_transition(normal, fallback).set_trigger("breaker_open");
  top.add_transition(fallback, normal).set_trigger("breaker_closed");
  top.add_transition(normal, dead).set_trigger("supervisor_give_up");
  top.add_transition(fallback, dead).set_trigger("supervisor_give_up");
  for (const char* event :
       {"watchdog_trip", "unit_restarted", "restart_failed", "supervisor_escalate"}) {
    top.add_transition(normal, normal).set_trigger(event).set_internal(true);
    top.add_transition(fallback, fallback).set_trigger(event).set_internal(true);
    top.add_transition(dead, dead).set_trigger(event).set_internal(true);
  }
  top.add_transition(normal, normal).set_trigger("breaker_closed").set_internal(true);
  top.add_transition(fallback, fallback).set_trigger("breaker_open").set_internal(true);
  for (const char* event : {"breaker_open", "breaker_closed", "supervisor_give_up"}) {
    top.add_transition(dead, dead).set_trigger(event).set_internal(true);
  }
}

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

  static sim::RetryPolicy port_policy() {
    sim::RetryPolicy policy;
    policy.timeout = sim::SimTime::ns(100);
    policy.max_attempts = 2;
    return policy;
  }
  static sim::CircuitBreaker::Config breaker_config() {
    sim::CircuitBreaker::Config config;
    config.window = 8;
    config.min_samples = 4;
    config.failure_threshold = 0.5;
    config.open_duration = sim::SimTime::us(2);
    config.reopen_multiplier = 2;
    config.max_open_duration = sim::SimTime::us(16);
    return config;
  }
  static sim::RestartPolicy sup_policy() {
    sim::RestartPolicy policy;
    policy.backoff = sim::SimTime::ns(100);
    policy.max_restarts = 8;
    policy.window = sim::SimTime::us(200);
    return policy;
  }

  DegradedRig(const uml::Component& psm_uart, const soc::SocProfile& profile,
              const statechart::StateMachine& link_machine, std::uint64_t base_address,
              const TrafficFaults& faults, std::uint64_t seed,
              support::DiagnosticSink& sink)
      : bus(kernel, "axi", sim::SimTime::ns(8)),
        uart(psm_uart, profile, sink),
        plan(seed),
        dma_port(kernel, bus, "dma", port_policy()),
        pio_port(kernel, bus, "pio", port_policy()),
        breaker(kernel, dma_port, "dma", breaker_config()),
        link(compile_machine(link_machine)),
        sup(kernel, "soc", sim::RestartStrategy::kOneForOne, sup_policy()),
        watchdog(kernel, "link-dog", sim::SimTime::us(50)),
        base(base_address) {
    uart.map_onto(bus, base);
    sim::FaultPlan::SiteConfig site;
    site.error_rate = faults.error_rate;
    site.drop_rate = faults.drop_rate;
    site.max_faults = faults.max_faults;
    plan.configure(sim::FaultSite::kBusWrite, site);
    bus.install_fault_plan(&plan);
    link->set_trace_enabled(false);
    link->start();
    // The known-good restart point: the just-started link. Supervisor
    // restarts warm-rewind to here.
    link_restart = replay::restart_from_snapshot(*link, sink);
    dma_unit = health.register_unit("dma");
    link_unit = health.register_unit("uart-link");
    breaker.bind_health(&health, dma_unit);
    breaker.set_error_emitter([this](const std::string& event, std::int64_t) {
      link->dispatch_error(statechart::Event(event));
    });
    link_child = sup.add_child("uart-link", [this] {
      const bool ok = link_restart == nullptr || link_restart();
      breaker.force_closed();  // Restart power-cycles the DMA channel too.
      return ok;
    });
    sup.attach_watchdog(link_child, watchdog);
    sup.bind_child_health(link_child, health, link_unit);
    sup.set_error_emitter([this](const std::string& event, std::int64_t) {
      link->dispatch_error(statechart::Event(event));
    });
    sender = kernel.register_process([this] { send_tick(); }, "cpu.sender");
    kernel.set_recorder(&recorder);
    // Armed in the constructor: a restored process re-arms before the
    // snapshot wipes and reinstates the kernel's expectation registry.
    watchdog.arm();
  }

  /// Degraded-mode routing: bytes flow through the breaker-guarded DMA
  /// channel unless the breaker is open, in which case they fall back to
  /// PIO. Half-open deliberately routes through the breaker — that request
  /// *is* the recovery probe.
  void send_tick() {
    if (sent >= target) return;
    const std::uint64_t value = 'A' + (sent % 26);
    ++sent;
    watchdog.kick();
    auto completion = [this](sim::BusStatus status) {
      if (status == sim::BusStatus::kOk) {
        ++delivered;
      } else {
        ++lost;
      }
    };
    if (breaker.state() == sim::CircuitBreaker::State::kOpen) {
      ++via_pio;
      pio_port.write(base + 0, value, completion);
    } else {
      ++via_dma;
      breaker.write(base + 0, value, completion);
    }
    if (sent < target) kernel.schedule(sim::SimTime(kSendPeriodPs), sender);
  }

  [[nodiscard]] replay::SnapshotTargets targets() {
    replay::SnapshotTargets out;
    out.kernel = &kernel;
    out.fault_plan = &plan;
    out.recorder = &recorder;
    out.machines.push_back({"link", link.get()});
    out.buses.push_back({"axi", &bus});
    out.watchdogs.push_back({"link-dog", &watchdog});
    out.supervisors.push_back({"soc", &sup});
    out.breakers.push_back({"dma", &breaker});
    out.health.push_back({"health", &health});
    out.banks.push_back(
        {"uart", [this] { return uart.capture_values(); },
         [this](const std::vector<std::pair<std::string, std::uint64_t>>& values,
                support::DiagnosticSink& bank_sink) {
           return uart.restore_values(values, bank_sink);
         }});
    out.banks.push_back(port_stats_bank("dma-port", dma_port));
    out.banks.push_back(port_stats_bank("pio-port", pio_port));
    out.banks.push_back(
        {"traffic",
         [this] {
           return std::vector<std::pair<std::string, std::uint64_t>>{
               {"target", target},   {"sent", sent},       {"delivered", delivered},
               {"via-dma", via_dma}, {"via-pio", via_pio}, {"lost", lost}};
         },
         [this](const std::vector<std::pair<std::string, std::uint64_t>>& values,
                support::DiagnosticSink& bank_sink) {
           for (const auto& [key, value] : values) {
             if (key == "target") {
               target = value;
             } else if (key == "sent") {
               sent = value;
             } else if (key == "delivered") {
               delivered = value;
             } else if (key == "via-dma") {
               via_dma = value;
             } else if (key == "via-pio") {
               via_pio = value;
             } else if (key == "lost") {
               lost = value;
             } else {
               bank_sink.error("traffic", "unknown counter '" + key + "'");
               return false;
             }
           }
           return true;
         }});
    return out;
  }
};

/// Streams bytes until `total` have been sent and the bus has drained.
/// State-driven (no wall-count of run calls), so a reference run, a
/// checkpointed run and a restored run walk identical event sequences.
bool run_phase(DegradedRig& rig, std::uint64_t total) {
  rig.target = total;
  if (rig.sent < rig.target) {
    rig.kernel.schedule(sim::SimTime(DegradedRig::kSendPeriodPs), rig.sender);
  }
  for (int guard = 0; guard < 100000; ++guard) {
    if (rig.sent >= rig.target && rig.bus.pending_transactions() == 0) return true;
    rig.kernel.run(rig.kernel.now() + sim::SimTime::us(1));
  }
  std::printf("traffic phase stalled: sent=%llu target=%llu pending=%zu\n",
              static_cast<unsigned long long>(rig.sent),
              static_cast<unsigned long long>(rig.target),
              rig.bus.pending_transactions());
  return false;
}

/// Runs until the rig reaches a checkpointable state (e.g. no in-flight
/// port expectation from a retry) and captures a snapshot. `out == nullptr`
/// runs the identical search without keeping the snapshot — the reference
/// run uses it to stay on the checkpointed run's timeline (capturing a
/// snapshot has no side effects on the simulation).
bool run_to_save_point(DegradedRig& rig, std::string* out) {
  for (int attempt = 0; attempt < 64; ++attempt) {
    support::DiagnosticSink save_sink;
    std::string snapshot;
    if (replay::save_snapshot_binary(rig.targets(), snapshot, save_sink)) {
      if (out != nullptr) *out = std::move(snapshot);
      return true;
    }
    rig.kernel.run(rig.kernel.now() + sim::SimTime::us(1));
  }
  return false;
}

/// Drives the rig to full recovery: breaker closed, every unit healthy,
/// no supervision work pending. Each iteration sends one keepalive byte —
/// routed around an open breaker — so simulated time advances through open
/// durations and restart backoffs.
bool run_recovery_tail(DegradedRig& rig) {
  const sim::SimTime limit = rig.kernel.now() + sim::SimTime::us(500);
  for (int guard = 0; guard < 2000; ++guard) {
    if (rig.breaker.state() == sim::CircuitBreaker::State::kClosed &&
        rig.health.all_healthy() && rig.sup.quiescent()) {
      return true;
    }
    if (rig.kernel.now() > limit) break;
    if (!run_phase(rig, rig.target + 1)) return false;
  }
  std::printf("recovery tail did not converge: breaker=%s health=%s sup=%s\n",
              std::string(sim::to_string(rig.breaker.state())).c_str(),
              rig.health.str().c_str(), rig.sup.str().c_str());
  return false;
}

/// Disarms supervision and drains the queue; stale timer/check events
/// fizzle by design.
void finish_run(DegradedRig& rig) {
  rig.watchdog.disarm();
  rig.kernel.run();
}

/// In-simulation script driver for the crash leg. The host-side guard loops
/// above (run_phase, run_recovery_tail) time their sender kicks off
/// wall-script slicing, which depends on where a restore landed — a rig
/// recovered mid-phase would re-kick at a different instant than the
/// uninterrupted reference and diverge. This driver runs the same script
/// (two traffic phases, keepalive bytes until recovered, final watchdog
/// disarm) as a kernel process whose every decision is a pure function of
/// checkpoint-visible rig state: its activations are restored with the
/// schedule like everything else, so a recovered rig resumes the script
/// exactly where the checkpoint left it.
struct ScriptDriver {
  /// Off the 500 ns traffic grid and coprime to the coordinator/injector
  /// cadences within the soak horizon.
  static constexpr std::uint64_t kTickPs = 1'000'037;

  DegradedRig& rig;
  sim::ProcessId process = sim::kInvalidProcess;

  explicit ScriptDriver(DegradedRig& owner) : rig(owner) {
    process = rig.kernel.register_process([this] { tick(); }, "soak.script");
  }

  void start() { rig.kernel.schedule(sim::SimTime(kTickPs), process); }

  [[nodiscard]] bool recovered() const {
    return rig.breaker.state() == sim::CircuitBreaker::State::kClosed &&
           rig.health.all_healthy() && rig.sup.quiescent();
  }

  [[nodiscard]] bool done() const {
    return rig.target >= 64 && rig.sent >= rig.target &&
           rig.bus.pending_transactions() == 0 && recovered() && !rig.watchdog.armed();
  }

  void tick() {
    // Chain first, unconditionally: a restored pending tick keeps driving.
    rig.kernel.schedule(sim::SimTime(kTickPs), process);
    if (rig.target < 32) {
      rig.target = 32;
      kick();
      return;
    }
    if (rig.sent < rig.target || rig.bus.pending_transactions() != 0) return;
    if (rig.target < 64) {
      rig.target = 64;
      kick();
      return;
    }
    if (!recovered()) {
      // One keepalive byte — routed around an open breaker — so simulated
      // time advances through open durations and restart backoffs.
      rig.target = rig.sent + 1;
      kick();
      return;
    }
    if (rig.watchdog.armed()) rig.watchdog.disarm();
  }

  void kick() { rig.kernel.schedule(sim::SimTime(DegradedRig::kSendPeriodPs), rig.sender); }
};

/// The interactive demo: deterministic DMA error burst -> breaker opens ->
/// PIO fallback -> half-open probe restores DMA; then a watchdog
/// starvation trip -> supervised warm restart -> re-armed dog.
int run_degraded_demo(const uml::Component& psm_uart, const soc::SocProfile& profile,
                      const statechart::StateMachine& link_machine, std::uint64_t base,
                      support::DiagnosticSink& sink) {
  std::printf("\n--- degraded mode: breaker-guarded DMA, PIO fallback, supervision ---\n");
  TrafficFaults faults;
  faults.error_rate = 1.0;
  faults.max_faults = 4;  // Exactly the first four DMA writes error, then clean.
  DegradedRig rig(psm_uart, profile, link_machine, base, faults, /*seed=*/7, sink);
  rig.health.add_listener([&rig](sim::HealthRegistry::UnitId unit, sim::UnitHealth from,
                                 sim::UnitHealth to, std::string_view reason) {
    std::printf("  [%s] %s: %s -> %s (%.*s)\n", rig.kernel.now().str().c_str(),
                rig.health.unit_name(unit).c_str(),
                std::string(sim::to_string(from)).c_str(),
                std::string(sim::to_string(to)).c_str(), static_cast<int>(reason.size()),
                reason.data());
  });

  if (!run_phase(rig, 4)) return 1;
  if (rig.breaker.state() != sim::CircuitBreaker::State::kOpen) {
    std::printf("breaker did not open after the error burst (state=%s)\n",
                std::string(sim::to_string(rig.breaker.state())).c_str());
    return 1;
  }
  std::printf("breaker '%s' open after %llu DMA failures; link state: %s\n",
              rig.breaker.name().c_str(),
              static_cast<unsigned long long>(rig.breaker.stats().failures),
              rig.link->is_in("Fallback") ? "Fallback" : "?");

  if (!run_phase(rig, 8)) return 1;
  if (rig.via_pio == 0) {
    std::printf("no byte fell back to PIO while the breaker was open\n");
    return 1;
  }
  if (!run_recovery_tail(rig)) return 1;
  if (rig.breaker.state() != sim::CircuitBreaker::State::kClosed ||
      !rig.link->is_in("Normal") || rig.breaker.stats().probes == 0) {
    std::printf("recovery incomplete: breaker=%s probes=%llu link-normal=%d\n",
                std::string(sim::to_string(rig.breaker.state())).c_str(),
                static_cast<unsigned long long>(rig.breaker.stats().probes),
                rig.link->is_in("Normal") ? 1 : 0);
    return 1;
  }
  std::printf("half-open probe restored DMA: %llu via dma, %llu via pio, %llu lost\n",
              static_cast<unsigned long long>(rig.via_dma),
              static_cast<unsigned long long>(rig.via_pio),
              static_cast<unsigned long long>(rig.lost));

  // Watchdog leg: traffic stops, the dog starves and trips, the supervisor
  // warm-restarts the link and re-arms the dog.
  const std::uint64_t restarts_before = rig.sup.child_stats(rig.link_child).restarts;
  rig.kernel.run(rig.kernel.now() + sim::SimTime::us(51));
  if (rig.watchdog.trips() != 1 ||
      rig.sup.child_stats(rig.link_child).restarts != restarts_before + 1 ||
      !rig.watchdog.armed()) {
    std::printf("watchdog recovery failed: trips=%llu restarts=%llu armed=%d\n",
                static_cast<unsigned long long>(rig.watchdog.trips()),
                static_cast<unsigned long long>(
                    rig.sup.child_stats(rig.link_child).restarts),
                rig.watchdog.armed() ? 1 : 0);
    return 1;
  }
  std::printf("watchdog trip -> supervised warm restart -> re-armed (trips=1)\n");
  finish_run(rig);

  if (!rig.health.all_healthy() || rig.link->errors_unhandled() != 0 || rig.sup.gave_up()) {
    std::printf("end-state check failed: health=[%s] unhandled=%llu gave-up=%d\n",
                rig.health.str().c_str(),
                static_cast<unsigned long long>(rig.link->errors_unhandled()),
                rig.sup.gave_up() ? 1 : 0);
    return 1;
  }
  std::printf("supervision: %s; health: %s; breaker opens=%llu closes=%llu "
              "fast-failed=%llu\n",
              rig.sup.str().c_str(), rig.health.str().c_str(),
              static_cast<unsigned long long>(rig.breaker.stats().opens),
              static_cast<unsigned long long>(rig.breaker.stats().closes),
              static_cast<unsigned long long>(rig.breaker.stats().fast_failed));
  return 0;
}

/// Verifies a replayed twin against the reference run: recorded-event
/// divergence, counter-by-counter final state, health/supervision end
/// checks. Returns an empty string on success.
std::string compare_final_state(DegradedRig& reference, DegradedRig& twin,
                                const char* leg) {
  if (twin.recorder.divergence().has_value()) {
    return std::string(leg) + " replay divergence: " + twin.recorder.divergence()->str();
  }
  struct Check {
    const char* label;
    std::uint64_t reference;
    std::uint64_t twin;
  };
  const Check checks[] = {
      {"sim-time", reference.kernel.now().picoseconds(), twin.kernel.now().picoseconds()},
      {"events-processed", reference.kernel.events_processed(),
       twin.kernel.events_processed()},
      {"recorded-events", reference.recorder.total_events(), twin.recorder.total_events()},
      {"tx_data", reference.uart.peek("tx_data"), twin.uart.peek("tx_data")},
      {"delivered", reference.delivered, twin.delivered},
      {"lost", reference.lost, twin.lost},
      {"via-pio", reference.via_pio, twin.via_pio},
      {"breaker-opens", reference.breaker.stats().opens, twin.breaker.stats().opens},
      {"restarts", reference.sup.child_stats(reference.link_child).restarts,
       twin.sup.child_stats(twin.link_child).restarts},
  };
  for (const Check& check : checks) {
    if (check.reference != check.twin) {
      return std::string(leg) + " " + check.label +
             " mismatch: reference=" + std::to_string(check.reference) +
             " got=" + std::to_string(check.twin);
    }
  }
  if (!twin.health.all_healthy()) {
    return std::string(leg) + " ended unhealthy: " + twin.health.str();
  }
  if (twin.link->errors_unhandled() != 0) {
    return std::string(leg) + " left unhandled errors";
  }
  if (twin.sup.gave_up()) {
    return std::string(leg) + " supervisor gave up: " + twin.sup.give_up_reason();
  }
  return {};
}

/// Writes a recorded event log as one "index at_ps label" line per event —
/// the forensic artifact uploaded alongside a failing seed's ladder.
void dump_event_log(const std::filesystem::path& path,
                    const std::vector<sim::RecordedEvent>& log, const sim::Kernel& kernel) {
  std::ofstream out(path);
  std::uint64_t index = 0;
  for (const sim::RecordedEvent& event : log) {
    const std::string& label = kernel.process_label(event.process);
    out << index++ << ' ' << event.at_ps << ' ' << event.process << ' '
        << (label.empty() ? "?" : label) << '\n';
  }
}

/// One chaos-soak seed: reference run, checkpointed twin, restored twin
/// under the replay verifier, a recovery-ladder leg whose on-disk
/// checkpoints take injected write faults plus a crash-style tear of the
/// newest file, and a crash leg where a CrashInjector kills the rig
/// mid-run and a RecoveryCoordinator recovers a fresh one. Per-seed
/// scratch lives under `scratch`; it is removed on success and left in
/// place on failure (the caller copies it out as a CI artifact). Returns
/// an empty string on success, else the failure description. Fills
/// `outcome` with the seed's SLO counters (service numbers come from the
/// uninterrupted reference leg; recovery accounting from the ladder and
/// crash legs; kernel stats reduced across every leg). Runs on a fleet
/// worker thread: everything it touches is rig-local or read-only shared
/// model input, and filesystem scratch is partitioned by seed.
///
/// The job's fault_template picks the SoakTemplate every leg runs under,
/// and its attempt count drives the cross-process handoff: every attempt
/// writes two handoff rungs (the t=0 base and the post-phase-1 save point)
/// to the seed's scratch, and a re-dispatched attempt (attempt > 0) first
/// restores the newest rung a dead predecessor left behind and replays the
/// remainder under the verifier — proving resume-from-ladder — before
/// re-running the deterministic legs from scratch.
std::string soak_one_seed(const uml::Component& psm_uart, const soc::SocProfile& profile,
                          const statechart::StateMachine& link_machine,
                          std::uint64_t base, const fleet::RigJob& job,
                          const std::filesystem::path& scratch,
                          fleet::RigOutcome& outcome) {
  support::DiagnosticSink sink;
  const std::uint64_t seed = job.seed;
  const SoakTemplate& soak_template =
      kSoakTemplates[job.fault_template % kSoakTemplateCount];
  TrafficFaults faults;
  faults.error_rate = soak_template.error_rate;
  faults.drop_rate = soak_template.drop_rate;

  DegradedRig reference(psm_uart, profile, link_machine, base, faults, seed, sink);
  if (!run_phase(reference, 32)) return "reference stalled in phase 1";
  if (!run_to_save_point(reference, nullptr)) return "reference found no save point";
  if (!run_phase(reference, 64)) return "reference stalled in phase 2";
  if (!run_recovery_tail(reference)) return "reference never recovered";
  finish_run(reference);
  if (!reference.health.all_healthy()) {
    return "reference ended unhealthy: " + reference.health.str();
  }
  if (reference.link->errors_unhandled() != 0) return "reference left unhandled errors";
  if (reference.sup.gave_up()) {
    return "reference supervisor gave up: " + reference.sup.give_up_reason();
  }
  const std::vector<sim::RecordedEvent> reference_log = reference.recorder.log();

  namespace fs = std::filesystem;
  const fs::path seed_dir = scratch / ("seed-" + std::to_string(seed));

  // --- Cross-process handoff resume ------------------------------------------
  // A re-dispatched seed (attempt > 0) may inherit handoff rungs a dead
  // predecessor left in this seed's scratch. Before the scratch is wiped,
  // prove the handoff invariant: restore the newest good rung into a fresh
  // rig, replay the remainder of the script under the verifier, and require
  // the final state to match the reference. Everything this leg produces
  // lives in fingerprint-excluded fields (resumed_from_seq) and its kernel
  // stats are NOT reduced into the outcome — whether a kill happened, and
  // where, is host scheduling, not simulation.
  replay::CheckpointStoreConfig handoff_config;
  handoff_config.directory = seed_dir / "handoff";
  handoff_config.prefix = "handoff";
  handoff_config.full_interval = 2;
  handoff_config.keep_fulls = 2;
  if (job.attempt > 0 && fs::exists(handoff_config.directory)) {
    replay::CheckpointStore inherited(handoff_config);
    if (inherited.newest_on_disk() != 0) {
      DegradedRig resumed(psm_uart, profile, link_machine, base, faults, seed, sink);
      support::DiagnosticSink resume_sink;
      // An unrestorable inherited ladder (predecessor killed mid-write on
      // every rung) is not an error — the seed simply re-runs from scratch.
      if (inherited.restore_latest_good(resumed.targets(), resume_sink)) {
        resumed.recorder.begin_verify(reference_log, resumed.recorder.total_events());
        if (!run_phase(resumed, 32)) return "handoff-resumed rig stalled in phase 1";
        if (!run_phase(resumed, 64)) return "handoff-resumed rig stalled in phase 2";
        if (!run_recovery_tail(resumed)) return "handoff-resumed rig never recovered";
        finish_run(resumed);
        if (const std::string problem =
                compare_final_state(reference, resumed, "handoff-resumed");
            !problem.empty()) {
          return problem;
        }
        outcome.resumed_from_seq = inherited.stats().restored_seq;
      }
    }
  }

  std::error_code cleanup_ec;
  fs::remove_all(seed_dir, cleanup_ec);
  fs::create_directories(seed_dir, cleanup_ec);
  dump_event_log(seed_dir / "reference-events.log", reference_log, reference.kernel);

  DegradedRig checkpointed(psm_uart, profile, link_machine, base, faults, seed, sink);
  // Handoff rung 1: the t=0 base. Written on every attempt and in every
  // isolation mode — the writes feed the kernel's snapshot-encode counters,
  // which are fingerprinted, so they must happen unconditionally. A refusal
  // here is tolerated (and deterministic): the save-point rung below then
  // lands as the chain's full base instead.
  replay::CheckpointStore handoff_store(handoff_config);
  support::DiagnosticSink handoff_sink;
  replay::CheckpointStore::WriteResult handoff_rung;
  (void)handoff_store.checkpoint(checkpointed.targets(), handoff_rung, handoff_sink);
  std::string snapshot;
  if (!run_phase(checkpointed, 32)) return "checkpointed rig stalled";
  if (!run_to_save_point(checkpointed, &snapshot)) return "no checkpointable state";
  // Handoff rung 2: the save point a successor resumes from. The state was
  // just proven checkpointable, so a failure here is a real bug.
  if (!handoff_store.checkpoint(checkpointed.targets(), handoff_rung, handoff_sink)) {
    return "handoff save-point checkpoint failed: " + handoff_sink.str();
  }

  DegradedRig restored(psm_uart, profile, link_machine, base, faults, seed, sink);
  support::DiagnosticSink restore_sink;
  if (!replay::restore_snapshot_binary(restored.targets(), snapshot, restore_sink)) {
    return "restore failed: " + restore_sink.str();
  }
  restored.recorder.begin_verify(reference_log, restored.recorder.total_events());
  if (!run_phase(restored, 64)) return "restored rig stalled";
  if (!run_recovery_tail(restored)) return "restored rig never recovered";
  finish_run(restored);

  if (const std::string problem = compare_final_state(reference, restored, "restored");
      !problem.empty()) {
    return problem;
  }

  // --- Recovery-ladder leg ---------------------------------------------------
  // The same script once more, but checkpoints stream to an on-disk
  // CheckpointStore while a corruption plan injects checkpoint-path faults
  // (torn files, lost renames, bit-flips) at FaultSite::kCheckpoint. The
  // corruption plan is deliberately NOT a snapshot target, so the rig's own
  // determinism is unperturbed. After the run the newest checkpoint is torn
  // in half, crash-style; restore_latest_good must still find a good rung
  // and the recovered rig must replay bit-identically to the reference.
  const fs::path ladder_dir = seed_dir / "ladder";
  replay::CheckpointStoreConfig store_config;
  store_config.directory = ladder_dir;
  store_config.prefix = "soak";
  store_config.full_interval = 2;
  store_config.keep_fulls = 2;

  DegradedRig ladder(psm_uart, profile, link_machine, base, faults, seed, sink);
  replay::CheckpointStore store(store_config);
  sim::HealthRegistry store_health;  // The store's own registry, not a snapshot section.
  store.bind_health(store_health);
  sim::FaultPlan corruption(seed ^ 0xC0FFEEULL);
  sim::FaultPlan::SiteConfig checkpoint_faults;
  checkpoint_faults.error_rate = 0.2;
  checkpoint_faults.drop_rate = 0.2;
  checkpoint_faults.bit_flip_rate = 0.2;
  corruption.configure(sim::FaultSite::kCheckpoint, checkpoint_faults);

  replay::CheckpointStore::WriteResult write_result;
  support::DiagnosticSink store_sink;
  if (!run_phase(ladder, 32)) return "ladder rig stalled in phase 1";
  if (!run_to_save_point(ladder, nullptr)) return "ladder rig found no save point";
  // The first checkpoint lands before the faults arm: a good base is
  // guaranteed, so every seed can recover no matter what the dice do later.
  if (!store.checkpoint(ladder.targets(), write_result, store_sink)) {
    return "clean base checkpoint failed: " + store_sink.str();
  }
  store.install_fault_plan(&corruption);
  if (!run_phase(ladder, 64)) return "ladder rig stalled in phase 2";
  // Mid-script checkpoints only land when the rig happens to be
  // checkpointable (no in-flight retry expectation); a refusal just means
  // fewer rungs. Capture has no simulation side effects, so the ladder rig
  // stays on the reference timeline either way.
  (void)store.checkpoint(ladder.targets(), write_result, store_sink);
  if (!run_recovery_tail(ladder)) return "ladder rig never recovered";
  (void)store.checkpoint(ladder.targets(), write_result, store_sink);
  finish_run(ladder);

  // Crash-style corruption of the newest surviving checkpoint. Skipped when
  // only the clean base landed: tearing the sole rung would make recovery
  // impossible by construction, not by bug.
  std::vector<fs::path> rungs;
  for (const auto& entry : fs::directory_iterator(ladder_dir)) {
    if (entry.path().extension() == ".usnap") rungs.push_back(entry.path());
  }
  std::sort(rungs.begin(), rungs.end());  // Zero-padded names: seq order.
  if (rungs.size() > 1) {
    std::ifstream in(rungs.back(), std::ios::binary);
    std::string bytes((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
    in.close();
    bytes.resize(bytes.size() / 2);
    std::ofstream torn(rungs.back(), std::ios::binary | std::ios::trunc);
    torn.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }

  DegradedRig recovered(psm_uart, profile, link_machine, base, faults, seed, sink);
  replay::CheckpointStore recovery(store_config);
  support::DiagnosticSink recover_sink;
  if (!recovery.restore_latest_good(recovered.targets(), recover_sink)) {
    return "recovery ladder exhausted: " + recover_sink.str();
  }
  recovered.recorder.begin_verify(reference_log, recovered.recorder.total_events());
  // Replay the whole script: phases the restored rung already completed
  // return immediately, the rest continues on the reference timeline.
  if (!run_phase(recovered, 32)) return "recovered rig stalled in phase 1";
  if (!run_phase(recovered, 64)) return "recovered rig stalled in phase 2";
  if (!run_recovery_tail(recovered)) return "recovered rig never recovered";
  finish_run(recovered);
  if (const std::string problem = compare_final_state(reference, recovered, "ladder");
      !problem.empty()) {
    return problem;
  }

  // --- Crash leg -------------------------------------------------------------
  // Simulated process death: a CrashInjector consults FaultSite::kCrash on
  // its own plan (NOT a snapshot target, so the rig's determinism is
  // unperturbed) and throws SimulatedCrash from inside a kernel process
  // while a RecoveryCoordinator checkpoints in the background. The crashed
  // rig is abandoned wholesale; a freshly constructed twin recovers through
  // RecoveryCoordinator::recover(), must have lost no more work than the
  // checkpoint cadence allows, and must replay bit-identically to an
  // uninterrupted reference twin running the same script/injector/
  // coordinator construction (null plan, stopped coordinator — identical
  // tick streams, no crash, no writes).
  const fs::path crash_dir = seed_dir / "crash";
  replay::CheckpointStoreConfig crash_config;
  crash_config.directory = crash_dir;
  crash_config.prefix = "crash";
  crash_config.full_interval = 4;
  crash_config.keep_fulls = 2;

  replay::RecoveryPolicy crash_policy;
  crash_policy.checkpoint_interval = sim::SimTime::us(4);
  // Off the 500 ns traffic grid: a tick sharing an instant with the sender
  // would be co-batched and refused every time.
  crash_policy.tick_interval = sim::SimTime(999'001);
  const sim::SimTime crash_tick_interval(1'000'003);
  const sim::SimTime crash_horizon = sim::SimTime::us(1000);

  DegradedRig crash_reference(psm_uart, profile, link_machine, base, faults, seed, sink);
  ScriptDriver reference_script(crash_reference);
  sim::CrashInjector reference_injector(crash_reference.kernel, nullptr,
                                        crash_tick_interval);
  replay::CheckpointStoreConfig crash_ref_config = crash_config;
  crash_ref_config.directory = seed_dir / "crash-ref";
  replay::CheckpointStore crash_ref_store(crash_ref_config);
  replay::RecoveryCoordinator crash_ref_coordinator(
      crash_reference.kernel, crash_ref_store, crash_reference.targets(), crash_policy);
  reference_script.start();
  reference_injector.start();
  crash_ref_coordinator.start();
  crash_ref_coordinator.stop();
  crash_reference.kernel.run(crash_horizon);
  if (!reference_script.done()) return "crash reference never finished its script";
  const std::vector<sim::RecordedEvent> crash_reference_log =
      crash_reference.recorder.log();
  dump_event_log(seed_dir / "crash-reference-events.log", crash_reference_log,
                 crash_reference.kernel);

  DegradedRig crash_rig(psm_uart, profile, link_machine, base, faults, seed, sink);
  ScriptDriver crash_script(crash_rig);
  sim::FaultPlan crash_plan(seed ^ 0xDEADBEEFULL);
  sim::FaultPlan::SiteConfig crash_site;
  // Each tick dies with the template's crash probability ...
  crash_site.error_rate = soak_template.crash_rate;
  crash_site.max_faults = 1;  // ... and exactly one death per run.
  crash_plan.configure(sim::FaultSite::kCrash, crash_site);
  sim::CrashInjector injector(crash_rig.kernel, &crash_plan, crash_tick_interval);
  replay::CheckpointStore crash_store(crash_config);
  replay::RecoveryCoordinator coordinator(crash_rig.kernel, crash_store,
                                          crash_rig.targets(), crash_policy);
  crash_script.start();
  injector.start();
  coordinator.start();
  // Held disarmed until a clean base checkpoint has landed (at time zero,
  // with every tick chain already scheduled), so recovery is possible by
  // construction no matter how early the dice kill the rig.
  injector.disarm();
  replay::CheckpointStore::WriteResult crash_base;
  support::DiagnosticSink crash_store_sink;
  if (!crash_store.checkpoint(crash_rig.targets(), crash_base, crash_store_sink)) {
    return "crash base checkpoint failed: " + crash_store_sink.str();
  }
  injector.arm();
  std::uint64_t crash_ps = 0;
  bool crashed = false;
  try {
    crash_rig.kernel.run(crash_horizon);
  } catch (const sim::SimulatedCrash& crash) {
    crashed = true;
    crash_ps = crash.at_ps;
  }
  if (!crashed) return "crash leg: injector never fired";

  DegradedRig crash_recovered(psm_uart, profile, link_machine, base, faults, seed, sink);
  ScriptDriver recovered_script(crash_recovered);
  sim::CrashInjector recovered_injector(crash_recovered.kernel, nullptr,
                                        crash_tick_interval);
  replay::CheckpointStore crash_recovery_store(crash_config);
  replay::RecoveryCoordinator recovered_coordinator(
      crash_recovered.kernel, crash_recovery_store, crash_recovered.targets(),
      crash_policy);
  // Deliberately no start() calls: the restored schedule carries the
  // pending script, injector and coordinator ticks, and each chain
  // reschedules itself.
  support::DiagnosticSink crash_recover_sink;
  if (!recovered_coordinator.recover(crash_recover_sink)) {
    return "crash recovery ladder exhausted: " + crash_recover_sink.str();
  }
  const std::uint64_t restored_ps = crash_recovered.kernel.now().picoseconds();
  if (restored_ps > crash_ps) return "crash leg: restored beyond the crash point";
  // Lost work is bounded by the checkpoint interval plus the refusal-retry
  // cadence (a due tick that finds the bus busy retries next tick).
  const std::uint64_t lost_ps = crash_ps - restored_ps;
  const std::uint64_t lost_bound = crash_policy.checkpoint_interval.picoseconds() +
                                   2 * crash_policy.tick_interval.picoseconds();
  if (lost_ps > lost_bound) {
    return "crash leg: lost work " + sim::SimTime(lost_ps).str() +
           " exceeds the checkpoint-interval bound " + sim::SimTime(lost_bound).str();
  }
  crash_recovered.recorder.begin_verify(crash_reference_log,
                                        crash_recovered.recorder.total_events());
  crash_recovered.kernel.run(crash_horizon);
  if (!recovered_script.done()) return "crash recovered rig never finished its script";
  if (const std::string problem =
          compare_final_state(crash_reference, crash_recovered, "crash");
      !problem.empty()) {
    return problem;
  }

  // --- SLO accounting for the fleet rollup -----------------------------------
  // Service numbers come from the uninterrupted reference: what the rig
  // delivered while taking 1% error + 1% drop through the resilience stack.
  outcome.slo.requests = reference.sent;
  outcome.slo.delivered = reference.delivered;
  outcome.slo.lost = reference.lost;
  for (const sim::BusMasterPort::Stats* port_stats :
       {&reference.dma_port.stats(), &reference.pio_port.stats()}) {
    outcome.slo.transactions += port_stats->transactions;
    outcome.slo.timeouts += port_stats->timeouts;
    outcome.slo.retries += port_stats->retries;
    outcome.slo.recovered += port_stats->recovered;
    outcome.slo.exhausted += port_stats->exhausted;
  }
  outcome.slo.errors_raised = reference.link->errors_raised();
  outcome.slo.errors_unhandled = reference.link->errors_unhandled();
  outcome.slo.restarts = reference.sup.child_stats(reference.link_child).restarts;
  outcome.slo.escalations = reference.sup.escalations();
  outcome.slo.give_ups = reference.sup.gave_up() ? 1 : 0;
  outcome.slo.watchdog_trips = reference.watchdog.trips();
  outcome.slo.breaker_opens = reference.breaker.stats().opens;
  outcome.slo.breaker_closes = reference.breaker.stats().closes;
  outcome.slo.breaker_fast_failed = reference.breaker.stats().fast_failed;
  // Recovery accounting from the ladder and crash legs.
  outcome.slo.checkpoints_written =
      store.stats().checkpoints + crash_store.stats().checkpoints;
  outcome.slo.checkpoint_write_faults = store.stats().write_faults;
  outcome.slo.rungs_quarantined = recovery.stats().quarantines;
  outcome.slo.ladder_recoveries = 1;
  outcome.slo.crash_recoveries = 1;
  outcome.slo.lost_work_ps_max = lost_ps;
  outcome.health.add(reference.health);
  outcome.sim_time_ps = reference.kernel.now().picoseconds();
  for (const sim::Kernel* kernel :
       {&reference.kernel, &checkpointed.kernel, &restored.kernel, &ladder.kernel,
        &recovered.kernel, &crash_reference.kernel, &crash_rig.kernel,
        &crash_recovered.kernel}) {
    fleet::reduce(outcome.kernel, kernel->stats());
    outcome.events_processed += kernel->events_processed();
  }
  fs::remove_all(seed_dir, cleanup_ec);

  if (sink.has_errors()) return "diagnostics: " + sink.str();
  return {};
}

/// Soak-mode knobs gathered from the command line.
struct SoakOptions {
  unsigned jobs = 1;  ///< Fleet workers; 0 = one per core.
  fleet::Isolation isolation = fleet::Isolation::kThread;
  std::uint32_t fault_templates = 1;  ///< Swept templates (1..kSoakTemplateCount).
  std::uint32_t worker_timeout_s = 120;  ///< Per-seed watchdog (process isolation).
  std::uint32_t kill_workers = 0;  ///< Supervisor-injected SIGKILLs (chaos gate).
};

/// --chaos-soak[=N] --jobs=M: the supervision loop under seeded traffic
/// faults, N seeds sharded across M fleet workers (threads by default,
/// supervised processes with --isolation=process). Per-seed results are
/// bit-identical across job counts and isolation modes (each seed's rig
/// pipeline is fully isolated), so failures reproduce with
/// `--chaos-soak=1` and the seed hardcoded no matter how the fleet was
/// sharded. Prints every failing seed plus the fleet SLO rollup.
int run_chaos_soak(const uml::Component& psm_uart, const soc::SocProfile& profile,
                   const statechart::StateMachine& link_machine, std::uint64_t base,
                   int seed_count, const SoakOptions& options) {
  const unsigned jobs_used = fleet::FleetDriver::resolve_jobs(options.jobs);
  std::printf("chaos soak: %d seeds across %u fleet worker(s), %u fault template(s), "
              "seeded error/drop traffic faults, 20%%/20%%/20%% torn/lost/bit-flipped "
              "checkpoints, mid-run crash + coordinator recovery\n",
              seed_count, jobs_used, options.fault_templates);
  if (options.isolation == fleet::Isolation::kProcess) {
    std::printf("  process isolation: supervised worker pool, heartbeat deadline 5s, "
                "seed watchdog %us%s\n",
                options.worker_timeout_s,
                options.kill_workers > 0 ? " — chaos worker kills armed" : "");
  }

  // Per-seed checkpoint ladders and event logs live in a temp-dir scratch
  // root, not the working directory. A failing seed's scratch is copied to
  // ./chaos-soak-failure/ (the CI artifact) before the root is removed.
  namespace fs = std::filesystem;
  std::error_code scratch_ec;
  fs::path scratch = fs::temp_directory_path(scratch_ec);
  if (scratch_ec) scratch = "chaos-soak-scratch";
  scratch /= "uart-soc-chaos-" + std::to_string(std::random_device{}());
  fs::create_directories(scratch, scratch_ec);
  const fs::path artifact_root = "chaos-soak-failure";

  fleet::FleetConfig config;
  config.jobs = options.jobs;
  config.isolation = options.isolation;
  config.fault_templates = options.fault_templates;
  config.seed_timeout_ms = options.worker_timeout_s * 1000u;
  config.chaos_kill_workers = options.kill_workers;
  fleet::FleetDriver driver(config);
  // The progress hook is serialized by the driver; lines arrive in
  // completion order (worker interleaving), so they carry the seed. The
  // deterministic per-seed story is the result vector, not the log.
  const bool verbose = seed_count <= 32;
  driver.set_progress([&](const fleet::RigJob& job, const fleet::RigOutcome& outcome,
                          std::uint64_t done, std::uint64_t total) {
    if (!outcome.ok) {
      std::printf("  seed %llu: FAILED (%s)\n",
                  static_cast<unsigned long long>(job.seed), outcome.failure.c_str());
    } else if (verbose) {
      std::printf("  seed %llu: ok\n", static_cast<unsigned long long>(job.seed));
    } else if (done % 64 == 0 || done == total) {
      std::printf("  %llu/%llu rigs complete\n", static_cast<unsigned long long>(done),
                  static_cast<unsigned long long>(total));
    }
  });
  const std::vector<fleet::RigOutcome> outcomes = driver.run_range(
      1000, static_cast<std::uint64_t>(seed_count), [&](const fleet::RigJob& job) {
        fleet::RigOutcome outcome;
        outcome.failure =
            soak_one_seed(psm_uart, profile, link_machine, base, job, scratch, outcome);
        outcome.ok = outcome.failure.empty();
        return outcome;
      });

  // Failure forensics, in seed order (deterministic log tail).
  for (const fleet::RigOutcome& outcome : outcomes) {
    if (outcome.ok) continue;
    const fs::path seed_dir = scratch / ("seed-" + std::to_string(outcome.seed));
    const fs::path artifact_dir = artifact_root / ("seed-" + std::to_string(outcome.seed));
    std::error_code copy_ec;
    fs::remove_all(artifact_dir, copy_ec);
    fs::create_directories(artifact_dir, copy_ec);
    fs::copy(seed_dir, artifact_dir,
             fs::copy_options::recursive | fs::copy_options::overwrite_existing,
             copy_ec);
    std::ofstream(artifact_dir / "problem.txt") << outcome.failure << '\n';
    std::printf("  seed %llu: ladder + event logs preserved in %s\n",
                static_cast<unsigned long long>(outcome.seed),
                artifact_dir.string().c_str());
  }
  std::error_code cleanup_ec;
  fs::remove_all(scratch, cleanup_ec);

  const fleet::FleetReport report = fleet::FleetReport::aggregate(outcomes);
  if (report.rigs_failed != 0) {
    std::printf("chaos soak FAILED for %llu seed(s):",
                static_cast<unsigned long long>(report.rigs_failed));
    for (std::uint64_t seed : report.failed_seeds) {
      std::printf(" %llu", static_cast<unsigned long long>(seed));
    }
    std::printf("\n%s", report.str(&driver.stats()).c_str());
    return 1;
  }
  std::printf("chaos soak: all %d seeds recovered and replayed bit-identically\n",
              seed_count);
  std::printf("%s", report.str(&driver.stats()).c_str());
  return 0;
}

// --- Explicit-state verification demo -----------------------------------------
//
// The supervision pair under check: a Driver health machine (richer than
// the demo's — bounded retries before declaring failure) and a BusMonitor
// that must raise an alarm whenever the driver fails. The driver notifies
// the monitor by cross-posting "driver_failed" from its effects; the
// seeded bug omits that notification on exactly one path to Failed (retry
// exhaustion), so the system can silently die — which the invariant
// "monitor-alarm-on-failure" catches.

/// Holds the machines plus a late-bound slot for the monitor instance:
/// effects are authored before instances exist, so they post through the
/// slot filled in by run_check_properties.
struct CheckModels {
  statechart::StateMachine driver{"Driver"};
  statechart::StateMachine monitor{"BusMonitor"};
  statechart::Engine* monitor_instance = nullptr;
};

void build_check_models(CheckModels& models, bool seeded_bug) {
  auto set_retries = [](std::int64_t value) {
    return [value](statechart::ActionContext& context) {
      context.instance.set_variable("retries", value);
    };
  };
  auto notify_monitor = [&models](statechart::ActionContext&) {
    if (models.monitor_instance != nullptr) {
      models.monitor_instance->post(statechart::Event("driver_failed"));
    }
  };

  statechart::Region& top = models.driver.top();
  statechart::State& operational = top.add_state("Operational");
  statechart::State& degraded = top.add_state("Degraded");
  statechart::State& failed = top.add_state("Failed");
  top.add_transition(top.add_initial(), operational)
      .set_effect("retries := 0", set_retries(0));
  top.add_transition(operational, degraded)
      .set_trigger("bus_timeout")
      .set_effect("retries := 0", set_retries(0));
  top.add_transition(degraded, degraded)
      .set_trigger("bus_timeout")
      .set_internal(true)
      .set_guard("retries < 3",
                 [](const statechart::ActionContext& context) {
                   return context.instance.variable("retries") < 3;
                 })
      .set_effect("retries := retries + 1", [](statechart::ActionContext& context) {
        context.instance.set_variable("retries",
                                      context.instance.variable("retries") + 1);
      });
  statechart::Transition& exhausted = top.add_transition(degraded, failed)
                                          .set_trigger("bus_timeout")
                                          .set_guard("retries >= 3",
                                                     [](const statechart::ActionContext& context) {
                                                       return context.instance.variable(
                                                                  "retries") >= 3;
                                                     });
  // The seeded defect: retry exhaustion reaches Failed without telling the
  // monitor. Both hard-failure paths below notify in either variant.
  if (!seeded_bug) exhausted.set_effect("notify monitor", notify_monitor);
  top.add_transition(operational, failed)
      .set_trigger("bus_failed")
      .set_effect("notify monitor", notify_monitor);
  top.add_transition(degraded, failed)
      .set_trigger("bus_failed")
      .set_effect("notify monitor", notify_monitor);
  top.add_transition(degraded, operational)
      .set_trigger("bus_recovered")
      .set_effect("retries := 0", set_retries(0));
  // Failed is terminal: absorb further fault reports so they do not count
  // as unhandled errors.
  top.add_transition(failed, failed).set_trigger("bus_timeout").set_internal(true);
  top.add_transition(failed, failed).set_trigger("bus_failed").set_internal(true);

  statechart::Region& mtop = models.monitor.top();
  statechart::State& watching = mtop.add_state("Watching");
  statechart::State& alarmed = mtop.add_state("Alarmed");
  mtop.add_transition(mtop.add_initial(), watching);
  mtop.add_transition(watching, alarmed).set_trigger("driver_failed");
  mtop.add_transition(alarmed, alarmed).set_trigger("driver_failed").set_internal(true);
}

/// One full verification pass over the chosen model variant. For the buggy
/// variant the violation must reproduce end-to-end (replay + diagram);
/// returns 0 on the *expected* outcome of each variant.
int run_check_variant(bool seeded_bug, support::DiagnosticSink& sink) {
  CheckModels models;
  build_check_models(models, seeded_bug);
  const std::unique_ptr<statechart::CompiledMachine> driver = compile_machine(models.driver);
  const std::unique_ptr<statechart::CompiledMachine> monitor = compile_machine(models.monitor);
  models.monitor_instance = monitor.get();
  driver->set_trace_enabled(false);
  monitor->set_trace_enabled(false);
  driver->start();
  monitor->start();

  verify::Network network;
  network.add_instance("Driver", *driver);
  network.add_instance("Monitor", *monitor);
  network.add_choice("Driver", statechart::Event("bus_timeout"), /*is_error=*/true);
  network.add_choice("Driver", statechart::Event("bus_failed"), /*is_error=*/true);
  network.add_choice("Driver", statechart::Event("bus_recovered"));

  std::vector<verify::Property> properties;
  properties.push_back(verify::Property::invariant(
      "monitor-alarm-on-failure", [](const verify::PropertyContext& context) {
        const statechart::Engine* checked_driver = context.network.find("Driver");
        const statechart::Engine* checked_monitor = context.network.find("Monitor");
        return !(checked_driver->is_in("Failed") && checked_monitor->is_in("Watching"));
      }));
  properties.push_back(verify::Property::invariant(
      "retries-bounded", [](const verify::PropertyContext& context) {
        return context.network.find("Driver")->variable("retries") <= 3;
      }));
  properties.push_back(verify::Property::no_unhandled_errors());
  properties.push_back(verify::Property::deadlock_free(
      // Every reachable state keeps all alphabet entries enabled somewhere,
      // so plain reachability of a quiescent state is already a violation.
      [](const verify::PropertyContext&) { return false; }));

  const char* variant = seeded_bug ? "seeded-bug" : "fixed";
  verify::ExploreResult result = verify::explore(network, properties, {}, &sink);
  std::printf("[%s] exploration: %s; %s\n", variant,
              std::string(verify::to_string(result.termination)).c_str(),
              result.stats.str().c_str());

  if (!seeded_bug) {
    if (!result.verified()) {
      std::printf("[fixed] expected a clean exhaustive pass, got %zu violation(s)\n",
                  result.violations.size());
      for (const verify::Violation& violation : result.violations) {
        std::printf("  %s: %s\n", violation.property.c_str(), violation.message.c_str());
      }
      return 1;
    }
    std::printf("[fixed] all %zu properties verified over the full state space\n",
                properties.size());
    return 0;
  }

  if (result.violations.empty()) {
    std::printf("[seeded-bug] exploration missed the seeded violation\n");
    return 1;
  }
  const verify::Violation& violation = result.violations.front();
  std::printf("[seeded-bug] %s: %s\n", violation.property.c_str(),
              violation.message.c_str());
  std::printf("[seeded-bug] counterexample (%zu steps):\n", violation.path.size());
  for (const verify::EventChoice& choice : violation.path) {
    std::printf("  %s\n", network.label(choice).c_str());
  }

  verify::ReplayReport replay = verify::replay_counterexample(
      network, result.initial, violation, properties, sink);
  std::printf("[seeded-bug] %s\n", replay.str().c_str());
  if (!replay.ok()) return 1;

  std::unique_ptr<interaction::Interaction> scenario =
      verify::counterexample_interaction(network, violation);
  if (scenario == nullptr) {
    std::printf("[seeded-bug] counterexample did not convert to an interaction\n");
    return 1;
  }
  std::string diagram = codegen::to_plantuml_sequence(*scenario);
  std::printf("[seeded-bug] failing scenario as PlantUML:\n%s", diagram.c_str());
  if (diagram.find("@startuml") == std::string::npos ||
      diagram.find("Driver") == std::string::npos) {
    std::printf("[seeded-bug] PlantUML rendering looks wrong\n");
    return 1;
  }
  return 0;
}

/// --check-properties[=buggy|=fixed]. Exit status encodes the *outcome*:
/// "buggy" exits nonzero when the seeded bug is caught end-to-end (the
/// smoke test asserts failure), "fixed" exits zero when the repaired model
/// verifies clean, and the bare flag demands both in one run.
int run_check_properties(const char* mode) {
  support::DiagnosticSink sink;
  int status = 0;
  if (std::strcmp(mode, "buggy") == 0) {
    status = run_check_variant(/*seeded_bug=*/true, sink) == 0 ? 1 : 0;
  } else if (std::strcmp(mode, "fixed") == 0) {
    status = run_check_variant(/*seeded_bug=*/false, sink);
  } else {
    status = run_check_variant(/*seeded_bug=*/true, sink);
    if (status == 0) status = run_check_variant(/*seeded_bug=*/false, sink);
  }
  if (sink.has_errors()) {
    std::fputs(sink.str().c_str(), stderr);
    if (status == 0) status = 1;
  }
  return status;
}

/// The model-side flow shared by every mode: IP library -> PIM -> hardware
/// PSM -> codegen inputs. `verbose` prints the memory map and generated
/// RTL (the demo flow); the soak skips the prints.
struct ModelBundle {
  soc::IpLibrary library;
  uml::Model pim{"UartSoc"};
  std::optional<mda::MdaResult> hw;
  uml::Component* psm_uart = nullptr;
  std::optional<soc::SocProfile> psm_profile;
  std::uint64_t base = 0x40000000;
};

bool build_model_bundle(ModelBundle& bundle, bool verbose,
                        support::DiagnosticSink& sink) {
  // 1. PIM: reuse the Uart IP core from the library.
  bundle.library.add_standard_ips();
  uml::Package& ip = bundle.pim.add_package("ip");
  uml::Component* uart = bundle.library.instantiate("Uart", bundle.pim, ip, "Uart", sink);
  if (uart == nullptr) return false;
  std::optional<soc::SocProfile> profile = soc::SocProfile::find(bundle.pim);
  soc::validate_soc(bundle.pim, *profile, sink);

  // 2. MDA: PIM -> hardware PSM (adds clk/rst/s_axi, Top, memory map).
  bundle.hw = mda::transform(bundle.pim, mda::PlatformDescription::hardware(), sink);
  if (verbose) {
    std::printf("memory map:\n");
    for (const mda::MemoryWindow& window : bundle.hw->memory_map) {
      std::printf("  %-24s base=0x%llx span=0x%llx\n", window.module.c_str(),
                  static_cast<unsigned long long>(window.base),
                  static_cast<unsigned long long>(window.span));
    }
  }

  // 3. Code generation inputs from the PSM.
  bundle.psm_profile = soc::SocProfile::find(*bundle.hw->psm);
  bundle.psm_uart = dynamic_cast<uml::Component*>(
      uml::find_by_qualified_name(*bundle.hw->psm, "ip.Uart"));
  if (bundle.psm_uart == nullptr || !bundle.psm_profile.has_value()) {
    std::fputs("hardware PSM missing ip.Uart\n", stderr);
    return false;
  }
  if (!bundle.hw->memory_map.empty()) bundle.base = bundle.hw->memory_map[0].base;
  if (verbose) {
    std::string rtl =
        codegen::generate_rtl_module(*bundle.psm_uart, *bundle.psm_profile, sink);
    std::string sysc =
        codegen::generate_sim_module(*bundle.psm_uart, *bundle.psm_profile, sink);
    std::printf("\n--- generated RTL (%zu lines) ---\n%s",
                support::count_nonempty_lines(rtl), rtl.c_str());
    std::printf("\n--- generated SystemC-style C++ (%zu lines, not shown) ---\n",
                support::count_nonempty_lines(sysc));
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  int soak_seeds = 0;
  SoakOptions soak;  // Serial threads by default; --jobs=0 = one per core.
  // The soak knobs are resolved before the mode flags (which dispatch
  // immediately) regardless of argument order.
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--jobs=", 7) == 0) {
      char* end = nullptr;
      const long value = std::strtol(argv[i] + 7, &end, 10);
      if (end == argv[i] + 7 || *end != '\0' || value < 0 || value > 4096) {
        std::fprintf(stderr, "invalid job count '%s' (use 0 for one per core)\n",
                     argv[i] + 7);
        return 2;
      }
      soak.jobs = static_cast<unsigned>(value);
      continue;
    }
    if (std::strncmp(argv[i], "--isolation=", 12) == 0) {
      const char* choice = argv[i] + 12;
      if (std::strcmp(choice, "thread") == 0) {
        soak.isolation = fleet::Isolation::kThread;
      } else if (std::strcmp(choice, "process") == 0) {
        soak.isolation = fleet::Isolation::kProcess;
      } else {
        std::fprintf(stderr, "unknown isolation '%s' (use thread|process)\n", choice);
        return 2;
      }
      continue;
    }
    if (std::strncmp(argv[i], "--worker-timeout=", 17) == 0) {
      char* end = nullptr;
      const long value = std::strtol(argv[i] + 17, &end, 10);
      if (end == argv[i] + 17 || *end != '\0' || value < 1 || value > 86400) {
        std::fprintf(stderr, "invalid worker timeout '%s' (seconds)\n", argv[i] + 17);
        return 2;
      }
      soak.worker_timeout_s = static_cast<std::uint32_t>(value);
      continue;
    }
    if (std::strncmp(argv[i], "--kill-workers=", 15) == 0) {
      char* end = nullptr;
      const long value = std::strtol(argv[i] + 15, &end, 10);
      if (end == argv[i] + 15 || *end != '\0' || value < 0 || value > 1024) {
        std::fprintf(stderr, "invalid kill count '%s'\n", argv[i] + 15);
        return 2;
      }
      soak.kill_workers = static_cast<std::uint32_t>(value);
      continue;
    }
    if (std::strncmp(argv[i], "--fault-templates=", 18) == 0) {
      char* end = nullptr;
      const long value = std::strtol(argv[i] + 18, &end, 10);
      if (end == argv[i] + 18 || *end != '\0' || value < 1 ||
          value > static_cast<long>(kSoakTemplateCount)) {
        std::fprintf(stderr, "invalid template count '%s' (1..%u)\n", argv[i] + 18,
                     kSoakTemplateCount);
        return 2;
      }
      soak.fault_templates = static_cast<std::uint32_t>(value);
      continue;
    }
  }
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--jobs=", 7) == 0 ||
        std::strncmp(argv[i], "--isolation=", 12) == 0 ||
        std::strncmp(argv[i], "--worker-timeout=", 17) == 0 ||
        std::strncmp(argv[i], "--kill-workers=", 15) == 0 ||
        std::strncmp(argv[i], "--fault-templates=", 18) == 0) {
      continue;
    }
    if (std::strcmp(argv[i], "--check-properties") == 0) return run_check_properties("");
    if (std::strncmp(argv[i], "--check-properties=", 19) == 0) {
      return run_check_properties(argv[i] + 19);
    }
    if (std::strcmp(argv[i], "--chaos-soak") == 0) {
      soak_seeds = 16;
      continue;
    }
    if (std::strncmp(argv[i], "--chaos-soak=", 13) == 0) {
      char* end = nullptr;
      const long value = std::strtol(argv[i] + 13, &end, 10);
      if (end == argv[i] + 13 || *end != '\0' || value < 1 || value > INT_MAX) {
        std::fprintf(stderr, "invalid seed count '%s'\n", argv[i] + 13);
        return 2;
      }
      soak_seeds = static_cast<int>(value);
      continue;
    }
    std::fprintf(stderr, "unknown argument '%s'\n", argv[i]);
    return 2;
  }
  support::DiagnosticSink sink;
  ModelBundle bundle;
  if (!build_model_bundle(bundle, /*verbose=*/soak_seeds == 0, sink)) {
    std::fputs(sink.str().c_str(), stderr);
    return 1;
  }
  statechart::StateMachine link_machine("UartLink");
  build_link_machine(link_machine);
  if (soak_seeds > 0) {
    return run_chaos_soak(*bundle.psm_uart, *bundle.psm_profile, link_machine,
                          bundle.base, soak_seeds, soak);
  }

  // 4. Execute: HW model on the bus, ASL driver writing registers.
  sim::Kernel kernel;
  sim::MemoryMappedBus bus(kernel, "axi", sim::SimTime::ns(8));
  codegen::HwModuleSim uart_sim(*bundle.psm_uart, *bundle.psm_profile, sink);
  const std::uint64_t base = bundle.base;
  uart_sim.map_onto(bus, base);

  codegen::BusMasterContext driver(kernel, bus);
  driver.set_attribute("base", asl::Value{static_cast<std::int64_t>(base)});
  driver.run(
      "bus_write(self.base + 12, 434);"       // divisor = 50MHz/115200.
      "i := 0;"
      "while (i < 4) {"
      "  bus_write(self.base + 0, 65 + i);"   // tx_data = 'A'+i.
      "  i := i + 1;"
      "}");
  auto divisor = driver.run("return bus_read(self.base + 12);");

  std::printf("\nafter driver run: divisor=%lld tx_data=%llu (last byte)\n",
              static_cast<long long>(divisor.value().as_int()),
              static_cast<unsigned long long>(uart_sim.peek("tx_data")));
  std::printf("bus: %llu writes, %llu reads, sim time %s\n",
              static_cast<unsigned long long>(bus.writes()),
              static_cast<unsigned long long>(bus.reads()), kernel.now().str().c_str());

  // 5. Resilience: same driver, adversarial bus. A seeded fault plan drops
  // device responses (hung slave); the driver's BusMasterPort times out and
  // retries with backoff, a watchdog supervises overall progress, and a
  // DriverHealth statechart tracks error/recovery via the error channel.
  statechart::StateMachine health("DriverHealth");
  statechart::Region& htop = health.top();
  statechart::State& operational = htop.add_state("Operational");
  statechart::State& degraded = htop.add_state("Degraded");
  statechart::State& dead = htop.add_state("Failed");
  htop.add_transition(htop.add_initial(), operational);
  htop.add_transition(operational, degraded).set_trigger("bus_timeout");
  htop.add_transition(degraded, operational).set_trigger("bus_recovered");
  htop.add_transition(degraded, dead).set_trigger("bus_failed");

  ReplayRig reference(*bundle.psm_uart, *bundle.psm_profile, health, base, sink);
  reference.watchdog.arm();
  reference.driver.run(kPhase1);
  reference.driver.run(kPhase2);
  reference.watchdog.disarm();

  const sim::BusMasterPort::Stats& port_stats = reference.driver.port().stats();
  std::printf("\nfaulty rerun: %llu transactions, %llu timeouts, %llu retries, "
              "%llu recovered, %llu exhausted\n",
              static_cast<unsigned long long>(port_stats.transactions),
              static_cast<unsigned long long>(port_stats.timeouts),
              static_cast<unsigned long long>(port_stats.retries),
              static_cast<unsigned long long>(port_stats.recovered),
              static_cast<unsigned long long>(port_stats.exhausted));
  std::printf("fault plan: %s\n", reference.plan.str().c_str());
  std::printf("driver health: %s (errors raised %llu), watchdog trips %llu, "
              "divisor=%llu\n",
              reference.health.active_leaf_names().empty()
                  ? "?"
                  : reference.health.active_leaf_names().front().c_str(),
              static_cast<unsigned long long>(reference.health.errors_raised()),
              static_cast<unsigned long long>(reference.watchdog.trips()),
              static_cast<unsigned long long>(reference.uart.peek("divisor")));

  // 6. Checkpoint + deterministic replay. The reference above ran to the
  // end uninterrupted with its event recorder on. Now: an identical rig is
  // checkpointed between driver phases, the snapshot is restored into a
  // third freshly constructed rig (what a restarted process would do), and
  // that rig finishes the run. Final state and the complete event sequence
  // must match the reference exactly.
  const std::vector<sim::RecordedEvent> reference_log = reference.recorder.log();

  ReplayRig checkpointed(*bundle.psm_uart, *bundle.psm_profile, health, base, sink);
  checkpointed.watchdog.arm();
  checkpointed.driver.run(kPhase1);
  std::string snapshot;
  if (!replay::save_snapshot_binary(checkpointed.targets(), snapshot, sink)) {
    std::fputs(sink.str().c_str(), stderr);
    return 1;
  }

  ReplayRig restored(*bundle.psm_uart, *bundle.psm_profile, health, base, sink);
  if (!replay::restore_snapshot_binary(restored.targets(), snapshot, sink)) {
    std::fputs(sink.str().c_str(), stderr);
    return 1;
  }
  restored.driver.run(kPhase2);
  restored.watchdog.disarm();

  const auto mismatch =
      sim::first_divergence(reference_log, restored.recorder.log(), &restored.kernel);
  const std::pair<const char*, std::pair<std::uint64_t, std::uint64_t>> state_checks[] = {
      {"sim-time", {reference.kernel.now().picoseconds(),
                    restored.kernel.now().picoseconds()}},
      {"events-processed",
       {reference.kernel.events_processed(), restored.kernel.events_processed()}},
      {"divisor", {reference.uart.peek("divisor"), restored.uart.peek("divisor")}},
      {"tx_data", {reference.uart.peek("tx_data"), restored.uart.peek("tx_data")}},
      {"port-timeouts",
       {port_stats.timeouts, restored.driver.port().stats().timeouts}},
      {"port-retries", {port_stats.retries, restored.driver.port().stats().retries}},
      {"health-errors",
       {reference.health.errors_raised(), restored.health.errors_raised()}},
  };
  bool state_matches =
      restored.health.active_leaf_names() == reference.health.active_leaf_names() &&
      restored.plan.str() == reference.plan.str();
  if (!state_matches) std::printf("replay state mismatch: health/fault-plan summary\n");
  for (const auto& [label, values] : state_checks) {
    if (values.first != values.second) {
      std::printf("replay state mismatch: %s reference=%llu restored=%llu\n", label,
                  static_cast<unsigned long long>(values.first),
                  static_cast<unsigned long long>(values.second));
      state_matches = false;
    }
  }
  std::printf("\ncheckpoint: %zu-byte snapshot at %s; restored run replayed %llu/%llu "
              "events\n",
              snapshot.size(), checkpointed.kernel.now().str().c_str(),
              static_cast<unsigned long long>(restored.recorder.total_events()),
              static_cast<unsigned long long>(reference.recorder.total_events()));
  if (mismatch.has_value() || !state_matches) {
    std::printf("replay MISMATCH: %s\n",
                mismatch.has_value() ? mismatch->str().c_str() : "final state differs");
    return 1;
  }
  std::printf("replay: restored run is bit-identical to the uninterrupted reference\n");

  // Divergence detection: restore the same snapshot again, switch the
  // recorder to verify mode against the reference log, and inject one event
  // the reference never had. The verifier must latch it.
  ReplayRig perturbed(*bundle.psm_uart, *bundle.psm_profile, health, base, sink);
  if (!replay::restore_snapshot_binary(perturbed.targets(), snapshot, sink)) {
    std::fputs(sink.str().c_str(), stderr);
    return 1;
  }
  perturbed.recorder.begin_verify(reference_log, perturbed.recorder.total_events());
  perturbed.kernel.schedule(sim::SimTime::ns(1), perturbed.perturb);
  perturbed.driver.run(kPhase2);
  perturbed.watchdog.disarm();
  if (!perturbed.recorder.divergence().has_value()) {
    std::printf("replay verify FAILED to flag an injected divergence\n");
    return 1;
  }
  std::printf("divergence detection: %s\n",
              perturbed.recorder.divergence()->str().c_str());

  // Corruption rejection: a flipped byte must fail its section's checksum,
  // loudly.
  std::string corrupted = snapshot;
  corrupted[corrupted.size() / 2] ^= 0x01;
  support::DiagnosticSink corrupt_sink;
  ReplayRig victim(*bundle.psm_uart, *bundle.psm_profile, health, base, sink);
  if (replay::restore_snapshot_binary(victim.targets(), corrupted, corrupt_sink)) {
    std::printf("corrupted snapshot was NOT rejected\n");
    return 1;
  }
  std::printf("corruption rejection: %s\n",
              corrupt_sink.diagnostics().empty()
                  ? "?"
                  : corrupt_sink.diagnostics().front().str().c_str());

  // 7. Supervision demo: breaker-guarded DMA with PIO fallback, watchdog
  // trip -> supervised warm restart.
  if (int status = run_degraded_demo(*bundle.psm_uart, *bundle.psm_profile, link_machine,
                                     base, sink);
      status != 0) {
    return status;
  }

  if (sink.has_errors()) {
    std::fputs(sink.str().c_str(), stderr);
    return 1;
  }
  return 0;
}
