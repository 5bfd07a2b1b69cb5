// UART SoC flow: instantiate the Uart IP from the library, run the MDA
// hardware mapping, generate RTL + SystemC-style C++, then execute the
// design: a runtime hardware model mapped on the simulated bus, driven by
// ASL driver code (exactly what the software mapping generates).
//
// Then re-runs the driver under an adversarial bus (a seeded fault plan
// dropping responses): timeouts retry with backoff, a watchdog supervises
// progress, and a DriverHealth statechart tracks error/recovery states.
// On the chaos soak's rig (src/soak/) it then checkpoints a faulty run
// mid-flight, restores it into a fresh rig and requires the rest of the
// run to replay bit-identically; a perturbed restore must be flagged and a
// corrupted snapshot rejected. It closes with the supervision demo: a DMA
// error burst opens the breaker, traffic falls back to PIO, a half-open
// probe restores DMA, and a watchdog trip drives a supervised warm restart.
// Any failed check exits nonzero; CI runs the demo as a smoke test.
//
// With --chaos-soak[=N] the binary is a CLI over src/soak/ (soak.hpp
// describes the legs): N seeds (default 16) from seed 1000, sharded by the
// fleet engine under --jobs, --isolation, --worker-timeout, --kill-workers
// and --fault-templates, ending in the fleet SLO rollup.
//
// With --check-properties the binary instead runs the explicit-state
// verification engine on the driver-supervision statecharts: a seeded
// notification bug is found by exhaustive exploration, its counterexample
// is replayed through the compiled engines and rendered as a PlantUML
// sequence diagram, and the fixed model verifies clean. `=buggy` exits
// nonzero exactly when the bug is caught end-to-end, `=fixed` exits zero
// exactly when the fixed model verifies; CI runs both.
//
//   $ ./example_uart_soc
//   $ ./example_uart_soc --chaos-soak
//   $ ./example_uart_soc --chaos-soak=256 --jobs=$(nproc)
//   $ ./example_uart_soc --chaos-soak=64 --isolation=process --kill-workers=2
//   $ ./example_uart_soc --chaos-soak=64 --fault-templates=4
//   $ ./example_uart_soc --check-properties
#include <climits>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>

#include "codegen/plantuml.hpp"
#include "codegen/rtl.hpp"
#include "codegen/swruntime.hpp"
#include "codegen/systemc.hpp"
#include "fleet/report.hpp"
#include "replay/binary.hpp"
#include "soak/soak.hpp"
#include "support/strings.hpp"
#include "verify/counterexample.hpp"
#include "verify/explore.hpp"

using namespace umlsoc;

namespace {

/// The ASL driver both bus runs execute: divisor = 50MHz/115200, then
/// tx_data = 'A'+i for four bytes.
constexpr const char* kDriverScript =
    "bus_write(self.base + 12, 434);"
    "i := 0;"
    "while (i < 4) {"
    "  bus_write(self.base + 0, 65 + i);"
    "  i := i + 1;"
    "}";

/// Prints what stopped a soak loop (run_phase, run_recovery_tail); true
/// when it ran through.
bool ran(const std::string& stall) {
  if (!stall.empty()) std::printf("%s\n", stall.c_str());
  return stall.empty();
}

/// Checkpoint + deterministic replay on the soak rig, under the baseline
/// fault template and the first soak seed. The reference runs uninterrupted
/// with its event recorder on; an identical rig is checkpointed after the
/// first traffic phase, and the snapshot is restored into a third freshly
/// constructed rig, which finishes the run under the replay verifier. A
/// restore perturbed by one extra sender activation must be flagged, and a
/// snapshot with one flipped byte must be rejected.
int run_replay_demo(const soak::Model& model, support::DiagnosticSink& sink) {
  constexpr std::uint64_t kSeed = 1000;
  soak::TrafficFaults faults;
  faults.error_rate = soak::kSoakTemplates[0].error_rate;
  faults.drop_rate = soak::kSoakTemplates[0].drop_rate;
  const auto finish_script = [](soak::DegradedRig& rig) {
    if (!ran(soak::run_phase(rig, 64)) || !ran(soak::run_recovery_tail(rig))) return false;
    soak::finish_run(rig);
    return true;
  };

  soak::DegradedRig reference(model, faults, kSeed, sink);
  if (!ran(soak::run_phase(reference, 32)) || !soak::run_to_save_point(reference, nullptr) ||
      !finish_script(reference)) {
    return 1;
  }
  const std::vector<sim::RecordedEvent>& reference_log = reference.recorder.log();

  soak::DegradedRig checkpointed(model, faults, kSeed, sink);
  std::string snapshot;
  if (!ran(soak::run_phase(checkpointed, 32)) ||
      !soak::run_to_save_point(checkpointed, &snapshot)) {
    std::printf("checkpointed rig found no save point\n");
    return 1;
  }
  const auto restore = [&](soak::DegradedRig& rig) {
    if (!replay::restore_snapshot_binary(rig.targets(), snapshot, sink)) {
      std::fputs(sink.str().c_str(), stderr);
      return false;
    }
    rig.recorder.begin_verify(reference_log, rig.recorder.total_events());
    return true;
  };

  soak::DegradedRig restored(model, faults, kSeed, sink);
  if (!restore(restored) || !finish_script(restored)) return 1;
  std::printf("\ncheckpoint: %zu-byte snapshot at %s; restored run replayed %llu/%llu "
              "events\n",
              snapshot.size(), checkpointed.kernel.now().str().c_str(),
              static_cast<unsigned long long>(restored.recorder.total_events()),
              static_cast<unsigned long long>(reference.recorder.total_events()));
  if (const std::string problem = soak::compare_final_state(reference, restored, "restored");
      !problem.empty()) {
    std::printf("replay MISMATCH: %s\n", problem.c_str());
    return 1;
  }
  std::printf("replay: restored run is bit-identical to the uninterrupted reference\n");

  // Divergence detection: the same restore plus one sender activation the
  // reference never had. The verifier must latch it.
  soak::DegradedRig perturbed(model, faults, kSeed, sink);
  if (!restore(perturbed)) return 1;
  perturbed.kernel.schedule(sim::SimTime::ns(1), perturbed.sender);
  if (!finish_script(perturbed)) return 1;
  if (!perturbed.recorder.divergence().has_value()) {
    std::printf("replay verify FAILED to flag an injected divergence\n");
    return 1;
  }
  std::printf("divergence detection: %s\n",
              perturbed.recorder.divergence()->str().c_str());

  // Corruption rejection: a flipped byte must fail its section's checksum.
  std::string corrupted = snapshot;
  corrupted[corrupted.size() / 2] ^= 0x01;
  support::DiagnosticSink corrupt_sink;
  soak::DegradedRig victim(model, faults, kSeed, sink);
  if (replay::restore_snapshot_binary(victim.targets(), corrupted, corrupt_sink)) {
    std::printf("corrupted snapshot was NOT rejected\n");
    return 1;
  }
  std::printf("corruption rejection: %s\n",
              corrupt_sink.diagnostics().empty()
                  ? "?"
                  : corrupt_sink.diagnostics().front().str().c_str());
  return 0;
}

/// The interactive demo: deterministic DMA error burst -> breaker opens ->
/// PIO fallback -> half-open probe restores DMA; then a watchdog
/// starvation trip -> supervised warm restart -> re-armed dog.
int run_degraded_demo(const soak::Model& model, support::DiagnosticSink& sink) {
  std::printf("\n--- degraded mode: breaker-guarded DMA, PIO fallback, supervision ---\n");
  soak::TrafficFaults faults;
  faults.error_rate = 1.0;
  faults.max_faults = 4;  // Exactly the first four DMA writes error, then clean.
  soak::DegradedRig rig(model, faults, /*seed=*/7, sink);
  rig.health.add_listener([&rig](sim::HealthRegistry::UnitId unit, sim::UnitHealth from,
                                 sim::UnitHealth to, std::string_view reason) {
    std::printf("  [%s] %s: %s -> %s (%.*s)\n", rig.kernel.now().str().c_str(),
                rig.health.unit_name(unit).c_str(),
                std::string(sim::to_string(from)).c_str(),
                std::string(sim::to_string(to)).c_str(), static_cast<int>(reason.size()),
                reason.data());
  });

  if (!ran(soak::run_phase(rig, 4))) return 1;
  if (rig.breaker.state() != sim::CircuitBreaker::State::kOpen) {
    std::printf("breaker did not open after the error burst (state=%s)\n",
                std::string(sim::to_string(rig.breaker.state())).c_str());
    return 1;
  }
  std::printf("breaker '%s' open after %llu DMA failures; link state: %s\n",
              rig.breaker.name().c_str(),
              static_cast<unsigned long long>(rig.breaker.stats().failures),
              rig.link->is_in("Fallback") ? "Fallback" : "?");

  if (!ran(soak::run_phase(rig, 8))) return 1;
  if (rig.via_pio == 0) {
    std::printf("no byte fell back to PIO while the breaker was open\n");
    return 1;
  }
  if (!ran(soak::run_recovery_tail(rig))) return 1;
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
  soak::finish_run(rig);

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

/// --chaos-soak[=N]: soak::run_fleet over N seeds with the flags' fleet
/// config, printing progress, every failing seed and the fleet SLO rollup.
int run_chaos_soak(const soak::Model& model, int seed_count, const fleet::FleetConfig& config) {
  const unsigned jobs_used = fleet::FleetDriver::resolve_jobs(config.jobs);
  std::printf("chaos soak: %d seeds across %u fleet worker(s), %u fault template(s), "
              "seeded error/drop traffic faults, 20%%/20%%/20%% torn/lost/bit-flipped "
              "checkpoints, mid-run crash + coordinator recovery\n",
              seed_count, jobs_used, config.fault_templates);
  if (config.isolation == fleet::Isolation::kProcess) {
    std::printf("  process isolation: supervised worker pool, heartbeat deadline 5s, "
                "seed watchdog %us%s\n",
                config.seed_timeout_ms / 1000u,
                config.chaos_kill_workers > 0 ? " — chaos worker kills armed" : "");
  }

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
  const char* const artifact_root = "chaos-soak-failure";
  const std::vector<fleet::RigOutcome> outcomes = soak::run_fleet(
      model, driver, 1000, static_cast<std::uint64_t>(seed_count), artifact_root);

  const fleet::FleetReport report = fleet::FleetReport::aggregate(outcomes);
  if (report.rigs_failed != 0) {
    for (unsigned long long seed : report.failed_seeds) {
      std::printf("  seed %llu: ladder + event logs preserved in %s/seed-%llu\n", seed,
                  artifact_root, seed);
    }
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
  const auto driver = soak::compile_machine(models.driver);
  const auto monitor = soak::compile_machine(models.monitor);
  models.monitor_instance = monitor.get();
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

/// The no-flag demo: memory map and generated RTL, the ASL driver on a
/// clean bus, the same driver on an adversarial bus, then the replay and
/// supervision demos on the soak rig.
int run_demo(const soak::Model& model, support::DiagnosticSink& sink) {
  std::printf("memory map:\n");
  for (const mda::MemoryWindow& window : model.hw->memory_map) {
    std::printf("  %-24s base=0x%llx span=0x%llx\n", window.module.c_str(),
                static_cast<unsigned long long>(window.base),
                static_cast<unsigned long long>(window.span));
  }
  std::string rtl = codegen::generate_rtl_module(*model.psm_uart, *model.psm_profile, sink);
  std::string sysc = codegen::generate_sim_module(*model.psm_uart, *model.psm_profile, sink);
  std::printf("\n--- generated RTL (%zu lines) ---\n%s", support::count_nonempty_lines(rtl),
              rtl.c_str());
  std::printf("\n--- generated SystemC-style C++ (%zu lines, not shown) ---\n",
              support::count_nonempty_lines(sysc));

  // Execute: HW model on the bus, ASL driver writing registers.
  const std::int64_t base = static_cast<std::int64_t>(model.base);
  sim::Kernel kernel;
  sim::MemoryMappedBus bus(kernel, "axi", sim::SimTime::ns(8));
  codegen::HwModuleSim uart_sim(*model.psm_uart, *model.psm_profile, sink);
  uart_sim.map_onto(bus, model.base);
  codegen::BusMasterContext driver(kernel, bus);
  driver.set_attribute("base", asl::Value{base});
  driver.run(kDriverScript);
  auto divisor = driver.run("return bus_read(self.base + 12);");
  std::printf("\nafter driver run: divisor=%lld tx_data=%llu (last byte)\n",
              static_cast<long long>(divisor.value().as_int()),
              static_cast<unsigned long long>(uart_sim.peek("tx_data")));
  std::printf("bus: %llu writes, %llu reads, sim time %s\n",
              static_cast<unsigned long long>(bus.writes()),
              static_cast<unsigned long long>(bus.reads()), kernel.now().str().c_str());

  // Resilience: same driver, adversarial bus. A seeded fault plan drops
  // device responses (hung slave); the driver's BusMasterPort times out and
  // retries with backoff, a watchdog supervises overall progress, and a
  // DriverHealth statechart tracks error/recovery via the error channel.
  statechart::StateMachine health_machine("DriverHealth");
  statechart::Region& htop = health_machine.top();
  statechart::State& operational = htop.add_state("Operational");
  statechart::State& degraded = htop.add_state("Degraded");
  statechart::State& dead = htop.add_state("Failed");
  htop.add_transition(htop.add_initial(), operational);
  htop.add_transition(operational, degraded).set_trigger("bus_timeout");
  htop.add_transition(degraded, operational).set_trigger("bus_recovered");
  htop.add_transition(degraded, dead).set_trigger("bus_failed");
  const std::unique_ptr<statechart::CompiledMachine> health =
      soak::compile_machine(health_machine);
  health->start();

  sim::Kernel faulty_kernel;
  sim::MemoryMappedBus faulty_bus(faulty_kernel, "axi-faulty", sim::SimTime::ns(8));
  codegen::HwModuleSim faulty_uart(*model.psm_uart, *model.psm_profile, sink);
  faulty_uart.map_onto(faulty_bus, model.base);
  sim::FaultPlan plan(/*seed=*/42);
  sim::FaultPlan::SiteConfig adversarial;
  adversarial.drop_rate = 0.25;  // 1 in 4 writes hangs: no response, ever.
  plan.configure(sim::FaultSite::kBusWrite, adversarial);
  faulty_bus.install_fault_plan(&plan);
  sim::RetryPolicy retry;
  retry.timeout = sim::SimTime::ns(40);
  retry.max_attempts = 4;
  codegen::BusMasterContext faulty_driver(faulty_kernel, faulty_bus, retry);
  faulty_driver.set_error_sink(health.get());
  faulty_driver.set_attribute("base", asl::Value{base});
  sim::Watchdog watchdog(faulty_kernel, "driver-watchdog", sim::SimTime::us(10));
  watchdog.arm();
  faulty_driver.run(kDriverScript);
  watchdog.disarm();

  const sim::BusMasterPort::Stats& port_stats = faulty_driver.port().stats();
  std::printf("\nfaulty rerun: %llu transactions, %llu timeouts, %llu retries, "
              "%llu recovered, %llu exhausted\n",
              static_cast<unsigned long long>(port_stats.transactions),
              static_cast<unsigned long long>(port_stats.timeouts),
              static_cast<unsigned long long>(port_stats.retries),
              static_cast<unsigned long long>(port_stats.recovered),
              static_cast<unsigned long long>(port_stats.exhausted));
  std::printf("fault plan: %s\n", plan.str().c_str());
  const std::vector<std::string> health_state = health->active_leaf_names();
  std::printf("driver health: %s (errors raised %llu), watchdog trips %llu, "
              "divisor=%llu\n",
              health_state.empty() ? "?" : health_state.front().c_str(),
              static_cast<unsigned long long>(health->errors_raised()),
              static_cast<unsigned long long>(watchdog.trips()),
              static_cast<unsigned long long>(faulty_uart.peek("divisor")));

  if (int status = run_replay_demo(model, sink); status != 0) return status;
  if (int status = run_degraded_demo(model, sink); status != 0) return status;
  if (sink.has_errors()) {
    std::fputs(sink.str().c_str(), stderr);
    return 1;
  }
  return 0;
}

/// Reads `arg` as `prefix` followed by a decimal count in [min, max].
/// Returns false when `arg` does not start with `prefix`. A malformed or
/// out-of-range count prints "invalid <what> '<count>'<hint>" and exits 2.
bool parse_count(const char* arg, const char* prefix, long min, long max, const char* what,
                 long& value, const char* hint = "") {
  const std::size_t prefix_length = std::strlen(prefix);
  if (std::strncmp(arg, prefix, prefix_length) != 0) return false;
  const char* text = arg + prefix_length;
  char* end = nullptr;
  value = std::strtol(text, &end, 10);
  if (end == text || *end != '\0' || value < min || value > max) {
    std::fprintf(stderr, "invalid %s '%s'%s\n", what, text, hint);
    std::exit(2);
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  fleet::FleetConfig config;
  config.jobs = 1;  // Serial by default; --jobs=0 = one per core.
  const std::string template_hint =
      " (1.." + std::to_string(soak::kSoakTemplateCount) + ")";
  long soak_seeds = 0;
  const char* check_mode = nullptr;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    long value = 0;
    if (parse_count(arg, "--jobs=", 0, 4096, "job count", value,
                    " (use 0 for one per core)")) {
      config.jobs = static_cast<unsigned>(value);
    } else if (parse_count(arg, "--worker-timeout=", 1, 86400, "worker timeout", value,
                           " (seconds)")) {
      config.seed_timeout_ms = static_cast<std::uint32_t>(value) * 1000u;
    } else if (parse_count(arg, "--kill-workers=", 0, 1024, "kill count", value)) {
      config.chaos_kill_workers = static_cast<std::uint32_t>(value);
    } else if (parse_count(arg, "--fault-templates=", 1, soak::kSoakTemplateCount,
                           "template count", value, template_hint.c_str())) {
      config.fault_templates = static_cast<std::uint32_t>(value);
    } else if (parse_count(arg, "--chaos-soak=", 1, INT_MAX, "seed count", value)) {
      soak_seeds = value;
    } else if (std::strcmp(arg, "--chaos-soak") == 0) {
      soak_seeds = 16;
    } else if (std::strcmp(arg, "--isolation=thread") == 0) {
      config.isolation = fleet::Isolation::kThread;
    } else if (std::strcmp(arg, "--isolation=process") == 0) {
      config.isolation = fleet::Isolation::kProcess;
    } else if (std::strncmp(arg, "--isolation=", 12) == 0) {
      std::fprintf(stderr, "unknown isolation '%s' (use thread|process)\n", arg + 12);
      return 2;
    } else if (std::strcmp(arg, "--check-properties") == 0) {
      check_mode = "";
    } else if (std::strcmp(arg, "--check-properties=buggy") == 0 ||
               std::strcmp(arg, "--check-properties=fixed") == 0) {
      check_mode = arg + std::strlen("--check-properties=");
    } else {
      std::fprintf(stderr, "unknown argument '%s'\n", arg);
      return 2;
    }
  }
  if (check_mode != nullptr) return run_check_properties(check_mode);

  support::DiagnosticSink sink;
  soak::Model model;
  if (!model.build(sink)) {
    std::fputs(sink.str().c_str(), stderr);
    return 1;
  }
  if (soak_seeds > 0) return run_chaos_soak(model, static_cast<int>(soak_seeds), config);
  return run_demo(model, sink);
}
