#include "soak/soak.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <random>
#include <stdexcept>
#include <system_error>

#include "replay/binary.hpp"
#include "replay/recovery.hpp"
#include "replay/store.hpp"
#include "soc/validate.hpp"
#include "uml/query.hpp"

namespace umlsoc::soak {

namespace {

/// Snapshot bank over a BusMasterPort's retry counters; each leg of the
/// rig checkpoints both of its ports this way.
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

sim::RetryPolicy port_policy() {
  sim::RetryPolicy policy;
  policy.timeout = sim::SimTime::ns(100);
  policy.max_attempts = 2;
  return policy;
}

sim::CircuitBreaker::Config breaker_config() {
  sim::CircuitBreaker::Config config;
  config.window = 8;
  config.min_samples = 4;
  config.failure_threshold = 0.5;
  config.open_duration = sim::SimTime::us(2);
  config.reopen_multiplier = 2;
  config.max_open_duration = sim::SimTime::us(16);
  return config;
}

sim::RestartPolicy sup_policy() {
  sim::RestartPolicy policy;
  policy.backoff = sim::SimTime::ns(100);
  policy.max_restarts = 8;
  policy.window = sim::SimTime::us(200);
  return policy;
}

/// In-simulation script driver for the crash leg. The host-side guard loops
/// (run_phase, run_recovery_tail) time their sender kicks off wall-script
/// slicing, which depends on where a restore landed — a rig recovered
/// mid-phase would re-kick at a different instant than the uninterrupted
/// reference and diverge. This driver runs the same script (two traffic
/// phases, keepalive bytes until recovered, final watchdog disarm) as a
/// kernel process whose every decision is a pure function of
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

/// The legs of one seed (see soak.hpp). Returns an empty string on success,
/// else the failure description; fills `outcome` with the seed's counters.
///
/// The job's fault_template picks the SoakTemplate every leg runs under,
/// and its attempt count drives the cross-process handoff: every attempt
/// writes two handoff rungs (the t=0 base and the post-phase-1 save point)
/// to the seed's scratch, and a re-dispatched attempt (attempt > 0) first
/// restores the newest rung a dead predecessor left behind and replays the
/// remainder under the verifier — proving resume-from-ladder — before
/// re-running the deterministic legs from scratch.
std::string soak_seed_legs(const Model& model, const fleet::RigJob& job,
                           const std::filesystem::path& scratch,
                           fleet::RigOutcome& outcome) {
  support::DiagnosticSink sink;
  const std::uint64_t seed = job.seed;
  const SoakTemplate& soak_template =
      kSoakTemplates[job.fault_template % kSoakTemplateCount];
  TrafficFaults faults;
  faults.error_rate = soak_template.error_rate;
  faults.drop_rate = soak_template.drop_rate;

  DegradedRig reference(model, faults, seed, sink);
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
      DegradedRig resumed(model, faults, seed, sink);
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

  DegradedRig checkpointed(model, faults, seed, sink);
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

  DegradedRig restored(model, faults, seed, sink);
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

  DegradedRig ladder(model, faults, seed, sink);
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

  DegradedRig recovered(model, faults, seed, sink);
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

  DegradedRig crash_reference(model, faults, seed, sink);
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

  DegradedRig crash_rig(model, faults, seed, sink);
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

  DegradedRig crash_recovered(model, faults, seed, sink);
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

}  // namespace

bool Model::build(support::DiagnosticSink& sink) {
  // 1. PIM: reuse the Uart IP core from the library.
  library.add_standard_ips();
  uml::Package& ip = pim.add_package("ip");
  uml::Component* uart = library.instantiate("Uart", pim, ip, "Uart", sink);
  if (uart == nullptr) return false;
  std::optional<soc::SocProfile> profile = soc::SocProfile::find(pim);
  soc::validate_soc(pim, *profile, sink);

  // 2. MDA: PIM -> hardware PSM (adds clk/rst/s_axi, Top, memory map).
  hw = mda::transform(pim, mda::PlatformDescription::hardware(), sink);

  // 3. Code generation inputs from the PSM.
  psm_profile = soc::SocProfile::find(*hw->psm);
  psm_uart = dynamic_cast<uml::Component*>(uml::find_by_qualified_name(*hw->psm, "ip.Uart"));
  if (psm_uart == nullptr || !psm_profile.has_value()) {
    std::fputs("hardware PSM missing ip.Uart\n", stderr);
    return false;
  }
  if (!hw->memory_map.empty()) base = hw->memory_map[0].base;
  build_link_machine(link);
  return true;
}

std::unique_ptr<statechart::CompiledMachine> compile_machine(
    const statechart::StateMachine& machine) {
  support::DiagnosticSink sink;
  std::unique_ptr<statechart::CompiledMachine> compiled = statechart::compile(machine, sink);
  if (compiled == nullptr) throw std::invalid_argument(sink.str());
  return compiled;
}

DegradedRig::DegradedRig(const Model& model, const TrafficFaults& faults, std::uint64_t seed,
                         support::DiagnosticSink& sink)
    : bus(kernel, "axi", sim::SimTime::ns(8)),
      uart(*model.psm_uart, *model.psm_profile, sink),
      plan(seed),
      dma_port(kernel, bus, "dma", port_policy()),
      pio_port(kernel, bus, "pio", port_policy()),
      breaker(kernel, dma_port, "dma", breaker_config()),
      link(compile_machine(model.link)),
      sup(kernel, "soc", sim::RestartStrategy::kOneForOne, sup_policy()),
      watchdog(kernel, "link-dog", sim::SimTime::us(50)),
      base(model.base) {
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

void DegradedRig::send_tick() {
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

replay::SnapshotTargets DegradedRig::targets() {
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

void finish_run(DegradedRig& rig) {
  rig.watchdog.disarm();
  rig.kernel.run();
}

std::string compare_final_state(const DegradedRig& reference, const DegradedRig& twin,
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

fleet::RigOutcome run_seed(const Model& model, const fleet::RigJob& job,
                           const std::filesystem::path& scratch) {
  fleet::RigOutcome outcome;
  outcome.failure = soak_seed_legs(model, job, scratch, outcome);
  outcome.ok = outcome.failure.empty();
  return outcome;
}

std::vector<fleet::RigOutcome> run_fleet(const Model& model, fleet::FleetDriver& driver,
                                         std::uint64_t first_seed, std::uint64_t count,
                                         const std::filesystem::path& artifact_root) {
  // Per-seed checkpoint ladders and event logs live in a temp-dir scratch
  // root, not the working directory. A failing seed's scratch is copied to
  // the artifact root before the scratch root is removed.
  namespace fs = std::filesystem;
  std::error_code scratch_ec;
  fs::path scratch = fs::temp_directory_path(scratch_ec);
  if (scratch_ec) scratch = "chaos-soak-scratch";
  scratch /= "uart-soc-chaos-" + std::to_string(std::random_device{}());
  fs::create_directories(scratch, scratch_ec);

  const std::vector<fleet::RigOutcome> outcomes = driver.run_range(
      first_seed, count,
      [&](const fleet::RigJob& job) { return run_seed(model, job, scratch); });

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
  return outcomes;
}

}  // namespace umlsoc::soak
