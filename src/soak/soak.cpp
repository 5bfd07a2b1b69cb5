#include "soak/soak.hpp"

#include <algorithm>
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
  for (const char* event : {"watchdog_trip", "unit_restarted", "restart_failed"}) {
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

replay::RecoveryPolicy coordinator_policy() {
  replay::RecoveryPolicy policy;
  policy.checkpoint_interval = sim::SimTime::us(4);
  // Off the 500 ns traffic grid: a tick sharing an instant with the sender
  // would be co-batched and refused every time.
  policy.tick_interval = sim::SimTime(999'001);
  return policy;
}

/// The script's and the injector's tick periods: like the coordinator's,
/// off the 500 ns traffic grid and coprime to the other cadences within
/// the soak horizon.
constexpr std::uint64_t kScriptTickPs = 1'000'037;
constexpr std::uint64_t kCrashTickPs = 1'000'003;
/// One byte per 500 ns.
constexpr std::uint64_t kSendPeriodPs = 500'000;
/// Bytes in each of the script's two traffic phases.
constexpr std::uint64_t kPhaseBytes = 32;
/// The run's first DMA writes go outside every mapped window, where the bus
/// answers kError: the burst that opens the breaker (4 of 4 outcomes failed
/// crosses its 50% threshold at its 4-sample minimum).
constexpr std::uint64_t kBurstWrites = 4;
constexpr std::uint64_t kUnmappedOffset = 0x00F0'0000;
/// Slices end on whole microseconds; the horizon bounds the victim's run
/// and every slice loop, far past the ~90 us the script takes.
constexpr std::uint64_t kSlicePs = 1'000'000;
constexpr std::uint64_t kHorizonPs = 1000 * kSlicePs;

/// The first slice end: the whole microsecond at or after now().
std::uint64_t first_slice_end(const DegradedRig& rig) {
  return (rig.kernel.now().picoseconds() + kSlicePs - 1) / kSlicePs * kSlicePs;
}

/// The reference's recorded event log, written to `path` as one "index
/// at_ps process label" line per event when the seed fails: the forensic
/// artifact run_fleet preserves next to a failing seed's ladder. It writes
/// when it goes out of scope unless pass() was called, so every return
/// after the rig was built leaves the log as far as the rig ran, and a
/// passing seed writes none. Declare it after the rig, so it writes before
/// the rig is destroyed.
class EventLogOnFailure {
 public:
  EventLogOnFailure(std::filesystem::path path, const DegradedRig& rig)
      : path_(std::move(path)), rig_(rig) {}
  EventLogOnFailure(const EventLogOnFailure&) = delete;
  EventLogOnFailure& operator=(const EventLogOnFailure&) = delete;

  ~EventLogOnFailure() {
    if (passed_) return;
    std::error_code ec;
    std::filesystem::create_directories(path_.parent_path(), ec);
    std::ofstream out(path_);
    std::uint64_t index = 0;
    for (const sim::RecordedEvent& event : rig_.recorder.log()) {
      const std::string& label = rig_.kernel.process_label(event.process);
      out << index++ << ' ' << event.at_ps << ' ' << event.process << ' '
          << (label.empty() ? "?" : label) << '\n';
    }
  }

  void pass() { passed_ = true; }

 private:
  std::filesystem::path path_;
  const DegradedRig& rig_;
  bool passed_ = false;
};

/// Breaker closed, every unit healthy, no supervision work pending.
bool recovered(const DegradedRig& rig) {
  return rig.breaker.state() == sim::CircuitBreaker::State::kClosed &&
         rig.health.all_healthy() && rig.sup.quiescent();
}

/// All 64 bytes sent and drained, recovered() and the watchdog disarmed.
bool script_done(const DegradedRig& rig) {
  return rig.target >= 2 * kPhaseBytes && rig.sent >= rig.target &&
         rig.bus.pending_transactions() == 0 && recovered(rig) && !rig.watchdog.armed();
}

/// Runs the rig in run_to_stop's slices until the script's first phase has
/// drained and a capture at a slice end succeeds; the standalone snapshot
/// lands in `out`. False when none succeeds within the horizon.
bool run_to_save_point(DegradedRig& rig, std::string& out) {
  for (std::uint64_t end = first_slice_end(rig); end <= kHorizonPs; end += kSlicePs) {
    rig.kernel.run(sim::SimTime(end));
    if (rig.sent < kPhaseBytes || rig.bus.pending_transactions() != 0) continue;
    support::DiagnosticSink save_sink;
    if (replay::save_snapshot_binary(rig.targets(), out, save_sink)) return true;
  }
  return false;
}

/// The stop rule. Runs the rig in slices that end on whole microseconds of
/// absolute simulated time, the first at or after now(), and stops at the
/// first slice end where the script is done and `crash_ps` (the crash
/// victim's crash time) has passed. A twin restored anywhere on the
/// reference's timeline therefore stops exactly where the reference did.
/// Returns an empty string on success, else what was still open at the
/// horizon.
std::string run_to_stop(DegradedRig& rig, std::uint64_t crash_ps) {
  for (std::uint64_t end = first_slice_end(rig); end <= kHorizonPs; end += kSlicePs) {
    rig.kernel.run(sim::SimTime(end));
    if (end > crash_ps && script_done(rig)) return {};
  }
  return "script unfinished at " + sim::SimTime(kHorizonPs).str() +
         ": sent=" + std::to_string(rig.sent) + " target=" + std::to_string(rig.target) +
         " pending=" + std::to_string(rig.bus.pending_transactions()) +
         " breaker=" + std::string(sim::to_string(rig.breaker.state())) +
         " health=" + rig.health.str() + " sup=" + rig.sup.str();
}

/// Verifies a replayed twin against the reference run: recorded-event
/// divergence, counter-by-counter final state, health/supervision end
/// checks. Returns an empty string on success, else the failure naming
/// `leg`.
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

/// The rigs of one seed (see soak.hpp). Returns an empty string on success,
/// else the failure description; fills `outcome` with the seed's counters.
///
/// The job's fault_template picks the SoakTemplate every rig runs under,
/// and its attempt count drives the cross-process handoff: every attempt's
/// reference writes two handoff rungs (the t=0 base and the save point) to
/// the seed's scratch, and a re-dispatched attempt (attempt > 0) also
/// restores the newest rung a dead predecessor left behind and replays the
/// remainder under the verifier, proving resume-from-ladder.
std::string soak_seed_legs(const Model& model, const fleet::RigJob& job,
                           const std::filesystem::path& scratch,
                           fleet::RigOutcome& outcome) {
  support::DiagnosticSink sink;
  const std::uint64_t seed = job.seed;
  const SoakTemplate& faults = kSoakTemplates[job.fault_template % kSoakTemplateCount];

  namespace fs = std::filesystem;
  std::error_code ec;
  const fs::path seed_dir = scratch / ("seed-" + std::to_string(seed));
  // A dead predecessor's handoff rungs are set aside before the scratch is
  // wiped: this attempt's reference writes its own rungs in their place.
  const fs::path inherited_dir = scratch / ("seed-" + std::to_string(seed) + "-inherited");
  if (job.attempt > 0 && fs::exists(seed_dir / "handoff", ec)) {
    fs::remove_all(inherited_dir, ec);
    fs::rename(seed_dir / "handoff", inherited_dir, ec);
  }
  fs::remove_all(seed_dir, ec);
  fs::create_directories(seed_dir, ec);
  replay::CheckpointStore::WriteResult written;

  // --- Crash victim ----------------------------------------------------------
  // Simulated process death: the injector consults FaultSite::kCrash on its
  // own plan (NOT a snapshot target, so the rig's determinism is
  // unperturbed) and throws SimulatedCrash from inside a kernel process
  // while the coordinator checkpoints in the background. The crashed rig is
  // abandoned wholesale; the crash twin below recovers from its ladder.
  replay::CheckpointStoreConfig crash_config;
  crash_config.directory = seed_dir / "crash";
  crash_config.prefix = "crash";
  crash_config.full_interval = 4;
  crash_config.keep_fulls = 2;
  sim::FaultPlan crash_plan(seed ^ 0xDEADBEEFULL);
  sim::FaultPlan::SiteConfig crash_site;
  // Each tick dies with the template's crash probability ...
  crash_site.error_rate = faults.crash_rate;
  crash_site.max_faults = 1;  // ... and exactly one death per run.
  crash_plan.configure(sim::FaultSite::kCrash, crash_site);
  DegradedRig victim(model, faults, seed, sink, crash_config, &crash_plan);
  victim.start();
  // A clean base lands at time zero, before the injector's first tick, so
  // recovery is possible by construction however early the dice kill the
  // rig.
  support::DiagnosticSink crash_store_sink;
  if (!victim.store.checkpoint(victim.targets(), written, crash_store_sink)) {
    return "crash base checkpoint failed: " + crash_store_sink.str();
  }
  std::uint64_t crash_ps = 0;
  try {
    victim.kernel.run(sim::SimTime(kHorizonPs));
  } catch (const sim::SimulatedCrash& crash) {
    crash_ps = crash.at_ps;
  }
  if (crash_ps == 0) return "crash leg: injector never fired";

  // --- Reference -------------------------------------------------------------
  // Runs uninterrupted past the crash and writes every capture the twins
  // restore from; capturing has no side effect on the simulation.
  replay::CheckpointStoreConfig ladder_config;
  ladder_config.directory = seed_dir / "ladder";
  ladder_config.prefix = "soak";
  ladder_config.full_interval = 2;
  // The coordinator ticks about 1000 times within the horizon, so it writes
  // fewer bases than this and the clean base never rotates out.
  ladder_config.keep_fulls = 1000;
  // The corruption plan injects checkpoint-path faults (torn rungs, lost
  // appends, bit-flips) at FaultSite::kCheckpoint. It is deliberately NOT a
  // snapshot target, so the reference's own determinism is unperturbed.
  sim::FaultPlan corruption(seed ^ 0xC0FFEEULL);
  sim::FaultPlan::SiteConfig checkpoint_faults;
  checkpoint_faults.error_rate = 0.2;
  checkpoint_faults.drop_rate = 0.2;
  checkpoint_faults.bit_flip_rate = 0.2;
  corruption.configure(sim::FaultSite::kCheckpoint, checkpoint_faults);
  DegradedRig reference(model, faults, seed, sink, ladder_config);
  EventLogOnFailure reference_events(seed_dir / "reference-events.log", reference);
  reference.start();
  // Handoff rung 1: the t=0 base. Written on every attempt and in every
  // isolation mode — the writes feed the kernel's snapshot-encode counters,
  // which are fingerprinted, so they must happen unconditionally. A refusal
  // here is tolerated (and deterministic): the save-point rung below then
  // lands as the chain's full base instead.
  replay::CheckpointStoreConfig handoff_config;
  handoff_config.directory = seed_dir / "handoff";
  handoff_config.prefix = "handoff";
  handoff_config.full_interval = 2;
  handoff_config.keep_fulls = 2;
  replay::CheckpointStore handoff_store(handoff_config);
  support::DiagnosticSink store_sink;
  (void)handoff_store.checkpoint(reference.targets(), written, store_sink);
  // The ladder's first rung lands before the faults arm: a good base is
  // guaranteed, so every seed can recover no matter what the dice do later.
  if (!reference.store.checkpoint(reference.targets(), written, store_sink)) {
    return "clean base checkpoint failed: " + store_sink.str();
  }
  const std::uintmax_t clean_base_bytes = written.bytes;
  reference.store.install_fault_plan(&corruption);
  std::string snapshot;
  if (!run_to_save_point(reference, snapshot)) return "reference found no save point";
  // Handoff rung 2: the save point a successor resumes from. The state was
  // just proven checkpointable, so a failure here is a real bug.
  if (!handoff_store.checkpoint(reference.targets(), written, store_sink)) {
    return "handoff save-point checkpoint failed: " + store_sink.str();
  }
  if (std::string stall = run_to_stop(reference, crash_ps); !stall.empty()) {
    return "reference stalled: " + stall;
  }
  if (!reference.health.all_healthy()) {
    return "reference ended unhealthy: " + reference.health.str();
  }
  if (reference.link->errors_unhandled() != 0) return "reference left unhandled errors";
  if (reference.sup.gave_up()) {
    return "reference supervisor gave up: " + reference.sup.give_up_reason();
  }
  // The script's burst and starvation window must have taken the breaker,
  // the watchdog and the supervisor through a failure each.
  const sim::CircuitBreaker::Stats& breaker_stats = reference.breaker.stats();
  const std::uint64_t restarts = reference.sup.child_stats(reference.link_child).restarts;
  if (breaker_stats.opens == 0 || breaker_stats.closes == 0 || reference.watchdog.trips() == 0 ||
      restarts == 0) {
    return "reference skipped a failure: breaker opens=" + std::to_string(breaker_stats.opens) +
           " closes=" + std::to_string(breaker_stats.closes) +
           " watchdog trips=" + std::to_string(reference.watchdog.trips()) +
           " restarts=" + std::to_string(restarts);
  }
  const std::vector<sim::RecordedEvent>& reference_log = reference.recorder.log();

  // Every twin has restored a capture; it writes nothing and replays to the
  // stop rule under the verifier against the reference's log.
  const auto replay_twin = [&](DegradedRig& twin, const char* leg) {
    twin.coordinator.stop();
    twin.recorder.begin_verify(reference_log, twin.recorder.total_events());
    if (std::string stall = run_to_stop(twin, crash_ps); !stall.empty()) {
      return std::string(leg) + " twin stalled: " + stall;
    }
    return compare_final_state(reference, twin, leg);
  };

  // --- Restored twin ---------------------------------------------------------
  DegradedRig restored(model, faults, seed, sink);
  support::DiagnosticSink restore_sink;
  if (!replay::restore_snapshot_binary(restored.targets(), snapshot, restore_sink)) {
    return "restore failed: " + restore_sink.str();
  }
  if (std::string problem = replay_twin(restored, "restored"); !problem.empty()) {
    return problem;
  }

  // --- Ladder twin -----------------------------------------------------------
  // Crash-style tear of the newest rung first: the last byte of the newest
  // chain file holding a rung, its trailer's, is cut off. (A lost base
  // leaves its chain file empty.) Skipped when only the clean base landed:
  // tearing the sole rung would make recovery impossible by construction,
  // not by bug.
  std::vector<fs::path> chains;
  for (const auto& entry : fs::directory_iterator(ladder_config.directory, ec)) {
    if (entry.path().extension() == ".usnap" && entry.file_size(ec) > 0) {
      chains.push_back(entry.path());
    }
  }
  std::sort(chains.begin(), chains.end());  // Zero-padded names: seq order.
  if (!chains.empty()) {
    const std::uintmax_t newest_bytes = fs::file_size(chains.back(), ec);
    if (chains.size() > 1 || newest_bytes > clean_base_bytes) {
      fs::resize_file(chains.back(), newest_bytes - 1, ec);
    }
  }
  DegradedRig ladder(model, faults, seed, sink, ladder_config);
  support::DiagnosticSink recover_sink;
  if (!ladder.store.restore_latest_good(ladder.targets(), recover_sink)) {
    return "recovery ladder exhausted: " + recover_sink.str();
  }
  if (std::string problem = replay_twin(ladder, "ladder"); !problem.empty()) return problem;

  // --- Crash twin ------------------------------------------------------------
  // A fresh rig recovers from the victim's ladder through the coordinator and
  // must have lost no more work than the checkpoint cadence allows.
  DegradedRig crash_twin(model, faults, seed, sink, crash_config);
  support::DiagnosticSink crash_recover_sink;
  if (!crash_twin.coordinator.recover(crash_recover_sink)) {
    return "crash recovery ladder exhausted: " + crash_recover_sink.str();
  }
  const std::uint64_t restored_ps = crash_twin.kernel.now().picoseconds();
  if (restored_ps > crash_ps) return "crash leg: restored beyond the crash point";
  // Lost work is bounded by the checkpoint interval plus the refusal-retry
  // cadence (a due tick that finds the bus busy retries next tick).
  const replay::RecoveryPolicy& policy = crash_twin.coordinator.policy();
  const std::uint64_t lost_ps = crash_ps - restored_ps;
  const std::uint64_t lost_bound =
      policy.checkpoint_interval.picoseconds() + 2 * policy.tick_interval.picoseconds();
  if (lost_ps > lost_bound) {
    return "crash leg: lost work " + sim::SimTime(lost_ps).str() +
           " exceeds the checkpoint-interval bound " + sim::SimTime(lost_bound).str();
  }
  if (std::string problem = replay_twin(crash_twin, "crash"); !problem.empty()) return problem;

  // --- Cross-process handoff resume ------------------------------------------
  // Everything this twin produces lives in fingerprint-excluded fields
  // (resumed_from_seq) and its kernel stats are NOT reduced into the
  // outcome — whether a kill happened, and where, is host scheduling, not
  // simulation. An unrestorable inherited ladder (predecessor killed
  // mid-write on every rung) is not an error: the seed ran from scratch.
  if (job.attempt > 0 && fs::exists(inherited_dir, ec)) {
    replay::CheckpointStoreConfig inherited_config = handoff_config;
    inherited_config.directory = inherited_dir;
    DegradedRig resumed(model, faults, seed, sink, inherited_config);
    support::DiagnosticSink resume_sink;
    if (resumed.store.restore_latest_good(resumed.targets(), resume_sink)) {
      if (std::string problem = replay_twin(resumed, "handoff-resumed"); !problem.empty()) {
        return problem;
      }
      outcome.resumed_from_seq = resumed.store.stats().restored_seq;
    }
    fs::remove_all(inherited_dir, ec);
  }

  // --- SLO accounting for the fleet rollup -----------------------------------
  // Service numbers come from the uninterrupted reference: what the rig
  // delivered while taking the template's traffic faults through the
  // resilience stack.
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
  outcome.slo.restarts = restarts;
  outcome.slo.give_ups = reference.sup.gave_up() ? 1 : 0;
  outcome.slo.watchdog_trips = reference.watchdog.trips();
  outcome.slo.breaker_opens = breaker_stats.opens;
  outcome.slo.breaker_closes = breaker_stats.closes;
  outcome.slo.breaker_fast_failed = breaker_stats.fast_failed;
  // Recovery accounting from the two ladders and the twins that recovered
  // from them.
  outcome.slo.checkpoints_written =
      reference.store.stats().checkpoints + victim.store.stats().checkpoints;
  outcome.slo.checkpoint_write_faults = reference.store.stats().write_faults;
  outcome.slo.rungs_quarantined = ladder.store.stats().quarantines;
  outcome.slo.ladder_recoveries = 1;
  outcome.slo.crash_recoveries = 1;
  outcome.slo.lost_work_ps_max = lost_ps;
  outcome.health.add(reference.health);
  outcome.sim_time_ps = reference.kernel.now().picoseconds();
  for (const DegradedRig* rig : {&victim, &reference, &restored, &ladder, &crash_twin}) {
    fleet::reduce(outcome.kernel, rig->kernel.stats());
    outcome.events_processed += rig->kernel.events_processed();
  }

  if (sink.has_errors()) return "diagnostics: " + sink.str();
  reference_events.pass();
  fs::remove_all(seed_dir, ec);
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
    sink.error("soak", "hardware PSM missing ip.Uart");
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

DegradedRig::DegradedRig(const Model& model, const SoakTemplate& faults, std::uint64_t seed,
                         support::DiagnosticSink& sink, replay::CheckpointStoreConfig store_config,
                         sim::FaultPlan* crash_plan)
    : bus(kernel, "axi", sim::SimTime::ns(8)),
      uart(*model.psm_uart, *model.psm_profile, sink),
      plan(seed),
      dma_port(kernel, bus, "dma", port_policy()),
      pio_port(kernel, bus, "pio", port_policy()),
      breaker(kernel, dma_port, "dma", breaker_config()),
      link(compile_machine(model.link)),
      sup(kernel, "soc", sim::RestartStrategy::kOneForOne, sup_policy()),
      watchdog(kernel, "link-dog", sim::SimTime::us(50)),
      base(model.base),
      injector(kernel, crash_plan, sim::SimTime(kCrashTickPs)),
      store(std::move(store_config)),
      coordinator(kernel, store, targets(), coordinator_policy()) {
  uart.map_onto(bus, base);
  sim::FaultPlan::SiteConfig site;
  site.error_rate = faults.error_rate;
  site.drop_rate = faults.drop_rate;
  plan.configure(sim::FaultSite::kBusWrite, site);
  bus.install_fault_plan(&plan);
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
    breaker.write(base + (via_dma <= kBurstWrites ? kUnmappedOffset : 0), value, completion);
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

void DegradedRig::start() {
  kernel.schedule(sim::SimTime(kScriptTickPs), script);
  injector.start();
  coordinator.start();
}

void DegradedRig::script_tick() {
  // Chain first, unconditionally: a restored pending tick keeps driving.
  kernel.schedule(sim::SimTime(kScriptTickPs), script);
  if (target < kPhaseBytes) {
    target = kPhaseBytes;
  } else if (sent < target || bus.pending_transactions() != 0) {
    return;
  } else if (watchdog.trips() == 0) {
    return;  // Starve the watchdog: it trips and the supervisor restarts the link.
  } else if (target < 2 * kPhaseBytes) {
    target = 2 * kPhaseBytes;
  } else if (!recovered(*this)) {
    target = sent + 1;
  } else {
    if (watchdog.armed()) watchdog.disarm();
    return;
  }
  kernel.schedule(sim::SimTime(kSendPeriodPs), sender);
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
  }
  std::error_code cleanup_ec;
  fs::remove_all(scratch, cleanup_ec);
  return outcomes;
}

}  // namespace umlsoc::soak
