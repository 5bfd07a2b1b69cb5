#include "rig.hpp"

#include "replay/snapshot.hpp"
#include "soc/validate.hpp"
#include "statechart/compile.hpp"
#include "statechart/interpreter.hpp"
#include "trace.hpp"
#include "uml/query.hpp"

namespace perfbench {

namespace {

/// Outside every mapped window: writes here complete with a decode error,
/// which is how the script produces its deterministic DMA error burst.
constexpr std::uint64_t kUnmappedOffset = 0x00F0'0000;

using Values = std::vector<std::pair<std::string, std::uint64_t>>;

/// Snapshot bank over named counters: capture reads them, restore writes
/// them back (unknown keys are an error).
replay::ValueBank counter_bank(std::string name,
                               std::vector<std::pair<const char*, std::uint64_t*>> fields) {
  replay::ValueBank bank;
  bank.name = std::move(name);
  bank.capture = [fields] {
    Values values;
    for (const auto& [key, field] : fields) values.emplace_back(key, *field);
    return values;
  };
  bank.restore = [fields, bank_name = bank.name](const Values& values,
                                                 support::DiagnosticSink& sink) {
    for (const auto& [key, value] : values) {
      bool known = false;
      for (const auto& [field_key, field] : fields) {
        if (key == field_key) {
          *field = value;
          known = true;
        }
      }
      if (!known) {
        sink.error(bank_name, "unknown counter '" + key + "'");
        return false;
      }
    }
    return true;
  };
  return bank;
}

replay::ValueBank port_bank(std::string name, sim::BusMasterPort& port) {
  replay::ValueBank bank;
  bank.name = std::move(name);
  bank.capture = [&port] {
    const sim::BusMasterPort::Stats& s = port.stats();
    return Values{{"transactions", s.transactions}, {"timeouts", s.timeouts},
                  {"retries", s.retries},           {"exhausted", s.exhausted},
                  {"recovered", s.recovered},       {"late", s.late_completions}};
  };
  bank.restore = [&port, bank_name = bank.name](const Values& values,
                                                support::DiagnosticSink& sink) {
    sim::BusMasterPort::Stats s;
    for (const auto& [key, value] : values) {
      if (key == "transactions") {
        s.transactions = value;
      } else if (key == "timeouts") {
        s.timeouts = value;
      } else if (key == "retries") {
        s.retries = value;
      } else if (key == "exhausted") {
        s.exhausted = value;
      } else if (key == "recovered") {
        s.recovered = value;
      } else if (key == "late") {
        s.late_completions = value;
      } else {
        sink.error(bank_name, "unknown counter '" + key + "'");
        return false;
      }
    }
    port.restore_checkpoint(s);
    return true;
  };
  return bank;
}

sim::RetryPolicy port_policy(const RigConfig& config) {
  sim::RetryPolicy policy;
  policy.timeout = config.port_timeout;
  policy.max_attempts = config.port_timeout.picoseconds() == 0 ? 1 : 2;
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

sim::RestartPolicy restart_policy() {
  sim::RestartPolicy policy;
  policy.backoff = sim::SimTime::ns(100);
  policy.max_restarts = 8;
  policy.window = sim::SimTime::us(200);
  return policy;
}

/// UartLink: Normal <-> Fallback on breaker_open/breaker_closed, Dead on
/// supervisor_give_up; every other supervision signal is absorbed, so an
/// unhandled error event means a signal nobody modelled.
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
    for (statechart::State* state : {&normal, &fallback, &dead}) {
      top.add_transition(*state, *state).set_trigger(event).set_internal(true);
    }
  }
  top.add_transition(normal, normal).set_trigger("breaker_closed").set_internal(true);
  top.add_transition(fallback, fallback).set_trigger("breaker_open").set_internal(true);
  for (const char* event : {"breaker_open", "breaker_closed", "supervisor_give_up"}) {
    top.add_transition(dead, dead).set_trigger(event).set_internal(true);
  }
}

}  // namespace

std::unique_ptr<statechart::Engine> make_engine(const statechart::StateMachine& machine,
                                                bool* fell_back) {
  Span span("statechart.compile");
  support::DiagnosticSink sink;
  if (std::unique_ptr<statechart::CompiledMachine> compiled = statechart::compile(machine, sink)) {
    return compiled;
  }
  if (fell_back != nullptr) *fell_back = true;
  return std::make_unique<statechart::StateMachineInstance>(machine);
}

bool SocModel::build(support::DiagnosticSink& sink) {
  library.add_standard_ips();
  uml::Package& ip = pim.add_package("ip");
  if (library.instantiate("Uart", pim, ip, "Uart", sink) == nullptr) return false;
  const std::optional<soc::SocProfile> pim_profile = soc::SocProfile::find(pim);
  if (!pim_profile.has_value()) return false;
  soc::validate_soc(pim, *pim_profile, sink);
  {
    Span span("mda.transform");
    hw = mda::transform(pim, mda::PlatformDescription::hardware(), sink);
  }
  if (hw->psm == nullptr) return false;
  profile = soc::SocProfile::find(*hw->psm);
  psm_uart = dynamic_cast<const uml::Component*>(
      uml::find_by_qualified_name(*hw->psm, "ip.Uart"));
  if (psm_uart == nullptr || !profile.has_value()) {
    sink.error("perfbench", "hardware PSM has no ip.Uart");
    return false;
  }
  if (!hw->memory_map.empty()) base = hw->memory_map.front().base;
  build_link_machine(link);
  return !sink.has_errors();
}

SocRig::SocRig(const SocModel& model, const RigConfig& config, std::uint64_t seed,
               support::DiagnosticSink& sink)
    : bus(kernel, "axi", sim::SimTime::ns(8)),
      uart(*model.psm_uart, *model.profile, sink),
      plan(seed),
      dma_port(kernel, bus, "dma", port_policy(config)),
      pio_port(kernel, bus, "pio", port_policy(config)),
      breaker(kernel, dma_port, "dma", breaker_config()),
      link(make_engine(model.link, &fell_back)),
      sup(kernel, "soc", sim::RestartStrategy::kOneForOne, restart_policy()),
      watchdog(kernel, "link-dog", sim::SimTime::us(50)),
      config_(config),
      base_(model.base) {
  uart.map_onto(bus, base_);
  sim::FaultPlan::SiteConfig site;
  site.error_rate = config.error_rate;
  site.drop_rate = config.drop_rate;
  plan.configure(sim::FaultSite::kBusWrite, site);
  bus.install_fault_plan(&plan);
  link->set_trace_enabled(false);
  link->start();
  // The known-good restart point: the just-started link.
  link_restart = replay::restart_from_snapshot(*link, sink);
  dma_unit = health.register_unit("dma");
  link_unit = health.register_unit("uart-link");
  breaker.bind_health(&health, dma_unit);
  breaker.set_error_emitter(
      [this](const std::string& event, std::int64_t) { dispatch_error(event); });
  link_child = sup.add_child("uart-link", [this] {
    Span span("sim.restart");
    const bool ok = link_restart == nullptr || link_restart();
    breaker.force_closed();  // A restart power-cycles the DMA channel too.
    return ok;
  });
  sup.attach_watchdog(link_child, watchdog);
  sup.bind_child_health(link_child, health, link_unit);
  sup.set_error_emitter(
      [this](const std::string& event, std::int64_t) { dispatch_error(event); });
  sender = kernel.register_process([this] { send_tick(); }, "cpu.sender");
  script = kernel.register_process([this] { script_tick(); }, "soak.script");
  kernel.set_recorder(&recorder);
  // Armed at construction: a restored rig re-arms before the snapshot
  // replaces the kernel's expectation registry.
  watchdog.arm();
}

void SocRig::dispatch_error(const std::string& event) {
  Span span("statechart.dispatch");
  ++dispatches;
  link->dispatch_error(statechart::Event(event));
}

void SocRig::send_tick() {
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
  {
    Span span("sim.bus_write");
    // Half-open routes through the breaker: that request is the probe.
    if (breaker.state() == sim::CircuitBreaker::State::kOpen) {
      ++via_pio;
      pio_port.write(base_, value, completion);
    } else {
      ++via_dma;
      const std::uint64_t address = via_dma <= config_.burst ? base_ + kUnmappedOffset : base_;
      breaker.write(address, value, completion);
    }
  }
  if (sent < target) kick();
}

void SocRig::script_tick() {
  if (stage == kDone) return;
  kernel.schedule(sim::SimTime(kTickPs), script);
  const bool drained = sent >= target && bus.pending_transactions() == 0;
  switch (stage) {
    case kStart:
      stage = kPhase1;
      target = kPhase1Bytes;
      kick();
      return;
    case kPhase1:
    case kPhase2:
      if (!drained) return;
      if (!recovered()) {
        // One keepalive byte, routed around an open breaker, so simulated
        // time advances through open durations and restart backoffs.
        target = sent + 1;
        kick();
        return;
      }
      if (stage == kPhase1) {
        stage = kStarving;
        starve_until_ps = kernel.now().picoseconds() + kStarvePs;
      } else {
        watchdog.disarm();
        stage = kDone;
      }
      return;
    case kStarving:
      if (kernel.now().picoseconds() < starve_until_ps) return;
      stage = kPhase2;
      target = config_.total;
      kick();
      return;
    default:
      return;
  }
}

bool SocRig::recovered() const {
  return breaker.state() == sim::CircuitBreaker::State::kClosed && health.all_healthy() &&
         sup.quiescent();
}

void SocRig::run(sim::SimTime end, const char* span_name) {
  const std::uint64_t before = kernel.events_processed();
  struct Count {
    SocRig& rig;
    std::uint64_t before;
    ~Count() { rig.events_executed += rig.kernel.events_processed() - before; }
  } count{*this, before};
  Span span(span_name);
  kernel.run(end);
}

void SocRig::drain() {
  // run(end) leaves now() at the last executed event, so step an explicit
  // horizon forward.
  sim::SimTime end = kernel.now();
  for (int step = 0; step < 1000 && bus.pending_transactions() != 0; ++step) {
    end = end + sim::SimTime::ns(4);
    run(end);
  }
}

std::string SocRig::check_end_state(const char* leg) const {
  const std::string prefix = std::string(leg) + ": ";
  if (!done()) return prefix + "script did not finish (stage " + std::to_string(stage) + ")";
  if (!health.all_healthy()) return prefix + "ended unhealthy: " + health.str();
  if (link->errors_unhandled() != 0) return prefix + "left unhandled error events";
  if (sup.gave_up()) return prefix + "supervisor gave up: " + sup.give_up_reason();
  const sim::CircuitBreaker::Stats& b = breaker.stats();
  if (b.opens == 0 || b.closes == 0 || b.probes == 0) {
    return prefix + "breaker never cycled open -> half-open -> closed";
  }
  if (via_pio == 0) return prefix + "no byte fell back to PIO";
  if (watchdog.trips() == 0) return prefix + "watchdog never tripped";
  if (sup.child_stats(link_child).restarts == 0) return prefix + "link never restarted";
  return {};
}

replay::SnapshotTargets SocRig::targets() {
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
  out.banks.push_back({"uart", [this] { return uart.capture_values(); },
                       [this](const Values& values, support::DiagnosticSink& sink) {
                         return uart.restore_values(values, sink);
                       }});
  out.banks.push_back(port_bank("dma-port", dma_port));
  out.banks.push_back(port_bank("pio-port", pio_port));
  out.banks.push_back(counter_bank(
      "traffic", {{"stage", &stage},       {"starve-until", &starve_until_ps},
                  {"target", &target},     {"sent", &sent},
                  {"delivered", &delivered}, {"via-dma", &via_dma},
                  {"via-pio", &via_pio},   {"lost", &lost}}));
  return out;
}

std::string compare_final_state(const SocRig& reference, const SocRig& twin,
                                const char* leg) {
  if (twin.recorder.divergence().has_value()) {
    return std::string(leg) + ": replay divergence: " + twin.recorder.divergence()->str();
  }
  if (const auto missing = twin.recorder.missing_events(); missing.has_value()) {
    return std::string(leg) + ": replay stopped short: " + missing->str();
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
      {"watchdog-trips", reference.watchdog.trips(), twin.watchdog.trips()},
      {"restarts", reference.sup.child_stats(reference.link_child).restarts,
       twin.sup.child_stats(twin.link_child).restarts},
  };
  for (const Check& check : checks) {
    if (check.reference != check.twin) {
      return std::string(leg) + ": " + check.label + " mismatch: reference=" +
             std::to_string(check.reference) + " got=" + std::to_string(check.twin);
    }
  }
  return twin.check_end_state(leg);
}

}  // namespace perfbench
