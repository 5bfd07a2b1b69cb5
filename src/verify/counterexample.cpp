#include "verify/counterexample.hpp"

#include "sim/kernel.hpp"
#include "sim/replay.hpp"

namespace umlsoc::verify {

std::string ReplayReport::str() const {
  std::string out = "replayed " + std::to_string(scheduled_steps) + " steps: ";
  out += reproduced ? "violation reproduced" : "violation NOT reproduced";
  out += schedule_verified ? ", schedule verified" : ", schedule NOT verified";
  if (!detail.empty()) out += " (" + detail + ")";
  return out;
}

namespace {

const Property* find_property(const std::vector<Property>& properties,
                              const std::string& name) {
  for (const Property& property : properties) {
    if (property.name() == name) return &property;
  }
  return nullptr;
}

/// One kernel-driven execution of the path. Fills `last_deltas`/`last_fired`
/// with the final step's movement for the reproduction check. The kernel and
/// its processes are constructed in identical order on every call, so
/// ProcessIds — and therefore the recorded event sequence — are comparable
/// across runs.
bool run_schedule(Network& network, const std::vector<statechart::InstanceSnapshot>& initial,
                  const Violation& violation, sim::EventRecorder& recorder,
                  std::vector<StepDelta>& last_deltas, bool& last_fired,
                  support::DiagnosticSink& sink) {
  if (!network.restore(initial, sink)) return false;
  sim::Kernel kernel;
  std::vector<sim::ProcessId> steps;
  steps.reserve(violation.path.size());
  for (std::size_t i = 0; i < violation.path.size(); ++i) {
    steps.push_back(kernel.register_process(
        [&network, &violation, &last_deltas, &last_fired, i] {
          last_deltas = network.deliver(violation.path[i]);
          last_fired = false;
          for (const StepDelta& delta : last_deltas) {
            last_fired |= delta.transitions_fired != 0;
          }
        },
        "verify.step#" + std::to_string(i) + ":" + network.label(violation.path[i])));
  }
  for (std::size_t i = 0; i < steps.size(); ++i) {
    kernel.schedule(sim::SimTime::ns(i + 1), steps[i]);
  }
  kernel.set_recorder(&recorder);
  kernel.run();
  return true;
}

}  // namespace

ReplayReport replay_counterexample(Network& network,
                                   const std::vector<statechart::InstanceSnapshot>& initial,
                                   const Violation& violation,
                                   const std::vector<Property>& properties,
                                   support::DiagnosticSink& sink) {
  ReplayReport report;
  report.scheduled_steps = violation.path.size();

  const Property* property = find_property(properties, violation.property);
  if (property == nullptr) {
    report.detail = "violated property '" + violation.property + "' not in property set";
    return report;
  }

  // Run 1: record the event schedule while re-executing the path.
  sim::EventRecorder reference;
  std::vector<StepDelta> last_deltas;
  bool last_fired = false;
  if (!run_schedule(network, initial, violation, reference, last_deltas, last_fired, sink)) {
    report.detail = "initial-state restore failed";
    return report;
  }

  // Reproduction check at the path's end state.
  if (property->kind() == Property::Kind::kState) {
    const EventChoice* step = violation.path.empty() ? nullptr : &violation.path.back();
    PropertyContext context{network, step, last_deltas, last_fired};
    report.reproduced = property->check(context).has_value();
    if (!report.reproduced) report.detail = "property held at the replayed end state";
  } else {
    // Deadlock: confirm no alphabet entry fires from the end state, then
    // re-judge the state itself.
    const std::vector<statechart::InstanceSnapshot> end_state = network.capture();
    bool any_fired = false;
    for (const EventChoice& choice : network.alphabet()) {
      if (!network.restore(end_state, sink)) {
        report.detail = "end-state restore failed";
        return report;
      }
      for (const StepDelta& delta : network.deliver(choice)) {
        any_fired |= delta.transitions_fired != 0;
      }
      if (any_fired) break;
    }
    if (!network.restore(end_state, sink)) {
      report.detail = "end-state restore failed";
      return report;
    }
    PropertyContext context{network, nullptr, {}, false};
    report.reproduced = !any_fired && property->check(context).has_value();
    if (!report.reproduced) report.detail = "end state is not a deadlock";
  }

  // Run 2: identical schedule under the replay verifier. Any divergence —
  // wrong process, wrong time, missing or extra event — is latched.
  sim::EventRecorder verifier;
  verifier.begin_verify(reference.log());
  std::vector<StepDelta> ignored_deltas;
  bool ignored_fired = false;
  if (!run_schedule(network, initial, violation, verifier, ignored_deltas, ignored_fired,
                    sink)) {
    report.detail = "verify-run restore failed";
    return report;
  }
  if (verifier.divergence().has_value()) {
    report.detail = verifier.divergence()->str();
  } else if (verifier.missing_events().has_value()) {
    report.detail = verifier.missing_events()->str();
  } else {
    report.schedule_verified = true;
  }
  return report;
}

interaction::Trace counterexample_trace(const Network& network, const Violation& violation) {
  interaction::Trace trace;
  trace.reserve(violation.path.size());
  for (const EventChoice& choice : violation.path) {
    trace.push_back(network.label(choice));
  }
  return trace;
}

std::unique_ptr<interaction::Interaction> counterexample_interaction(
    const Network& network, const Violation& violation) {
  return interaction::interaction_from_trace("counterexample:" + violation.property,
                                             counterexample_trace(network, violation));
}

}  // namespace umlsoc::verify
