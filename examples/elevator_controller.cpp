// Elevator controller: hierarchical state machine with history and ASL
// effects, use-case + sequence-diagram views, and MSC conformance checking
// of the actual execution trace against the specified interaction.
//
//   $ ./example_elevator_controller
#include <cstdio>

#include "codegen/plantuml.hpp"
#include "interaction/trace.hpp"
#include "statechart/compile.hpp"
#include "statechart/validate.hpp"
#include "usecase/model.hpp"

using namespace umlsoc;

namespace {

/// Operating { Moving { Up | Down }, DoorsOpen } + Maintenance with history.
std::unique_ptr<statechart::StateMachine> build_machine() {
  auto machine = std::make_unique<statechart::StateMachine>("Elevator");
  statechart::Region& top = machine->top();
  statechart::Pseudostate& initial = top.add_initial();

  statechart::State& operating = top.add_state("Operating");
  statechart::State& maintenance = top.add_state("Maintenance");
  top.add_transition(initial, operating);
  top.add_transition(operating, maintenance).set_trigger("service_key");

  statechart::Region& op_region = operating.add_region("r");
  // History lives inside the composite's region (UML): resuming re-enters
  // Operating exactly where the service interrupt left it.
  statechart::Pseudostate& history =
      op_region.add_pseudostate(statechart::VertexKind::kDeepHistory, "H");
  top.add_transition(maintenance, history).set_trigger("resume");
  statechart::Pseudostate& op_initial = op_region.add_initial();
  statechart::State& idle = op_region.add_state("Idle");
  statechart::State& moving = op_region.add_state("Moving");
  statechart::State& doors = op_region.add_state("DoorsOpen");
  op_region.add_transition(op_initial, idle);
  op_region.add_transition(idle, moving)
      .set_trigger("call")
      .set_effect("floors := floors + data", [](statechart::ActionContext& ctx) {
        ctx.instance.set_variable("pending",
                                  ctx.instance.variable("pending") + ctx.event->data);
      });
  op_region.add_transition(moving, doors).set_trigger("arrived");
  op_region.add_transition(doors, idle).set_trigger("door_timeout");

  statechart::Region& mv_region = moving.add_region("dir");
  statechart::Pseudostate& mv_initial = mv_region.add_initial();
  statechart::State& up = mv_region.add_state("Up");
  statechart::State& down = mv_region.add_state("Down");
  mv_region.add_transition(mv_initial, up);
  mv_region.add_transition(up, down).set_trigger("reverse");
  mv_region.add_transition(down, up).set_trigger("reverse");
  return machine;
}

}  // namespace

int main() {
  support::DiagnosticSink sink;
  auto machine = build_machine();
  if (!statechart::validate(*machine, sink)) {
    std::fputs(sink.str().c_str(), stderr);
    return 1;
  }

  // Use case view.
  usecase::UseCaseModel use_cases("ElevatorSystem");
  usecase::Actor& passenger = use_cases.add_actor("Passenger");
  usecase::Actor& technician = use_cases.add_actor("Technician");
  usecase::UseCase& ride = use_cases.add_use_case("RideToFloor");
  usecase::UseCase& service = use_cases.add_use_case("ServiceElevator");
  ride.add_actor(passenger);
  service.add_actor(technician);
  service.add_extend(ride, "service key turned");
  usecase::validate(use_cases, sink);
  std::printf("--- use case diagram ---\n%s\n",
              codegen::to_plantuml_use_cases(use_cases).c_str());

  // The specified interaction for RideToFloor (MSC).
  interaction::Interaction spec("RideToFloor");
  interaction::Lifeline& user = spec.add_lifeline("Passenger");
  interaction::Lifeline& cab = spec.add_lifeline("Elevator");
  spec.add_message(user, cab, "call");
  interaction::Fragment& loop = spec.add_combined(interaction::InteractionOperator::kLoop);
  loop.set_loop_bounds(0, -1);
  loop.add_operand().add_message(user, cab, "reverse");
  spec.add_message(cab, user, "arrived");
  ride.add_scenario(spec);
  std::printf("--- sequence diagram ---\n%s\n",
              codegen::to_plantuml_sequence(spec).c_str());

  // Compile the machine to plan tables, execute it and record the
  // externally visible trace.
  const std::unique_ptr<statechart::CompiledMachine> compiled =
      statechart::compile(*machine, sink);
  if (compiled == nullptr) {
    std::fputs(sink.str().c_str(), stderr);
    return 1;
  }
  statechart::Engine& instance = *compiled;
  instance.start();
  interaction::Trace observed;
  auto drive = [&](const char* event, std::int64_t data = 0) {
    instance.dispatch({event, data});
    if (std::string(event) == "call") observed.push_back("Passenger->Elevator:call");
    if (std::string(event) == "reverse") observed.push_back("Passenger->Elevator:reverse");
    if (std::string(event) == "arrived") observed.push_back("Elevator->Passenger:arrived");
  };
  drive("call", 3);
  drive("reverse");
  drive("reverse");
  drive("arrived");

  std::printf("active configuration after ride: ");
  for (const std::string& leaf : instance.active_leaf_names()) {
    std::printf("%s ", leaf.c_str());
  }
  std::printf("(pending floors: %lld)\n",
              static_cast<long long>(instance.variable("pending")));

  // MSC conformance: the observed trace must match the specification.
  interaction::ConformanceChecker checker(spec);
  const bool conforms = checker.conforms(observed);
  std::printf("observed trace conforms to RideToFloor spec: %s\n",
              conforms ? "yes" : "NO");

  // Deep history demo: service interrupt in the middle of a ride.
  instance.dispatch({"door_timeout"});      // Back to Idle first.
  instance.dispatch({"call", 5});
  instance.dispatch({"reverse"});           // Now Moving.Down.
  instance.dispatch({"service_key"});       // Maintenance.
  const bool suspended = instance.is_in("Maintenance");
  instance.dispatch({"resume"});            // Deep history restores Down.
  std::printf("service interrupt: suspended=%s, resumed into Down=%s\n",
              suspended ? "yes" : "no", instance.is_in("Down") ? "yes" : "NO");

  std::printf("\n--- statechart ---\n%s",
              codegen::to_plantuml_statechart(*machine).c_str());
  return conforms && instance.is_in("Down") ? 0 : 1;
}
