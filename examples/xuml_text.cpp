// Executable UML, end to end in model text: a vending-machine statechart
// whose guards and effects are ASL strings, persisted to XMI, re-read, bound
// and executed — no behavior is expressed in C++ anywhere.
//
//   $ ./example_xuml_text
#include <cstdio>

#include "codegen/asl_binding.hpp"
#include "codegen/plantuml.hpp"
#include "statechart/compile.hpp"
#include "xmi/behavior.hpp"

using namespace umlsoc;

namespace {

std::unique_ptr<statechart::StateMachine> author_machine() {
  auto machine = std::make_unique<statechart::StateMachine>("Vending");
  statechart::Region& top = machine->top();
  statechart::Pseudostate& initial = top.add_initial();
  statechart::State& idle = top.add_state("Idle");
  statechart::State& paid = top.add_state("Paid");
  statechart::State& vending = top.add_state("Vending");
  top.add_transition(initial, idle);

  // All behavior as ASL text — this is the entire "program".
  top.add_transition(idle, idle)
      .set_trigger("coin")
      .set_internal(true)
      .set_effect(statechart::Behavior{"self.credit := self.credit + data;", nullptr});
  top.add_transition(idle, paid)
      .set_trigger("select")
      .set_guard(statechart::Guard{"self.credit >= 150", nullptr})
      .set_effect(statechart::Behavior{
          "self.credit := self.credit - 150; self.item := data;", nullptr});
  top.add_transition(idle, idle)
      .set_trigger("select")
      .set_guard(statechart::Guard{"self.credit < 150", nullptr})
      .set_effect(
          statechart::Behavior{"send Display.show(\"insufficient credit\");", nullptr});
  top.add_transition(paid, vending)
      .set_effect(statechart::Behavior{"send Motor.dispense(self.item);", nullptr});
  top.add_transition(vending, idle)
      .set_trigger("dispensed")
      .set_effect(statechart::Behavior{
          "self.served := self.served + 1; send Display.show(\"enjoy\");", nullptr});
  return machine;
}

}  // namespace

int main() {
  // 1. Author and persist the fully textual model.
  auto authored = author_machine();
  std::string xmi_text = xmi::write_state_machine(*authored);
  std::printf("--- persisted machine (%zu bytes of XMI) ---\n%s\n", xmi_text.size(),
              xmi_text.c_str());

  // 2. A "different tool" reads it back and binds the text to execution.
  support::DiagnosticSink sink;
  auto machine = xmi::read_state_machine(xmi_text, sink);
  if (machine == nullptr) {
    std::fputs(sink.str().c_str(), stderr);
    return 1;
  }
  asl::MapObject vending_object;
  if (!codegen::bind_statechart_asl(*machine, vending_object, sink)) {
    std::fputs(sink.str().c_str(), stderr);
    return 1;
  }

  // 3. Compile the bound machine and run a purchase.
  const std::unique_ptr<statechart::CompiledMachine> instance =
      statechart::compile(*machine, sink);
  if (instance == nullptr) {
    std::fputs(sink.str().c_str(), stderr);
    return 1;
  }
  instance->start();
  instance->dispatch({"select", 3});  // Not enough credit.
  instance->dispatch({"coin", 100});
  instance->dispatch({"coin", 100});
  instance->dispatch({"select", 7});  // Item 7; completion goes to Vending.
  instance->dispatch({"dispensed"});

  std::printf("state: %s, credit: %s, served: %s\n",
              instance->active_leaf_names().front().c_str(),
              vending_object.get_attribute("credit").str().c_str(),
              vending_object.get_attribute("served").str().c_str());
  std::printf("signals sent by the model:\n");
  for (const asl::MapObject::SentSignal& signal : vending_object.sent_signals()) {
    std::printf("  %s.%s(", signal.target.c_str(), signal.signal.c_str());
    for (std::size_t i = 0; i < signal.arguments.size(); ++i) {
      std::printf("%s%s", i != 0 ? ", " : "", signal.arguments[i].str().c_str());
    }
    std::printf(")\n");
  }

  std::printf("\n--- diagram ---\n%s", codegen::to_plantuml_statechart(*machine).c_str());
  const bool ok = instance->is_in("Idle") &&
                  vending_object.get_attribute("credit").as_int() == 50 &&
                  vending_object.get_attribute("served").as_int() == 1;
  std::printf("\n%s\n", ok ? "PASS" : "FAIL");
  return ok ? 0 : 1;
}
