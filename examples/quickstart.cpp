// Quickstart: build a small UML model with an executable state machine,
// run it, validate it, and print the diagrams as PlantUML.
//
//   $ ./example_quickstart
#include <cstdio>

#include "codegen/plantuml.hpp"
#include "statechart/compile.hpp"
#include "statechart/validate.hpp"
#include "uml/validate.hpp"
#include "xmi/serialize.hpp"

using namespace umlsoc;

int main() {
  // 1. A structural model: one package, one class with an attribute.
  uml::Model model("Blinky");
  uml::Package& pkg = model.add_package("app");
  uml::Class& blinker = pkg.add_class("Blinker");
  blinker.set_active(true);
  blinker.add_property("blink_count", &model.primitive("Integer", 32))
      .set_default_value("0");

  support::DiagnosticSink sink;
  if (!uml::validate(model, sink)) {
    std::fputs(sink.str().c_str(), stderr);
    return 1;
  }

  // 2. A behavior: Off <-> On state machine attached to the class.
  statechart::StateMachine machine("BlinkerBehavior");
  machine.set_context(blinker);
  statechart::Region& top = machine.top();
  statechart::Pseudostate& initial = top.add_initial();
  statechart::State& off = top.add_state("Off");
  statechart::State& on = top.add_state("On");
  top.add_transition(initial, off);
  top.add_transition(off, on).set_trigger("toggle").set_effect(
      "blink_count := blink_count + 1", [](statechart::ActionContext& ctx) {
        ctx.instance.set_variable("blink_count",
                                  ctx.instance.variable("blink_count") + 1);
      });
  top.add_transition(on, off).set_trigger("toggle");

  if (!statechart::validate(machine, sink)) {
    std::fputs(sink.str().c_str(), stderr);
    return 1;
  }

  // 3. Compile it to plan tables and execute it.
  const std::unique_ptr<statechart::CompiledMachine> instance =
      statechart::compile(machine, sink);
  if (instance == nullptr) {
    std::fputs(sink.str().c_str(), stderr);
    return 1;
  }
  instance->start();
  for (int i = 0; i < 5; ++i) instance->dispatch({"toggle"});
  std::printf("after 5 toggles: state=%s blink_count=%lld\n",
              instance->active_leaf_names().front().c_str(),
              static_cast<long long>(instance->variable("blink_count")));

  // 4. Diagrams as PlantUML text.
  std::printf("\n--- class diagram ---\n%s",
              codegen::to_plantuml_class_diagram(model).c_str());
  std::printf("\n--- state machine ---\n%s",
              codegen::to_plantuml_statechart(machine).c_str());

  // 5. Persist and re-load through XMI.
  std::string xmi_text = xmi::write_model(model);
  support::DiagnosticSink read_sink;
  std::unique_ptr<uml::Model> reread = xmi::read_model(xmi_text, read_sink);
  std::printf("\nXMI round-trip: %s (%zu elements)\n",
              reread != nullptr ? "ok" : "FAILED",
              reread != nullptr ? reread->element_count() : 0);
  return reread != nullptr ? 0 : 1;
}
