// Code generation tests: PlantUML emitters, RTL, SystemC-style C++, SW C++
// with ASL translation, and the runtime HW model + SW driver bridge.
#include <gtest/gtest.h>

#include <map>
#include <regex>
#include <sstream>

#include "activity/synthetic.hpp"
#include "codegen/hwmodel.hpp"
#include "codegen/plantuml.hpp"
#include "uml/instance.hpp"
#include "codegen/rtl.hpp"
#include "codegen/software.hpp"
#include "codegen/swruntime.hpp"
#include "codegen/systemc.hpp"
#include "statechart/compile.hpp"
#include "statechart/interpreter.hpp"
#include "statechart/synthetic.hpp"
#include "support/rng.hpp"
#include "support/strings.hpp"

namespace umlsoc::codegen {
namespace {

void expect_contains(const std::string& haystack, const std::string& needle) {
  EXPECT_NE(haystack.find(needle), std::string::npos)
      << "missing '" << needle << "' in:\n"
      << haystack;
}

/// Small profiled «HwModule» used across the RTL/SystemC/runtime tests.
struct HwFixture {
  uml::Model model{"M"};
  soc::SocProfile profile = soc::SocProfile::install(model);
  uml::Class* uart = nullptr;

  HwFixture() {
    uart = &model.add_package("hw").add_class("Uart");
    uart->apply_stereotype(*profile.hw_module);
    auto reg = [&](const char* name, const char* addr, const char* access,
                   const char* reset = "0") {
      uml::Property& property = uart->add_property(name, &model.primitive("Word", 32));
      property.apply_stereotype(*profile.hw_register);
      property.set_tagged_value(*profile.hw_register, "address", addr);
      property.set_tagged_value(*profile.hw_register, "access", access);
      property.set_tagged_value(*profile.hw_register, "reset", reset);
    };
    reg("tx_data", "0x0", "w");
    reg("status", "0x4", "r", "1");
    reg("divisor", "0x8", "rw", "16");
    uart->add_port("clk", uml::PortDirection::kIn).apply_stereotype(*profile.clock);
    uart->add_port("rst_n", uml::PortDirection::kIn);
    uart->add_port("rx", uml::PortDirection::kIn);
    uart->add_port("tx", uml::PortDirection::kOut);
  }
};

// --- PlantUML ------------------------------------------------------------------

TEST(PlantUml, ClassDiagram) {
  uml::Model model("M");
  uml::Package& pkg = model.add_package("p");
  uml::Interface& iface = pkg.add_interface("IRun");
  iface.add_operation("run");
  uml::Class& base = pkg.add_class("Base");
  base.set_abstract(true);
  uml::Class& derived = pkg.add_class("Derived");
  derived.add_generalization(base);
  derived.add_interface_realization(iface);
  derived.add_property("count", &model.primitive("Integer", 32)).set_default_value("0");
  derived.add_operation("step").add_parameter("n", &model.primitive("Integer", 32));
  uml::Enumeration& mode = pkg.add_enumeration("Mode");
  mode.add_literal("ON");
  uml::Association& assoc = pkg.add_association("owns");
  assoc.add_end("parent", base);
  assoc.add_end("child", derived).set_multiplicity({0, uml::Multiplicity::kUnlimited});

  std::string text = to_plantuml_class_diagram(model);
  expect_contains(text, "@startuml");
  expect_contains(text, "abstract class Base");
  expect_contains(text, "class Derived");
  expect_contains(text, "count : Integer = 0");
  expect_contains(text, "step(n : Integer)");
  expect_contains(text, "interface IRun");
  expect_contains(text, "enum Mode");
  expect_contains(text, "Base <|-- Derived");
  expect_contains(text, "IRun <|.. Derived");
  expect_contains(text, "\"1\" -- \"*\"");
  expect_contains(text, "@enduml");
}

TEST(PlantUml, StereotypesShown) {
  HwFixture f;
  std::string text = to_plantuml_class_diagram(f.model);
  expect_contains(text, "class Uart <<HwModule>>");
}

TEST(PlantUml, ObjectDiagram) {
  uml::Model model("M");
  uml::Package& pkg = model.add_package("p");
  uml::Class& node = pkg.add_class("Node");
  uml::Property& value = node.add_property("value", &model.primitive("Integer", 32));
  uml::Property& next = node.add_property("next", &node);
  uml::InstanceSpecification& a = pkg.add_instance("a", &node);
  uml::InstanceSpecification& b = pkg.add_instance("b", &node);
  a.set_slot(value, "1");
  a.set_slot_reference(next, b);

  std::string text = to_plantuml_object_diagram(model);
  expect_contains(text, "object a : Node");
  expect_contains(text, "value = 1");
  expect_contains(text, "a --> b : next");
}

TEST(PlantUml, Statechart) {
  auto machine = statechart::make_nested_machine(2, 2);
  std::string text = to_plantuml_statechart(*machine);
  expect_contains(text, "state c_L0 {");
  expect_contains(text, "[*] -->");
  expect_contains(text, ": step");
}

TEST(PlantUml, Activity) {
  auto activity = activity::make_fork_join(2, 1);
  std::string text = to_plantuml_activity(*activity);
  expect_contains(text, "(*) --> \"fork\"");
  expect_contains(text, "\"join\" --> (*)");
}

TEST(PlantUml, Sequence) {
  interaction::Interaction diagram("hs");
  interaction::Lifeline& a = diagram.add_lifeline("Cpu");
  interaction::Lifeline& b = diagram.add_lifeline("Bus");
  diagram.add_message(a, b, "req", interaction::MessageKind::kSync);
  interaction::Fragment& alt = diagram.add_combined(interaction::InteractionOperator::kAlt);
  alt.add_operand("ok").add_message(b, a, "ack", interaction::MessageKind::kReply);
  alt.add_operand("else").add_message(b, a, "nak", interaction::MessageKind::kReply);

  std::string text = to_plantuml_sequence(diagram);
  expect_contains(text, "participant Cpu");
  expect_contains(text, "Cpu -> Bus : req");
  expect_contains(text, "alt ok");
  expect_contains(text, "else else");
  expect_contains(text, "end");
}

TEST(PlantUml, UseCases) {
  usecase::UseCaseModel model("Soc");
  usecase::Actor& user = model.add_actor("Designer");
  usecase::UseCase& edit = model.add_use_case("Edit");
  usecase::UseCase& save = model.add_use_case("Save");
  edit.add_actor(user);
  edit.add_include(save);
  std::string text = to_plantuml_use_cases(model);
  expect_contains(text, "actor Designer");
  expect_contains(text, "usecase \"Edit\"");
  expect_contains(text, "Designer --> Edit");
  expect_contains(text, "Edit ..> Save : <<include>>");
}

// --- RTL --------------------------------------------------------------------------

TEST(Rtl, ModuleWithRegisterFile) {
  HwFixture f;
  support::DiagnosticSink sink;
  std::string text = generate_rtl_module(*f.uart, f.profile, sink);
  EXPECT_FALSE(sink.has_errors()) << sink.str();
  expect_contains(text, "module uart (");
  expect_contains(text, "input  wire         clk");
  expect_contains(text, "output wire         tx");
  expect_contains(text, "reg [31:0]  tx_data;  // @0x0 (w)");
  expect_contains(text, "tx_data <= 32'd0;");
  expect_contains(text, "divisor <= 32'd16;");          // Reset tag honored.
  expect_contains(text, "32'h0: tx_data <= reg_wdata;");  // Write decode.
  expect_contains(text, "32'h4: reg_rdata = status;");    // Read decode.
  expect_contains(text, "endmodule");
  // status is read-only: no write arm; tx_data write-only: no read arm.
  EXPECT_EQ(text.find("status <= reg_wdata"), std::string::npos);
  EXPECT_EQ(text.find("reg_rdata = tx_data"), std::string::npos);

  support::DiagnosticSink structure_sink;
  EXPECT_TRUE(check_rtl_structure(text, structure_sink)) << structure_sink.str();
}

TEST(Rtl, RegisterFileReportsDecodeErrors) {
  HwFixture f;
  support::DiagnosticSink sink;
  std::string text = generate_rtl_module(*f.uart, f.profile, sink);
  EXPECT_FALSE(sink.has_errors()) << sink.str();
  expect_contains(text, "output reg          reg_error");
  expect_contains(text, "32'h4: reg_error = 1'b0;");  // Readable address decodes clean.
  expect_contains(text, "reg_error = 1'b1;");          // Default arm flags the error.
  support::DiagnosticSink structure_sink;
  EXPECT_TRUE(check_rtl_structure(text, structure_sink)) << structure_sink.str();
}

TEST(Rtl, TestbenchProbesDecodeError) {
  HwFixture f;
  support::DiagnosticSink sink;
  std::string module_text = generate_rtl_module(*f.uart, f.profile, sink);
  std::string bench = generate_rtl_testbench(*f.uart, f.profile, sink);
  EXPECT_FALSE(sink.has_errors()) << sink.str();
  expect_contains(bench, "wire        reg_error;");
  expect_contains(bench, ".reg_error(reg_error)");
  expect_contains(bench, "32'hdeadbeef");  // Drives an unmapped address...
  expect_contains(bench, "reg_error !== 1'b1");  // ...and expects the error flag.
  support::DiagnosticSink structure_sink;
  EXPECT_TRUE(check_rtl_structure(module_text + bench, structure_sink))
      << structure_sink.str();
}

TEST(Rtl, FsmFromStatechart) {
  auto machine = statechart::make_chain_machine(4);
  support::DiagnosticSink sink;
  std::string text = generate_rtl_fsm(*machine, sink);
  EXPECT_FALSE(sink.has_errors()) << sink.str();
  expect_contains(text, "module chain4_fsm (");
  expect_contains(text, "input  wire ev_e");
  expect_contains(text, "localparam S_chain4_s0 = 2'd0;");
  expect_contains(text, "state <= S_chain4_s0");
  expect_contains(text, "if (ev_e) state <= S_chain4_s1;");
  support::DiagnosticSink structure_sink;
  EXPECT_TRUE(check_rtl_structure(text, structure_sink)) << structure_sink.str();
}

TEST(Rtl, FsmGuardAndEffectAsComments) {
  statechart::StateMachine machine("g");
  statechart::Region& top = machine.top();
  statechart::Pseudostate& initial = top.add_initial();
  statechart::State& a = top.add_state("A");
  statechart::State& b = top.add_state("B");
  top.add_transition(initial, a);
  top.add_transition(a, b)
      .set_trigger("go")
      .set_guard("cnt > 3", nullptr)
      .set_effect("cnt := 0", nullptr);
  support::DiagnosticSink sink;
  std::string text = generate_rtl_fsm(machine, sink);
  expect_contains(text, "/* [cnt > 3] */");
  expect_contains(text, "// effect: cnt := 0");
}

/// Next-state table of a generated FSM, parsed back from its text (no
/// Verilog simulator is needed to step it).
struct ParsedFsm {
  std::map<std::string, int> encodings;  // localparam -> value
  std::string reset;
  std::map<std::pair<std::string, std::string>, std::string> next;  // (state, input) -> state
};

ParsedFsm parse_fsm(const std::string& text) {
  static const std::regex localparam(R"(^\s*localparam (\w+) = \d+'d(\d+);$)");
  static const std::regex reset(R"(^\s*state <= (\w+);$)");
  static const std::regex arm(R"(^\s*(S_\w+): begin$)");
  static const std::regex row(R"(^\s*(?:else )?if \((ev_\w+)\).* state <= (S_\w+);.*$)");
  ParsedFsm fsm;
  std::istringstream lines(text);
  std::string line;
  std::string current;
  bool in_reset = false;
  std::smatch match;
  while (std::getline(lines, line)) {
    if (std::regex_match(line, match, localparam)) {
      fsm.encodings[match[1]] = std::stoi(match[2]);
    } else if (line.find("if (!rst_n)") != std::string::npos) {
      in_reset = true;
    } else if (in_reset && std::regex_match(line, match, reset)) {
      fsm.reset = match[1];
      in_reset = false;
    } else if (std::regex_match(line, match, arm)) {
      current = match[1];
    } else if (!current.empty() && std::regex_match(line, match, row)) {
      fsm.next[{current, match[1]}] = match[2];
    } else if (support::trim(line) == "end") {
      current.clear();
    }
  }
  return fsm;
}

/// True when localparam `name` encodes exactly the active leaves `leaves`
/// (simple names): one "__"-separated part per leaf, ending in that leaf.
bool encodes_leaves(const std::string& name, const std::vector<std::string>& leaves) {
  if (name.rfind("S_", 0) != 0) return false;
  std::vector<std::string> parts;
  for (std::size_t start = 2;;) {
    const std::size_t end = name.find("__", start);
    parts.push_back(name.substr(start, end == std::string::npos ? end : end - start));
    if (end == std::string::npos) break;
    start = end + 2;
  }
  if (parts.size() != leaves.size()) return false;
  for (const std::string& leaf : leaves) {
    const std::string suffix = "_" + support::to_snake_case(leaf);
    bool found = false;
    for (const std::string& part : parts) {
      found = found || (part.size() > suffix.size() &&
                        part.compare(part.size() - suffix.size(), suffix.size(), suffix) == 0);
    }
    if (!found) return false;
  }
  return true;
}

/// Steps the FSM in `text` against `engine` on a seeded stream, one event
/// per clock: an event fires in the FSM exactly when it fires in the
/// engine, and the FSM state always encodes the engine's active leaves.
void expect_fsm_lockstep(const std::string& text, statechart::Engine& engine,
                         const std::vector<std::string>& alphabet, std::uint64_t seed,
                         int steps) {
  const ParsedFsm fsm = parse_fsm(text);
  ASSERT_FALSE(fsm.reset.empty()) << text;
  std::string state = fsm.reset;
  ASSERT_TRUE(encodes_leaves(state, engine.active_leaf_names())) << state;
  support::Rng rng(seed);
  for (int step = 0; step < steps; ++step) {
    const std::string& event = alphabet[static_cast<std::size_t>(rng.below(alphabet.size()))];
    const auto arm = fsm.next.find({state, "ev_" + support::to_snake_case(event)});
    const bool fsm_fired = arm != fsm.next.end();
    if (fsm_fired) state = arm->second;
    ASSERT_TRUE(fsm.encodings.contains(state)) << state;
    ASSERT_EQ(engine.dispatch(statechart::Event{event}), fsm_fired)
        << "step " << step << " event " << event;
    std::string leaves;
    for (const std::string& leaf : engine.active_leaf_names()) leaves += leaf + " ";
    ASSERT_TRUE(encodes_leaves(state, engine.active_leaf_names()))
        << "step " << step << ": FSM in " << state << ", engine in " << leaves;
  }
}

TEST(Rtl, FsmOrthogonalRegionsStepInLockstepWithCompiled) {
  auto machine = statechart::make_orthogonal_machine(3, 4);
  support::DiagnosticSink sink;
  const std::string text = generate_rtl_fsm(*machine, sink);
  ASSERT_FALSE(text.empty()) << sink.str();
  EXPECT_FALSE(sink.has_errors()) << sink.str();
  support::DiagnosticSink structure_sink;
  EXPECT_TRUE(check_rtl_structure(text, structure_sink)) << structure_sink.str();
  // Every product of the three 4-cycles is reachable (r0..r2 step one
  // region each), and each is one localparam.
  EXPECT_EQ(parse_fsm(text).encodings.size(), 64u);
  expect_contains(text, "localparam S_ortho_r3_s4_parallel_q0_0__ortho_r3_s4_parallel_q1_0__"
                        "ortho_r3_s4_parallel_q2_0 = 6'd0;");

  auto compiled = statechart::compile(*machine, sink);
  ASSERT_NE(compiled, nullptr) << sink.str();
  compiled->start();
  expect_fsm_lockstep(text, *compiled, {"tick", "r0", "r1", "r2", "zz"}, 7, 500);
}

TEST(Rtl, FsmRejectsIdentifierCollisions) {
  {
    // "busError" and "bus_error" are distinct triggers but one input.
    statechart::StateMachine machine("m");
    statechart::Region& top = machine.top();
    statechart::State& a = top.add_state("A");
    statechart::State& b = top.add_state("B");
    top.add_transition(top.add_initial(), a);
    top.add_transition(a, b).set_trigger("busError");
    top.add_transition(b, a).set_trigger("bus_error");
    support::DiagnosticSink sink;
    EXPECT_TRUE(generate_rtl_fsm(machine, sink).empty());
    EXPECT_NE(sink.str().find("'busError' and 'bus_error'"), std::string::npos) << sink.str();
    EXPECT_NE(sink.str().find("ev_bus_error"), std::string::npos) << sink.str();
  }
  {
    // Top-level "A_B" and nested "A.B" are distinct states but one localparam.
    statechart::StateMachine machine("M");
    statechart::Region& top = machine.top();
    statechart::State& flat = top.add_state("A_B");
    statechart::State& outer = top.add_state("A");
    statechart::Region& inner = outer.add_region("r");
    statechart::State& nested = inner.add_state("B");
    inner.add_transition(inner.add_initial(), nested);
    top.add_transition(top.add_initial(), flat);
    top.add_transition(flat, outer).set_trigger("in");
    top.add_transition(outer, flat).set_trigger("out");
    support::DiagnosticSink sink;
    EXPECT_TRUE(generate_rtl_fsm(machine, sink).empty());
    EXPECT_NE(sink.str().find("'M.A_B' and 'M.A.B'"), std::string::npos) << sink.str();
    EXPECT_NE(sink.str().find("S_m_a_b"), std::string::npos) << sink.str();
  }
}

// --- Flattening: the FSM's states are the plan tables' configurations -------------

TEST(Flatten, ChainMachine) {
  auto machine = statechart::make_chain_machine(4);
  support::DiagnosticSink sink;
  const ParsedFsm fsm = parse_fsm(generate_rtl_fsm(*machine, sink));
  EXPECT_FALSE(sink.has_errors()) << sink.str();
  EXPECT_EQ(fsm.encodings.size(), 4u);
  EXPECT_EQ(fsm.next.size(), 4u);
  EXPECT_EQ(fsm.reset, "S_chain4_s0");
}

TEST(Flatten, NestedMachineInheritsOuterHandlers) {
  auto machine = statechart::make_nested_machine(3, 2);
  support::DiagnosticSink sink;
  const ParsedFsm fsm = parse_fsm(generate_rtl_fsm(*machine, sink));
  EXPECT_FALSE(sink.has_errors()) << sink.str();
  // One state per innermost leaf; each has its own "step" arm plus the
  // outermost composite's "reset", which re-enters the default leaf.
  EXPECT_EQ(fsm.encodings.size(), 2u);
  for (const auto& [state, value] : fsm.encodings) {
    EXPECT_TRUE(fsm.next.contains({state, "ev_step"})) << state;
    ASSERT_TRUE(fsm.next.contains({state, "ev_reset"})) << state;
    EXPECT_EQ(fsm.next.at({state, "ev_reset"}), fsm.reset) << state;
  }
}

TEST(Flatten, FinalStatesBecomeSinkLeaves) {
  statechart::StateMachine machine("m");
  statechart::Region& top = machine.top();
  statechart::State& a = top.add_state("A");
  statechart::FinalState& end = top.add_final();
  top.add_transition(top.add_initial(), a);
  top.add_transition(a, end).set_trigger("quit");
  support::DiagnosticSink sink;
  const std::string text = generate_rtl_fsm(machine, sink);
  ASSERT_FALSE(text.empty()) << sink.str();
  expect_contains(text, "localparam S_m_final = 1'd1;");
  expect_contains(text, "if (ev_quit) state <= S_m_final;");
  EXPECT_EQ(text.find("S_m_final: begin"), std::string::npos) << text;  // No arms: a sink.
}

TEST(Flatten, RejectsHistory) {
  statechart::StateMachine machine("m");
  statechart::Region& top = machine.top();
  statechart::State& off = top.add_state("Off");
  statechart::State& on = top.add_state("On");
  top.add_transition(top.add_initial(), off);
  statechart::Region& run = on.add_region("run");
  statechart::State& a = run.add_state("A");
  statechart::State& b = run.add_state("B");
  statechart::Pseudostate& history =
      run.add_pseudostate(statechart::VertexKind::kShallowHistory, "H");
  run.add_transition(run.add_initial(), a);
  run.add_transition(a, b).set_trigger("adv");
  top.add_transition(off, history).set_trigger("on");
  top.add_transition(on, off).set_trigger("off");
  support::DiagnosticSink sink;
  EXPECT_TRUE(generate_rtl_fsm(machine, sink).empty());
  EXPECT_NE(sink.str().find("history"), std::string::npos) << sink.str();
}

TEST(Flatten, RejectsChoiceAndJunctionRoutes) {
  for (const statechart::VertexKind kind :
       {statechart::VertexKind::kChoice, statechart::VertexKind::kJunction}) {
    statechart::StateMachine machine("m");
    statechart::Region& top = machine.top();
    statechart::State& a = top.add_state("A");
    statechart::State& b = top.add_state("B");
    statechart::Pseudostate& route = top.add_pseudostate(kind, "route");
    top.add_transition(top.add_initial(), a);
    top.add_transition(a, route).set_trigger("go");
    top.add_transition(route, b).set_guard(statechart::Guard{"else", nullptr});
    support::DiagnosticSink sink;
    EXPECT_TRUE(generate_rtl_fsm(machine, sink).empty());
    EXPECT_NE(sink.str().find("choice/junction"), std::string::npos) << sink.str();
  }
}

TEST(Flatten, RejectsCompletionTransitions) {
  statechart::StateMachine machine("m");
  statechart::Region& top = machine.top();
  statechart::State& a = top.add_state("A");
  statechart::State& b = top.add_state("B");
  top.add_transition(top.add_initial(), a);
  top.add_transition(a, b);  // Completion.
  support::DiagnosticSink sink;
  EXPECT_TRUE(generate_rtl_fsm(machine, sink).empty());
  EXPECT_NE(sink.str().find("completion"), std::string::npos) << sink.str();
}

// Property: the FSM emitted from the plan tables (a flat next-state table)
// and the hierarchical interpreter agree on the active leaf through random
// event sequences on nested machines, whose outer "reset" handler applies
// in every leaf.
class FlatEquivalence : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(FlatEquivalence, AgreesWithInterpreter) {
  auto [depth, width] = GetParam();
  auto machine = statechart::make_nested_machine(static_cast<std::size_t>(depth),
                                                 static_cast<std::size_t>(width));
  support::DiagnosticSink sink;
  const std::string text = generate_rtl_fsm(*machine, sink);
  ASSERT_FALSE(text.empty()) << sink.str();

  statechart::StateMachineInstance interpreter(*machine);
  interpreter.set_trace_enabled(false);
  interpreter.start();
  expect_fsm_lockstep(text, interpreter, {"step", "reset", "noise"}, 42, 300);
}

INSTANTIATE_TEST_SUITE_P(Shapes, FlatEquivalence,
                         ::testing::Combine(::testing::Values(1, 2, 4),
                                            ::testing::Values(2, 3, 5)));

TEST(Rtl, TopInstantiatesPartsAndWires) {
  HwFixture f;
  uml::Package& pkg = *static_cast<uml::Package*>(f.uart->owner());
  uml::Class& top_class = pkg.add_class("Top");
  uml::Property& part = top_class.add_property("uart0", f.uart);
  part.set_aggregation(uml::AggregationKind::kComposite);
  uml::Port& ext = top_class.add_port("ext", uml::PortDirection::kOut);
  uml::Connector& wire = top_class.add_connector("w_tx");
  wire.add_end(uml::ConnectorEnd{&part, f.uart->find_port("tx")});
  wire.add_end(uml::ConnectorEnd{nullptr, &ext});

  support::DiagnosticSink sink;
  std::string text = generate_rtl_top(top_class, f.profile, sink);
  expect_contains(text, "module top (");
  expect_contains(text, "wire w_tx;");
  expect_contains(text, "uart uart0 (");
  expect_contains(text, ".clk(clk)");
  expect_contains(text, ".tx(w_tx)");
  support::DiagnosticSink structure_sink;
  EXPECT_TRUE(check_rtl_structure(text, structure_sink)) << structure_sink.str();
}

TEST(Rtl, StructureCheckerCatchesImbalance) {
  support::DiagnosticSink sink;
  EXPECT_FALSE(check_rtl_structure("module m (\n);\n", sink));
  EXPECT_NE(sink.str().find("module/endmodule"), std::string::npos);
  support::DiagnosticSink sink2;
  EXPECT_FALSE(check_rtl_structure("module m;\nalways begin\nendmodule\n", sink2));
  support::DiagnosticSink sink3;
  EXPECT_TRUE(check_rtl_structure("module m;\n// begin in comment\nendmodule\n", sink3));
}

// --- SystemC-style C++ ---------------------------------------------------------------

TEST(SimCodegen, ModuleText) {
  HwFixture f;
  support::DiagnosticSink sink;
  std::string text = generate_sim_module(*f.uart, f.profile, sink);
  EXPECT_FALSE(sink.has_errors()) << sink.str();
  expect_contains(text, "class Uart {");
  expect_contains(text, "explicit Uart(umlsoc::sim::Kernel& kernel)");
  expect_contains(text, "umlsoc::sim::Signal<bool> clk;");
  expect_contains(text, "std::uint32_t status = 1;");
  expect_contains(text, "case 0x4: return status;");
  expect_contains(text, "case 0x0: tx_data = value; break;");
  expect_contains(text, "void reset()");
  support::DiagnosticSink structure_sink;
  EXPECT_TRUE(check_cpp_structure(text, structure_sink)) << structure_sink.str();
}

TEST(SimCodegen, CheckedRegisterAccessors) {
  HwFixture f;
  support::DiagnosticSink sink;
  std::string text = generate_sim_module(*f.uart, f.profile, sink);
  EXPECT_FALSE(sink.has_errors()) << sink.str();
  expect_contains(text, "#include \"sim/bus.hpp\"");
  expect_contains(text, "umlsoc::sim::BusStatus read_reg_checked(std::uint32_t addr,");
  expect_contains(text, "umlsoc::sim::BusStatus write_reg_checked(std::uint32_t addr,"
                        " std::uint32_t value) {");
  // status @0x4 is readable, tx_data @0x0 is write-only.
  expect_contains(text, "case 0x4: value = status; return umlsoc::sim::BusStatus::kOk;");
  expect_contains(text, "case 0x0: tx_data = value; return umlsoc::sim::BusStatus::kOk;");
  expect_contains(text, "default: value = 0; return umlsoc::sim::BusStatus::kError;");
  expect_contains(text, "default: return umlsoc::sim::BusStatus::kError;");
  support::DiagnosticSink structure_sink;
  EXPECT_TRUE(check_cpp_structure(text, structure_sink)) << structure_sink.str();
}

TEST(SimCodegen, CppStructureChecker) {
  support::DiagnosticSink sink;
  EXPECT_FALSE(check_cpp_structure("class X { void f() { }", sink));
  support::DiagnosticSink sink2;
  EXPECT_TRUE(check_cpp_structure("class X { };  // }", sink2)) << sink2.str();
  support::DiagnosticSink sink3;
  EXPECT_FALSE(check_cpp_structure("int main() { return 0; }", sink3));  // No class.
}

// --- SW codegen / ASL translation ------------------------------------------------------

TEST(SwCodegen, TranslateAslBasics) {
  support::DiagnosticSink sink;
  std::string cpp = translate_asl_to_cpp(
      "x := 1; self.count := self.count + x;"
      "if (x > 0) { self.mode := 2; } else { self.mode := 0; }"
      "while (x < 3) { x := x + 1; }"
      "send Bus.write(x, 5);"
      "return self.count;",
      sink);
  EXPECT_FALSE(sink.has_errors()) << sink.str();
  expect_contains(cpp, "auto x = 1;");
  expect_contains(cpp, "this->count = (this->count + x);");
  expect_contains(cpp, "if ((x > 0)) {");
  expect_contains(cpp, "} else {");
  expect_contains(cpp, "while ((x < 3)) {");
  expect_contains(cpp, "send_signal(\"Bus\", \"write\", {x, 5});");
  expect_contains(cpp, "return this->count;");
  // Second assignment to the same local must not redeclare it.
  EXPECT_EQ(cpp.find("auto x = (x + 1)"), std::string::npos);
}

TEST(SwCodegen, TranslateSyntaxErrorReported) {
  support::DiagnosticSink sink;
  EXPECT_TRUE(translate_asl_to_cpp("x := ;", sink).empty());
  EXPECT_TRUE(sink.has_errors());
}

TEST(SwCodegen, GenerateSwClass) {
  uml::Model model("M");
  uml::Package& pkg = model.add_package("app");
  uml::Interface& iface = pkg.add_interface("ITask");
  uml::Class& cls = pkg.add_class("Controller");
  cls.set_active(true);
  cls.add_interface_realization(iface);
  cls.add_property("count", &model.primitive("Integer", 32)).set_default_value("0");
  cls.add_property("name", &model.primitive("String", 0));
  uml::Operation& tick = cls.add_operation("tick");
  tick.set_body("self.count := self.count + 1;");
  uml::Operation& get = cls.add_operation("get_count");
  get.set_return_type(model.primitive("Integer", 32));
  get.set_query(true);
  get.set_body("return self.count;");

  support::DiagnosticSink sink;
  std::string text = generate_sw_class(cls, sink);
  expect_contains(text, "// Active class: instantiate as a task.");
  expect_contains(text, "class Controller : public ITask {");
  expect_contains(text, "void tick() {");
  expect_contains(text, "this->count = (this->count + 1);");
  expect_contains(text, "std::int32_t get_count() const {");
  expect_contains(text, "std::int32_t count = 0;");
  expect_contains(text, "std::string name{};");
  support::DiagnosticSink structure_sink;
  EXPECT_TRUE(check_cpp_structure(text, structure_sink)) << structure_sink.str();
}

TEST(SwCodegen, StatechartPlanTablesAsStaticData) {
  auto machine = statechart::make_nested_machine(3, 2);
  support::DiagnosticSink sink;
  auto compiled = statechart::compile(*machine, sink);
  ASSERT_NE(compiled, nullptr) << sink.str();

  const std::string text = generate_statechart_tables(*compiled, "nested");
  expect_contains(text, "namespace nested_tables {");
  expect_contains(text, "inline constexpr std::uint32_t kWords = 1;");
  expect_contains(text, "inline constexpr const char* kEvents[]");
  expect_contains(text, "\"step\"");
  expect_contains(text, "\"reset\"");
  expect_contains(text, "inline constexpr Step kSteps[]");
  expect_contains(text, "Op::kEnterState");
  expect_contains(text, "Op::kExitState");
  expect_contains(text, "inline constexpr Plan kPlans[]");
  expect_contains(text, "inline constexpr Candidate kCandidates[]");
  expect_contains(text, "inline constexpr std::uint64_t kClaims[]");
  expect_contains(text, "kConfigOffsets");
  // Table sizes in the generated text match the compiled machine.
  expect_contains(text, std::to_string(compiled->configuration_count()) + " configurations");
  expect_contains(text, std::to_string(compiled->plan_table().size()) + " plans");
  support::DiagnosticSink structure_sink;
  EXPECT_TRUE(check_cpp_structure(text, structure_sink)) << structure_sink.str();
}

// --- Runtime HW model + SW bridge ---------------------------------------------------------

TEST(HwModel, RegisterFileSemantics) {
  HwFixture f;
  support::DiagnosticSink sink;
  HwModuleSim module(*f.uart, f.profile, sink);
  EXPECT_FALSE(sink.has_errors()) << sink.str();

  EXPECT_EQ(module.peek("status"), 1u);      // Reset value.
  EXPECT_EQ(module.peek("divisor"), 16u);
  module.write_register(0x8, 99);            // rw register.
  EXPECT_EQ(module.read_register(0x8), 99u);
  module.write_register(0x4, 5);             // Read-only: ignored.
  EXPECT_EQ(module.peek("status"), 1u);
  module.write_register(0x0, 42);            // Write-only.
  EXPECT_EQ(module.peek("tx_data"), 42u);
  EXPECT_EQ(module.read_register(0x0), 0u);  // Not readable.
  EXPECT_EQ(module.read_register(0x1000), 0u);  // Unknown offset.
  module.reset();
  EXPECT_EQ(module.peek("divisor"), 16u);
  EXPECT_GT(module.bus_writes(), 0u);
}

TEST(HwModel, CheckedAccessorsAgreeWithGeneratedSemantics) {
  HwFixture f;
  support::DiagnosticSink sink;
  HwModuleSim module(*f.uart, f.profile, sink);

  std::uint64_t value = 123;
  EXPECT_EQ(module.read_register_checked(0x4, value), sim::BusStatus::kOk);
  EXPECT_EQ(value, 1u);  // status reset value.
  EXPECT_EQ(module.write_register_checked(0x8, 77), sim::BusStatus::kOk);
  EXPECT_EQ(module.peek("divisor"), 77u);
  // Access violations and unknown offsets report kError, not silent 0.
  EXPECT_EQ(module.read_register_checked(0x0, value), sim::BusStatus::kError);
  EXPECT_EQ(value, 0u);
  EXPECT_EQ(module.write_register_checked(0x4, 9), sim::BusStatus::kError);
  EXPECT_EQ(module.peek("status"), 1u);
  EXPECT_EQ(module.read_register_checked(0x1000, value), sim::BusStatus::kError);
  EXPECT_EQ(module.write_register_checked(0x1000, 1), sim::BusStatus::kError);
}

TEST(HwModel, BehaviorMachineReactsToWrites) {
  HwFixture f;
  // ctrl-style machine: writing tx_data moves IDLE -> BUSY and sets status.
  statechart::StateMachine machine("uart_ctrl");
  statechart::Region& top = machine.top();
  statechart::Pseudostate& initial = top.add_initial();
  statechart::State& idle = top.add_state("Idle");
  statechart::State& busy = top.add_state("Busy");
  top.add_transition(initial, idle);
  top.add_transition(idle, busy)
      .set_trigger("write_tx_data")
      .set_effect("status := 0", [](statechart::ActionContext& ctx) {
        ctx.instance.set_variable("status", 0);
      });
  top.add_transition(busy, idle)
      .set_trigger("write_divisor")
      .set_effect("status := 1", [](statechart::ActionContext& ctx) {
        ctx.instance.set_variable("status", 1);
      });

  support::DiagnosticSink sink;
  HwModuleSim module(*f.uart, f.profile, sink);
  module.attach_behavior(machine);
  ASSERT_NE(module.behavior(), nullptr);
  EXPECT_TRUE(module.behavior()->is_in("Idle"));

  module.write_register(0x0, 0x55);  // write_tx_data event.
  EXPECT_TRUE(module.behavior()->is_in("Busy"));
  EXPECT_EQ(module.peek("status"), 0u);  // Effect wrote back into register.

  module.write_register(0x8, 8);  // write_divisor event.
  EXPECT_TRUE(module.behavior()->is_in("Idle"));
  EXPECT_EQ(module.peek("status"), 1u);
}

TEST(HwModel, MappedOntoBusAndDrivenByAslDriver) {
  HwFixture f;
  support::DiagnosticSink sink;
  HwModuleSim module(*f.uart, f.profile, sink);

  sim::Kernel kernel;
  sim::MemoryMappedBus bus(kernel, "axi", sim::SimTime::ns(5));
  module.map_onto(bus, 0x40000000);

  BusMasterContext driver(kernel, bus);
  driver.set_attribute("base", asl::Value{std::int64_t{0x40000000}});
  // The exact shape of driver code the SW mapping generates.
  driver.run("bus_write(self.base + 8, 77);");
  auto divisor = driver.run("return bus_read(self.base + 8);");
  ASSERT_TRUE(divisor.has_value());
  EXPECT_EQ(divisor->as_int(), 77);
  EXPECT_EQ(module.peek("divisor"), 77u);
  EXPECT_EQ(bus.reads(), 1u);
  EXPECT_EQ(bus.writes(), 1u);
  EXPECT_GT(kernel.now().picoseconds(), 0u);  // Time advanced by latency.
}

TEST(SwRuntime, UnknownOperationThrows) {
  sim::Kernel kernel;
  sim::MemoryMappedBus bus(kernel, "axi", sim::SimTime::ns(1));
  BusMasterContext driver(kernel, bus);
  EXPECT_THROW(driver.run("frobnicate();"), std::runtime_error);
  EXPECT_THROW(driver.run("bus_read();"), std::runtime_error);
}

TEST(SwRuntime, SignalsRecorded) {
  sim::Kernel kernel;
  sim::MemoryMappedBus bus(kernel, "axi", sim::SimTime::ns(1));
  BusMasterContext driver(kernel, bus);
  driver.run("send Cpu.irq(3);");
  ASSERT_EQ(driver.sent_signals().size(), 1u);
  EXPECT_EQ(driver.sent_signals()[0].signal, "irq");
  EXPECT_EQ(driver.sent_signals()[0].arguments[0].as_int(), 3);
}

}  // namespace
}  // namespace umlsoc::codegen
