// Tests for the statechart metamodel and validation.
#include <gtest/gtest.h>

#include "statechart/interpreter.hpp"
#include "statechart/synthetic.hpp"
#include "statechart/validate.hpp"

namespace umlsoc::statechart {
namespace {

TEST(ScModel, VertexHierarchyQueries) {
  StateMachine machine("m");
  Region& top = machine.top();
  State& outer = top.add_state("Outer");
  Region& inner_region = outer.add_region("r");
  State& inner = inner_region.add_state("Inner");

  EXPECT_EQ(outer.depth(), 0u);
  EXPECT_EQ(inner.depth(), 1u);
  EXPECT_EQ(inner.containing_state(), &outer);
  EXPECT_EQ(outer.containing_state(), nullptr);
  EXPECT_TRUE(inner.is_within(outer));
  EXPECT_TRUE(inner.is_within(inner));
  EXPECT_FALSE(outer.is_within(inner));
  EXPECT_EQ(inner.qualified_name(), "m.Outer.Inner");
  EXPECT_TRUE(outer.is_composite());
  EXPECT_FALSE(outer.is_orthogonal());
  EXPECT_TRUE(inner.is_simple());
}

TEST(ScModel, TransitionWiringAndStr) {
  StateMachine machine("m");
  Region& top = machine.top();
  State& a = top.add_state("A");
  State& b = top.add_state("B");
  Transition& t = top.add_transition(a, b);
  t.set_trigger("go").set_guard("x>0", nullptr).set_effect("act", nullptr);

  ASSERT_EQ(a.outgoing().size(), 1u);
  ASSERT_EQ(b.incoming().size(), 1u);
  EXPECT_EQ(a.outgoing().front(), &t);
  EXPECT_EQ(t.str(), "A -> B on go [x>0] / act");
}

TEST(ScModel, RegionLookup) {
  StateMachine machine("m");
  Region& top = machine.top();
  State& a = top.add_state("A");
  Region& ar = a.add_region("r");
  State& deep = ar.add_state("Deep");
  top.add_initial();

  EXPECT_EQ(top.find_vertex("A"), &a);
  EXPECT_EQ(top.find_vertex("nope"), nullptr);
  EXPECT_EQ(top.find_state("Deep"), &deep);
  EXPECT_NE(top.initial(), nullptr);
}

TEST(ScModel, AllStatesAndTransitions) {
  auto machine = make_nested_machine(3, 2);
  // Levels: 3 composites-chain; innermost has 2 leaves => states: 3 + 2.
  EXPECT_EQ(machine->all_states().size(), 5u);
  EXPECT_FALSE(machine->all_transitions().empty());
}

TEST(ScValidate, SyntheticMachinesAreValid) {
  support::DiagnosticSink sink;
  EXPECT_TRUE(validate(*make_chain_machine(5), sink)) << sink.str();
  EXPECT_TRUE(validate(*make_nested_machine(3, 3), sink)) << sink.str();
  EXPECT_TRUE(validate(*make_orthogonal_machine(2, 4), sink)) << sink.str();
}

TEST(ScValidate, MissingInitialIsError) {
  StateMachine machine("m");
  machine.top().add_state("A");
  support::DiagnosticSink sink;
  EXPECT_FALSE(validate(machine, sink));
  EXPECT_NE(sink.str().find("no initial pseudostate"), std::string::npos);
}

TEST(ScValidate, MultipleInitialsIsError) {
  StateMachine machine("m");
  Region& top = machine.top();
  State& a = top.add_state("A");
  Pseudostate& i1 = top.add_pseudostate(VertexKind::kInitial, "i1");
  Pseudostate& i2 = top.add_pseudostate(VertexKind::kInitial, "i2");
  top.add_transition(i1, a);
  top.add_transition(i2, a);
  support::DiagnosticSink sink;
  EXPECT_FALSE(validate(machine, sink));
  EXPECT_NE(sink.str().find("multiple initial"), std::string::npos);
}

TEST(ScValidate, InitialWithTriggerOrGuardIsError) {
  StateMachine machine("m");
  Region& top = machine.top();
  Pseudostate& initial = top.add_initial();
  State& a = top.add_state("A");
  top.add_transition(initial, a).set_trigger("oops");
  support::DiagnosticSink sink;
  EXPECT_FALSE(validate(machine, sink));
  EXPECT_NE(sink.str().find("must not have a trigger"), std::string::npos);
}

TEST(ScValidate, InitialIncomingIsError) {
  StateMachine machine("m");
  Region& top = machine.top();
  Pseudostate& initial = top.add_initial();
  State& a = top.add_state("A");
  top.add_transition(initial, a);
  top.add_transition(a, initial).set_trigger("back");
  support::DiagnosticSink sink;
  EXPECT_FALSE(validate(machine, sink));
}

TEST(ScValidate, FinalWithOutgoingIsError) {
  StateMachine machine("m");
  Region& top = machine.top();
  Pseudostate& initial = top.add_initial();
  State& a = top.add_state("A");
  FinalState& end = top.add_final();
  top.add_transition(initial, a);
  top.add_transition(a, end).set_trigger("x");
  top.add_transition(end, a).set_trigger("undead");
  support::DiagnosticSink sink;
  EXPECT_FALSE(validate(machine, sink));
  EXPECT_NE(sink.str().find("final state has outgoing"), std::string::npos);
}

TEST(ScValidate, DuplicateVertexNames) {
  StateMachine machine("m");
  Region& top = machine.top();
  Pseudostate& initial = top.add_initial();
  State& a1 = top.add_state("A");
  top.add_state("A");
  top.add_transition(initial, a1);
  support::DiagnosticSink sink;
  EXPECT_FALSE(validate(machine, sink));
  EXPECT_NE(sink.str().find("duplicate vertex name"), std::string::npos);
}

TEST(ScValidate, ChoiceWithoutBranchesIsError) {
  StateMachine machine("m");
  Region& top = machine.top();
  Pseudostate& initial = top.add_initial();
  State& a = top.add_state("A");
  Pseudostate& choice = top.add_pseudostate(VertexKind::kChoice, "c");
  top.add_transition(initial, a);
  top.add_transition(a, choice).set_trigger("go");
  support::DiagnosticSink sink;
  EXPECT_FALSE(validate(machine, sink));
  EXPECT_NE(sink.str().find("no outgoing transitions"), std::string::npos);
}

TEST(ScValidate, ChoiceWithoutElseWarns) {
  StateMachine machine("m");
  Region& top = machine.top();
  Pseudostate& initial = top.add_initial();
  State& a = top.add_state("A");
  State& b = top.add_state("B");
  Pseudostate& choice = top.add_pseudostate(VertexKind::kChoice, "c");
  top.add_transition(initial, a);
  top.add_transition(a, choice).set_trigger("go");
  top.add_transition(choice, b).set_guard("x>0", [](const ActionContext&) { return true; });
  support::DiagnosticSink sink;
  EXPECT_TRUE(validate(machine, sink));
  EXPECT_GE(sink.warning_count(), 1u);
}

TEST(ScValidate, InternalTransitionMustBeSelf) {
  StateMachine machine("m");
  Region& top = machine.top();
  Pseudostate& initial = top.add_initial();
  State& a = top.add_state("A");
  State& b = top.add_state("B");
  top.add_transition(initial, a);
  top.add_transition(a, b).set_trigger("x").set_internal(true);
  support::DiagnosticSink sink;
  EXPECT_FALSE(validate(machine, sink));
  EXPECT_NE(sink.str().find("internal transition"), std::string::npos);
}

TEST(ScValidate, UnreachableStateWarns) {
  StateMachine machine("m");
  Region& top = machine.top();
  Pseudostate& initial = top.add_initial();
  State& a = top.add_state("A");
  top.add_state("Orphan");
  top.add_transition(initial, a);
  support::DiagnosticSink sink;
  EXPECT_TRUE(validate(machine, sink));
  EXPECT_NE(sink.str().find("unreachable"), std::string::npos);
}

TEST(ScValidate, NondeterminismWarns) {
  StateMachine machine("m");
  Region& top = machine.top();
  Pseudostate& initial = top.add_initial();
  State& a = top.add_state("A");
  State& b = top.add_state("B");
  State& c = top.add_state("C");
  top.add_transition(initial, a);
  top.add_transition(a, b).set_trigger("e");
  top.add_transition(a, c).set_trigger("e");
  support::DiagnosticSink sink;
  EXPECT_TRUE(validate(machine, sink));
  EXPECT_NE(sink.str().find("multiple unguarded transitions"), std::string::npos);
}

TEST(ScValidate, HistoryWithTwoDefaultsIsError) {
  StateMachine machine("m");
  Region& top = machine.top();
  Pseudostate& initial = top.add_initial();
  State& a = top.add_state("A");
  State& b = top.add_state("B");
  Pseudostate& history = top.add_pseudostate(VertexKind::kShallowHistory, "H");
  top.add_transition(initial, a);
  top.add_transition(history, a);
  top.add_transition(history, b);
  support::DiagnosticSink sink;
  EXPECT_FALSE(validate(machine, sink));
  EXPECT_NE(sink.str().find("more than one default"), std::string::npos);
}

}  // namespace
}  // namespace umlsoc::statechart
