// Unit tests for the AOT statechart compiler (statechart/compile.hpp):
// which machines compile (choice/junction routes do; a transition into an
// initial pseudostate is rejected), plan-table introspection used by the
// codegen emitters, AOT seeding, and snapshot validation.
// Semantic equivalence with the interpreter is covered separately by
// statechart_differential_test.cpp.
#include <gtest/gtest.h>

#include "statechart/compile.hpp"
#include "statechart/interpreter.hpp"
#include "statechart/synthetic.hpp"
#include "statechart/validate.hpp"
#include "support/diagnostics.hpp"

namespace umlsoc::statechart {
namespace {

TEST(Compile, ChainMachineCompilesAndRuns) {
  auto machine = make_chain_machine(4);
  support::DiagnosticSink sink;
  auto compiled = compile(*machine, sink);
  ASSERT_NE(compiled, nullptr) << sink.str();

  compiled->start();
  EXPECT_TRUE(compiled->started());
  EXPECT_TRUE(compiled->is_in("s0"));
  EXPECT_TRUE(compiled->dispatch(Event{"e"}));
  EXPECT_TRUE(compiled->is_in("s1"));
  EXPECT_FALSE(compiled->dispatch(Event{"unknown"}));
  EXPECT_EQ(compiled->transitions_fired(), 1u);
  EXPECT_EQ(compiled->events_processed(), 2u);
}

TEST(Compile, CanReactAnswersFromThePlanTable) {
  StateMachine machine("hint");
  Region& top = machine.top();
  State& idle = top.add_state("Idle");
  State& wait = top.add_state("Wait");
  idle.add_deferred("late");
  top.add_transition(top.add_initial(), idle);
  top.add_transition(idle, wait).set_trigger("go");
  top.add_transition(wait, idle).set_trigger("back");

  support::DiagnosticSink sink;
  auto compiled = compile(machine, sink);
  ASSERT_NE(compiled, nullptr) << sink.str();

  // Before start nothing reacts; dispatch would be dropped.
  EXPECT_FALSE(compiled->can_react(Event{"go"}));

  compiled->start();
  EXPECT_TRUE(compiled->can_react(Event{"go"}));       // Enabled transition.
  EXPECT_FALSE(compiled->can_react(Event{"back"}));    // Wrong configuration.
  EXPECT_TRUE(compiled->can_react(Event{"late"}));     // Deferral parks it.
  EXPECT_FALSE(compiled->can_react(Event{"unknown"})); // Dropped silently.

  ASSERT_TRUE(compiled->dispatch(Event{"go"}));
  EXPECT_FALSE(compiled->can_react(Event{"go"}));
  EXPECT_TRUE(compiled->can_react(Event{"back"}));
  EXPECT_FALSE(compiled->can_react(Event{"late"}));    // Wait does not defer.

  // Queued work makes any delivery reactive regardless of the plan.
  compiled->post(Event{"back"});
  EXPECT_TRUE(compiled->can_react(Event{"unknown"}));
  compiled->run_to_quiescence();
  EXPECT_FALSE(compiled->can_react(Event{"unknown"}));

  // The base Engine default stays conservatively true.
  StateMachineInstance interpreter(machine);
  interpreter.start();
  statechart::Engine& engine = interpreter;
  EXPECT_TRUE(engine.can_react(Event{"unknown"}));
}

TEST(Compile, AcceptsChoicePseudostates) {
  StateMachine machine("choosy");
  Region& top = machine.top();
  Pseudostate& initial = top.add_initial();
  State& a = top.add_state("A");
  State& b = top.add_state("B");
  Pseudostate& choice = top.add_pseudostate(VertexKind::kChoice, "pick");
  top.add_transition(initial, a);
  top.add_transition(a, choice).set_trigger("go");
  top.add_transition(choice, b).set_guard("else", nullptr);

  support::DiagnosticSink sink;
  auto compiled = compile(machine, sink);
  ASSERT_NE(compiled, nullptr) << sink.str();
  EXPECT_FALSE(sink.has_errors()) << sink.str();
  compiled->start();
  EXPECT_TRUE(compiled->dispatch(Event{"go"}));
  EXPECT_TRUE(compiled->is_in("B"));
  EXPECT_EQ(compiled->transitions_fired(), 1u);
}

TEST(Compile, AcceptsJunctionPseudostates) {
  StateMachine machine("junctional");
  Region& top = machine.top();
  Pseudostate& initial = top.add_initial();
  State& a = top.add_state("A");
  State& b = top.add_state("B");
  Pseudostate& junction = top.add_pseudostate(VertexKind::kJunction, "j");
  top.add_transition(initial, a);
  top.add_transition(a, junction).set_trigger("go");
  top.add_transition(junction, b);

  support::DiagnosticSink sink;
  auto compiled = compile(machine, sink);
  ASSERT_NE(compiled, nullptr) << sink.str();
  compiled->start();
  EXPECT_TRUE(compiled->dispatch(Event{"go"}));
  EXPECT_TRUE(compiled->is_in("B"));
}

TEST(Compile, RejectsTransitionIntoInitialPseudostate) {
  StateMachine machine("restart");
  Region& top = machine.top();
  Pseudostate& initial = top.add_initial();
  State& a = top.add_state("A");
  top.add_transition(initial, a);
  top.add_transition(a, initial).set_trigger("again");

  support::DiagnosticSink sink;
  EXPECT_EQ(compile(machine, sink), nullptr);
  EXPECT_NE(sink.str().find("initial pseudostate"), std::string::npos) << sink.str();
  support::DiagnosticSink validate_sink;
  EXPECT_FALSE(validate(machine, validate_sink));  // compile() rejects only invalid models.
}

TEST(Compile, SeedsReachablePlansAheadOfTime) {
  auto machine = make_nested_machine(4, 3);
  support::DiagnosticSink sink;
  auto compiled = compile(*machine, sink);
  ASSERT_NE(compiled, nullptr) << sink.str();

  // The guard-free closure covers the full step/reset alphabet from the
  // start configuration before the first dispatch.
  const std::size_t seeded_plans = compiled->plan_table().size();
  const std::size_t seeded_configs = compiled->configuration_count();
  EXPECT_GE(seeded_plans, 3u * 3u);  // >= |alphabet+completion| per config.
  EXPECT_GE(seeded_configs, 3u);     // Empty + one per leaf in the cycle.

  compiled->start();
  for (int i = 0; i < 50; ++i) {
    compiled->dispatch(Event{i % 5 == 0 ? "reset" : "step"});
  }
  // Steady state: nothing new was interned by dispatching seeded events.
  EXPECT_EQ(compiled->plan_table().size(), seeded_plans);
  EXPECT_EQ(compiled->configuration_count(), seeded_configs);

  // An unknown event extends the tables lazily (one new plan, no config).
  compiled->dispatch(Event{"never-seen"});
  EXPECT_EQ(compiled->plan_table().size(), seeded_plans + 1);
}

TEST(Compile, IntrospectionExposesPlanTables) {
  auto machine = make_orthogonal_machine(2, 3);
  support::DiagnosticSink sink;
  auto compiled = compile(*machine, sink);
  ASSERT_NE(compiled, nullptr) << sink.str();

  EXPECT_EQ(compiled->vertex_count(), machine->all_vertices().size());
  EXPECT_EQ(compiled->region_count(), machine->all_regions().size());
  EXPECT_EQ(compiled->transition_table().size(), machine->all_transitions().size());
  EXPECT_GE(compiled->words(), 1u);
  EXPECT_FALSE(compiled->plan_table().empty());
  EXPECT_FALSE(compiled->step_table().empty());
  EXPECT_GT(compiled->table_bytes(), 0u);
  EXPECT_EQ(compiled->event_name(0), "");  // Completion pseudo-event.

  // Candidate claims are words()-wide masks into the claim pool.
  for (const auto& candidate : compiled->candidate_table()) {
    EXPECT_LE(candidate.claim_offset + compiled->words(), compiled->claim_pool().size());
  }
  // Every plan's candidate range is in bounds.
  for (const auto& plan : compiled->plan_table()) {
    EXPECT_LE(plan.first_candidate + plan.candidate_count, compiled->candidate_table().size());
  }

  compiled->start();
  const auto members = compiled->configuration_members(compiled->current_configuration());
  EXPECT_EQ(members.size(), 3u);  // "parallel" + one leaf per region.
}

TEST(Compile, RestoreValidatesBeforeMutating) {
  auto machine = make_chain_machine(3);
  support::DiagnosticSink sink;
  auto compiled = compile(*machine, sink);
  ASSERT_NE(compiled, nullptr) << sink.str();
  compiled->start();
  const InstanceSnapshot before = compiled->capture();

  InstanceSnapshot bogus = before;
  bogus.active_states = {9999};
  support::DiagnosticSink reject;
  EXPECT_FALSE(compiled->restore(bogus, reject));
  EXPECT_TRUE(reject.has_errors());
  EXPECT_EQ(compiled->capture(), before);  // Unchanged on rejection.

  InstanceSnapshot wrong_kind = before;
  wrong_kind.active_states = {0};  // Vertex 0 is the initial pseudostate.
  support::DiagnosticSink reject_kind;
  EXPECT_FALSE(compiled->restore(wrong_kind, reject_kind));
  EXPECT_EQ(compiled->capture(), before);

  InstanceSnapshot dead = before;
  dead.terminated = true;  // Terminated machines have no active states.
  support::DiagnosticSink reject_dead;
  EXPECT_FALSE(compiled->restore(dead, reject_dead));

  support::DiagnosticSink accept;
  EXPECT_TRUE(compiled->restore(before, accept)) << accept.str();
  EXPECT_EQ(compiled->capture(), before);
}

TEST(Compile, DispatchKeepsEngineSurfaceConsistent) {
  auto machine = make_nested_machine(3, 2);
  support::DiagnosticSink sink;
  auto compiled = compile(*machine, sink);
  ASSERT_NE(compiled, nullptr) << sink.str();

  int enters = 0;
  int exits = 0;
  compiled->set_state_listener([&](const State&, bool entered) {
    (entered ? enters : exits)++;
  });
  compiled->start();
  EXPECT_EQ(enters, 4);  // c_L0..c_L2 + leaf.
  EXPECT_EQ(exits, 0);
  EXPECT_FALSE(compiled->is_in_final_state());
  EXPECT_FALSE(compiled->is_terminated());
  ASSERT_EQ(compiled->active_leaf_names().size(), 1u);

  compiled->dispatch(Event{"step"});
  EXPECT_EQ(exits, 1);
  EXPECT_EQ(enters, 5);
  compiled->dispatch(Event{"reset"});  // Re-enters the whole hierarchy.
  EXPECT_EQ(exits, 1 + 4);
  EXPECT_EQ(enters, 5 + 4);
}

}  // namespace
}  // namespace umlsoc::statechart
