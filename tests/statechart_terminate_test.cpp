// Tests for the terminate pseudostate: reaching it kills the machine
// immediately, without running exit actions, and dispatch becomes a no-op.
#include <gtest/gtest.h>

#include "codegen/rtl.hpp"
#include "statechart/interpreter.hpp"
#include "statechart/validate.hpp"
#include "xmi/behavior.hpp"

namespace umlsoc::statechart {
namespace {

struct TerminateFixture {
  StateMachine machine{"m"};
  State* work = nullptr;
  int exits = 0;

  TerminateFixture() {
    Region& top = machine.top();
    Pseudostate& initial = top.add_initial();
    work = &top.add_state("Work");
    work->set_exit(Behavior{"cleanup", [this](ActionContext&) { ++exits; }});
    Pseudostate& kill = top.add_pseudostate(VertexKind::kTerminate, "X");
    top.add_transition(initial, *work);
    top.add_transition(*work, kill).set_trigger("abort");
  }
};

TEST(Terminate, KillsMachine) {
  TerminateFixture f;
  StateMachineInstance instance(f.machine);
  instance.start();
  EXPECT_FALSE(instance.is_terminated());
  EXPECT_TRUE(instance.dispatch({"abort"}));
  EXPECT_TRUE(instance.is_terminated());
  EXPECT_TRUE(instance.configuration().empty());
  // Dead: further dispatches are no-ops.
  EXPECT_FALSE(instance.dispatch({"abort"}));
  EXPECT_FALSE(instance.dispatch({"anything"}));
}

TEST(Terminate, ExitActionOfSourceStillRunsButNotesTerminate) {
  // UML says terminate skips exit behaviors of the *remaining* config; the
  // fired transition's own exit sequence has already run by the time the
  // terminate vertex is entered — our semantics documents exactly that.
  TerminateFixture f;
  StateMachineInstance instance(f.machine);
  instance.start();
  instance.dispatch({"abort"});
  EXPECT_EQ(f.exits, 1);  // Work was exited by the firing transition.
  bool noted = false;
  for (const std::string& entry : instance.trace()) {
    if (entry == "terminate") noted = true;
  }
  EXPECT_TRUE(noted);
}

TEST(Terminate, PendingQueueCleared) {
  TerminateFixture f;
  StateMachineInstance instance(f.machine);
  instance.start();
  instance.post({"abort"});
  instance.post({"abort"});
  instance.post({"abort"});
  instance.run_to_quiescence();
  EXPECT_TRUE(instance.is_terminated());
  EXPECT_EQ(instance.events_processed(), 1u);  // Rest of the queue dropped.
}

TEST(Terminate, ValidatorRejectsOutgoing) {
  StateMachine machine("m");
  Region& top = machine.top();
  Pseudostate& initial = top.add_initial();
  State& a = top.add_state("A");
  Pseudostate& kill = top.add_pseudostate(VertexKind::kTerminate, "X");
  top.add_transition(initial, a);
  top.add_transition(a, kill).set_trigger("die");
  top.add_transition(kill, a).set_trigger("undead");
  support::DiagnosticSink sink;
  EXPECT_FALSE(validate(machine, sink));
  EXPECT_NE(sink.str().find("terminate pseudostate has outgoing"), std::string::npos);
}

TEST(Terminate, RtlFsmEncodesTheDeadConfiguration) {
  TerminateFixture f;
  support::DiagnosticSink sink;
  const std::string text = codegen::generate_rtl_fsm(f.machine, sink);
  ASSERT_FALSE(text.empty()) << sink.str();
  EXPECT_NE(text.find("localparam S_terminated = 1'd1;"), std::string::npos) << text;
  EXPECT_NE(text.find("if (ev_abort) state <= S_terminated;"), std::string::npos) << text;
}

TEST(Terminate, SurvivesXmiRoundTrip) {
  TerminateFixture f;
  std::string text = xmi::write_state_machine(f.machine);
  support::DiagnosticSink sink;
  auto reread = xmi::read_state_machine(text, sink);
  ASSERT_NE(reread, nullptr) << sink.str();

  StateMachineInstance instance(*reread);
  instance.start();
  instance.dispatch({"abort"});
  EXPECT_TRUE(instance.is_terminated());
}

}  // namespace
}  // namespace umlsoc::statechart
