// Differential property tests pinning the AOT-compiled plan-table engine
// (compile.hpp) to the hierarchical interpreter (the reference semantics),
// compared snapshot-for-snapshot after EVERY dispatch over the synthetic
// model zoo, uart-style guarded/error-channel machines and choice/junction
// routes: identical configurations, history memory, variables,
// emitted/deferred events and all four counters, under ordinary and
// error-channel dispatch.
#include <gtest/gtest.h>

#include "statechart/compile.hpp"
#include "statechart/interpreter.hpp"
#include "statechart/synthetic.hpp"
#include "statechart/validate.hpp"
#include "support/rng.hpp"
#include "verify/explore.hpp"
#include "verify/property.hpp"

namespace umlsoc::statechart {
namespace {

// --- Interpreter vs compiled plan-table engine --------------------------------------

void expect_snapshots_equal(const InstanceSnapshot& reference, const InstanceSnapshot& compiled,
                            const std::string& where) {
  EXPECT_EQ(reference.started, compiled.started) << where;
  EXPECT_EQ(reference.terminated, compiled.terminated) << where;
  EXPECT_EQ(reference.active_states, compiled.active_states) << where;
  EXPECT_EQ(reference.active_finals, compiled.active_finals) << where;
  EXPECT_EQ(reference.shallow_history, compiled.shallow_history) << where;
  EXPECT_EQ(reference.deep_history, compiled.deep_history) << where;
  EXPECT_EQ(reference.variables, compiled.variables) << where;
  EXPECT_EQ(reference.queue.size(), compiled.queue.size()) << where;
  EXPECT_EQ(reference.deferred.size(), compiled.deferred.size()) << where;
  EXPECT_EQ(reference.events_processed, compiled.events_processed) << where;
  EXPECT_EQ(reference.transitions_fired, compiled.transitions_fired) << where;
  EXPECT_EQ(reference.errors_raised, compiled.errors_raised) << where;
  EXPECT_EQ(reference.errors_unhandled, compiled.errors_unhandled) << where;
  ASSERT_EQ(reference, compiled) << where;
}

/// Runs both engines over `machine` in lockstep: every event in `stream` is
/// dispatched to both (through the error channel when `error` is set) and
/// the full snapshots must match after every single dispatch.
struct StreamEntry {
  Event event;
  bool error = false;
};

void run_lockstep(const StateMachine& machine, const std::vector<StreamEntry>& stream) {
  support::DiagnosticSink compile_sink;
  auto compiled = compile(machine, compile_sink);
  ASSERT_NE(compiled, nullptr) << compile_sink.str();

  StateMachineInstance interpreter(machine);
  interpreter.set_trace_enabled(false);
  interpreter.start();
  compiled->start();
  expect_snapshots_equal(interpreter.capture(), compiled->capture(),
                         machine.name() + " after start");

  for (std::size_t step = 0; step < stream.size(); ++step) {
    const StreamEntry& entry = stream[step];
    bool reference_fired = false;
    bool compiled_fired = false;
    if (entry.error) {
      reference_fired = interpreter.dispatch_error(entry.event);
      compiled_fired = compiled->dispatch_error(entry.event);
    } else {
      reference_fired = interpreter.dispatch(entry.event);
      compiled_fired = compiled->dispatch(entry.event);
    }
    const std::string where = machine.name() + " step " + std::to_string(step) + " event " +
                              entry.event.name + (entry.error ? " (error channel)" : "");
    ASSERT_EQ(reference_fired, compiled_fired) << where;
    expect_snapshots_equal(interpreter.capture(), compiled->capture(), where);
  }
}

std::vector<StreamEntry> random_stream(std::uint64_t seed,
                                       const std::vector<std::string>& alphabet,
                                       std::size_t length, double error_chance = 0.0) {
  support::Rng rng(seed);
  std::vector<StreamEntry> stream;
  stream.reserve(length);
  for (std::size_t i = 0; i < length; ++i) {
    StreamEntry entry;
    entry.event = Event{alphabet[static_cast<std::size_t>(rng.below(alphabet.size()))],
                        static_cast<std::int64_t>(rng.below(8))};
    entry.error = error_chance > 0.0 && rng.chance(error_chance);
    stream.push_back(std::move(entry));
  }
  return stream;
}

TEST(CompiledDifferential, SyntheticZooChain) {
  auto machine = make_chain_machine(16);
  run_lockstep(*machine, random_stream(11, {"e", "nope"}, 400));
}

TEST(CompiledDifferential, SyntheticZooNested) {
  for (const auto& [depth, width] : {std::pair<std::size_t, std::size_t>{2, 2}, {4, 3}, {8, 4}}) {
    auto machine = make_nested_machine(depth, width);
    run_lockstep(*machine, random_stream(depth * 31 + width, {"step", "reset", "junk"}, 400));
  }
}

TEST(CompiledDifferential, SyntheticZooOrthogonal) {
  for (const auto& [regions, states] : {std::pair<std::size_t, std::size_t>{2, 2}, {3, 4}}) {
    auto machine = make_orthogonal_machine(regions, states);
    run_lockstep(*machine,
                 random_stream(regions * 7 + states, {"tick", "r0", "r1", "r2", "zz"}, 400));
  }
}

class CompiledRandomZoo : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CompiledRandomZoo, AgreesWithInterpreter) {
  const std::uint64_t seed = GetParam();
  auto machine = make_random_hierarchical_machine(seed, 3, 4, 4);
  support::DiagnosticSink validate_sink;
  ASSERT_TRUE(validate(*machine, validate_sink)) << validate_sink.str();
  run_lockstep(*machine, random_stream(seed * 977 + 13, {"e0", "e1", "e2", "e3", "e4"}, 500));
}

INSTANTIATE_TEST_SUITE_P(Seeds, CompiledRandomZoo,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 21, 34, 55, 89,
                                           144, 233));

// --- Feature machines: history, deferral, terminate, error channel -----------------

/// Composite with shallow history re-entry (compiled engine's dynamic-entry
/// fallback) plus a deep-history sibling over a nested region.
std::unique_ptr<StateMachine> make_history_machine() {
  auto machine = std::make_unique<StateMachine>("history");
  Region& top = machine->top();
  Pseudostate& initial = top.add_initial();
  State& off = top.add_state("Off");
  State& on = top.add_state("On");
  top.add_transition(initial, off);

  Region& run = on.add_region("run");
  Pseudostate& run_initial = run.add_initial();
  Pseudostate& shallow = run.add_pseudostate(VertexKind::kShallowHistory, "H");
  State& a = run.add_state("A");
  State& b = run.add_state("B");
  State& c = run.add_state("C");
  run.add_transition(run_initial, a);
  run.add_transition(a, b).set_trigger("adv");
  run.add_transition(b, c).set_trigger("adv");
  run.add_transition(c, a).set_trigger("adv");

  // Deep variant: C itself is composite, so deep history restores leaves.
  Region& inner = c.add_region("cr");
  Pseudostate& inner_initial = inner.add_initial();
  State& c1 = inner.add_state("C1");
  State& c2 = inner.add_state("C2");
  inner.add_transition(inner_initial, c1);
  inner.add_transition(c1, c2).set_trigger("inner");
  inner.add_transition(c2, c1).set_trigger("inner");

  Pseudostate& deep = run.add_pseudostate(VertexKind::kDeepHistory, "Hs");
  State& paused = top.add_state("Paused");
  top.add_transition(off, shallow).set_trigger("on");    // Enter via shallow history.
  top.add_transition(on, off).set_trigger("off");
  top.add_transition(on, paused).set_trigger("pause");
  top.add_transition(paused, deep).set_trigger("resume");  // Enter via deep history.
  return machine;
}

TEST(CompiledDifferential, ShallowAndDeepHistory) {
  auto machine = make_history_machine();
  run_lockstep(*machine, random_stream(42, {"on", "off", "adv", "inner", "pause", "resume"},
                                       600));
}

/// Deferred events: Busy defers "req"; returning to Idle recalls them.
std::unique_ptr<StateMachine> make_defer_machine() {
  auto machine = std::make_unique<StateMachine>("deferred");
  Region& top = machine->top();
  Pseudostate& initial = top.add_initial();
  State& idle = top.add_state("Idle");
  State& busy = top.add_state("Busy");
  State& work = top.add_state("Work");
  top.add_transition(initial, idle);
  busy.add_deferred("req");
  top.add_transition(idle, work).set_trigger("req");
  top.add_transition(work, idle).set_trigger("done");
  top.add_transition(idle, busy).set_trigger("lock");
  top.add_transition(busy, idle).set_trigger("unlock");
  return machine;
}

TEST(CompiledDifferential, DeferredEvents) {
  auto machine = make_defer_machine();
  run_lockstep(*machine, random_stream(7, {"req", "done", "lock", "unlock"}, 600));
}

/// Terminate pseudostate: "kill" from inside a composite ends the machine.
std::unique_ptr<StateMachine> make_terminate_machine() {
  auto machine = std::make_unique<StateMachine>("terminating");
  Region& top = machine->top();
  Pseudostate& initial = top.add_initial();
  State& running = top.add_state("Running");
  Pseudostate& terminate = top.add_pseudostate(VertexKind::kTerminate, "X");
  top.add_transition(initial, running);

  Region& inner = running.add_region("r");
  Pseudostate& inner_initial = inner.add_initial();
  State& a = inner.add_state("a");
  State& b = inner.add_state("b");
  inner.add_transition(inner_initial, a);
  inner.add_transition(a, b).set_trigger("flip");
  inner.add_transition(b, a).set_trigger("flip");

  top.add_transition(running, terminate).set_trigger("kill");
  return machine;
}

TEST(CompiledDifferential, TerminatePseudostate) {
  auto machine = make_terminate_machine();
  // Includes dispatches after termination (both must be dead no-ops).
  run_lockstep(*machine, random_stream(3, {"flip", "kill", "flip"}, 200));
}

/// uart_soc-style machine: guarded retries over an engine variable, an
/// error-event channel into a Fault state, recovery back to Idle. Guards
/// and effects read/write through ActionContext, so they are engine-blind.
std::unique_ptr<StateMachine> make_uart_style_machine() {
  auto machine = std::make_unique<StateMachine>("uartlink");
  Region& top = machine->top();
  Pseudostate& initial = top.add_initial();
  State& idle = top.add_state("Idle");
  State& sending = top.add_state("Sending");
  State& fault = top.add_state("Fault");
  FinalState& done = top.add_final("done");
  top.add_transition(initial, idle);

  top.add_transition(idle, sending)
      .set_trigger("tx")
      .set_effect("retries = 0", [](ActionContext& ctx) { ctx.instance.set_variable("retries", 0); });
  top.add_transition(sending, idle).set_trigger("ack");
  top.add_transition(sending, sending)
      .set_trigger("nak")
      .set_guard("retries < 3",
                 [](const ActionContext& ctx) { return ctx.instance.variable("retries") < 3; })
      .set_effect("retries++", [](ActionContext& ctx) {
        ctx.instance.set_variable("retries", ctx.instance.variable("retries") + 1);
      });
  top.add_transition(sending, fault)
      .set_trigger("nak")
      .set_guard("retries >= 3",
                 [](const ActionContext& ctx) { return ctx.instance.variable("retries") >= 3; });
  top.add_transition(sending, fault).set_trigger("bus_error");
  top.add_transition(idle, fault).set_trigger("bus_error");
  top.add_transition(fault, idle).set_trigger("reset");
  top.add_transition(idle, done).set_trigger("shutdown");
  return machine;
}

TEST(CompiledDifferential, UartStyleGuardsAndErrorChannel) {
  auto machine = make_uart_style_machine();
  // ~20% of events arrive through the error channel; "bus_error" is only
  // handled in Idle/Sending, so unhandled-error counting is exercised too.
  run_lockstep(*machine,
               random_stream(99, {"tx", "ack", "nak", "bus_error", "reset", "noise"}, 600,
                             0.2));
}

TEST(CompiledDifferential, SnapshotsInterchangeableBetweenEngines) {
  auto machine = make_history_machine();
  support::DiagnosticSink sink;
  auto compiled = compile(*machine, sink);
  ASSERT_NE(compiled, nullptr) << sink.str();

  StateMachineInstance interpreter(*machine);
  interpreter.set_trace_enabled(false);
  interpreter.start();
  for (const char* name : {"on", "adv", "adv", "inner", "pause"}) {
    interpreter.dispatch(Event{name});
  }

  // Interpreter snapshot restores into the compiled engine and vice versa;
  // both continue identically from the restored point.
  ASSERT_TRUE(compiled->restore(interpreter.capture(), sink)) << sink.str();
  expect_snapshots_equal(interpreter.capture(), compiled->capture(), "after cross-restore");
  for (const char* name : {"resume", "inner", "off", "on"}) {
    const Event event{name};
    ASSERT_EQ(interpreter.dispatch(event), compiled->dispatch(event)) << name;
    expect_snapshots_equal(interpreter.capture(), compiled->capture(),
                           std::string("continuing after ") + name);
  }

  StateMachineInstance second(*machine);
  second.set_trace_enabled(false);
  ASSERT_TRUE(second.restore(compiled->capture(), sink)) << sink.str();
  expect_snapshots_equal(second.capture(), compiled->capture(), "round trip into interpreter");
}

// --- Choice and junction routes ----------------------------------------------------

std::function<bool(const ActionContext&)> var_is(const char* name, std::int64_t value) {
  return [name, value](const ActionContext& ctx) { return ctx.instance.variable(name) == value; };
}

/// Effect that appends `digit` to variable `name` (decimal), so the
/// variable records which segment effects ran and in which order.
std::function<void(ActionContext&)> append(const char* name, std::int64_t digit) {
  return [name, digit](ActionContext& ctx) {
    ctx.instance.set_variable(name, (ctx.instance.variable(name) * 10 + digit) % 1000000);
  };
}

std::function<void(ActionContext&)> flip(const char* name) {
  return [name](ActionContext& ctx) {
    ctx.instance.set_variable(name, 1 - ctx.instance.variable(name));
  };
}

/// The branch guard reads `x`, which the incoming segment's effect bumps:
/// guards see x before the bump, so the route alternates B / C (else).
TEST(CompiledDifferential, ChoiceGuardReadsVariableTheIncomingEffectWrites) {
  StateMachine machine("guard_before_effect");
  Region& top = machine.top();
  State& a = top.add_state("A");
  State& b = top.add_state("B");
  State& c = top.add_state("C");
  Pseudostate& pick = top.add_pseudostate(VertexKind::kChoice, "pick");
  top.add_transition(top.add_initial(), a);
  top.add_transition(a, pick).set_trigger("go").set_effect("x := x + 1", [](ActionContext& ctx) {
    ctx.instance.set_variable("x", (ctx.instance.variable("x") + 1) % 4);
  });
  top.add_transition(pick, b).set_guard("x == 1", var_is("x", 1));
  top.add_transition(pick, c).set_guard(Guard{"else", nullptr});
  top.add_transition(b, a).set_trigger("back");
  top.add_transition(c, a).set_trigger("back");
  run_lockstep(machine, random_stream(5, {"go", "back", "go", "noise"}, 300));
}

/// Two junction hops, each segment with its own effect; the second hop
/// branches on a flag toggled by an internal transition.
TEST(CompiledDifferential, TwoHopJunctionChainRunsEverySegmentEffect) {
  StateMachine machine("junction_chain");
  Region& top = machine.top();
  State& a = top.add_state("A");
  State& b = top.add_state("B");
  State& c = top.add_state("C");
  Pseudostate& first = top.add_pseudostate(VertexKind::kJunction, "j1");
  Pseudostate& second = top.add_pseudostate(VertexKind::kJunction, "j2");
  top.add_transition(top.add_initial(), a);
  top.add_transition(a, a).set_trigger("toggle").set_internal(true).set_effect("f := 1 - f",
                                                                               flip("f"));
  top.add_transition(a, first).set_trigger("go").set_effect("trail 1", append("trail", 1));
  top.add_transition(first, second).set_effect("trail 2", append("trail", 2));
  top.add_transition(second, b).set_guard("f == 1", var_is("f", 1)).set_effect(
      "trail 3", append("trail", 3));
  top.add_transition(second, c).set_effect("trail 4", append("trail", 4));
  top.add_transition(b, a).set_trigger("back");
  top.add_transition(c, a).set_trigger("back");
  run_lockstep(machine, random_stream(17, {"go", "back", "toggle"}, 300));
}

/// The else branch is declared first but taken last: only when the
/// guarded branch declared after it is closed.
TEST(CompiledDifferential, ChoiceElseFallback) {
  StateMachine machine("else_fallback");
  Region& top = machine.top();
  State& a = top.add_state("A");
  State& b = top.add_state("B");
  State& c = top.add_state("C");
  Pseudostate& pick = top.add_pseudostate(VertexKind::kChoice, "pick");
  top.add_transition(top.add_initial(), a);
  top.add_transition(a, a).set_trigger("set").set_internal(true).set_effect("open := 1 - open",
                                                                            flip("open"));
  top.add_transition(a, pick).set_trigger("go");
  top.add_transition(pick, c).set_guard(Guard{"else", nullptr}).set_effect("trail 9",
                                                                           append("trail", 9));
  top.add_transition(pick, b).set_guard("open == 1", var_is("open", 1));
  top.add_transition(b, a).set_trigger("back");
  top.add_transition(c, a).set_trigger("back");
  run_lockstep(machine, random_stream(23, {"go", "back", "set"}, 300));
}

/// A route with no open branch and no else changes nothing and fires no
/// transition, but its selection still recalls deferred events (A defers
/// "req"), exactly as in the interpreter.
TEST(CompiledDifferential, ChoiceDeadEndChangesNothingButRecallsDeferred) {
  StateMachine machine("dead_end");
  Region& top = machine.top();
  State& a = top.add_state("A");
  State& b = top.add_state("B");
  Pseudostate& pick = top.add_pseudostate(VertexKind::kChoice, "pick");
  a.add_deferred("req");
  top.add_transition(top.add_initial(), a);
  top.add_transition(a, a).set_trigger("set").set_internal(true).set_effect("open := 1 - open",
                                                                            flip("open"));
  top.add_transition(a, pick).set_trigger("go").set_effect("trail 5", append("trail", 5));
  top.add_transition(pick, b).set_guard("open == 1", var_is("open", 1));
  top.add_transition(b, a).set_trigger("req");
  top.add_transition(b, a).set_trigger("back");
  run_lockstep(machine, random_stream(29, {"go", "req", "set", "back", "req"}, 400));
}

/// Default entry of a composite through initial -> choice: the entered
/// child depends on a mode variable at entry time; segment effects of the
/// initial route run before the child is entered.
TEST(CompiledDifferential, InitialToChoiceInsideComposite) {
  StateMachine machine("initial_choice");
  Region& top = machine.top();
  State& idle = top.add_state("Idle");
  State& busy = top.add_state("Busy");
  top.add_transition(top.add_initial(), idle);
  top.add_transition(idle, idle).set_trigger("mode").set_internal(true).set_effect(
      "mode := 1 - mode", flip("mode"));
  top.add_transition(idle, busy).set_trigger("enter");
  top.add_transition(busy, idle).set_trigger("out");
  Region& inner = busy.add_region("inner");
  State& x = inner.add_state("X");
  State& y = inner.add_state("Y");
  Pseudostate& pick = inner.add_pseudostate(VertexKind::kChoice, "pick");
  inner.add_transition(inner.add_initial(), pick).set_effect("trail 1", append("trail", 1));
  inner.add_transition(pick, x).set_guard("mode == 1", var_is("mode", 1)).set_effect(
      "trail 2", append("trail", 2));
  inner.add_transition(pick, y).set_guard(Guard{"else", nullptr}).set_effect("trail 3",
                                                                             append("trail", 3));
  inner.add_transition(x, y).set_trigger("swap");
  inner.add_transition(y, x).set_trigger("swap");
  run_lockstep(machine, random_stream(31, {"mode", "enter", "out", "swap"}, 400));
}

/// Orthogonal regions R0 and R1 both react to "ev"; R0 (first in document
/// order) fires first and bumps `count`, then R1's choice sees the bumped
/// count and routes out of the parallel state, exiting the configuration
/// R0 has just entered.
TEST(CompiledDifferential, ChoiceLeavesParallelStateAfterSiblingFired) {
  StateMachine machine("parallel_exit");
  Region& top = machine.top();
  State& parallel = top.add_state("P");
  State& out = top.add_state("Out");
  top.add_transition(top.add_initial(), parallel);
  top.add_transition(out, parallel).set_trigger("back");
  Region& r0 = parallel.add_region("R0");
  State& a0 = r0.add_state("a0");
  State& a1 = r0.add_state("a1");
  r0.add_transition(r0.add_initial(), a0);
  r0.add_transition(a0, a1).set_trigger("ev").set_effect("count := count + 1",
                                                         [](ActionContext& ctx) {
                                                           ctx.instance.set_variable(
                                                               "count",
                                                               (ctx.instance.variable("count") +
                                                                1) % 3);
                                                         });
  r0.add_transition(a1, a0).set_trigger("ev");
  Region& r1 = parallel.add_region("R1");
  State& b0 = r1.add_state("b0");
  State& b1 = r1.add_state("b1");
  Pseudostate& pick = r1.add_pseudostate(VertexKind::kChoice, "pick");
  r1.add_transition(r1.add_initial(), b0);
  r1.add_transition(b0, pick).set_trigger("ev");
  r1.add_transition(pick, out).set_guard("count == 2", var_is("count", 2)).set_effect(
      "trail 7", append("trail", 7));
  r1.add_transition(pick, b1).set_guard(Guard{"else", nullptr});
  r1.add_transition(b1, b0).set_trigger("ev");
  run_lockstep(machine, random_stream(37, {"ev", "back", "ev"}, 400));
}

/// A choice routes either into the composite's shallow history or into a
/// plain default entry.
TEST(CompiledDifferential, ChoiceTargetsShallowHistory) {
  StateMachine machine("choice_history");
  Region& top = machine.top();
  State& off = top.add_state("Off");
  State& on = top.add_state("On");
  Pseudostate& pick = top.add_pseudostate(VertexKind::kChoice, "pick");
  top.add_transition(top.add_initial(), off);
  top.add_transition(off, off).set_trigger("toggle").set_internal(true).set_effect(
      "resume := 1 - resume", flip("resume"));
  top.add_transition(off, pick).set_trigger("on");
  top.add_transition(on, off).set_trigger("off");
  Region& run = on.add_region("run");
  State& a = run.add_state("A");
  State& b = run.add_state("B");
  State& c = run.add_state("C");
  Pseudostate& history = run.add_pseudostate(VertexKind::kShallowHistory, "H");
  run.add_transition(run.add_initial(), a);
  run.add_transition(a, b).set_trigger("adv");
  run.add_transition(b, c).set_trigger("adv");
  run.add_transition(c, a).set_trigger("adv");
  top.add_transition(pick, history).set_guard("resume == 1", var_is("resume", 1));
  top.add_transition(pick, on).set_guard(Guard{"else", nullptr});
  run_lockstep(machine, random_stream(41, {"on", "off", "adv", "toggle"}, 500));
}

// Verifier counterexamples replay identically on both engines: explore a
// uart-style machine to a property violation, then drive the recorded event
// path from result.initial through a fresh interpreter and a fresh compiled
// machine in lockstep, ending in the same (violating) configuration.
TEST(CompiledDifferential, ReplayedCounterexamplesMatchAcrossEngines) {
  auto machine = make_uart_style_machine();

  StateMachineInstance explored(*machine);
  explored.set_trace_enabled(false);
  explored.start();
  verify::Network network;
  network.add_instance("uart", explored);
  network.add_choice("uart", Event("tx"));
  network.add_choice("uart", Event("nak"));
  network.add_choice("uart", Event("reset"));
  network.add_choice("uart", Event("bus_error"), /*is_error=*/true);

  std::vector<verify::Property> properties;
  properties.push_back(verify::Property::never_in("uart", "Fault"));

  verify::ExploreResult result = verify::explore(network, properties);
  ASSERT_EQ(result.termination, verify::ExploreResult::Termination::kViolation);
  ASSERT_FALSE(result.violations.empty());
  const verify::Violation& violation = result.violations.front();
  ASSERT_FALSE(violation.path.empty());

  support::DiagnosticSink sink;
  auto compiled = compile(*machine, sink);
  ASSERT_NE(compiled, nullptr) << sink.str();
  StateMachineInstance interpreter(*machine);
  interpreter.set_trace_enabled(false);
  ASSERT_EQ(result.initial.size(), 1u);
  ASSERT_TRUE(interpreter.restore(result.initial.front(), sink)) << sink.str();
  ASSERT_TRUE(compiled->restore(result.initial.front(), sink)) << sink.str();
  expect_snapshots_equal(interpreter.capture(), compiled->capture(), "at result.initial");

  for (std::size_t i = 0; i < violation.path.size(); ++i) {
    const verify::EventChoice& choice = violation.path[i];
    bool fired_reference = false;
    bool fired_compiled = false;
    if (choice.is_error) {
      fired_reference = interpreter.dispatch_error(choice.event);
      fired_compiled = compiled->dispatch_error(choice.event);
    } else {
      fired_reference = interpreter.dispatch(choice.event);
      fired_compiled = compiled->dispatch(choice.event);
    }
    EXPECT_EQ(fired_reference, fired_compiled) << "replay step " << i;
    expect_snapshots_equal(interpreter.capture(), compiled->capture(),
                           "replay step " + std::to_string(i) + " of " +
                               std::to_string(violation.path.size()));
  }
  // Both engines land on the violating state the verifier reported.
  EXPECT_TRUE(interpreter.is_in("Fault"));
  EXPECT_TRUE(compiled->is_in("Fault"));
}

}  // namespace
}  // namespace umlsoc::statechart
