// E3 "Statechart execution": events/sec vs hierarchy depth and orthogonal
// region count, plus the interpreter-vs-plan-table comparison (E16).
// Expected shape: hierarchical dispatch cost grows with depth and with the
// active-configuration size; the compiled plan tables dispatch in ~O(1) in
// the depth, so the gap widens with depth.
#include <benchmark/benchmark.h>

#include "statechart/compile.hpp"
#include "statechart/interpreter.hpp"
#include "statechart/synthetic.hpp"

namespace {

using namespace umlsoc;
using namespace umlsoc::statechart;

void BM_DispatchChain(benchmark::State& state) {
  auto machine = make_chain_machine(static_cast<std::size_t>(state.range(0)));
  StateMachineInstance instance(*machine);
  instance.set_trace_enabled(false);
  instance.start();
  for (auto _ : state) {
    instance.dispatch({"e"});
  }
  state.counters["events/s"] =
      benchmark::Counter(static_cast<double>(state.iterations()), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_DispatchChain)->Arg(2)->Arg(16)->Arg(128);

void BM_DispatchOrthogonalRegions(benchmark::State& state) {
  auto machine = make_orthogonal_machine(static_cast<std::size_t>(state.range(0)), 4);
  StateMachineInstance instance(*machine);
  instance.set_trace_enabled(false);
  instance.start();
  for (auto _ : state) {
    instance.dispatch({"tick"});  // Fires one transition per region.
  }
  state.counters["regions"] = static_cast<double>(state.range(0));
  state.counters["transitions/s"] = benchmark::Counter(
      static_cast<double>(state.iterations()) * static_cast<double>(state.range(0)),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_DispatchOrthogonalRegions)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

// Interpreter-vs-AOT head-to-head (E16): same deep-hierarchy machine, same
// event stream, hierarchical tree walk vs precomputed plan-table stepper.
void BM_StatechartDispatch(benchmark::State& state) {
  auto machine = make_nested_machine(static_cast<std::size_t>(state.range(0)), 4);
  StateMachineInstance instance(*machine);
  instance.set_trace_enabled(false);
  instance.start();
  for (auto _ : state) {
    instance.dispatch({"step"});
  }
  state.counters["depth"] = static_cast<double>(state.range(0));
  state.counters["events/s"] =
      benchmark::Counter(static_cast<double>(state.iterations()), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_StatechartDispatch)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

void BM_CompiledDispatch(benchmark::State& state) {
  auto machine = make_nested_machine(static_cast<std::size_t>(state.range(0)), 4);
  support::DiagnosticSink sink;
  auto compiled = compile(*machine, sink);
  if (compiled == nullptr) {
    state.SkipWithError("compile failed");
    return;
  }
  compiled->start();
  for (auto _ : state) {
    compiled->dispatch({"step"});
  }
  state.counters["depth"] = static_cast<double>(state.range(0));
  state.counters["plan_bytes"] = static_cast<double>(compiled->table_bytes());
  state.counters["events/s"] =
      benchmark::Counter(static_cast<double>(state.iterations()), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_CompiledDispatch)->Arg(4)->Arg(8);

void BM_CompileCost(benchmark::State& state) {
  auto machine = make_nested_machine(static_cast<std::size_t>(state.range(0)), 4);
  for (auto _ : state) {
    support::DiagnosticSink sink;
    auto compiled = compile(*machine, sink);
    benchmark::DoNotOptimize(compiled);
  }
}
BENCHMARK(BM_CompileCost)->Arg(2)->Arg(8);

void BM_HistoryRestoration(benchmark::State& state) {
  // pause/resume cycle through a deep-history pseudostate.
  StateMachine machine("hist");
  Region& top = machine.top();
  Pseudostate& initial = top.add_initial();
  State& work = top.add_state("Work");
  State& paused = top.add_state("Paused");
  top.add_transition(initial, work);
  Region& wr = work.add_region("r");
  Pseudostate& winit = wr.add_initial();
  Pseudostate& history = wr.add_pseudostate(VertexKind::kDeepHistory, "H");
  State* previous = nullptr;
  for (int i = 0; i < state.range(0); ++i) {
    State& s = wr.add_state("s" + std::to_string(i));
    if (previous == nullptr) {
      wr.add_transition(winit, s);
    } else {
      wr.add_transition(*previous, s).set_trigger("next");
    }
    previous = &s;
  }
  top.add_transition(work, paused).set_trigger("pause");
  top.add_transition(paused, history).set_trigger("resume");

  StateMachineInstance instance(machine);
  instance.set_trace_enabled(false);
  instance.start();
  for (auto _ : state) {
    instance.dispatch({"pause"});
    instance.dispatch({"resume"});
  }
  state.counters["substates"] = static_cast<double>(state.range(0));
}
BENCHMARK(BM_HistoryRestoration)->Arg(4)->Arg(32);

}  // namespace
