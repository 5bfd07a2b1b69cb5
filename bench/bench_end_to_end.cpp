// E11 "End-to-end flow": the full pipeline — IP library -> PIM -> hardware
// PSM -> executable register-file model on the simulated bus, driven by
// generated-style ASL driver code — versus a hand-written C++ reference of
// the same transaction sequence. Expected shape: the model-interpreted path
// costs 1-3 orders of magnitude over hand-written C++ (the price of
// interpretation), while producing identical register state — correctness
// is asserted every iteration.
#include <benchmark/benchmark.h>

#include <stdexcept>

#include "asl/parser.hpp"
#include "codegen/hwmodel.hpp"
#include "codegen/swruntime.hpp"
#include "mda/transform.hpp"
#include "soc/iplibrary.hpp"
#include "uml/query.hpp"

namespace {

using namespace umlsoc;

struct Flow {
  std::unique_ptr<uml::Model> pim = std::make_unique<uml::Model>("UartSoc");
  mda::MdaResult hw;
  std::optional<soc::SocProfile> psm_profile;
  uml::Component* psm_uart = nullptr;
  std::uint64_t base = 0;

  Flow() {
    support::DiagnosticSink sink;
    soc::IpLibrary library;
    library.add_standard_ips();
    uml::Package& ip = pim->add_package("ip");
    library.instantiate("Uart", *pim, ip, "Uart", sink);
    hw = mda::transform(*pim, mda::PlatformDescription::hardware(), sink);
    psm_profile = soc::SocProfile::find(*hw.psm);
    psm_uart =
        dynamic_cast<uml::Component*>(uml::find_by_qualified_name(*hw.psm, "ip.Uart"));
    base = hw.memory_map.empty() ? 0x40000000 : hw.memory_map[0].base;
    if (psm_uart == nullptr || sink.has_errors()) {
      throw std::runtime_error("end-to-end flow setup failed:\n" + sink.str());
    }
  }
};

void BM_FlowModelToExecutable(benchmark::State& state) {
  // Whole flow cost: library -> PIM -> PSM -> runtime model construction.
  for (auto _ : state) {
    Flow flow;
    support::DiagnosticSink sink;
    codegen::HwModuleSim module(*flow.psm_uart, *flow.psm_profile, sink);
    benchmark::DoNotOptimize(module.peek("divisor"));
  }
}
BENCHMARK(BM_FlowModelToExecutable)->Unit(benchmark::kMillisecond);

void BM_GeneratedDriverOnSimulatedBus(benchmark::State& state) {
  Flow flow;
  support::DiagnosticSink sink;
  codegen::HwModuleSim module(*flow.psm_uart, *flow.psm_profile, sink);

  sim::Kernel kernel;
  sim::MemoryMappedBus bus(kernel, "axi", sim::SimTime::ns(8));
  module.map_onto(bus, flow.base);

  codegen::BusMasterContext driver(kernel, bus);
  driver.set_attribute("base", asl::Value{static_cast<std::int64_t>(flow.base)});

  // Parse once (like a generated artifact), execute per iteration.
  support::DiagnosticSink parse_sink;
  auto program = asl::parse(
      "bus_write(self.base + 12, 434);"
      "i := 0;"
      "while (i < 8) { bus_write(self.base + 0, 65 + i); i := i + 1; }"
      "return bus_read(self.base + 12);",
      parse_sink);
  if (!program.has_value()) {
    state.SkipWithError(parse_sink.str().c_str());
    return;
  }

  std::uint64_t transactions = 0;
  for (auto _ : state) {
    asl::Environment environment(driver);
    asl::Interpreter interpreter;
    auto result = interpreter.execute(*program, environment);
    transactions += 10;  // 9 writes + 1 read per run.
    if (!result.has_value() || result->as_int() != 434 || module.peek("tx_data") != 72) {
      state.SkipWithError("end-to-end result mismatch");
      return;
    }
  }
  state.counters["bus_xfers/s"] = benchmark::Counter(static_cast<double>(transactions),
                                                     benchmark::Counter::kIsRate);
}
BENCHMARK(BM_GeneratedDriverOnSimulatedBus);

void BM_HandWrittenReference(benchmark::State& state) {
  // The authors'-testbed analogue: the same register sequence hand-coded in
  // C++ against a plain struct (no model, no bus, no interpreter).
  struct UartRef {
    std::uint32_t tx_data = 0;
    std::uint32_t rx_data = 0;
    std::uint32_t status = 0;
    std::uint32_t divisor = 0;
  } uart;

  std::uint64_t transactions = 0;
  for (auto _ : state) {
    uart.divisor = 434;
    for (std::uint32_t i = 0; i < 8; ++i) uart.tx_data = 65 + i;
    benchmark::DoNotOptimize(uart.divisor);
    transactions += 10;
    if (uart.tx_data != 72) {
      state.SkipWithError("reference mismatch");
      return;
    }
  }
  state.counters["bus_xfers/s"] = benchmark::Counter(static_cast<double>(transactions),
                                                     benchmark::Counter::kIsRate);
}
BENCHMARK(BM_HandWrittenReference);

void BM_BehavioralHwModelDispatch(benchmark::State& state) {
  // Register write with an attached statechart behavior (event per write).
  Flow flow;
  support::DiagnosticSink sink;
  codegen::HwModuleSim module(*flow.psm_uart, *flow.psm_profile, sink);

  statechart::StateMachine machine("ctrl");
  statechart::Region& top = machine.top();
  statechart::Pseudostate& initial = top.add_initial();
  statechart::State& idle = top.add_state("Idle");
  statechart::State& busy = top.add_state("Busy");
  top.add_transition(initial, idle);
  top.add_transition(idle, busy).set_trigger("write_tx_data");
  top.add_transition(busy, idle).set_trigger("write_tx_data");
  if (!module.attach_behavior(machine, sink)) {
    state.SkipWithError(sink.str().c_str());
    return;
  }

  for (auto _ : state) {
    module.write_register(0x0, 0x55);
  }
  state.counters["writes/s"] =
      benchmark::Counter(static_cast<double>(state.iterations()), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_BehavioralHwModelDispatch);

}  // namespace
