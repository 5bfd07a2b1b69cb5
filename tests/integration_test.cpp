// Cross-module integration tests: the full flows of DESIGN.md wired
// end-to-end (library -> PIM -> XMI -> MDA -> codegen -> simulation, and
// activity -> codesign -> schedule).
#include <gtest/gtest.h>

#include "activity/interpreter.hpp"
#include "activity/synthetic.hpp"
#include "codegen/hwmodel.hpp"
#include "codegen/rtl.hpp"
#include "codegen/software.hpp"
#include "codegen/systemc.hpp"
#include "codegen/swruntime.hpp"
#include "codesign/partition.hpp"
#include "interaction/trace.hpp"
#include "mda/transform.hpp"
#include "soc/iplibrary.hpp"
#include "soc/validate.hpp"
#include "statechart/interpreter.hpp"
#include "uml/compare.hpp"
#include "uml/query.hpp"
#include "uml/validate.hpp"
#include "xmi/serialize.hpp"

namespace umlsoc {
namespace {

TEST(Integration, LibraryToSimulatedUartViaXmiAndMda) {
  support::DiagnosticSink sink;

  // 1. PIM from the IP library.
  soc::IpLibrary library;
  library.add_standard_ips();
  uml::Model pim("Soc");
  uml::Package& ip = pim.add_package("ip");
  ASSERT_NE(library.instantiate("Uart", pim, ip, "Uart", sink), nullptr) << sink.str();
  ASSERT_NE(library.instantiate("Timer", pim, ip, "Timer", sink), nullptr) << sink.str();

  // 2. The PIM survives an XMI round-trip losslessly.
  std::string xmi_text = xmi::write_model(pim);
  std::unique_ptr<uml::Model> pim2 = xmi::read_model(xmi_text, sink);
  ASSERT_NE(pim2, nullptr) << sink.str();
  support::DiagnosticSink compare_sink;
  ASSERT_TRUE(uml::structurally_equal(pim, *pim2, compare_sink)) << compare_sink.str();

  // 3. MDA hardware mapping of the *re-read* model.
  mda::MdaResult hw = mda::transform(*pim2, mda::PlatformDescription::hardware(), sink);
  ASSERT_NE(hw.psm, nullptr);
  ASSERT_EQ(hw.memory_map.size(), 2u);  // Uart + Timer windows.
  std::optional<soc::SocProfile> profile = soc::SocProfile::find(*hw.psm);
  ASSERT_TRUE(profile.has_value());
  support::DiagnosticSink validation_sink;
  EXPECT_TRUE(uml::validate(*hw.psm, validation_sink)) << validation_sink.str();
  EXPECT_TRUE(soc::validate_soc(*hw.psm, *profile, validation_sink)) << validation_sink.str();

  // 4. RTL for every module; structurally sane.
  for (const mda::MemoryWindow& window : hw.memory_map) {
    (void)window;
  }
  auto* uart =
      dynamic_cast<uml::Component*>(uml::find_by_qualified_name(*hw.psm, "ip.Uart"));
  auto* timer =
      dynamic_cast<uml::Component*>(uml::find_by_qualified_name(*hw.psm, "ip.Timer"));
  ASSERT_NE(uart, nullptr);
  ASSERT_NE(timer, nullptr);
  for (const uml::Component* module : {uart, timer}) {
    std::string rtl = codegen::generate_rtl_module(*module, *profile, sink);
    support::DiagnosticSink structure_sink;
    EXPECT_TRUE(codegen::check_rtl_structure(rtl, structure_sink))
        << module->name() << ":\n"
        << structure_sink.str();
  }

  // 5. Both modules live on one bus; a driver programs both.
  sim::Kernel kernel;
  sim::MemoryMappedBus bus(kernel, "axi", sim::SimTime::ns(4));
  codegen::HwModuleSim uart_sim(*uart, *profile, sink);
  codegen::HwModuleSim timer_sim(*timer, *profile, sink);
  uart_sim.map_onto(bus, hw.memory_map[0].base);
  timer_sim.map_onto(bus, hw.memory_map[1].base);

  codegen::BusMasterContext driver(kernel, bus);
  driver.set_attribute("uart", asl::Value{static_cast<std::int64_t>(hw.memory_map[0].base)});
  driver.set_attribute("timer",
                       asl::Value{static_cast<std::int64_t>(hw.memory_map[1].base)});
  driver.run(
      "bus_write(self.uart + 12, 54);"   // Uart divisor @0x0C.
      "bus_write(self.timer + 0, 1000);" // Timer load @0x00.
      "bus_write(self.timer + 8, 1);");  // Timer ctrl @0x08.
  EXPECT_EQ(uart_sim.peek("divisor"), 54u);
  EXPECT_EQ(timer_sim.peek("load"), 1000u);
  EXPECT_EQ(timer_sim.peek("ctrl"), 1u);
  EXPECT_EQ(bus.errors(), 0u);
  EXPECT_FALSE(sink.has_errors()) << sink.str();
}

TEST(Integration, SwPsmDriverBodiesActuallyDriveTheHardware) {
  support::DiagnosticSink sink;

  // PIM with a «HwModule»; the SW mapping generates driver ASL bodies.
  uml::Model pim("M");
  soc::SocProfile profile = soc::SocProfile::install(pim);
  uml::Class& hw_class = pim.add_package("hw").add_class("Pwm");
  hw_class.apply_stereotype(*profile.hw_module);
  uml::Property& duty = hw_class.add_property("duty", &pim.primitive("Word", 32));
  duty.apply_stereotype(*profile.hw_register);
  duty.set_tagged_value(*profile.hw_register, "address", "0x4");

  mda::MdaResult sw = mda::transform(pim, mda::PlatformDescription::software(), sink);
  auto* driver_class =
      dynamic_cast<uml::Class*>(uml::find_by_qualified_name(*sw.psm, "hw.PwmDriver"));
  ASSERT_NE(driver_class, nullptr);
  const uml::Operation* write_op = driver_class->find_operation("write_duty");
  const uml::Operation* read_op = driver_class->find_operation("read_duty");
  ASSERT_NE(write_op, nullptr);
  ASSERT_NE(read_op, nullptr);

  // HW PSM of the same PIM provides the executable register file.
  mda::MdaResult hw = mda::transform(pim, mda::PlatformDescription::hardware(), sink);
  std::optional<soc::SocProfile> hw_profile = soc::SocProfile::find(*hw.psm);
  auto* module = dynamic_cast<uml::Component*>(uml::find_by_qualified_name(*hw.psm, "hw.Pwm"));
  ASSERT_NE(module, nullptr);

  sim::Kernel kernel;
  sim::MemoryMappedBus bus(kernel, "axi", sim::SimTime::ns(2));
  codegen::HwModuleSim pwm(*module, *hw_profile, sink);
  pwm.map_onto(bus, 0x40000000);

  // Execute the *generated* driver bodies against the simulated hardware.
  codegen::BusMasterContext context(kernel, bus);
  context.set_attribute("base", asl::Value{std::int64_t{0x40000000}});
  context.set_attribute("value", asl::Value{std::int64_t{750}});
  context.run(write_op->body());
  EXPECT_EQ(pwm.peek("duty"), 750u);
  auto read_back = context.run(read_op->body());
  ASSERT_TRUE(read_back.has_value());
  EXPECT_EQ(read_back->as_int(), 750);
}

TEST(Integration, SwPsmClassesTranslateToCompilableShapedCpp) {
  support::DiagnosticSink sink;
  uml::Model pim("M");
  soc::SocProfile profile = soc::SocProfile::install(pim);
  uml::Class& hw_class = pim.add_package("hw").add_class("Gpio");
  hw_class.apply_stereotype(*profile.hw_module);
  uml::Property& data_reg = hw_class.add_property("data", &pim.primitive("Word", 32));
  data_reg.apply_stereotype(*profile.hw_register);

  mda::MdaResult sw = mda::transform(pim, mda::PlatformDescription::software(), sink);
  for (uml::Class* cls : uml::collect<uml::Class>(*sw.psm)) {
    std::string text = codegen::generate_sw_class(*cls, sink);
    support::DiagnosticSink structure_sink;
    EXPECT_TRUE(codegen::check_cpp_structure(text, structure_sink))
        << cls->name() << ":\n"
        << text;
  }
}

TEST(Integration, ActivityToPartitionToScheduleConsistency) {
  auto pipeline = activity::make_media_pipeline();

  // The token game and the task graph agree on what executes: every task in
  // the schedule fired exactly once in the execution.
  activity::ActivityExecution execution(*pipeline);
  ASSERT_EQ(execution.run(), activity::RunStatus::kTerminated);

  codesign::TaskGraph graph = codesign::extract_task_graph(*pipeline);
  codesign::CostModel model;
  model.area_budget = graph.total_hw_area() * 0.5;
  codesign::PartitionResult best = codesign::partition_exhaustive(graph, model);
  ASSERT_TRUE(best.evaluation.feasible);

  std::vector<codesign::ScheduledTask> schedule =
      codesign::build_schedule(graph, best.partition, model);
  ASSERT_EQ(schedule.size(), graph.size());
  double makespan = 0;
  for (const codesign::ScheduledTask& task : schedule) {
    const activity::ActivityNode* node = pipeline->find_node(task.name);
    ASSERT_NE(node, nullptr) << task.name;
    EXPECT_EQ(execution.firings_of(*node), 1u);
    makespan = std::max(makespan, task.finish);
  }
  EXPECT_DOUBLE_EQ(makespan, best.evaluation.makespan);
}

TEST(Integration, StatechartTraceConformsToScenario) {
  // The specified protocol: configure, then 1..* transfers, then shutdown.
  interaction::Interaction spec("DmaProtocol");
  interaction::Lifeline& cpu = spec.add_lifeline("Cpu");
  interaction::Lifeline& dma = spec.add_lifeline("Dma");
  spec.add_message(cpu, dma, "configure");
  interaction::Fragment& loop = spec.add_combined(interaction::InteractionOperator::kLoop);
  loop.set_loop_bounds(1, -1);
  interaction::Operand& body = loop.add_operand();
  body.add_message(cpu, dma, "kick");
  body.add_message(dma, cpu, "done");
  spec.add_message(cpu, dma, "shutdown");

  // The DMA controller statechart.
  statechart::StateMachine machine("DmaCtrl");
  statechart::Region& top = machine.top();
  statechart::Pseudostate& initial = top.add_initial();
  statechart::State& unconfigured = top.add_state("Unconfigured");
  statechart::State& idle = top.add_state("Idle");
  statechart::State& busy = top.add_state("Busy");
  statechart::FinalState& off = top.add_final();
  top.add_transition(initial, unconfigured);
  top.add_transition(unconfigured, idle).set_trigger("configure");
  top.add_transition(idle, busy).set_trigger("kick");
  top.add_transition(busy, idle).set_trigger("done");
  top.add_transition(idle, off).set_trigger("shutdown");

  statechart::StateMachineInstance instance(machine);
  instance.start();
  interaction::Trace observed;
  auto drive = [&](const char* event, const char* label) {
    ASSERT_TRUE(instance.dispatch({event})) << event;
    observed.push_back(label);
  };
  drive("configure", "Cpu->Dma:configure");
  for (int i = 0; i < 3; ++i) {
    drive("kick", "Cpu->Dma:kick");
    drive("done", "Dma->Cpu:done");
  }
  drive("shutdown", "Cpu->Dma:shutdown");
  EXPECT_TRUE(instance.is_in_final_state());

  interaction::ConformanceChecker checker(spec);
  EXPECT_TRUE(checker.conforms(observed));

  // A protocol violation (kick before configure) must be caught both ways:
  // the machine discards it AND the mutated trace fails conformance.
  statechart::StateMachineInstance fresh(machine);
  fresh.start();
  EXPECT_FALSE(fresh.dispatch({"kick"}));
  interaction::Trace bad = observed;
  std::swap(bad[0], bad[1]);
  EXPECT_FALSE(checker.conforms(bad));
}

TEST(Integration, HwPsmRoundTripsThroughXmiWithWorkingRegisters) {
  support::DiagnosticSink sink;
  soc::IpLibrary library;
  library.add_standard_ips();
  uml::Model pim("M");
  library.instantiate("SpiMaster", pim, pim.add_package("ip"), "Spi", sink);
  mda::MdaResult hw = mda::transform(pim, mda::PlatformDescription::hardware(), sink);

  // PSM -> XMI -> PSM, then build the executable model from the re-read PSM.
  std::unique_ptr<uml::Model> psm2 = xmi::read_model(xmi::write_model(*hw.psm), sink);
  ASSERT_NE(psm2, nullptr) << sink.str();
  std::optional<soc::SocProfile> profile = soc::SocProfile::find(*psm2);
  ASSERT_TRUE(profile.has_value());
  auto* module = dynamic_cast<uml::Class*>(uml::find_by_qualified_name(*psm2, "ip.Spi"));
  ASSERT_NE(module, nullptr);

  codegen::HwModuleSim spi(*module, *profile, sink);
  spi.write_register(0x0, 0xAB);  // data register from the catalog.
  EXPECT_EQ(spi.peek("data"), 0xABu);
  EXPECT_FALSE(sink.has_errors()) << sink.str();
}

}  // namespace
}  // namespace umlsoc
