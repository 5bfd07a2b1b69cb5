// compile: the paper's model -> RTL flow over seeded SoC models. Chosen
// because no kernel or disk is involved, so a slowdown in code it shares
// with the runtime (statechart compile, uml queries) shows here even when
// soak and verify hide it.
//
// One unit is one model: PIM from the IP library plus SW task classes and
// one flattenable statechart per hardware module; XMI write and read back;
// uml, SoC-profile and ASL-constraint validation; software and hardware
// MDA transforms; RTL module, testbench and top; SystemC-style C++, SW C++
// and PlantUML; the RTL FSM, compile() and the C++ plan tables for each
// statechart. Oracles are structural: XMI round-trips structurally equal,
// generated RTL is balanced, generated C++ is balanced, and no error
// diagnostic is raised.
#include "asl/constraints.hpp"
#include "codegen/plantuml.hpp"
#include "codegen/rtl.hpp"
#include "codegen/software.hpp"
#include "codegen/systemc.hpp"
#include "rig.hpp"
#include "soc/validate.hpp"
#include "statechart/compile.hpp"
#include "statechart/synthetic.hpp"
#include "support/rng.hpp"
#include "support/strings.hpp"
#include "uml/compare.hpp"
#include "uml/query.hpp"
#include "uml/validate.hpp"
#include "workloads.hpp"
#include "xmi/behavior.hpp"
#include "xmi/serialize.hpp"

namespace perfbench {

namespace {

constexpr std::uint64_t kShapes = 36;  ///< Distinct model shapes.
constexpr std::uint64_t kPool = 144;   ///< Models per block (shape = index % kShapes).

constexpr const char* kIps[] = {"Uart", "SpiMaster", "Timer", "DmaEngine"};

struct UnitCounts {
  std::uint64_t xmi_bytes = 0;
  std::uint64_t links = 0;
  std::uint64_t loc = 0;
};

class CompileWorkload final : public Workload {
 public:
  explicit CompileWorkload(const WorkloadOptions& options) : options_(options) {}

  const char* work_name() const override { return "generated_lines"; }

  bool set_up(std::string& problem) override {
    library_ = std::make_unique<soc::IpLibrary>();
    library_->add_standard_ips();
    constraints_ = std::make_unique<asl::ConstraintSet>();
    support::DiagnosticSink sink;
    constraints_->add("hw-xor-sw", uml::ElementKind::kClass,
                      "not (has_stereotype(\"HwModule\") and has_stereotype(\"SwTask\"))", sink);
    constraints_->add("enums-have-literals", uml::ElementKind::kEnumeration,
                      "literal_count() > 0", sink);
    if (sink.has_errors()) {
      problem = "constraints: " + sink.str();
      return false;
    }
    return true;
  }

  bool run_block(std::vector<UnitSample>& out, std::string& problem) override {
    UnitCounts total;
    for (std::uint64_t k = 0; k < kPool; ++k) {
      trace_unit(k);
      const std::uint64_t start = now_ns();
      UnitCounts unit;
      std::string unit_problem;
      const bool ok = compile_model(k, unit, unit_problem);
      if (!ok && first_failure.empty()) first_failure = unit_problem;
      out.push_back(UnitSample{now_ns() - start, ok, static_cast<double>(unit.loc)});
      total.xmi_bytes += unit.xmi_bytes;
      total.links += unit.links;
      total.loc += unit.loc;
    }
    if (counts.empty()) {
      const double n = static_cast<double>(kPool);
      counts["xmi.bytes"] = static_cast<double>(total.xmi_bytes) / n;
      counts["mda.links"] = static_cast<double>(total.links) / n;
      counts["codegen.loc"] = static_cast<double>(total.loc) / n;
      counts["statechart.fallback_machines"] = 0;  // compile() failing is an oracle failure.
    }
    (void)problem;
    return true;
  }

 private:
  /// The PIM of model `k`. The shape (IP count and kinds, SW class count)
  /// is the same for every seed; the seed varies names, register defaults,
  /// operation bodies and the statecharts.
  std::unique_ptr<uml::Model> build_pim(
      std::uint64_t k, std::vector<std::unique_ptr<statechart::StateMachine>>& machines,
      support::DiagnosticSink& sink) {
    const std::uint64_t shape = k % kShapes;
    support::Rng rng(mix(options_.seed, k));
    auto pim = std::make_unique<uml::Model>("Soc" + std::to_string(k));
    uml::Package& ip = pim->add_package("ip");
    const std::size_t ip_count = 2 + shape % 3;
    std::vector<uml::Component*> modules;
    for (std::size_t i = 0; i < ip_count; ++i) {
      const char* kind = kIps[(shape / 3 + i) % std::size(kIps)];
      const std::string name =
          std::string(kind) + std::to_string(rng.below(100)) + "_" + std::to_string(i);
      uml::Component* module = library_->instantiate(kind, *pim, ip, name, sink);
      if (module == nullptr) return nullptr;
      modules.push_back(module);
      std::unique_ptr<statechart::StateMachine> machine =
          statechart::make_random_hierarchical_machine(rng.next(), 2, 3, 3);
      machine->set_context(*module);
      machines.push_back(std::move(machine));
    }
    soc::SocProfile profile = soc::SocProfile::install(*pim);
    uml::Package& app = pim->add_package("app");
    const std::size_t task_count = 1 + (shape / 12) % 3;
    for (std::size_t t = 0; t < task_count; ++t) {
      uml::Class& task = app.add_class("Task" + std::to_string(t));
      task.apply_stereotype(*profile.sw_task);
      task.set_tagged_value(*profile.sw_task, "priority", std::to_string(1 + rng.below(15)));
      const std::size_t fields = 2 + rng.below(3);
      for (std::size_t f = 0; f < fields; ++f) {
        task.add_property("f" + std::to_string(f), &pim->primitive("Integer", 32))
            .set_default_value(std::to_string(rng.below(100)));
      }
      uml::Operation& step = task.add_operation("step");
      step.add_parameter("input", &pim->primitive("Integer", 32));
      std::string body = "acc := self.f0 + input * ";
      body += std::to_string(1 + rng.below(7));
      body += "; if (acc > ";
      body += std::to_string(rng.below(1000));
      body += ") { self.f1 := acc; } return acc;";
      step.set_body(body);
      step.set_return_type(pim->primitive("Integer", 32));
      uml::Association& uses = app.add_association("drives" + std::to_string(t));
      uses.add_end("task", task);
      uses.add_end("device", *modules[t % modules.size()]);
    }
    return pim;
  }

  bool compile_model(std::uint64_t k, UnitCounts& counts, std::string& problem) {
    support::DiagnosticSink sink;
    const auto fail = [&](const std::string& what) {
      problem = "model " + std::to_string(k) + ": " + what;
      if (sink.has_errors()) problem += "\n" + sink.str();
      return false;
    };
    std::vector<std::unique_ptr<statechart::StateMachine>> machines;
    const std::unique_ptr<uml::Model> pim = build_pim(k, machines, sink);
    if (pim == nullptr) return fail("PIM construction failed");

    std::string model_text;
    std::vector<std::string> machine_texts;
    {
      Span span("xmi.write");
      model_text = xmi::write_model(*pim);
      for (const auto& machine : machines) {
        machine_texts.push_back(xmi::write_state_machine(*machine));
      }
    }
    counts.xmi_bytes += model_text.size();
    for (const std::string& text : machine_texts) counts.xmi_bytes += text.size();

    std::unique_ptr<uml::Model> model;
    std::vector<std::unique_ptr<statechart::StateMachine>> read_machines;
    {
      Span span("xmi.read");
      model = xmi::read_model(model_text, sink);
      for (const std::string& text : machine_texts) {
        read_machines.push_back(xmi::read_state_machine(text, sink));
      }
    }
    if (model == nullptr) return fail("XMI read failed");
    {
      support::DiagnosticSink compare_sink;
      if (!uml::structurally_equal(*pim, *model, compare_sink)) {
        return fail("XMI round trip is not structurally equal: " + compare_sink.str());
      }
    }
    for (std::size_t i = 0; i < machines.size(); ++i) {
      if (read_machines[i] == nullptr ||
          read_machines[i]->all_vertices().size() != machines[i]->all_vertices().size() ||
          read_machines[i]->all_transitions().size() != machines[i]->all_transitions().size()) {
        return fail("statechart XMI round trip changed the machine");
      }
    }

    std::optional<soc::SocProfile> profile;
    {
      Span span("uml.validate");
      uml::validate(*model, sink);
      profile = soc::SocProfile::find(*model);
      if (profile.has_value()) {
        soc::validate_soc(*model, *profile, sink);
        constraints_->check(*model, sink);
      }
    }
    if (!profile.has_value()) return fail("read-back model has no SoC profile");
    if (sink.has_errors()) return fail("validation errors");

    mda::MdaResult sw;
    mda::MdaResult hw;
    {
      Span span("mda.transform");
      sw = mda::transform(*model, mda::PlatformDescription::software(), sink);
      hw = mda::transform(*model, mda::PlatformDescription::hardware(), sink);
    }
    if (sw.psm == nullptr || hw.psm == nullptr) return fail("MDA transform failed");
    counts.links += sw.links.size() + hw.links.size();
    const std::optional<soc::SocProfile> hw_profile = soc::SocProfile::find(*hw.psm);
    if (!hw_profile.has_value()) return fail("hardware PSM has no SoC profile");
    std::vector<uml::Class*> hw_modules;
    for (uml::Class* cls : uml::collect<uml::Class>(*hw.psm)) {
      if (cls->has_stereotype(*hw_profile->hw_module)) hw_modules.push_back(cls);
    }
    const auto* top =
        dynamic_cast<const uml::Class*>(uml::find_by_qualified_name(*hw.psm, "top.Top"));
    if (hw_modules.empty() || top == nullptr) return fail("hardware PSM lacks modules or top");

    std::vector<std::string> rtl;
    std::vector<std::string> cpp;
    std::vector<std::string> other;
    {
      Span span("codegen.rtl");
      for (const uml::Class* module : hw_modules) {
        rtl.push_back(codegen::generate_rtl_module(*module, *hw_profile, sink));
        rtl.push_back(codegen::generate_rtl_testbench(*module, *hw_profile, sink));
      }
      rtl.push_back(codegen::generate_rtl_top(*top, *hw_profile, sink));
    }
    {
      Span span("codegen.systemc");
      for (const uml::Class* module : hw_modules) {
        cpp.push_back(codegen::generate_sim_module(*module, *hw_profile, sink));
      }
    }
    {
      Span span("codegen.sw");
      for (const uml::Class* cls : uml::collect<uml::Class>(*sw.psm)) {
        other.push_back(codegen::generate_sw_class(*cls, sink));
      }
    }
    {
      Span span("codegen.plantuml");
      other.push_back(codegen::to_plantuml_class_diagram(*model));
      for (const auto& machine : read_machines) {
        other.push_back(codegen::to_plantuml_statechart(*machine));
      }
    }
    {
      Span span("codegen.rtl_fsm");
      for (const auto& machine : read_machines) {
        rtl.push_back(codegen::generate_rtl_fsm(*machine, sink));
      }
    }
    for (std::size_t i = 0; i < read_machines.size(); ++i) {
      std::unique_ptr<statechart::CompiledMachine> compiled;
      {
        Span span("statechart.compile");
        compiled = statechart::compile(*read_machines[i], sink);
      }
      if (compiled == nullptr) return fail("compile() rejected a flattenable machine");
      Span span("codegen.tables");
      other.push_back(codegen::generate_statechart_tables(*compiled, "m" + std::to_string(i)));
    }
    if (sink.has_errors()) return fail("code generation errors");

    support::DiagnosticSink structure;
    for (const std::string& text : rtl) {
      if (text.empty() || !codegen::check_rtl_structure(text, structure)) {
        return fail("unbalanced RTL: " + structure.str());
      }
    }
    for (const std::string& text : cpp) {
      if (text.empty() || !codegen::check_cpp_structure(text, structure)) {
        return fail("unbalanced C++: " + structure.str());
      }
    }
    for (const auto* texts : {&rtl, &cpp, &other}) {
      for (const std::string& text : *texts) counts.loc += support::count_nonempty_lines(text);
    }
    return true;
  }

  WorkloadOptions options_;
  std::unique_ptr<soc::IpLibrary> library_;
  std::unique_ptr<asl::ConstraintSet> constraints_;
};

}  // namespace

std::unique_ptr<Workload> make_compile(const WorkloadOptions& options) {
  return std::make_unique<CompileWorkload>(options);
}

}  // namespace perfbench
