#include "codegen/rtl.hpp"

#include <algorithm>
#include <cctype>
#include <map>
#include <memory>
#include <unordered_map>
#include <unordered_set>

#include "statechart/compile.hpp"
#include "support/strings.hpp"

namespace umlsoc::codegen {

namespace {

std::string hex(std::uint64_t value) {
  if (value == 0) return "0";
  const char* digits = "0123456789abcdef";
  std::string out;
  while (value != 0) {
    out.insert(out.begin(), digits[value & 0xF]);
    value >>= 4;
  }
  return out;
}

std::string range_of(int width) {
  if (width <= 1) return "       ";
  std::string range = "[" + std::to_string(width - 1) + ":0]";
  while (range.size() < 7) range += ' ';
  return range;
}

std::string direction_keyword(uml::PortDirection direction) {
  switch (direction) {
    case uml::PortDirection::kIn:
      return "input ";
    case uml::PortDirection::kOut:
      return "output";
    case uml::PortDirection::kInOut:
      return "inout ";
  }
  return "input ";
}

struct RegisterInfo {
  std::string verilog_name;
  std::uint64_t address = 0;
  std::string access = "rw";
  std::string reset = "0";
};

std::vector<RegisterInfo> collect_registers(const uml::Class& module,
                                            const soc::SocProfile& profile,
                                            support::DiagnosticSink& sink) {
  std::vector<RegisterInfo> registers;
  std::uint64_t next_free = 0;
  for (const auto& property : module.properties()) {
    if (!property->has_stereotype(*profile.hw_register)) continue;
    RegisterInfo info;
    info.verilog_name = support::to_snake_case(property->name());
    std::optional<std::uint64_t> address = profile.register_address(*property);
    if (!address.has_value()) {
      sink.warning(property->qualified_name(), "register address missing; auto-assigned");
      address = next_free;
    }
    info.address = *address;
    next_free = std::max(next_free, info.address + 4);
    info.access = profile.register_access(*property);
    std::string reset = property->tagged_value(*profile.hw_register, "reset");
    if (!reset.empty()) info.reset = reset;
    registers.push_back(std::move(info));
  }
  std::sort(registers.begin(), registers.end(),
            [](const RegisterInfo& a, const RegisterInfo& b) { return a.address < b.address; });
  return registers;
}

/// Localparam name and description of one configuration, built from its
/// active leaves in document order: states with no active descendant, and
/// final states. A single-leaf configuration is S_<qualified leaf>; the
/// empty configuration (after terminate) is S_terminated.
std::pair<std::string, std::string> configuration_encoding(
    const std::vector<const statechart::Vertex*>& vertices, std::vector<std::uint32_t> members) {
  std::sort(members.begin(), members.end());
  std::unordered_set<const statechart::Vertex*> inner;
  for (const std::uint32_t member : members) {
    for (const statechart::State* ancestor = vertices[member]->containing_state();
         ancestor != nullptr; ancestor = ancestor->containing_state()) {
      inner.insert(ancestor);
    }
  }
  std::vector<std::string> identifiers;
  std::vector<std::string> names;
  for (const std::uint32_t member : members) {
    if (inner.contains(vertices[member])) continue;
    identifiers.push_back(support::to_snake_case(vertices[member]->qualified_name()));
    names.push_back(vertices[member]->qualified_name());
  }
  if (names.empty()) return {"S_terminated", "(terminated)"};
  return {"S_" + support::join(identifiers, "__"), support::join(names, " + ")};
}

}  // namespace

std::string generate_rtl_module(const uml::Class& module, const soc::SocProfile& profile,
                                support::DiagnosticSink& sink, const RtlOptions& options) {
  const std::string name = support::to_snake_case(module.name());
  const int width = options.data_width;
  std::vector<RegisterInfo> registers = collect_registers(module, profile, sink);

  std::string out = "// Generated by umlsoc from " + module.qualified_name() + "\n";
  out += "module " + name + " (\n";

  std::vector<std::string> port_lines;
  bool has_clk = false;
  bool has_rst = false;
  for (const auto& port : module.ports()) {
    const std::string port_name = support::to_snake_case(port->name());
    if (port_name == "clk") has_clk = true;
    if (port_name == "rst_n") has_rst = true;
    if (port_name == "s_axi") continue;  // Replaced by the register-file bus.
    port_lines.push_back("  " + direction_keyword(port->direction()) + " wire " +
                         range_of(port->width()) + " " + port_name);
  }
  if (!has_clk) port_lines.insert(port_lines.begin(), "  input  wire         clk");
  if (!has_rst) port_lines.insert(port_lines.begin() + 1, "  input  wire         rst_n");
  if (options.include_register_file) {
    port_lines.push_back("  input  wire " + range_of(width) + " reg_addr");
    port_lines.push_back("  input  wire " + range_of(width) + " reg_wdata");
    port_lines.push_back("  input  wire         reg_wen");
    port_lines.push_back("  output reg  " + range_of(width) + " reg_rdata");
    port_lines.push_back("  output reg          reg_error");
  }
  out += support::join(port_lines, ",\n") + "\n);\n\n";

  for (const RegisterInfo& reg : registers) {
    out += "  reg " + range_of(width) + " " + reg.verilog_name + ";  // @0x" +
           hex(reg.address) + " (" + reg.access + ")\n";
  }

  if (!registers.empty()) {
    out += "\n  always @(posedge clk or negedge rst_n) begin\n";
    out += "    if (!rst_n) begin\n";
    for (const RegisterInfo& reg : registers) {
      out += "      " + reg.verilog_name + " <= " + std::to_string(width) + "'d" + reg.reset +
             ";\n";
    }
    out += "    end else if (reg_wen) begin\n      case (reg_addr)\n";
    for (const RegisterInfo& reg : registers) {
      if (reg.access.find('w') == std::string::npos) continue;
      out += "        " + std::to_string(width) + "'h" + hex(reg.address) + ": " +
             reg.verilog_name + " <= reg_wdata;\n";
    }
    out += "        default: ;\n      endcase\n    end\n  end\n";

    out += "\n  always @(*) begin\n    case (reg_addr)\n";
    for (const RegisterInfo& reg : registers) {
      if (reg.access.find('r') == std::string::npos) continue;
      out += "      " + std::to_string(width) + "'h" + hex(reg.address) +
             ": reg_rdata = " + reg.verilog_name + ";\n";
    }
    out += "      default: reg_rdata = " + std::to_string(width) + "'d0;\n";
    out += "    endcase\n  end\n";

    // Decode-error flag mirroring the simulator's BusStatus::kError: an
    // address that decodes to no readable register raises reg_error, so a
    // master cannot confuse an all-ones register value with a bad access.
    out += "\n  always @(*) begin\n    case (reg_addr)\n";
    for (const RegisterInfo& reg : registers) {
      if (reg.access.find('r') == std::string::npos) continue;
      out += "      " + std::to_string(width) + "'h" + hex(reg.address) +
             ": reg_error = 1'b0;\n";
    }
    out += "      default: reg_error = 1'b1;\n";
    out += "    endcase\n  end\n";
  } else if (options.include_register_file) {
    out += "\n  always @(*) begin\n    reg_rdata = " + std::to_string(width) +
           "'d0;\n    reg_error = 1'b1;\n  end\n";
  }

  out += "endmodule\n";
  return out;
}

std::string generate_rtl_fsm(const statechart::StateMachine& machine,
                             support::DiagnosticSink& sink) {
  using statechart::CompiledMachine;
  std::unique_ptr<CompiledMachine> compiled = statechart::compile(machine, sink);
  if (compiled == nullptr) return {};

  // One case arm per (configuration, event) plan of the guards-open closure.
  struct Arm {
    std::uint32_t config = 0;
    std::uint32_t event = 0;
    std::uint32_t next = 0;
    std::vector<const statechart::Transition*> fired;
  };
  std::vector<Arm> arms;
  std::vector<std::uint32_t> configs;
  std::string problem_subject;
  std::string problem;  // First reason the closure has no static encoding.
  const auto reject = [&](const std::string& subject, const std::string& message) {
    if (!problem.empty()) return;
    problem_subject = subject;
    problem = message;
  };
  const bool complete = compiled->walk_guards_open_closure(
      configs, [&](const CompiledMachine::ClosureEdge& edge) {
        Arm arm{edge.config, edge.event, edge.next, {}};
        for (const std::uint32_t index : *edge.fired) {
          const CompiledMachine::Candidate& candidate = compiled->candidate_table()[index];
          const statechart::Transition* transition =
              compiled->transition_table()[candidate.transition].origin;
          if (edge.event == 0) reject(transition->str(), "completion transitions have no input");
          if (candidate.routed) {
            reject(transition->str(), "routes through a choice/junction, so its next state "
                                      "depends on run-time guards");
          }
          if (candidate.dynamic_entry) {
            reject(transition->str(), "enters through history or a choice/junction, so its "
                                      "next state depends on run-time memory or guards");
          }
          arm.fired.push_back(transition);
        }
        arms.push_back(std::move(arm));
      });
  if (configs.empty()) {
    reject(machine.name(), "the default entry crosses history or a choice/junction");
  } else if (!complete) {
    reject(machine.name(), "the reachable configurations exceed the compiler's seed caps");
  }
  if (!problem.empty()) {
    sink.error(problem_subject, "rtl: " + problem + "; no static state encoding");
    return {};
  }

  // Identifiers: two model elements must never map to one Verilog name.
  const std::size_t errors_before = sink.error_count();
  std::map<std::string, std::string> inputs;  // Port -> trigger, port order.
  std::vector<std::string> port_of(compiled->event_count());
  for (std::uint32_t event = 1; event < compiled->event_count(); ++event) {
    const std::string& trigger = compiled->event_name(event);
    port_of[event] = "ev_" + support::to_snake_case(trigger);
    const auto [it, inserted] = inputs.emplace(port_of[event], trigger);
    if (!inserted) {
      sink.error(machine.name(), "rtl: triggers '" + it->second + "' and '" + trigger +
                                     "' both map to input " + port_of[event]);
    }
  }
  const std::vector<const statechart::Vertex*> vertices = machine.all_vertices();
  std::vector<std::size_t> position(compiled->configuration_count());  // Config id -> encoding.
  std::unordered_map<std::string, std::string> encoded;  // Localparam -> states.
  std::vector<std::string> encodings;
  for (const std::uint32_t config : configs) {
    position[config] = encodings.size();
    const auto [encoding, states] =
        configuration_encoding(vertices, compiled->configuration_members(config));
    const auto [it, inserted] = encoded.emplace(encoding, states);
    if (!inserted) {
      sink.error(machine.name(), "rtl: states '" + it->second + "' and '" + states +
                                     "' both map to localparam " + encoding);
    }
    encodings.push_back(encoding);
  }
  if (sink.error_count() != errors_before) return {};

  const std::string name = support::to_snake_case(machine.name()) + "_fsm";
  int state_bits = 1;
  while ((std::size_t{1} << state_bits) < encodings.size()) ++state_bits;

  std::string out = "// Generated by umlsoc from state machine " + machine.name() + "\n";
  out += "module " + name + " (\n  input  wire clk,\n  input  wire rst_n";
  for (const auto& [port, trigger] : inputs) out += ",\n  input  wire " + port;
  out += ",\n  output reg  " + range_of(state_bits) + " state\n);\n\n";
  for (std::size_t i = 0; i < encodings.size(); ++i) {
    out += "  localparam " + encodings[i] + " = " + std::to_string(state_bits) + "'d" +
           std::to_string(i) + ";\n";
  }

  out += "\n  always @(posedge clk or negedge rst_n) begin\n";
  out += "    if (!rst_n) begin\n      state <= " + encodings.front() +
         ";\n    end else begin\n      case (state)\n";
  // The walk visits every event of one configuration before the next, so
  // each configuration's arms are contiguous.
  for (std::size_t i = 0; i < arms.size(); ++i) {
    const Arm& arm = arms[i];
    const bool first = i == 0 || arms[i - 1].config != arm.config;
    if (first) out += "        " + encodings[position[arm.config]] + ": begin\n";
    out += (first ? "          if (" : "          else if (") + port_of[arm.event] + ")";
    std::vector<std::string> guards;
    std::vector<std::string> effects;
    for (const statechart::Transition* transition : arm.fired) {
      if (!transition->guard().text.empty()) guards.push_back("[" + transition->guard().text + "]");
      if (!transition->effect().text.empty()) effects.push_back(transition->effect().text);
    }
    if (!guards.empty()) out += " /* " + support::join(guards, " ") + " */";
    out += " state <= " + encodings[position[arm.next]] + ";";
    if (!effects.empty()) out += "  // effect: " + support::join(effects, "; ");
    out += "\n";
    if (i + 1 == arms.size() || arms[i + 1].config != arm.config) out += "        end\n";
  }
  out += "        default: state <= " + encodings.front() + ";\n";
  out += "      endcase\n    end\n  end\nendmodule\n";
  return out;
}

std::string generate_rtl_top(const uml::Class& top, const soc::SocProfile& profile,
                             support::DiagnosticSink& sink) {
  (void)profile;
  const std::string name = support::to_snake_case(top.name());
  std::string out = "// Generated by umlsoc from " + top.qualified_name() + "\n";
  out += "module " + name + " (\n  input wire clk,\n  input wire rst_n\n);\n\n";

  // One wire per connector.
  for (const auto& connector : top.connectors()) {
    out += "  wire " + support::to_snake_case(connector->name()) + ";\n";
  }
  out += "\n";

  // Which connector touches (part, port)?
  auto wire_for = [&](const uml::Property* part, const uml::Port* port) -> std::string {
    for (const auto& connector : top.connectors()) {
      for (const uml::ConnectorEnd& end : connector->ends()) {
        if (end.part == part && end.port == port) {
          return support::to_snake_case(connector->name());
        }
      }
    }
    return {};
  };

  for (const auto& part : top.properties()) {
    if (!part->is_part()) continue;
    const auto* part_type = dynamic_cast<const uml::Class*>(part->type());
    if (part_type == nullptr) {
      sink.warning(part->qualified_name(), "part without class type skipped");
      continue;
    }
    out += "  " + support::to_snake_case(part_type->name()) + " " +
           support::to_snake_case(part->name()) + " (\n";
    std::vector<std::string> bindings = {"    .clk(clk)", "    .rst_n(rst_n)"};
    for (const auto& port : part_type->ports()) {
      const std::string port_name = support::to_snake_case(port->name());
      if (port_name == "clk" || port_name == "rst_n") continue;
      std::string wire = wire_for(part.get(), port.get());
      bindings.push_back("    ." + port_name + "(" + wire + ")");
    }
    out += support::join(bindings, ",\n") + "\n  );\n\n";
  }
  out += "endmodule\n";
  return out;
}

std::string generate_rtl_testbench(const uml::Class& module, const soc::SocProfile& profile,
                                   support::DiagnosticSink& sink) {
  const std::string name = support::to_snake_case(module.name());
  std::vector<RegisterInfo> registers = collect_registers(module, profile, sink);

  std::string out = "// Generated by umlsoc: testbench for " + module.qualified_name() + "\n";
  out += "`timescale 1ns/1ps\n";
  out += "module " + name + "_tb;\n";
  out += "  reg clk = 1'b0;\n  reg rst_n = 1'b0;\n";
  out += "  always #5 clk = ~clk;\n\n";
  out += "  reg  [31:0] reg_addr = 32'd0;\n";
  out += "  reg  [31:0] reg_wdata = 32'd0;\n";
  out += "  reg         reg_wen = 1'b0;\n";
  out += "  wire [31:0] reg_rdata;\n";
  out += "  wire        reg_error;\n";

  // Driver regs / monitor wires for the DUT's own ports.
  std::vector<std::string> bindings = {"    .clk(clk)", "    .rst_n(rst_n)",
                                       "    .reg_addr(reg_addr)", "    .reg_wdata(reg_wdata)",
                                       "    .reg_wen(reg_wen)", "    .reg_rdata(reg_rdata)",
                                       "    .reg_error(reg_error)"};
  for (const auto& port : module.ports()) {
    const std::string port_name = support::to_snake_case(port->name());
    if (port_name == "clk" || port_name == "rst_n" || port_name == "s_axi") continue;
    if (port->direction() == uml::PortDirection::kOut) {
      out += "  wire " + range_of(port->width()) + " " + port_name + ";\n";
    } else {
      out += "  reg  " + range_of(port->width()) + " " + port_name + " = 0;\n";
    }
    bindings.push_back("    ." + port_name + "(" + port_name + ")");
  }

  out += "\n  " + name + " dut (\n" + support::join(bindings, ",\n") + "\n  );\n\n";

  out += "  integer errors = 0;\n\n";
  out += "  task write_reg(input [31:0] addr, input [31:0] data);\n";
  out += "    begin\n      @(posedge clk);\n      reg_addr <= addr;\n";
  out += "      reg_wdata <= data;\n      reg_wen <= 1'b1;\n";
  out += "      @(posedge clk);\n      reg_wen <= 1'b0;\n    end\n  endtask\n\n";
  out += "  task read_check(input [31:0] addr, input [31:0] expected);\n";
  out += "    begin\n      @(posedge clk);\n      reg_addr <= addr;\n";
  out += "      @(posedge clk);\n      #1;\n";
  out += "      if (reg_rdata !== expected) begin\n";
  out += "        $display(\"FAIL addr=%h got=%h want=%h\", addr, reg_rdata, expected);\n";
  out += "        errors = errors + 1;\n      end\n    end\n  endtask\n\n";

  out += "  initial begin\n";
  out += "    repeat (4) @(posedge clk);\n    rst_n = 1'b1;\n    @(posedge clk);\n";
  std::uint64_t pattern = 0xA5;
  for (const RegisterInfo& reg : registers) {
    const bool readable = reg.access.find('r') != std::string::npos;
    const bool writable = reg.access.find('w') != std::string::npos;
    if (readable && !writable) {
      // Reset-value check only.
      out += "    read_check(32'h" + hex(reg.address) + ", 32'd" + reg.reset + ");  // " +
             reg.verilog_name + " (r)\n";
    } else if (writable) {
      out += "    write_reg(32'h" + hex(reg.address) + ", 32'h" + hex(pattern) + ");  // " +
             reg.verilog_name + "\n";
      if (readable) {
        out += "    read_check(32'h" + hex(reg.address) + ", 32'h" + hex(pattern) + ");\n";
      }
      pattern = pattern * 3 + 7;
    }
  }
  out += "    // Decode-error probe: an unmapped address must raise reg_error.\n";
  out += "    @(posedge clk);\n    reg_addr <= 32'hdeadbeef;\n    @(posedge clk);\n    #1;\n";
  out += "    if (reg_error !== 1'b1) begin\n";
  out += "      $display(\"FAIL unmapped address did not raise reg_error\");\n";
  out += "      errors = errors + 1;\n    end\n";
  out += "    if (errors == 0) $display(\"PASS " + name + "_tb\");\n";
  out += "    else $display(\"FAIL " + name + "_tb: %0d errors\", errors);\n";
  out += "    $finish;\n  end\nendmodule\n";
  return out;
}

bool check_rtl_structure(const std::string& text, support::DiagnosticSink& sink) {
  const std::size_t errors_before = sink.error_count();
  long modules = 0;
  long begins = 0;
  long cases = 0;

  // Token scan; comments are stripped line-wise first.
  std::size_t start = 0;
  while (start <= text.size()) {
    std::size_t end = text.find('\n', start);
    if (end == std::string::npos) end = text.size();
    std::string line = text.substr(start, end - start);
    std::size_t comment = line.find("//");
    if (comment != std::string::npos) line = line.substr(0, comment);

    std::size_t i = 0;
    while (i < line.size()) {
      if (std::isalpha(static_cast<unsigned char>(line[i])) == 0 && line[i] != '_') {
        ++i;
        continue;
      }
      std::size_t word_start = i;
      while (i < line.size() &&
             (std::isalnum(static_cast<unsigned char>(line[i])) != 0 || line[i] == '_')) {
        ++i;
      }
      std::string word = line.substr(word_start, i - word_start);
      if (word == "module") ++modules;
      if (word == "endmodule") --modules;
      if (word == "begin") ++begins;
      if (word == "end") --begins;
      if (word == "case" || word == "casez") ++cases;
      if (word == "endcase") --cases;
    }
    start = end + 1;
  }
  if (modules != 0) sink.error("rtl", "unbalanced module/endmodule (" + std::to_string(modules) + ")");
  if (begins != 0) sink.error("rtl", "unbalanced begin/end (" + std::to_string(begins) + ")");
  if (cases != 0) sink.error("rtl", "unbalanced case/endcase (" + std::to_string(cases) + ")");
  return sink.error_count() == errors_before;
}

}  // namespace umlsoc::codegen
