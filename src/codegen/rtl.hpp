// RTL (Verilog-2001 subset) code generation from hardware PSM elements —
// the step the paper calls out as undemonstrated: "the application of such
// code generation for hardware descriptions still needs to be demonstrated"
// (§3). Generates synthesizable-style register files from «HwModule»
// components and Moore FSMs from the statechart compiler's plan tables
// (statechart/compile.hpp), the same lowering the runtime executes.
#pragma once

#include <string>

#include "soc/profile.hpp"
#include "statechart/model.hpp"
#include "support/diagnostics.hpp"

namespace umlsoc::codegen {

struct RtlOptions {
  int data_width = 32;
  /// Emit the generated register-file bus (reg_addr/wdata/wen/rdata).
  bool include_register_file = true;
};

/// Emits one Verilog module for a «HwModule» class/component: ports from
/// the UML ports, a register file from «Register» properties (reset values
/// from the "reset" tag, write/read decode honoring the access mode).
[[nodiscard]] std::string generate_rtl_module(const uml::Class& module,
                                              const soc::SocProfile& profile,
                                              support::DiagnosticSink& sink,
                                              const RtlOptions& options = {});

/// Emits a Moore FSM module from the compiled plan tables: one input wire
/// per trigger, a state register, and a case-based transition block. The
/// state encoding is the guards-open closure of the plan tables: one
/// localparam per reachable configuration (named from its active leaves,
/// so orthogonal regions, final states and terminate are encoded), one
/// case arm per (configuration, event) plan whose next state is the
/// successor when every guard passes. Guards/effects of the fired
/// transitions appear as comments (they are not synthesizable as text);
/// events are not queued, so deferral has no hardware counterpart.
/// Rejects (error + empty result) machines whose closure holds a history
/// or choice/junction plan, a completion transition, or exceeds the
/// compiler's seed caps, and two model elements that map to one Verilog
/// identifier.
[[nodiscard]] std::string generate_rtl_fsm(const statechart::StateMachine& machine,
                                           support::DiagnosticSink& sink);

/// Emits the structural top: one instantiation per composite part, with
/// connector-driven port wiring.
[[nodiscard]] std::string generate_rtl_top(const uml::Class& top,
                                           const soc::SocProfile& profile,
                                           support::DiagnosticSink& sink);

/// Emits a self-checking testbench for a generated register-file module:
/// clock/reset generation, a write_reg/read_check task pair, one write +
/// read-back check per rw register (reset-value check for r registers).
[[nodiscard]] std::string generate_rtl_testbench(const uml::Class& module,
                                                 const soc::SocProfile& profile,
                                                 support::DiagnosticSink& sink);

/// Lightweight structural syntax check over generated text: balanced
/// module/endmodule, begin/end, case/endcase pairs. Reports imbalances.
bool check_rtl_structure(const std::string& text, support::DiagnosticSink& sink);

}  // namespace umlsoc::codegen
