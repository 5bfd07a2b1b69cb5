#include "codegen/software.hpp"

#include <set>
#include <vector>

#include "asl/parser.hpp"
#include "support/strings.hpp"

namespace umlsoc::codegen {

namespace {

using asl::BinaryOp;
using asl::Expr;
using asl::ExprKind;
using asl::Stmt;
using asl::StmtKind;
using asl::UnaryOp;

std::string cpp_escape(const std::string& text) {
  std::string out;
  for (char c : text) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      default:
        out += c;
    }
  }
  return out;
}

const char* binary_op_text(BinaryOp op) {
  switch (op) {
    case BinaryOp::kAdd: return " + ";
    case BinaryOp::kSub: return " - ";
    case BinaryOp::kMul: return " * ";
    case BinaryOp::kDiv: return " / ";
    case BinaryOp::kMod: return " % ";
    case BinaryOp::kEq: return " == ";
    case BinaryOp::kNe: return " != ";
    case BinaryOp::kLt: return " < ";
    case BinaryOp::kLe: return " <= ";
    case BinaryOp::kGt: return " > ";
    case BinaryOp::kGe: return " >= ";
    case BinaryOp::kAnd: return " && ";
    case BinaryOp::kOr: return " || ";
  }
  return " ? ";
}

class CppPrinter {
 public:
  std::string expr(const Expr& e) {
    switch (e.kind) {
      case ExprKind::kLiteral:
        if (e.literal.is_string()) return "\"" + cpp_escape(e.literal.as_string()) + "\"";
        return e.literal.str();
      case ExprKind::kName:
        return e.name == "self" ? "(*this)" : e.name;
      case ExprKind::kSelfAttr:
        return "this->" + e.name;
      case ExprKind::kUnary:
        return (e.unary_op == UnaryOp::kNeg ? "-(" : "!(") + expr(*e.lhs) + ")";
      case ExprKind::kBinary:
        return "(" + expr(*e.lhs) + binary_op_text(e.binary_op) + expr(*e.rhs) + ")";
      case ExprKind::kCall: {
        std::string out = "this->" + e.name + "(";
        for (std::size_t i = 0; i < e.arguments.size(); ++i) {
          if (i != 0) out += ", ";
          out += expr(*e.arguments[i]);
        }
        return out + ")";
      }
    }
    return "/*?*/";
  }

  void stmt(const Stmt& s, std::string& out, int depth) {
    const std::string pad(static_cast<std::size_t>(depth) * 2, ' ');
    switch (s.kind) {
      case StmtKind::kAssign:
        out += pad;
        if (s.self_target) {
          out += "this->" + s.target;
        } else {
          if (locals_.insert(s.target).second) out += "auto ";
          out += s.target;
        }
        out += " = " + expr(*s.value) + ";\n";
        break;
      case StmtKind::kExpr:
        out += pad + expr(*s.value) + ";\n";
        break;
      case StmtKind::kIf:
        out += pad + "if (" + expr(*s.value) + ") {\n";
        for (const auto& inner : s.body) stmt(*inner, out, depth + 1);
        if (!s.else_body.empty()) {
          out += pad + "} else {\n";
          for (const auto& inner : s.else_body) stmt(*inner, out, depth + 1);
        }
        out += pad + "}\n";
        break;
      case StmtKind::kWhile:
        out += pad + "while (" + expr(*s.value) + ") {\n";
        for (const auto& inner : s.body) stmt(*inner, out, depth + 1);
        out += pad + "}\n";
        break;
      case StmtKind::kReturn:
        out += pad + "return";
        if (s.value != nullptr) out += " " + expr(*s.value);
        out += ";\n";
        break;
      case StmtKind::kSend: {
        out += pad + "send_signal(\"" + s.send_target + "\", \"" + s.signal + "\", {";
        for (std::size_t i = 0; i < s.arguments.size(); ++i) {
          if (i != 0) out += ", ";
          out += expr(*s.arguments[i]);
        }
        out += "});\n";
        break;
      }
      case StmtKind::kBlock:
        out += pad + "{\n";
        for (const auto& inner : s.body) stmt(*inner, out, depth + 1);
        out += pad + "}\n";
        break;
    }
  }

 private:
  std::set<std::string> locals_;
};

std::string cpp_type_for(const uml::Classifier* type) {
  if (type == nullptr) return "std::int64_t";
  const std::string& name = type->name();
  if (name == "Boolean" || name == "Bit") return "bool";
  if (name == "Byte") return "std::uint8_t";
  if (name == "Word") return "std::uint32_t";
  if (name == "Integer") return "std::int32_t";
  if (name == "String") return "std::string";
  if (dynamic_cast<const uml::Enumeration*>(type) != nullptr) return type->name();
  if (dynamic_cast<const uml::Class*>(type) != nullptr) return type->name() + "*";
  return type->name();
}

}  // namespace

std::string translate_asl_to_cpp(const std::string& asl_source,
                                 support::DiagnosticSink& sink) {
  std::optional<asl::Program> program = asl::parse(asl_source, sink);
  if (!program.has_value()) return {};
  CppPrinter printer;
  std::string out;
  for (const auto& statement : program->statements) printer.stmt(*statement, out, 0);
  return out;
}

std::string generate_sw_class(const uml::Class& cls, support::DiagnosticSink& sink) {
  std::string out = "// Generated by umlsoc from " + cls.qualified_name() + "\n";
  out += "#include <cstdint>\n#include <string>\n\n";
  if (cls.is_active()) out += "// Active class: instantiate as a task.\n";
  out += "class " + cls.name();

  std::vector<std::string> bases;
  for (const uml::Classifier* general : cls.generals()) bases.push_back(general->name());
  for (const uml::Interface* contract : cls.interface_realizations()) {
    bases.push_back(contract->name());
  }
  if (!bases.empty()) {
    out += " : ";
    for (std::size_t i = 0; i < bases.size(); ++i) {
      if (i != 0) out += ", ";
      out += "public " + bases[i];
    }
  }
  out += " {\n public:\n";

  for (const auto& operation : cls.operations()) {
    const uml::Classifier* return_type = operation->return_type();
    out += "  " + (return_type != nullptr ? cpp_type_for(return_type) : std::string("void"));
    out += " " + operation->name() + "(";
    bool first = true;
    for (const auto& parameter : operation->parameters()) {
      if (parameter->direction() == uml::ParameterDirection::kReturn) continue;
      if (!first) out += ", ";
      out += cpp_type_for(parameter->type()) + " " + parameter->name();
      first = false;
    }
    out += ")";
    if (operation->is_query()) out += " const";
    if (operation->body().empty()) {
      out += ";\n";
      continue;
    }
    const std::size_t errors_before = sink.error_count();
    std::string body = translate_asl_to_cpp(operation->body(), sink);
    if (sink.error_count() != errors_before) {
      sink.warning(operation->qualified_name(), "ASL body not translatable; emitted as comment");
      out += " { /* " + operation->body() + " */ }\n";
      continue;
    }
    out += " {\n" + support::indent(body, 2) + "\n  }\n";
  }

  out += "\n private:\n";
  for (const auto& property : cls.properties()) {
    out += "  " + cpp_type_for(property->type()) + " " + property->name();
    if (!property->default_value().empty() && property->type() != nullptr &&
        dynamic_cast<const uml::Enumeration*>(property->type()) == nullptr) {
      out += " = " + property->default_value();
    } else {
      out += "{}";
    }
    out += ";\n";
  }
  out += "};\n";
  return out;
}

namespace {

const char* step_op_name(statechart::CompiledMachine::Op op) {
  using Op = statechart::CompiledMachine::Op;
  switch (op) {
    case Op::kRecordShallow: return "kRecordShallow";
    case Op::kRecordDeep: return "kRecordDeep";
    case Op::kExitState: return "kExitState";
    case Op::kClearFinal: return "kClearFinal";
    case Op::kEffect: return "kEffect";
    case Op::kEnterState: return "kEnterState";
    case Op::kEnterFinal: return "kEnterFinal";
    case Op::kTerminate: return "kTerminate";
  }
  return "kEffect";
}

}  // namespace

std::string generate_statechart_tables(const statechart::CompiledMachine& compiled,
                                       const std::string& identifier) {
  const statechart::StateMachine& machine = compiled.machine();
  std::string out;
  out += "// AOT statechart plan tables for '" + machine.name() + "' — generated, do not edit.\n";
  out += "// " + std::to_string(compiled.configuration_count()) + " configurations, " +
         std::to_string(compiled.plan_table().size()) + " plans, " +
         std::to_string(compiled.candidate_table().size()) + " candidates, " +
         std::to_string(compiled.step_table().size()) + " steps (" +
         std::to_string(compiled.table_bytes()) + " table bytes at compile time).\n";
  out += "// Guards/effects are linked by transition index; an embedded runtime\n";
  out += "// executes the step programs directly (see statechart/compile.hpp).\n";
  out += "#include <cstdint>\n\n";
  out += "namespace " + identifier + "_tables {\n\n";
  out += "enum class Op : std::uint8_t { kRecordShallow, kRecordDeep, kExitState,\n";
  out += "  kClearFinal, kEffect, kEnterState, kEnterFinal, kTerminate };\n";
  out += "struct Step { Op op; std::uint32_t a; std::uint32_t b; };\n";
  out += "struct Candidate { std::uint32_t transition, claim_offset, first_step, step_count,\n";
  out += "  entry_target, entry_scope; bool internal, has_guard, dynamic_entry, routed; };\n";
  out += "struct Plan { std::uint32_t config, event, first_candidate, candidate_count;\n";
  out += "  bool defer_if_unfired; };\n";
  out += "struct Transition { std::uint32_t source, target, domain; bool internal, completion; };\n\n";
  out += "inline constexpr std::uint32_t kWords = " + std::to_string(compiled.words()) + ";\n";
  out += "inline constexpr std::uint32_t kVertices = " +
         std::to_string(compiled.vertex_count()) + ";\n";
  out += "inline constexpr std::uint32_t kRegions = " +
         std::to_string(compiled.region_count()) + ";\n\n";

  out += "inline constexpr const char* kEvents[] = {\n";
  for (std::size_t i = 0; i < compiled.event_count(); ++i) {
    out += "  \"" + cpp_escape(compiled.event_name(static_cast<std::uint32_t>(i))) + "\",\n";
  }
  out += "};\n\n";

  out += "inline constexpr Transition kTransitions[] = {\n";
  for (const auto& row : compiled.transition_table()) {
    out += "  {" + std::to_string(row.source) + ", " + std::to_string(row.target) + ", " +
           std::to_string(row.domain) + ", " + (row.internal ? "true" : "false") + ", " +
           (row.completion ? "true" : "false") + "},  // " + cpp_escape(row.origin->str()) +
           "\n";
  }
  out += "};\n\n";

  out += "inline constexpr Step kSteps[] = {\n";
  for (const auto& step : compiled.step_table()) {
    out += "  {Op::" + std::string(step_op_name(step.op)) + ", " + std::to_string(step.a) +
           ", " + std::to_string(step.b) + "},\n";
  }
  out += "};\n\n";

  out += "inline constexpr std::uint64_t kClaims[] = {\n  ";
  for (std::size_t i = 0; i < compiled.claim_pool().size(); ++i) {
    out += std::to_string(compiled.claim_pool()[i]) + "ull, ";
    if (i % 8 == 7) out += "\n  ";
  }
  out += "\n};\n\n";

  out += "inline constexpr std::uint32_t kLeaves[] = {";
  for (const std::uint32_t leaf : compiled.leaf_pool()) out += std::to_string(leaf) + ", ";
  out += "};\n\n";

  out += "inline constexpr Candidate kCandidates[] = {\n";
  for (const auto& candidate : compiled.candidate_table()) {
    out += "  {" + std::to_string(candidate.transition) + ", " +
           std::to_string(candidate.claim_offset) + ", " +
           std::to_string(candidate.first_step) + ", " + std::to_string(candidate.step_count) +
           ", " + std::to_string(candidate.entry_target) + ", " +
           std::to_string(candidate.entry_scope) + ", " +
           (candidate.internal ? "true" : "false") + ", " +
           (candidate.has_guard ? "true" : "false") + ", " +
           (candidate.dynamic_entry ? "true" : "false") + ", " +
           (candidate.routed ? "true" : "false") + "},\n";
  }
  out += "};\n\n";

  out += "inline constexpr Plan kPlans[] = {\n";
  for (const auto& plan : compiled.plan_table()) {
    out += "  {" + std::to_string(plan.config) + ", " + std::to_string(plan.event) + ", " +
           std::to_string(plan.first_candidate) + ", " + std::to_string(plan.candidate_count) +
           ", " + (plan.defer_if_unfired ? "true" : "false") + "},  // (" +
           std::to_string(plan.config) + ", \"" +
           cpp_escape(compiled.event_name(plan.event)) + "\")\n";
  }
  out += "};\n\n";

  out += "// Interned configurations as active vertex-index lists (states then finals).\n";
  out += "inline constexpr std::uint32_t kConfigMembers[] = {";
  std::vector<std::uint32_t> config_offsets;
  std::size_t member_total = 0;
  for (std::size_t c = 0; c < compiled.configuration_count(); ++c) {
    config_offsets.push_back(static_cast<std::uint32_t>(member_total));
    const auto members = compiled.configuration_members(static_cast<std::uint32_t>(c));
    member_total += members.size();
    for (const std::uint32_t member : members) out += std::to_string(member) + ", ";
  }
  out += "};\n";
  out += "inline constexpr std::uint32_t kConfigOffsets[] = {";
  for (const std::uint32_t offset : config_offsets) out += std::to_string(offset) + ", ";
  out += std::to_string(member_total) + "};\n\n";
  out += "}  // namespace " + identifier + "_tables\n";
  return out;
}

}  // namespace umlsoc::codegen
