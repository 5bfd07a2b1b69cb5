#include "interaction/model.hpp"

namespace umlsoc::interaction {

std::string_view to_string(InteractionOperator op) {
  switch (op) {
    case InteractionOperator::kAlt:
      return "alt";
    case InteractionOperator::kOpt:
      return "opt";
    case InteractionOperator::kLoop:
      return "loop";
    case InteractionOperator::kPar:
      return "par";
    case InteractionOperator::kStrict:
      return "strict";
  }
  return "strict";
}

std::string Fragment::label() const {
  return from_->name() + "->" + to_->name() + ":" + message_name_;
}

Operand& Fragment::add_operand(std::string guard) {
  operands_.push_back(std::make_unique<Operand>(std::move(guard)));
  return *operands_.back();
}

Fragment& Operand::add_message(Lifeline& from, Lifeline& to, std::string name,
                               MessageKind kind) {
  fragments_.push_back(
      std::unique_ptr<Fragment>(new Fragment(from, to, std::move(name), kind)));
  return *fragments_.back();
}

Fragment& Operand::add_combined(InteractionOperator op) {
  fragments_.push_back(std::unique_ptr<Fragment>(new Fragment(op)));
  return *fragments_.back();
}

Lifeline& Interaction::add_lifeline(std::string name) {
  lifelines_.push_back(std::make_unique<Lifeline>(std::move(name)));
  return *lifelines_.back();
}

Lifeline* Interaction::find_lifeline(std::string_view name) const {
  for (const auto& lifeline : lifelines_) {
    if (lifeline->name() == name) return lifeline.get();
  }
  return nullptr;
}

Fragment& Interaction::add_message(Lifeline& from, Lifeline& to, std::string name,
                                   MessageKind kind) {
  fragments_.push_back(
      std::unique_ptr<Fragment>(new Fragment(from, to, std::move(name), kind)));
  return *fragments_.back();
}

Fragment& Interaction::add_combined(InteractionOperator op) {
  fragments_.push_back(std::unique_ptr<Fragment>(new Fragment(op)));
  return *fragments_.back();
}

}  // namespace umlsoc::interaction
