#include "activity/interpreter.hpp"

namespace umlsoc::activity {

std::string_view to_string(RunStatus status) {
  switch (status) {
    case RunStatus::kTerminated:
      return "terminated";
    case RunStatus::kQuiescent:
      return "quiescent";
    case RunStatus::kStepLimit:
      return "step-limit";
  }
  return "unknown";
}

ActivityExecution::ActivityExecution(const Activity& activity) : activity_(activity) {}

void ActivityExecution::start() {
  if (started_) return;
  started_ = true;
  const ActivityNode* initial = activity_.initial();
  if (initial == nullptr) return;
  // The start token takes the first accepting outgoing edge.
  Token token;
  for (const ActivityEdge* edge : initial->outgoing()) {
    if (edge->guard().passes(token)) {
      place_token(*edge, token);
      note("start:" + edge->str());
      return;
    }
  }
}

void ActivityExecution::place_token(const ActivityEdge& edge, Token token) {
  marking_[&edge].push_back(token);
}

std::size_t ActivityExecution::tokens_on(const ActivityEdge& edge) const {
  auto it = marking_.find(&edge);
  return it == marking_.end() ? 0 : it->second.size();
}

std::size_t ActivityExecution::token_count() const {
  std::size_t total = 0;
  for (const auto& [edge, tokens] : marking_) total += tokens.size();
  return total;
}

std::uint64_t ActivityExecution::firings_of(const ActivityNode& node) const {
  auto it = firing_counts_.find(&node);
  return it == firing_counts_.end() ? 0 : it->second;
}

bool ActivityExecution::enabled(const ActivityNode& node) const {
  switch (node.node_kind()) {
    case NodeKind::kInitial:
      return false;  // Fires only via start().
    case NodeKind::kAction:
    case NodeKind::kJoin:
    case NodeKind::kBuffer: {
      if (node.incoming().empty()) return false;
      for (const ActivityEdge* edge : node.incoming()) {
        if (tokens_on(*edge) < static_cast<std::size_t>(edge->weight())) return false;
      }
      return true;
    }
    case NodeKind::kFork:
    case NodeKind::kMerge:
    case NodeKind::kFlowFinal:
    case NodeKind::kActivityFinal: {
      for (const ActivityEdge* edge : node.incoming()) {
        if (tokens_on(*edge) >= static_cast<std::size_t>(edge->weight())) return true;
      }
      return false;
    }
    case NodeKind::kDecision: {
      for (const ActivityEdge* edge : node.incoming()) {
        if (tokens_on(*edge) < static_cast<std::size_t>(edge->weight())) continue;
        // The head token must have somewhere to go.
        const Token& head = marking_.at(edge).front();
        const ActivityEdge* else_edge = nullptr;
        for (const ActivityEdge* branch : node.outgoing()) {
          if (branch->guard().is_else()) {
            else_edge = branch;
            continue;
          }
          if (branch->guard().passes(head)) return true;
        }
        if (else_edge != nullptr) return true;
      }
      return false;
    }
  }
  return false;
}

Token ActivityExecution::consume_one(const ActivityEdge& edge) {
  std::deque<Token>& tokens = marking_.at(&edge);
  Token token = tokens.front();
  tokens.pop_front();
  ++tokens_consumed_;
  return token;
}

void ActivityExecution::offer_to_outgoing(const ActivityNode& node, Token token) {
  for (const ActivityEdge* edge : node.outgoing()) {
    if (edge->guard().passes(token)) place_token(*edge, token);
  }
}

void ActivityExecution::fire(const ActivityNode& node) {
  ++firings_;
  ++firing_counts_[&node];
  note("fire:" + node.name());

  switch (node.node_kind()) {
    case NodeKind::kInitial:
      break;
    case NodeKind::kAction: {
      std::vector<Token> inputs;
      for (const ActivityEdge* edge : node.incoming()) {
        for (int i = 0; i < edge->weight(); ++i) inputs.push_back(consume_one(*edge));
      }
      ActionFiring firing{*this, inputs, inputs.empty() ? 0 : inputs.front().value};
      if (node.behavior() != nullptr) node.behavior()(firing);
      offer_to_outgoing(node, Token{firing.output});
      break;
    }
    case NodeKind::kJoin: {
      Token result;
      bool first = true;
      for (const ActivityEdge* edge : node.incoming()) {
        for (int i = 0; i < edge->weight(); ++i) {
          Token token = consume_one(*edge);
          if (first) {
            result = token;
            first = false;
          }
        }
      }
      offer_to_outgoing(node, result);
      break;
    }
    case NodeKind::kBuffer: {
      // Pass-through store: consumes its inputs and republishes downstream.
      for (const ActivityEdge* edge : node.incoming()) {
        for (int i = 0; i < edge->weight(); ++i) {
          offer_to_outgoing(node, consume_one(*edge));
        }
      }
      break;
    }
    case NodeKind::kFork: {
      for (const ActivityEdge* edge : node.incoming()) {
        if (tokens_on(*edge) >= static_cast<std::size_t>(edge->weight())) {
          offer_to_outgoing(node, consume_one(*edge));
          break;
        }
      }
      break;
    }
    case NodeKind::kMerge: {
      for (const ActivityEdge* edge : node.incoming()) {
        if (tokens_on(*edge) >= static_cast<std::size_t>(edge->weight())) {
          offer_to_outgoing(node, consume_one(*edge));
          break;
        }
      }
      break;
    }
    case NodeKind::kDecision: {
      for (const ActivityEdge* edge : node.incoming()) {
        if (tokens_on(*edge) < static_cast<std::size_t>(edge->weight())) continue;
        Token token = consume_one(*edge);
        const ActivityEdge* else_edge = nullptr;
        const ActivityEdge* chosen = nullptr;
        for (const ActivityEdge* branch : node.outgoing()) {
          if (branch->guard().is_else()) {
            if (else_edge == nullptr) else_edge = branch;
            continue;
          }
          if (branch->guard().passes(token)) {
            chosen = branch;
            break;
          }
        }
        if (chosen == nullptr) chosen = else_edge;
        if (chosen != nullptr) {
          place_token(*chosen, token);
          note("route:" + chosen->str());
        }
        break;
      }
      break;
    }
    case NodeKind::kFlowFinal: {
      for (const ActivityEdge* edge : node.incoming()) {
        if (tokens_on(*edge) >= static_cast<std::size_t>(edge->weight())) {
          outputs_.push_back(consume_one(*edge).value);
          break;
        }
      }
      break;
    }
    case NodeKind::kActivityFinal: {
      for (const ActivityEdge* edge : node.incoming()) {
        if (tokens_on(*edge) >= static_cast<std::size_t>(edge->weight())) {
          outputs_.push_back(consume_one(*edge).value);
          break;
        }
      }
      terminated_ = true;
      marking_.clear();  // Activity-final kills every remaining token.
      note("terminate");
      break;
    }
  }
}

bool ActivityExecution::step() {
  if (terminated_) return false;
  for (const auto& node : activity_.nodes()) {
    if (enabled(*node)) {
      fire(*node);
      return true;
    }
  }
  return false;
}

RunStatus ActivityExecution::run(std::size_t max_steps) {
  if (!started_) start();
  for (std::size_t i = 0; i < max_steps; ++i) {
    if (!step()) return terminated_ ? RunStatus::kTerminated : RunStatus::kQuiescent;
  }
  return RunStatus::kStepLimit;
}

}  // namespace umlsoc::activity
