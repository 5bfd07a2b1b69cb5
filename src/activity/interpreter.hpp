// Token-game executor for activities. The marking lives on edges (as in a
// Petri net, edges play the role of input places of their target node).
//
// Firing rules:
//  * action / join / buffer: enabled when EVERY incoming edge holds at least
//    `weight` tokens (implicit AND-join of UML actions); an action offers
//    one token to every outgoing edge whose guard accepts it (implicit fork).
//  * fork: consumes one token, duplicates it to all accepting outgoing edges.
//  * decision: consumes one token and routes it to the first outgoing edge
//    whose guard passes, or the "else" edge; not enabled if no branch accepts.
//  * merge: forwards one token from any incoming edge.
//  * flow-final: destroys the token; activity-final: destroys all tokens and
//    terminates the execution.
// The scheduler is deterministic: each step() fires the first enabled node
// in creation order.
#pragma once

#include <deque>
#include <string>
#include <unordered_map>
#include <vector>

#include "activity/model.hpp"

namespace umlsoc::activity {

enum class RunStatus { kTerminated, kQuiescent, kStepLimit };

[[nodiscard]] std::string_view to_string(RunStatus status);

class ActivityExecution {
 public:
  explicit ActivityExecution(const Activity& activity);

  /// Emits the start token from the initial node (first accepting edge).
  void start();

  /// Fires one enabled node; false when nothing is enabled or terminated.
  bool step();

  /// Steps until termination, quiescence, or the step limit.
  RunStatus run(std::size_t max_steps = 100000);

  /// Places a token on an edge from outside (test harnesses, pipelines).
  void place_token(const ActivityEdge& edge, Token token);

  // --- Introspection ---------------------------------------------------------

  [[nodiscard]] const Activity& activity() const { return activity_; }
  [[nodiscard]] bool terminated() const { return terminated_; }
  [[nodiscard]] std::size_t tokens_on(const ActivityEdge& edge) const;
  /// Total tokens currently in the marking.
  [[nodiscard]] std::size_t token_count() const;
  [[nodiscard]] std::uint64_t firings() const { return firings_; }
  [[nodiscard]] std::uint64_t firings_of(const ActivityNode& node) const;
  [[nodiscard]] std::uint64_t tokens_consumed() const { return tokens_consumed_; }

  /// Values of tokens destroyed at flow-final / activity-final nodes, in
  /// arrival order: the activity's observable output.
  [[nodiscard]] const std::vector<std::int64_t>& outputs() const { return outputs_; }

  void set_trace_enabled(bool enabled) { trace_enabled_ = enabled; }
  [[nodiscard]] const std::vector<std::string>& trace() const { return trace_; }

 private:
  void note(std::string entry) {
    if (trace_enabled_) trace_.push_back(std::move(entry));
  }

  [[nodiscard]] bool enabled(const ActivityNode& node) const;
  void fire(const ActivityNode& node);
  /// Offers `token` to every outgoing edge of `node` with a passing guard.
  void offer_to_outgoing(const ActivityNode& node, Token token);
  Token consume_one(const ActivityEdge& edge);

  const Activity& activity_;
  std::unordered_map<const ActivityEdge*, std::deque<Token>> marking_;
  std::unordered_map<const ActivityNode*, std::uint64_t> firing_counts_;
  std::vector<std::int64_t> outputs_;
  std::vector<std::string> trace_;
  bool trace_enabled_ = false;
  bool started_ = false;
  bool terminated_ = false;
  std::uint64_t firings_ = 0;
  std::uint64_t tokens_consumed_ = 0;
};

}  // namespace umlsoc::activity
