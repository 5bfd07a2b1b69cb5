// Small directed-graph helper shared by activity analysis and codesign.
#pragma once

#include <cstddef>
#include <optional>
#include <vector>

namespace umlsoc::support {

/// Directed graph over dense node indices [0, node_count).
class Digraph {
 public:
  explicit Digraph(std::size_t node_count = 0);

  void resize(std::size_t node_count);
  std::size_t add_node();
  void add_edge(std::size_t from, std::size_t to);

  [[nodiscard]] std::size_t node_count() const { return successors_.size(); }
  [[nodiscard]] std::size_t edge_count() const { return edge_count_; }
  [[nodiscard]] const std::vector<std::size_t>& successors(std::size_t node) const {
    return successors_[node];
  }
  [[nodiscard]] const std::vector<std::size_t>& predecessors(std::size_t node) const {
    return predecessors_[node];
  }
  [[nodiscard]] std::size_t in_degree(std::size_t node) const { return predecessors_[node].size(); }

  /// Kahn topological order; nullopt when the graph has a cycle.
  [[nodiscard]] std::optional<std::vector<std::size_t>> topological_order() const;

  [[nodiscard]] bool has_cycle() const { return !topological_order().has_value(); }

  /// Nodes reachable from `start` (including `start`).
  [[nodiscard]] std::vector<bool> reachable_from(std::size_t start) const;

  /// Nodes from which `target` is reachable (including `target`).
  [[nodiscard]] std::vector<bool> reaching(std::size_t target) const;

  /// Longest path weight ending at each node, where each node carries
  /// `node_weight[i]`; requires acyclic graph (nullopt otherwise).
  [[nodiscard]] std::optional<std::vector<double>> longest_path_to(
      const std::vector<double>& node_weight) const;

 private:
  std::vector<std::vector<std::size_t>> successors_;
  std::vector<std::vector<std::size_t>> predecessors_;
  std::size_t edge_count_ = 0;
};

}  // namespace umlsoc::support
