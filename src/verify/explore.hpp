// Exhaustive exploration of statechart-instance networks.
//
// The model of nondeterminism: within one step, run-to-completion is
// preserved exactly as the interpreter executes it — one alphabet entry
// (an external event, a timer firing, or an error-channel event from the
// fault model's deterministic enumeration) is delivered to one instance,
// that instance runs to quiescence, and any events its behaviors cross-post
// into sibling instances are drained to network-wide quiescence. The
// *choice* of which alphabet entry goes next is the branching: fault
// decisions become "fault fires" vs "fault does not fire" branches instead
// of RNG draws, and instance interleaving becomes the successor fan-out.
//
// BFS discovery order makes the recorded counterexample paths shortest;
// DFS trades that for a frontier whose size is bounded by the search depth.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "statechart/engine.hpp"
#include "support/diagnostics.hpp"
#include "verify/property.hpp"
#include "verify/statespace.hpp"

namespace umlsoc::verify {

/// One branch of the nondeterminism: deliver `event` to instance
/// `instance`, through the error channel when `is_error` (the deterministic
/// enumeration of a fault site: the same event arriving as a fault report).
struct EventChoice {
  std::size_t instance = 0;
  statechart::Event event;
  bool is_error = false;
};

/// A network of caller-owned statechart instances plus the alphabet of
/// event choices to branch over. Behaviors may cross-post events into
/// sibling instances (capture the instance pointers in their closures);
/// deliver() drains such chains to network-wide quiescence, so one step is
/// one complete run-to-completion round.
class Network {
 public:
  /// Registers a started-or-startable instance under a unique name; the
  /// instance must outlive the network. Returns its index.
  std::size_t add_instance(std::string name, statechart::Engine& instance);

  /// Adds an alphabet entry for the named instance.
  void add_choice(std::string_view instance_name, statechart::Event event,
                  bool is_error = false);

  [[nodiscard]] std::size_t size() const { return entries_.size(); }
  [[nodiscard]] const std::string& name(std::size_t index) const {
    return entries_[index].name;
  }
  [[nodiscard]] statechart::Engine& instance(std::size_t index) const {
    return *entries_[index].instance;
  }
  /// Instance registered under `name`, or nullptr.
  [[nodiscard]] statechart::Engine* find(std::string_view name) const;

  [[nodiscard]] const std::vector<EventChoice>& alphabet() const { return alphabet_; }

  /// Canonical label of an alphabet entry: "env->Driver:bus_recovered" for
  /// ordinary events, "fault->Driver:bus_timeout" for error-channel ones —
  /// the form interaction::parse_label accepts.
  [[nodiscard]] std::string label(const EventChoice& choice) const;

  /// Delivers one alphabet entry and drains all cross-posted work to
  /// network quiescence. Returns the per-instance counter deltas of the
  /// step. Throws std::runtime_error after kMaxDrainRounds rounds (two
  /// instances posting to each other forever — the network-level analogue
  /// of the interpreter's completion-livelock guard).
  std::vector<StepDelta> deliver(const EventChoice& choice);

  /// As above, but reuses `deltas` and, when `touched` is non-null, reports
  /// a conservative superset of the instances whose execution state may
  /// have changed during the step: the dispatch target plus every instance
  /// that drained cross-posted events or whose pending pool moved. The
  /// explorer uses this to restore and re-encode only what a step actually
  /// disturbed (most steps touch one or two instances of N).
  void deliver(const EventChoice& choice, std::vector<StepDelta>& deltas,
               std::vector<std::uint8_t>* touched);

  /// Captures every instance, in network order.
  [[nodiscard]] std::vector<statechart::InstanceSnapshot> capture() const;

  /// Restores every instance; false (reported through `sink`) leaves a
  /// prefix of instances restored — callers treat that as fatal.
  bool restore(const std::vector<statechart::InstanceSnapshot>& snapshots,
               support::DiagnosticSink& sink);

  /// Restores the single instance at `index`.
  bool restore_one(std::size_t index, const statechart::InstanceSnapshot& snapshot,
                   support::DiagnosticSink& sink);

  static constexpr int kMaxDrainRounds = 10000;

 private:
  struct InstanceEntry {
    std::string name;
    statechart::Engine* instance = nullptr;
  };

  std::vector<InstanceEntry> entries_;
  std::vector<EventChoice> alphabet_;
  std::vector<std::size_t> pending_before_;  ///< deliver() scratch.
};

/// Search strategy and bounds of one exploration. Every run stops at the
/// first state that violates a property (Termination::kViolation).
struct ExploreOptions {
  enum class Strategy : std::uint8_t { kBfs, kDfs };

  Strategy strategy = Strategy::kBfs;
  /// Stored-state cap; reaching it terminates with kStateBound.
  std::uint64_t max_states = 1'000'000;
  /// Depth cap on expansion (states deeper than this are stored but not
  /// expanded); exceeding it terminates with kStateBound.
  std::uint32_t max_depth = 0xffffffffu;
  /// Visited-store budget (see StateStore::Config).
  std::size_t memory_budget_bytes = std::size_t{64} << 20;
  /// Fingerprint override for tests; null = XXH64 (support::xxh64).
  StateStore::HashFn hash_override = nullptr;
};

/// Counters of one exploration run ("states/transitions/peak queue").
struct ExploreStats {
  std::uint64_t states = 0;       ///< Distinct states stored.
  std::uint64_t transitions = 0;  ///< Steps executed (edges, incl. revisits).
  std::uint64_t revisits = 0;     ///< Edges landing on an already-stored state.
  std::uint64_t peak_frontier = 0;
  std::uint32_t max_depth_seen = 0;
  std::uint64_t fingerprint_collisions = 0;
  std::size_t bytes_used = 0;

  /// "12 states, 36 transitions (9 revisits), peak frontier 4, depth 5, ...".
  [[nodiscard]] std::string str() const;
};

/// One property violation with its counterexample: the event path from the
/// initial state to the violating state, in delivery order.
struct Violation {
  std::string property;
  std::string message;
  std::vector<EventChoice> path;
};

struct ExploreResult {
  enum class Termination : std::uint8_t {
    kExhausted,   ///< Full state space visited within all bounds.
    kViolation,   ///< Stopped at the first state that violates a property.
    kStateBound,  ///< max_states or max_depth cut the search short.
    kMemoryBound, ///< The visited store hit its memory budget.
    kError,       ///< Setup failure (unstarted instance, restore error).
  };

  Termination termination = Termination::kError;
  /// One entry per property that fails at the violating state, in property
  /// order (empty unless termination is kViolation).
  std::vector<Violation> violations;
  ExploreStats stats;
  /// Snapshot of the initial state, for counterexample replay.
  std::vector<statechart::InstanceSnapshot> initial;

  /// True when every reachable state was checked and none violated.
  [[nodiscard]] bool verified() const {
    return termination == Termination::kExhausted && violations.empty();
  }
};

[[nodiscard]] std::string_view to_string(ExploreResult::Termination termination);

/// Explores the network from its instances' current state. Instances must
/// be started; they are left re-seated on some visited state afterwards
/// (restore `result.initial` to get back to the starting point).
[[nodiscard]] ExploreResult explore(Network& network,
                                    const std::vector<Property>& properties,
                                    const ExploreOptions& options = {},
                                    support::DiagnosticSink* sink = nullptr);

}  // namespace umlsoc::verify
