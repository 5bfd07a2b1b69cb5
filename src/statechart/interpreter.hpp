// Run-to-completion executor for state machines (STATEMATE-style semantics,
// paper ref [2]). One instance holds the active configuration, event pool,
// and history memory of one machine execution.
//
// This tree-walking interpreter is the reference semantics that tests hold
// the plan tables (compile.hpp) to. It is built only into the
// umlsoc_statechart_oracle library; production code runs compile().
//
// Semantics implemented:
//  * RTC step: one event is dispatched, a maximal conflict-free set of
//    enabled transitions fires (innermost-first priority), then completion
//    (trigger-less) transitions fire until quiescence.
//  * Exit set = active states inside the transition's domain (the innermost
//    region containing source and target); exits run innermost-first,
//    entries outermost-first, effects in between.
//  * Choice/junction chains are resolved at selection time, collecting the
//    segment effects in order (documented simplification for choice: guards
//    see the state before segment effects run).
//  * Shallow history restores the last active direct substate; deep history
//    restores the full leaf configuration of the region.
//  * Events deferred by an active state are retained and recalled — ahead
//    of newer queue entries — after the next configuration change.
//  * Entering a terminate pseudostate kills the instance: the configuration
//    and event pool are dropped and dispatch becomes a no-op.
#pragma once

#include <cstdint>
#include <deque>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "statechart/engine.hpp"
#include "statechart/model.hpp"
#include "support/diagnostics.hpp"

namespace umlsoc::statechart {

class StateMachineInstance final : public Engine {
 public:
  /// Bound but not started; call start() to enter the initial configuration.
  explicit StateMachineInstance(const StateMachine& machine);

  /// Enters the top region through its initial pseudostate and runs
  /// completion transitions to quiescence.
  void start() override;

  /// Queues an event and processes the queue to quiescence. Returns true
  /// when at least one transition fired for this event.
  bool dispatch(Event event) override;

  /// Queues without processing (used by actions raising internal events).
  void post(Event event) override;

  /// Events waiting in the ordinary pool (excludes the deferred pool).
  /// Network harnesses (verify::Network) poll this to drain cross-posted
  /// work to quiescence without capturing a snapshot.
  [[nodiscard]] std::size_t pending_events() const override { return queue_.size(); }

  /// Error-event channel: fault monitors (bus ports, watchdogs) report
  /// failures here. Error events jump ahead of the normal pool — an error
  /// preempts pending ordinary work — and are counted separately; an error
  /// event that fires no transition is recorded as unhandled so harnesses
  /// can assert that every declared fault reaches an error state.
  bool dispatch_error(Event event) override;

  /// Processes queued events until the pool is empty.
  void run_to_quiescence() override;

  // --- Introspection --------------------------------------------------------

  [[nodiscard]] const StateMachine& machine() const override { return machine_; }
  [[nodiscard]] bool is_active(const State& state) const { return config_.contains(&state); }
  /// True when any active state (at any depth) has this name.
  [[nodiscard]] bool is_in(std::string_view state_name) const override;
  /// Names of active simple (leaf) states, in stable order.
  [[nodiscard]] std::vector<std::string> active_leaf_names() const override;
  [[nodiscard]] const std::unordered_set<const State*>& configuration() const { return config_; }
  /// True when the top region has reached a final state.
  [[nodiscard]] bool is_in_final_state() const override;
  /// True after a terminate pseudostate was reached; the instance is dead
  /// (dispatch becomes a no-op).
  [[nodiscard]] bool is_terminated() const override { return terminated_; }
  [[nodiscard]] bool started() const override { return started_; }

  // --- Observability ---------------------------------------------------------

  /// When enabled (default), records "enter:X" / "exit:X" / "fire:..." /
  /// "event:E" / "discard:E" entries; tests and MSC conformance use this.
  void set_trace_enabled(bool enabled) override { trace_enabled_ = enabled; }
  [[nodiscard]] const std::vector<std::string>& trace() const { return trace_; }
  void clear_trace() { trace_.clear(); }

  [[nodiscard]] std::uint64_t events_processed() const override { return events_processed_; }
  [[nodiscard]] std::uint64_t transitions_fired() const override { return transitions_fired_; }
  [[nodiscard]] std::uint64_t errors_raised() const override { return errors_raised_; }
  [[nodiscard]] std::uint64_t errors_unhandled() const override { return errors_unhandled_; }

  /// Machine-variable store available to guards/effects via ActionContext.
  [[nodiscard]] std::int64_t variable(const std::string& name) const override;
  void set_variable(const std::string& name, std::int64_t value) override;

  void set_state_listener(StateListener listener) override { listener_ = std::move(listener); }

  // --- Checkpoint / restore --------------------------------------------------

  /// Captures the instance's execution state in machine-independent,
  /// deterministic form (indices ascending, variables sorted by name).
  [[nodiscard]] InstanceSnapshot capture() const override;
  /// As capture(), but reuses `out`'s buffers — the verify explorer calls
  /// this per exploration step, where a fresh snapshot's allocations are
  /// the dominant cost.
  void capture_into(InstanceSnapshot& out) const override;

  /// Replaces this instance's execution state with `snapshot`. Validates the
  /// snapshot against the bound machine before mutating anything: on any
  /// out-of-range or kind-mismatched index it reports through `sink` and
  /// returns false with the instance unchanged. No entry/exit behaviors run
  /// and no listener fires — restore reproduces state, not history.
  bool restore(const InstanceSnapshot& snapshot, support::DiagnosticSink& sink) override;

  /// Completion-transition microstep bound; exceeding it throws
  /// std::runtime_error (livelock guard).
  static constexpr int kMaxMicrosteps = 10000;

 private:
  struct ResolvedPath {
    const Vertex* final_target = nullptr;       // State, FinalState, or history.
    std::vector<const Behavior*> effects;        // Segment effects, in order.
    bool broken = false;                         // Unresolvable choice, etc.
  };

  void note(std::string entry) {
    if (trace_enabled_) trace_.push_back(std::move(entry));
  }

  /// Follows choice/junction chains from `transition`, evaluating guards now.
  ResolvedPath resolve_path(const Transition& transition, ActionContext& context);

  /// Innermost region containing both vertices (the transition domain).
  [[nodiscard]] const Region* domain_of(const Vertex& source, const Vertex& target) const;

  /// Active states lying inside `scope` (at any depth).
  [[nodiscard]] std::vector<const State*> active_within(const Region& scope) const;

  void exit_states(const std::vector<const State*>& states, ActionContext& context);
  void record_history(const State& exiting);

  void enter_single(const State& state, ActionContext& context);
  /// Enters the chain of states from `scope` (exclusive) down to `vertex`,
  /// then processes `vertex` itself (state entry, final marking, history
  /// restoration). `scope` must contain `vertex`.
  void enter_target(const Vertex& vertex, const Region& scope, ActionContext& context);
  void default_enter_region(const Region& region, ActionContext& context);
  void enter_state_and_regions(const State& state, const Region& scope, ActionContext& context);
  void restore_deep_history(const Region& region, ActionContext& context);

  /// Fires one resolved external/internal transition.
  void fire(const Transition& transition, ActionContext& context);

  /// One RTC step for `event`; returns number of transitions fired.
  std::size_t rtc_step(const Event& event);
  /// Fires completion transitions until none are enabled.
  void run_completions();
  [[nodiscard]] bool state_completed(const State& state) const;
  [[nodiscard]] bool region_in_final(const Region& region) const;

  /// Greedy maximal conflict-free selection, innermost priority.
  std::vector<const Transition*> select_transitions(const Event* event);

  const StateMachine& machine_;
  // Snapshot addressing and ordering caches, built once at construction:
  // all_vertices()/all_regions() in pre-order plus the inverse maps. Shared
  // by capture/restore (no per-call index rebuild) and by the deterministic
  // sort comparators.
  std::vector<const Vertex*> vertex_list_;
  std::vector<const Region*> region_list_;
  std::unordered_map<const Vertex*, std::uint32_t> vertex_order_;
  std::unordered_map<const Region*, std::uint32_t> region_order_;
  std::unordered_set<const State*> config_;
  std::deque<const State*> pending_regions_;
  int entry_depth_ = 0;
  std::unordered_set<const FinalState*> active_finals_;
  std::unordered_map<const Region*, const State*> shallow_history_;
  std::unordered_map<const Region*, std::vector<const State*>> deep_history_;
  std::unordered_map<std::string, std::int64_t> variables_;
  std::deque<Event> queue_;
  std::vector<Event> deferred_pool_;
  StateListener listener_;
  std::vector<std::string> trace_;
  bool trace_enabled_ = true;
  bool started_ = false;
  bool terminated_ = false;
  std::uint64_t events_processed_ = 0;
  std::uint64_t transitions_fired_ = 0;
  std::uint64_t errors_raised_ = 0;
  std::uint64_t errors_unhandled_ = 0;
};

}  // namespace umlsoc::statechart
