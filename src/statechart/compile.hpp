// AOT compilation of hierarchical state machines to flat transition-plan
// tables (DESIGN.md "AOT statechart compilation"). The plan tables are the
// one lowering of a statechart: the runtime engine, the verifier, the
// generated C++ tables (codegen/software.hpp) and the RTL FSM
// (codegen/rtl.hpp) all read them.
//
// For each (configuration, event) pair the compiler precomputes the full
// RTC step plan the interpreter would derive by walking the region tree:
// the conflict-resolved candidate set in innermost-first priority order
// (with per-candidate conflict claim masks), the exit set in reverse
// document order with its history-record slots, the final-flag clears, the
// transition effect, and the entry set with default/initial completion
// fully linearized. Plans live in flat POD arrays: a "group" is the plan of
// one (configuration, event) key and its "rows" are candidate transitions.
//
// Configurations (active-state + final-flag bitsets) are interned to dense
// ids. compile() seeds the tables with a breadth-first closure over the
// guards-open successor relation (walk_guards_open_closure); configurations
// or events first reached at run time (guard outcomes, choice routes,
// history restores, snapshot restores) extend the tables lazily and are
// then cached. CompiledMachine::dispatch executes a plan with no tree
// walking and no allocation in steady state. Two cases are only known at
// run time:
//  * an entry through a history pseudostate, or a default entry whose
//    initial transition targets a choice/junction, runs a generic (still
//    index-based) entry walk, because the configuration it enters depends
//    on history memory or guards;
//  * a candidate that targets a choice or junction resolves its segment
//    chain when it fires, exactly as the interpreter does (first open
//    guard in declaration order, "else" last, guards see the state before
//    any segment effect runs), then runs the exit/effect/entry program of
//    the resolved path. That program is built on first use and cached by
//    the live configuration and the resolved path.
//
// The reference interpreter (interpreter.hpp), built only into the test
// oracle library, defines the semantics; the differential harness
// (tests/statechart_differential_test.cpp) holds this engine to it
// snapshot-for-snapshot after every dispatch.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "statechart/engine.hpp"
#include "statechart/model.hpp"
#include "support/diagnostics.hpp"

namespace umlsoc::statechart {

class CompiledMachine;

/// Compiles `machine` into plan tables and returns an executable engine
/// bound to it. Returns nullptr (reporting through `sink`) only for a
/// transition that targets an initial pseudostate, which validate() also
/// rejects. `machine` must outlive the result.
[[nodiscard]] std::unique_ptr<CompiledMachine> compile(const StateMachine& machine,
                                                       support::DiagnosticSink& sink);

/// One compiled machine: the plan tables plus one execution context over
/// them. Implements the full Engine contract; its snapshots equal the
/// reference interpreter's.
class CompiledMachine final : public Engine {
 public:
  /// Step opcodes of a firing program, executed in order. `a`/`b` operands
  /// are pre-order vertex/region indices or pool offsets.
  enum class Op : std::uint8_t {
    kRecordShallow,  ///< a = region, b = state: latch shallow history.
    kRecordDeep,     ///< a = region, b = leaf_pool offset (count, leaves...).
    kExitState,      ///< a = state: exit behavior, clear bit, listener.
    kClearFinal,     ///< a = final vertex: clear its flag.
    kEffect,         ///< a = transition row: run its effect behavior.
    kEnterState,     ///< a = state: set bit, entry/do behaviors, listener.
    kEnterFinal,     ///< a = final vertex: set its flag.
    kTerminate,      ///< Kill the instance (clear configuration and queue).
  };

  struct Step {
    Op op = Op::kEffect;
    std::uint32_t a = 0;
    std::uint32_t b = 0;
  };

  /// One transition of the machine in flat form (row of the table).
  struct TransitionRow {
    const Transition* origin = nullptr;
    std::uint32_t source = 0;  ///< Pre-order vertex index.
    std::uint32_t target = 0;
    std::uint32_t domain = 0;  ///< Pre-order region index (external only).
    bool internal = false;
    bool completion = false;
  };

  /// One enabled-transition candidate of a plan, in selection priority
  /// order (source depth descending, document order ascending, declaration
  /// order within a source).
  struct Candidate {
    std::uint32_t transition = 0;    ///< TransitionRow index.
    std::uint32_t claim_offset = 0;  ///< words() u64s in claim_pool().
    std::uint32_t first_step = 0;
    std::uint32_t step_count = 0;
    std::uint32_t entry_target = 0;  ///< Dynamic entry only: vertex index.
    std::uint32_t entry_scope = 0;   ///< Dynamic entry only: region index.
    bool internal = false;
    bool has_guard = false;
    /// True when the entry phase crosses a history pseudostate or a
    /// choice/junction default entry: the steps cover exit/effect only and
    /// entry runs the generic walk at run time.
    bool dynamic_entry = false;
    /// True when the target is a choice or junction: the candidate has no
    /// steps of its own; firing resolves the segment chain and runs the
    /// resolved path's program.
    bool routed = false;
  };

  /// The plan of one (configuration, event) key.
  struct Plan {
    std::uint32_t config = 0;
    std::uint32_t event = 0;  ///< Interned event id; 0 = completion.
    std::uint32_t first_candidate = 0;
    std::uint32_t candidate_count = 0;
    /// Some active state defers the event: park it instead of discarding.
    bool defer_if_unfired = false;
  };

  // --- Engine interface ------------------------------------------------------

  [[nodiscard]] const StateMachine& machine() const override { return *machine_; }
  void start() override;
  bool dispatch(Event event) override;
  void post(Event event) override;
  bool dispatch_error(Event event) override;
  void post_error(Event event) override;
  void run_to_quiescence() override;
  /// O(1) from the plan table: false when the (configuration, event) plan
  /// has no candidates, the event is not deferrable here, and no queued
  /// work is pending — dispatch() would provably change nothing.
  [[nodiscard]] bool can_react(const Event& event) override;
  [[nodiscard]] std::size_t pending_events() const override { return queue_.size(); }
  [[nodiscard]] bool is_in(std::string_view state_name) const override;
  [[nodiscard]] std::vector<std::string> active_leaf_names() const override;
  [[nodiscard]] bool is_in_final_state() const override;
  [[nodiscard]] bool is_terminated() const override { return terminated_; }
  [[nodiscard]] bool started() const override { return started_; }
  void set_trace_enabled(bool) override {}  // No trace capture (documented).
  [[nodiscard]] std::uint64_t events_processed() const override { return events_processed_; }
  [[nodiscard]] std::uint64_t transitions_fired() const override { return transitions_fired_; }
  [[nodiscard]] std::uint64_t errors_raised() const override { return errors_raised_; }
  [[nodiscard]] std::uint64_t errors_unhandled() const override { return errors_unhandled_; }
  [[nodiscard]] std::int64_t variable(const std::string& name) const override;
  void set_variable(const std::string& name, std::int64_t value) override;
  void set_state_listener(StateListener listener) override { listener_ = std::move(listener); }
  [[nodiscard]] InstanceSnapshot capture() const override;
  void capture_into(InstanceSnapshot& out) const override;
  bool restore(const InstanceSnapshot& snapshot, support::DiagnosticSink& sink) override;

  /// Completion-transition microstep bound, matching the interpreter's
  /// livelock guard (exceeding it throws std::runtime_error).
  static constexpr int kMaxMicrosteps = 10000;

  // --- Table introspection (codegen/software emission, DESIGN.md) -----------

  [[nodiscard]] std::size_t vertex_count() const { return vinfo_.size(); }
  [[nodiscard]] std::size_t region_count() const { return rinfo_.size(); }
  /// Bitset width of configurations and claim masks, in 64-bit words.
  [[nodiscard]] std::size_t words() const { return words_; }
  [[nodiscard]] const std::vector<TransitionRow>& transition_table() const { return tinfo_; }
  [[nodiscard]] const std::vector<Plan>& plan_table() const { return plans_; }
  [[nodiscard]] const std::vector<Candidate>& candidate_table() const { return candidates_; }
  [[nodiscard]] const std::vector<Step>& step_table() const { return steps_; }
  [[nodiscard]] const std::vector<std::uint64_t>& claim_pool() const { return claim_pool_; }
  [[nodiscard]] const std::vector<std::uint32_t>& leaf_pool() const { return leaf_pool_; }
  [[nodiscard]] std::size_t configuration_count() const { return configs_.size(); }
  /// Active state/final vertex indices of an interned configuration,
  /// ascending (states first, then finals).
  [[nodiscard]] std::vector<std::uint32_t> configuration_members(std::uint32_t config) const;
  [[nodiscard]] std::size_t event_count() const { return event_names_.size(); }
  [[nodiscard]] const std::string& event_name(std::uint32_t id) const { return event_names_[id]; }
  [[nodiscard]] std::uint32_t current_configuration() const { return config_id_; }
  /// Approximate resident size of the plan tables (pools + rows + interned
  /// configurations), for the memory-cost accounting in DESIGN.md.
  [[nodiscard]] std::size_t table_bytes() const;

  // --- Guards-open closure (AOT seeding, RTL emission) -----------------------

  /// Successor of a closure edge that is only known at run time: a
  /// selected candidate routes through a choice/junction or its entry
  /// crosses a history pseudostate.
  static constexpr std::uint32_t kDynamicConfig = 0xfffffffeu;

  /// One (configuration, event) plan of the guards-open closure that
  /// selects at least one candidate.
  struct ClosureEdge {
    std::uint32_t config = 0;
    std::uint32_t event = 0;  ///< Interned event id; 0 = completion.
    std::uint32_t next = 0;   ///< Successor configuration, or kDynamicConfig.
    /// Selected candidates (candidate_table() indices), priority order;
    /// valid during the visit call only.
    const std::vector<std::uint32_t>* fired = nullptr;
  };

  /// Walks the guards-open closure breadth-first from the start
  /// configuration: every guard passes, so each plan fires its maximal
  /// conflict-free candidate set. The alphabet is every interned event
  /// (the machine's triggers) plus completion. Plans and configurations
  /// met on the way are built and cached; compile() seeds the tables this
  /// way. Appends the configurations reached to `configs`, start first,
  /// and calls `visit` (when set) for every edge. Returns false when the
  /// default entry is dynamic (history or choice/junction) or the walk
  /// stopped at the seed caps (1024 configurations, 16384 plans).
  bool walk_guards_open_closure(std::vector<std::uint32_t>& configs,
                                const std::function<void(const ClosureEdge&)>& visit);

 private:
  friend std::unique_ptr<CompiledMachine> compile(const StateMachine&, support::DiagnosticSink&);

  struct VertexInfo {
    VertexKind kind = VertexKind::kState;
    std::int32_t parent_state = -1;  ///< Vertex index of containing composite.
    std::uint32_t container = 0;     ///< Region index.
    std::uint16_t depth = 0;
    const State* state = nullptr;    ///< Non-null for kState.
    std::vector<std::uint32_t> regions;   ///< Composite: child region indices.
    std::vector<std::uint32_t> outgoing;  ///< TransitionRow indices, decl order.
  };

  struct RegionInfo {
    const Region* region = nullptr;
    std::int32_t owner = -1;                   ///< Owner state vertex index.
    const Transition* initial = nullptr;       ///< Default-entry transition.
    std::vector<std::uint32_t> child_states;   ///< Direct children, decl order.
    std::vector<std::uint32_t> finals;         ///< Direct final vertices.
  };

  struct ConfigRec {
    std::uint32_t bits_offset = 0;     ///< words() u64s in config_bits_pool_.
    std::uint32_t members_offset = 0;  ///< Into config_member_pool_.
    std::uint32_t state_count = 0;
    std::uint32_t final_count = 0;
  };

  /// Compile-time symbolic execution context for the entry phase: the same
  /// chain/sweep algorithm the interpreter runs, recording steps instead of
  /// running behaviors. `dynamic` flips when a history pseudostate is hit.
  struct EntrySim {
    std::vector<std::uint64_t> bits;
    std::vector<Step>* out = nullptr;
    std::deque<std::uint32_t> pending;
    int depth = 0;
    bool dynamic = false;
  };

  explicit CompiledMachine(const StateMachine& machine);

  // Table construction (compile time and lazy extension).
  void build_static_tables();
  [[nodiscard]] bool check_supported(support::DiagnosticSink& sink) const;
  void build_start_program();
  [[nodiscard]] std::uint32_t intern_config(const std::uint64_t* bits);
  [[nodiscard]] std::uint32_t intern_event(const std::string& name);
  [[nodiscard]] std::uint32_t plan_for(std::uint32_t config, std::uint32_t event_id);
  [[nodiscard]] std::uint32_t build_plan(std::uint32_t config, std::uint32_t event_id);
  /// Builds the exit/effect/entry program of a firing from `source` in
  /// `config` that ends in `target`, running the effects of `segments`
  /// (transition rows, in order) between the exit and entry phases.
  void build_fire_program(std::uint32_t config, std::uint32_t source, std::uint32_t target,
                          std::span<const std::uint32_t> segments, Candidate& candidate);
  /// Guards-open successor of `config` under `event_id` (see
  /// walk_guards_open_closure): fills `fired`, uses `scratch` (words()
  /// wide) and returns the next configuration, kDynamicConfig, or
  /// ~0u when nothing is selected.
  [[nodiscard]] std::uint32_t guards_open_successor(std::uint32_t config, std::uint32_t event_id,
                                                    std::vector<std::uint32_t>& fired,
                                                    std::vector<std::uint64_t>& scratch);
  void sim_enter_target(EntrySim& sim, std::uint32_t vertex, std::uint32_t scope);
  void sim_enter_single(EntrySim& sim, std::uint32_t state);
  void sim_default_enter(EntrySim& sim, std::uint32_t region);
  [[nodiscard]] bool sim_region_active(const EntrySim& sim, std::uint32_t region) const;
  [[nodiscard]] bool config_state_completed(std::uint32_t config, std::uint32_t state) const;

  // Index-based structural queries over the static tables.
  [[nodiscard]] bool vertex_within_region(std::uint32_t vertex, std::uint32_t region) const;
  [[nodiscard]] std::uint32_t domain_of(std::uint32_t source, std::uint32_t target) const;

  // Runtime execution.
  [[nodiscard]] bool bit(const std::vector<std::uint64_t>& bits, std::uint32_t index) const {
    return (bits[index >> 6] >> (index & 63)) & 1u;
  }
  void set_bit(std::vector<std::uint64_t>& bits, std::uint32_t index) const {
    bits[index >> 6] |= std::uint64_t{1} << (index & 63);
  }
  void clear_bit(std::vector<std::uint64_t>& bits, std::uint32_t index) const {
    bits[index >> 6] &= ~(std::uint64_t{1} << (index & 63));
  }
  [[nodiscard]] std::uint32_t current_config();
  std::size_t rtc_step(const Event& event);
  void run_completions();
  std::size_t select_and_fire(std::uint32_t plan_index, ActionContext& context);
  void execute_candidate(const Candidate& candidate, ActionContext& context);
  void run_program(const Candidate& program, ActionContext& context);
  void fire_route(std::uint32_t transition, ActionContext& context);
  /// Resolves the choice/junction segment chain that starts with
  /// `transition`, appending every segment's row to route_scratch_.
  /// Returns the final target vertex, or ~0u for a dead end or a cycle.
  [[nodiscard]] std::uint32_t resolve_route(std::uint32_t transition, ActionContext& context);
  void execute_steps(std::uint32_t first, std::uint32_t count, ActionContext& context);
  void do_terminate();

  // Generic (dynamic) entry walk, mirroring the interpreter's entry phase;
  // used when a plan's entry crosses a history pseudostate.
  void rt_enter_target(std::uint32_t vertex, std::uint32_t scope, ActionContext& context);
  void rt_enter_single(std::uint32_t state, ActionContext& context);
  void rt_default_enter(std::uint32_t region, ActionContext& context);
  [[nodiscard]] bool rt_region_active(std::uint32_t region) const;

  // --- Static tables ---------------------------------------------------------
  const StateMachine* machine_;
  std::vector<const Vertex*> vertex_list_;
  std::vector<const Region*> region_list_;
  std::vector<VertexInfo> vinfo_;
  std::vector<RegionInfo> rinfo_;
  std::vector<TransitionRow> tinfo_;
  std::unordered_map<const Transition*, std::uint32_t> transition_index_;
  std::uint32_t words_ = 1;

  // --- Interned configurations / events / plans (lazily extended) -----------
  std::vector<ConfigRec> configs_;
  std::vector<std::uint64_t> config_bits_pool_;
  std::vector<std::uint32_t> config_member_pool_;
  std::vector<std::uint32_t> config_slots_;  ///< Open addressing: id or ~0u.
  std::vector<std::string> event_names_;
  std::unordered_map<std::string, std::uint32_t> event_ids_;
  std::vector<Plan> plans_;
  std::vector<Candidate> candidates_;
  std::vector<Step> steps_;
  std::vector<std::uint64_t> claim_pool_;
  std::vector<std::uint32_t> leaf_pool_;
  std::unordered_map<std::uint64_t, std::uint32_t> plan_ids_;
  std::uint32_t start_first_step_ = 0;
  std::uint32_t start_step_count_ = 0;
  bool start_dynamic_ = false;

  // --- Execution state -------------------------------------------------------
  std::vector<std::uint64_t> bits_;  ///< Active states + final flags.
  std::uint32_t config_id_ = 0;
  std::vector<std::int32_t> shallow_slot_;        ///< Per region: vertex or -1.
  std::vector<std::uint8_t> deep_set_;            ///< Per region: slot engaged.
  std::vector<std::vector<std::uint32_t>> deep_slot_;
  std::unordered_map<std::string, std::int64_t> variables_;
  std::deque<Event> queue_;
  std::vector<Event> deferred_pool_;
  StateListener listener_;
  bool started_ = false;
  bool terminated_ = false;
  std::uint64_t events_processed_ = 0;
  std::uint64_t transitions_fired_ = 0;
  std::uint64_t errors_raised_ = 0;
  std::uint64_t errors_unhandled_ = 0;

  // Dispatch scratch (reused; steady-state allocation-free).
  std::vector<std::uint64_t> claimed_scratch_;
  std::vector<std::uint32_t> selected_scratch_;
  std::vector<std::uint32_t> order_scratch_;
  std::deque<std::uint32_t> pending_composites_;  ///< Dynamic entry sweep.
  int entry_depth_ = 0;

  // --- Choice/junction routes (programs built on first firing) ---------------
  struct RouteHash {
    std::size_t operator()(const std::vector<std::uint32_t>& key) const noexcept;
  };
  /// Programs of resolved routes, keyed by the live configuration followed
  /// by the route's segment rows.
  std::unordered_map<std::vector<std::uint32_t>, Candidate, RouteHash> route_programs_;
  std::vector<std::uint32_t> route_scratch_;  ///< Route key being resolved.
};

}  // namespace umlsoc::statechart
