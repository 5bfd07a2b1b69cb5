#include "statechart/interpreter.hpp"

#include <algorithm>
#include <deque>
#include <stdexcept>

namespace umlsoc::statechart {

namespace {

/// True when `vertex` lies (at any depth) inside `region`.
bool contained_in(const Vertex& vertex, const Region& region) {
  const Region* current = vertex.container();
  while (current != nullptr) {
    if (current == &region) return true;
    State* owner = current->owner_state();
    current = owner == nullptr ? nullptr : owner->container();
  }
  return false;
}

}  // namespace

StateMachineInstance::StateMachineInstance(const StateMachine& machine)
    : machine_(machine),
      vertex_list_(machine.all_vertices()),
      region_list_(machine.all_regions()) {
  vertex_order_.reserve(vertex_list_.size());
  for (std::size_t i = 0; i < vertex_list_.size(); ++i) {
    vertex_order_.emplace(vertex_list_[i], static_cast<std::uint32_t>(i));
  }
  region_order_.reserve(region_list_.size());
  for (std::size_t i = 0; i < region_list_.size(); ++i) {
    region_order_.emplace(region_list_[i], static_cast<std::uint32_t>(i));
  }
}

// --- Introspection -------------------------------------------------------------

bool StateMachineInstance::is_in(std::string_view state_name) const {
  for (const State* state : config_) {
    if (state->name() == state_name) return true;
  }
  return false;
}

std::vector<std::string> StateMachineInstance::active_leaf_names() const {
  std::vector<std::string> names;
  for (const State* state : config_) {
    bool has_active_child = false;
    for (const State* other : config_) {
      if (other != state && other->is_within(*state)) has_active_child = true;
    }
    if (!has_active_child) names.push_back(state->name());
  }
  std::sort(names.begin(), names.end());
  return names;
}

bool StateMachineInstance::is_in_final_state() const {
  return region_in_final(machine_.top());
}

bool StateMachineInstance::region_in_final(const Region& region) const {
  for (const FinalState* final_state : active_finals_) {
    if (final_state->container() == &region) return true;
  }
  return false;
}

std::int64_t StateMachineInstance::variable(const std::string& name) const {
  auto it = variables_.find(name);
  return it == variables_.end() ? 0 : it->second;
}

void StateMachineInstance::set_variable(const std::string& name, std::int64_t value) {
  variables_[name] = value;
}

// --- Lifecycle -------------------------------------------------------------------

void StateMachineInstance::start() {
  if (started_) return;
  started_ = true;
  ActionContext context{*this, nullptr};
  default_enter_region(machine_.top(), context);
  run_completions();
  run_to_quiescence();
}

void StateMachineInstance::post(Event event) { queue_.push_back(std::move(event)); }

bool StateMachineInstance::dispatch(Event event) {
  if (terminated_) return false;
  const std::uint64_t fired_before = transitions_fired_;
  post(std::move(event));
  if (started_) run_to_quiescence();
  return transitions_fired_ != fired_before;
}

bool StateMachineInstance::dispatch_error(Event event) {
  if (terminated_) return false;
  const std::uint64_t fired_before = transitions_fired_;
  ++errors_raised_;
  note("error-event:" + event.name);
  queue_.push_front(std::move(event));
  if (started_) run_to_quiescence();
  const bool handled = transitions_fired_ != fired_before;
  if (!handled) ++errors_unhandled_;
  return handled;
}

void StateMachineInstance::run_to_quiescence() {
  while (!queue_.empty()) {
    Event event = std::move(queue_.front());
    queue_.pop_front();
    ++events_processed_;
    const std::size_t fired = rtc_step(event);
    // A configuration change recalls deferred events: they are retried
    // ahead of anything queued later (UML deferral semantics).
    if (fired > 0 && !deferred_pool_.empty()) {
      for (auto it = deferred_pool_.rbegin(); it != deferred_pool_.rend(); ++it) {
        queue_.push_front(std::move(*it));
      }
      deferred_pool_.clear();
    }
  }
}

// --- Checkpoint / restore ------------------------------------------------------

namespace {

InstanceSnapshot::EventRecord record_event(const Event& event) {
  return InstanceSnapshot::EventRecord{event.name, event.data, event.tag};
}

Event make_event(const InstanceSnapshot::EventRecord& record) {
  return Event{record.name, record.data, record.tag};
}

}  // namespace

InstanceSnapshot StateMachineInstance::capture() const {
  InstanceSnapshot snapshot;
  capture_into(snapshot);
  return snapshot;
}

void StateMachineInstance::capture_into(InstanceSnapshot& snapshot) const {
  snapshot.started = started_;
  snapshot.terminated = terminated_;
  snapshot.active_states.clear();
  snapshot.active_finals.clear();
  snapshot.shallow_history.clear();
  snapshot.deep_history.clear();
  snapshot.queue.clear();
  snapshot.deferred.clear();

  const auto& vertex_index = vertex_order_;
  const auto& region_index = region_order_;

  for (const State* state : config_) snapshot.active_states.push_back(vertex_index.at(state));
  std::sort(snapshot.active_states.begin(), snapshot.active_states.end());
  for (const FinalState* final_state : active_finals_) {
    snapshot.active_finals.push_back(vertex_index.at(final_state));
  }
  std::sort(snapshot.active_finals.begin(), snapshot.active_finals.end());

  for (const auto& [region, state] : shallow_history_) {
    snapshot.shallow_history.emplace_back(region_index.at(region), vertex_index.at(state));
  }
  std::sort(snapshot.shallow_history.begin(), snapshot.shallow_history.end());
  for (const auto& [region, leaves] : deep_history_) {
    std::vector<std::uint32_t> leaf_indices;
    for (const State* leaf : leaves) leaf_indices.push_back(vertex_index.at(leaf));
    snapshot.deep_history.emplace_back(region_index.at(region), std::move(leaf_indices));
  }
  std::sort(snapshot.deep_history.begin(), snapshot.deep_history.end());

  snapshot.variables.assign(variables_.begin(), variables_.end());
  std::sort(snapshot.variables.begin(), snapshot.variables.end());

  for (const Event& event : queue_) snapshot.queue.push_back(record_event(event));
  for (const Event& event : deferred_pool_) snapshot.deferred.push_back(record_event(event));

  snapshot.events_processed = events_processed_;
  snapshot.transitions_fired = transitions_fired_;
  snapshot.errors_raised = errors_raised_;
  snapshot.errors_unhandled = errors_unhandled_;
}

bool StateMachineInstance::restore(const InstanceSnapshot& snapshot,
                                   support::DiagnosticSink& sink) {
  const std::vector<const Vertex*>& vertices = vertex_list_;
  const std::vector<const Region*>& regions = region_list_;
  // Built only on the error paths; successful restores are a hot path.
  auto subject = [this] { return "statechart " + machine_.name(); };

  auto state_at = [&](std::uint32_t index) -> const State* {
    if (index >= vertices.size()) return nullptr;
    return dynamic_cast<const State*>(vertices[index]);
  };

  // Validate everything before touching instance state.
  std::vector<const State*> active;
  for (std::uint32_t index : snapshot.active_states) {
    const State* state = state_at(index);
    if (state == nullptr) {
      sink.error(subject(), "snapshot active-state index " + std::to_string(index) +
                              " does not name a state in this machine");
      return false;
    }
    active.push_back(state);
  }
  std::vector<const FinalState*> finals;
  for (std::uint32_t index : snapshot.active_finals) {
    const FinalState* final_state =
        index < vertices.size() ? dynamic_cast<const FinalState*>(vertices[index]) : nullptr;
    if (final_state == nullptr) {
      sink.error(subject(), "snapshot final-state index " + std::to_string(index) +
                              " does not name a final state in this machine");
      return false;
    }
    finals.push_back(final_state);
  }
  std::unordered_map<const Region*, const State*> shallow;
  for (const auto& [region_idx, state_idx] : snapshot.shallow_history) {
    const State* state = state_at(state_idx);
    if (region_idx >= regions.size() || state == nullptr) {
      sink.error(subject(), "snapshot shallow-history entry (" + std::to_string(region_idx) +
                              ", " + std::to_string(state_idx) + ") is out of range");
      return false;
    }
    shallow[regions[region_idx]] = state;
  }
  std::unordered_map<const Region*, std::vector<const State*>> deep;
  for (const auto& [region_idx, leaf_indices] : snapshot.deep_history) {
    if (region_idx >= regions.size()) {
      sink.error(subject(), "snapshot deep-history region index " + std::to_string(region_idx) +
                              " is out of range");
      return false;
    }
    std::vector<const State*> leaves;
    for (std::uint32_t leaf_idx : leaf_indices) {
      const State* leaf = state_at(leaf_idx);
      if (leaf == nullptr) {
        sink.error(subject(), "snapshot deep-history leaf index " + std::to_string(leaf_idx) +
                                " does not name a state in this machine");
        return false;
      }
      leaves.push_back(leaf);
    }
    deep[regions[region_idx]] = std::move(leaves);
  }
  if (snapshot.terminated && !snapshot.active_states.empty()) {
    sink.error(subject(), "snapshot is terminated but lists active states");
    return false;
  }

  // Apply.
  started_ = snapshot.started;
  terminated_ = snapshot.terminated;
  config_.clear();
  config_.insert(active.begin(), active.end());
  active_finals_.clear();
  active_finals_.insert(finals.begin(), finals.end());
  shallow_history_ = std::move(shallow);
  deep_history_ = std::move(deep);
  variables_.clear();
  variables_.insert(snapshot.variables.begin(), snapshot.variables.end());
  queue_.clear();
  for (const auto& record : snapshot.queue) queue_.push_back(make_event(record));
  deferred_pool_.clear();
  for (const auto& record : snapshot.deferred) deferred_pool_.push_back(make_event(record));
  pending_regions_.clear();
  entry_depth_ = 0;
  events_processed_ = snapshot.events_processed;
  transitions_fired_ = snapshot.transitions_fired;
  errors_raised_ = snapshot.errors_raised;
  errors_unhandled_ = snapshot.errors_unhandled;
  note("snapshot-restore");
  return true;
}

// --- Selection ----------------------------------------------------------------------

bool StateMachineInstance::state_completed(const State& state) const {
  if (state.is_simple()) return true;
  for (const auto& region : state.regions()) {
    if (!region_in_final(*region)) return false;
  }
  return true;
}

std::vector<const Transition*> StateMachineInstance::select_transitions(const Event* event) {
  // Deterministic innermost-first order: depth descending, then document
  // (pre-order) position. The pre-order index is a total order, so two
  // same-depth states — even identically named ones in sibling regions —
  // are always visited in declaration order, and two instances of the same
  // machine select identically.
  std::vector<const State*> active(config_.begin(), config_.end());
  std::sort(active.begin(), active.end(), [this](const State* a, const State* b) {
    std::size_t da = a->depth();
    std::size_t db = b->depth();
    if (da != db) return da > db;
    return vertex_order_.at(a) < vertex_order_.at(b);
  });

  ActionContext context{*this, event};
  std::vector<const Transition*> selected;
  std::unordered_set<const State*> claimed;  // Union of exit/conflict sets.

  for (const State* state : active) {
    for (const Transition* transition : state->outgoing()) {
      if (event != nullptr) {
        if (transition->trigger() != event->name) continue;
      } else {
        if (!transition->is_completion()) continue;
        if (!state_completed(*state)) continue;
      }
      const Guard& guard = transition->guard();
      if (guard.fn != nullptr && !guard.fn(context)) continue;

      // Conflict set: states this transition would exit (the whole domain
      // for external transitions, just the source for internal ones).
      std::vector<const State*> conflict_states;
      if (transition->is_internal()) {
        conflict_states.push_back(state);
      } else {
        const Region* domain = domain_of(transition->source(), transition->target());
        conflict_states = active_within(*domain);
        conflict_states.push_back(state);
      }
      bool conflicts = false;
      for (const State* exited : conflict_states) {
        if (claimed.contains(exited)) conflicts = true;
      }
      if (conflicts) continue;

      for (const State* exited : conflict_states) claimed.insert(exited);
      selected.push_back(transition);
    }
  }
  return selected;
}

// --- Structural helpers ------------------------------------------------------------

const Region* StateMachineInstance::domain_of(const Vertex& source, const Vertex& target) const {
  // Innermost region containing both vertices.
  const Region* current = source.container();
  while (current != nullptr) {
    if (contained_in(target, *current) || target.container() == current) return current;
    State* owner = current->owner_state();
    current = owner == nullptr ? nullptr : owner->container();
  }
  return &machine_.top();
}

std::vector<const State*> StateMachineInstance::active_within(const Region& scope) const {
  std::vector<const State*> result;
  for (const State* state : config_) {
    if (contained_in(*state, scope)) result.push_back(state);
  }
  return result;
}

// --- Exit phase ------------------------------------------------------------------------

void StateMachineInstance::record_history(const State& exiting) {
  for (const auto& region : exiting.regions()) {
    // Shallow: the active direct child of the region.
    const State* direct_child = nullptr;
    for (const auto& vertex : region->vertices()) {
      if (const auto* child = dynamic_cast<const State*>(vertex.get())) {
        if (config_.contains(child)) direct_child = child;
      }
    }
    if (direct_child != nullptr) shallow_history_[region.get()] = direct_child;

    // Deep: the active leaf states inside the region, in deterministic order.
    std::vector<const State*> leaves;
    for (const State* state : config_) {
      if (!contained_in(*state, *region)) continue;
      bool has_active_child = false;
      for (const State* other : config_) {
        if (other != state && other->is_within(*state)) has_active_child = true;
      }
      if (!has_active_child) leaves.push_back(state);
    }
    std::sort(leaves.begin(), leaves.end(), [this](const State* a, const State* b) {
      return vertex_order_.at(a) < vertex_order_.at(b);
    });
    if (!leaves.empty()) deep_history_[region.get()] = std::move(leaves);
  }
}

void StateMachineInstance::exit_states(const std::vector<const State*>& states,
                                       ActionContext& context) {
  // History snapshots first: children are still in the configuration.
  for (const State* state : states) {
    if (state->is_composite()) record_history(*state);
  }
  // Innermost-first exit order; document order breaks same-depth ties.
  std::vector<const State*> ordered = states;
  std::sort(ordered.begin(), ordered.end(), [this](const State* a, const State* b) {
    std::size_t da = a->depth();
    std::size_t db = b->depth();
    if (da != db) return da > db;
    return vertex_order_.at(a) < vertex_order_.at(b);
  });
  for (const State* state : ordered) {
    if (!state->exit_behavior().empty()) {
      note("exitAction:" + state->name());
      if (state->exit_behavior().fn != nullptr) state->exit_behavior().fn(context);
    }
    note("exit:" + state->name());
    config_.erase(state);
    if (listener_ != nullptr) listener_(*state, false);
  }
}

// --- Entry phase ------------------------------------------------------------------------

void StateMachineInstance::enter_single(const State& state, ActionContext& context) {
  if (config_.contains(&state)) return;
  config_.insert(&state);
  note("enter:" + state.name());
  if (!state.entry().empty()) {
    note("entryAction:" + state.name());
    if (state.entry().fn != nullptr) state.entry().fn(context);
  }
  if (!state.do_activity().empty() && state.do_activity().fn != nullptr) {
    state.do_activity().fn(context);
  }
  if (state.is_composite()) pending_regions_.push_back(&state);
  if (listener_ != nullptr) listener_(state, true);
}

void StateMachineInstance::enter_state_and_regions(const State& state, const Region& scope,
                                                   ActionContext& context) {
  enter_target(state, scope, context);
}

void StateMachineInstance::enter_target(const Vertex& vertex, const Region& scope,
                                        ActionContext& context) {
  ++entry_depth_;
  // Chain of composite states between scope (exclusive) and vertex
  // (exclusive), innermost first.
  std::vector<const State*> chain;
  if (vertex.container() != &scope) {
    for (const State* ancestor = vertex.containing_state(); ancestor != nullptr;
         ancestor = ancestor->containing_state()) {
      chain.push_back(ancestor);
      if (ancestor->container() == &scope) break;
    }
  }
  for (auto it = chain.rbegin(); it != chain.rend(); ++it) enter_single(**it, context);

  switch (vertex.vertex_kind()) {
    case VertexKind::kState:
      enter_single(static_cast<const State&>(vertex), context);
      break;
    case VertexKind::kFinal:
      active_finals_.insert(static_cast<const FinalState*>(&vertex));
      note("final:" + vertex.container()->name());
      break;
    case VertexKind::kShallowHistory: {
      const Region& region = *vertex.container();
      auto it = shallow_history_.find(&region);
      if (it != shallow_history_.end()) {
        note("history:restore-shallow:" + region.name());
        enter_target(*it->second, region, context);
      } else if (!vertex.outgoing().empty()) {
        const Transition& fallback = *vertex.outgoing().front();
        if (fallback.effect().fn != nullptr) fallback.effect().fn(context);
        enter_target(fallback.target(), region, context);
      } else {
        default_enter_region(region, context);
      }
      break;
    }
    case VertexKind::kDeepHistory: {
      const Region& region = *vertex.container();
      auto it = deep_history_.find(&region);
      if (it != deep_history_.end()) {
        note("history:restore-deep:" + region.name());
        restore_deep_history(region, context);
      } else if (!vertex.outgoing().empty()) {
        const Transition& fallback = *vertex.outgoing().front();
        if (fallback.effect().fn != nullptr) fallback.effect().fn(context);
        enter_target(fallback.target(), region, context);
      } else {
        default_enter_region(region, context);
      }
      break;
    }
    case VertexKind::kTerminate:
      // UML terminate: the machine ceases immediately; no exit actions run.
      terminated_ = true;
      queue_.clear();
      config_.clear();
      active_finals_.clear();
      note("terminate");
      break;
    case VertexKind::kInitial:
    case VertexKind::kChoice:
    case VertexKind::kJunction:
      // Resolved before entry; reaching one here means a broken model.
      note("error:entered-pseudostate:" + vertex.name());
      break;
  }

  --entry_depth_;
  if (entry_depth_ != 0) return;

  // Sweep (outermost call only, so deep-history restoration of sibling
  // leaves finishes before defaults run): default-enter regions of entered
  // composites that are still empty.
  while (!pending_regions_.empty()) {
    const State* composite = pending_regions_.front();
    pending_regions_.pop_front();
    for (const auto& region : composite->regions()) {
      bool region_active = region_in_final(*region);
      for (const auto& child : region->vertices()) {
        if (const auto* child_state = dynamic_cast<const State*>(child.get())) {
          if (config_.contains(child_state)) region_active = true;
        }
      }
      if (!region_active) default_enter_region(*region, context);
    }
  }
}

void StateMachineInstance::restore_deep_history(const Region& region, ActionContext& context) {
  auto it = deep_history_.find(&region);
  if (it == deep_history_.end()) {
    default_enter_region(region, context);
    return;
  }
  for (const State* leaf : it->second) enter_target(*leaf, region, context);
}

void StateMachineInstance::default_enter_region(const Region& region, ActionContext& context) {
  const Pseudostate* initial = region.initial();
  if (initial == nullptr || initial->outgoing().empty()) {
    note("warn:no-initial:" + region.name());
    return;
  }
  const Transition& transition = *initial->outgoing().front();
  ResolvedPath path = resolve_path(transition, context);
  if (path.broken) {
    note("error:unresolved-initial:" + region.name());
    return;
  }
  for (const Behavior* effect : path.effects) {
    if (effect->fn != nullptr) effect->fn(context);
  }
  enter_target(*path.final_target, region, context);
}

// --- Firing ---------------------------------------------------------------------------------

StateMachineInstance::ResolvedPath StateMachineInstance::resolve_path(
    const Transition& transition, ActionContext& context) {
  ResolvedPath path;
  const Transition* current = &transition;
  for (int hops = 0; hops < 64; ++hops) {
    if (!current->effect().empty()) path.effects.push_back(&current->effect());
    const Vertex& target = current->target();
    VertexKind kind = target.vertex_kind();
    if (kind != VertexKind::kChoice && kind != VertexKind::kJunction) {
      path.final_target = &target;
      return path;
    }
    // Choice/junction: first open guard wins; "else" is the fallback.
    const Transition* chosen = nullptr;
    const Transition* else_branch = nullptr;
    for (const Transition* branch : target.outgoing()) {
      if (branch->guard().is_else()) {
        if (else_branch == nullptr) else_branch = branch;
        continue;
      }
      if (branch->guard().fn == nullptr || branch->guard().fn(context)) {
        chosen = branch;
        break;
      }
    }
    if (chosen == nullptr) chosen = else_branch;
    if (chosen == nullptr) {
      path.broken = true;
      return path;
    }
    current = chosen;
  }
  path.broken = true;  // Pseudostate cycle.
  return path;
}

void StateMachineInstance::fire(const Transition& transition, ActionContext& context) {
  note("fire:" + transition.str());
  if (transition.is_internal()) {
    if (transition.effect().fn != nullptr) transition.effect().fn(context);
    ++transitions_fired_;
    return;
  }

  ResolvedPath path = resolve_path(transition, context);
  if (path.broken) {
    note("error:unresolved-choice:" + transition.str());
    return;
  }

  const Region* domain = domain_of(transition.source(), *path.final_target);
  std::vector<const State*> exits = active_within(*domain);
  exit_states(exits, context);

  // Clear final flags inside the domain: the region is being re-entered.
  for (auto it = active_finals_.begin(); it != active_finals_.end();) {
    if ((*it)->container() == domain || contained_in(**it, *domain)) {
      it = active_finals_.erase(it);
    } else {
      ++it;
    }
  }

  for (const Behavior* effect : path.effects) {
    if (effect->fn != nullptr) effect->fn(context);
  }

  enter_target(*path.final_target, *domain, context);
  ++transitions_fired_;
}

std::size_t StateMachineInstance::rtc_step(const Event& event) {
  note("event:" + event.name);
  std::vector<const Transition*> selected = select_transitions(&event);
  if (selected.empty()) {
    for (const State* state : config_) {
      if (state->defers(event.name)) {
        note("defer:" + event.name);
        deferred_pool_.push_back(event);
        return 0;
      }
    }
    note("discard:" + event.name);
    return 0;
  }
  ActionContext context{*this, &event};
  std::size_t fired = 0;
  for (const Transition* transition : selected) {
    // An earlier firing in the same step may have exited this source.
    const auto* source_state = dynamic_cast<const State*>(&transition->source());
    if (source_state != nullptr && !config_.contains(source_state)) continue;
    fire(*transition, context);
    ++fired;
  }
  run_completions();
  return fired;
}

void StateMachineInstance::run_completions() {
  ActionContext context{*this, nullptr};
  for (int microsteps = 0;; ++microsteps) {
    if (microsteps > kMaxMicrosteps) {
      throw std::runtime_error("state machine '" + machine_.name() +
                               "': completion livelock (more than " +
                               std::to_string(kMaxMicrosteps) + " microsteps)");
    }
    std::vector<const Transition*> selected = select_transitions(nullptr);
    if (selected.empty()) return;
    for (const Transition* transition : selected) {
      const auto* source_state = dynamic_cast<const State*>(&transition->source());
      if (source_state != nullptr && !config_.contains(source_state)) continue;
      fire(*transition, context);
    }
  }
}

}  // namespace umlsoc::statechart
