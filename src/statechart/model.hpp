// UML 2.0 state machine metamodel (paper §2: "detailed behavioral
// specifications usually rely on State Machine Diagrams", Harel StateChart
// variant with STATEMATE-style semantics [2]).
//
// Supported subset: hierarchical composite states, orthogonal regions,
// initial pseudostates, final states, shallow/deep history, choice and
// junction pseudostates, terminate, internal/external transitions with
// event triggers, guards and effects, completion (trigger-less)
// transitions, and deferrable events.
// Fork/join pseudostates are not modeled; orthogonal regions enter through
// their initial pseudostates instead (documented substitution, DESIGN.md).
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace umlsoc::uml {
class Class;
}

namespace umlsoc::statechart {

class Engine;
class Region;
class State;
class StateMachine;
class Transition;

/// An event instance offered to a machine. `data` carries a scalar payload
/// (enough for guards like "data > 3"); richer payloads attach via `tag`.
struct Event {
  Event() = default;
  Event(std::string name, std::int64_t data = 0, std::string tag = {})
      : name(std::move(name)), data(data), tag(std::move(tag)) {}

  std::string name;
  std::int64_t data = 0;
  std::string tag;
};

/// Runtime context passed to guards and actions. `instance` is the engine
/// executing the machine (see engine.hpp).
struct ActionContext {
  Engine& instance;
  const Event* event = nullptr;  // Null for entry/exit/completion contexts.
};

/// A behavior attached to a state or transition. `text` is the model-level
/// label (also used by code generators); `fn` is the executable binding.
struct Behavior {
  std::string text;
  std::function<void(ActionContext&)> fn;

  [[nodiscard]] bool empty() const { return text.empty() && fn == nullptr; }
};

/// A guard on a transition. A null `fn` with empty text is always-true;
/// the text "else" marks the default branch out of a choice/junction.
struct Guard {
  std::string text;
  std::function<bool(const ActionContext&)> fn;

  [[nodiscard]] bool is_else() const { return text == "else"; }
  [[nodiscard]] bool always_true() const { return fn == nullptr && !is_else(); }
};

enum class VertexKind {
  kState, kFinal, kInitial, kChoice, kJunction, kShallowHistory, kDeepHistory, kTerminate,
};

[[nodiscard]] std::string_view to_string(VertexKind kind);

/// Node of the state graph: a State, FinalState, or pseudostate.
class Vertex {
 public:
  virtual ~Vertex() = default;
  Vertex(const Vertex&) = delete;
  Vertex& operator=(const Vertex&) = delete;

  [[nodiscard]] virtual VertexKind vertex_kind() const = 0;

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] Region* container() const { return container_; }
  /// The composite state directly containing this vertex, or nullptr at top.
  [[nodiscard]] State* containing_state() const;
  /// Number of composite-state ancestors (top-level vertices have depth 0).
  [[nodiscard]] std::size_t depth() const;
  /// "Machine.StateA.sub.StateB"-style path for diagnostics.
  [[nodiscard]] std::string qualified_name() const;

  [[nodiscard]] const std::vector<Transition*>& outgoing() const { return outgoing_; }
  [[nodiscard]] const std::vector<Transition*>& incoming() const { return incoming_; }

 protected:
  Vertex(std::string name, Region& container) : name_(std::move(name)), container_(&container) {}

 private:
  friend class Region;  // Wires outgoing_/incoming_ when transitions are added.

  std::string name_;
  Region* container_;
  std::vector<Transition*> outgoing_;
  std::vector<Transition*> incoming_;
};

class Pseudostate final : public Vertex {
 public:
  Pseudostate(std::string name, Region& container, VertexKind kind)
      : Vertex(std::move(name), container), kind_(kind) {}

  [[nodiscard]] VertexKind vertex_kind() const override { return kind_; }

 private:
  VertexKind kind_;
};

class FinalState final : public Vertex {
 public:
  FinalState(std::string name, Region& container) : Vertex(std::move(name), container) {}

  [[nodiscard]] VertexKind vertex_kind() const override { return VertexKind::kFinal; }
};

/// A (possibly composite / orthogonal) state.
class State final : public Vertex {
 public:
  State(std::string name, Region& container) : Vertex(std::move(name), container) {}

  [[nodiscard]] VertexKind vertex_kind() const override { return VertexKind::kState; }

  /// Adds an orthogonal region; a state with >= 2 regions is orthogonal.
  Region& add_region(std::string name);
  [[nodiscard]] const std::vector<std::unique_ptr<Region>>& regions() const { return regions_; }
  [[nodiscard]] bool is_composite() const { return !regions_.empty(); }
  [[nodiscard]] bool is_orthogonal() const { return regions_.size() > 1; }
  [[nodiscard]] bool is_simple() const { return regions_.empty(); }

  void set_entry(Behavior behavior) { entry_ = std::move(behavior); }
  void set_exit(Behavior behavior) { exit_ = std::move(behavior); }
  void set_do_activity(Behavior behavior) { do_activity_ = std::move(behavior); }
  [[nodiscard]] const Behavior& entry() const { return entry_; }
  [[nodiscard]] const Behavior& exit_behavior() const { return exit_; }
  [[nodiscard]] const Behavior& do_activity() const { return do_activity_; }

  /// UML deferrable events: while this state is active, events with these
  /// names that trigger no transition are retained and recalled after the
  /// configuration changes (instead of being discarded).
  void add_deferred(std::string event_name) { deferred_.push_back(std::move(event_name)); }
  [[nodiscard]] const std::vector<std::string>& deferred() const { return deferred_; }
  [[nodiscard]] bool defers(std::string_view event_name) const {
    for (const std::string& deferred : deferred_) {
      if (deferred == event_name) return true;
    }
    return false;
  }

  /// True when `this` is `ancestor` or transitively inside it.
  [[nodiscard]] bool is_within(const State& ancestor) const;

 private:
  std::vector<std::unique_ptr<Region>> regions_;
  Behavior entry_;
  Behavior exit_;
  Behavior do_activity_;
  std::vector<std::string> deferred_;
};

/// Transition between vertices of the same state machine. An empty trigger
/// makes it a completion transition.
class Transition final {
 public:
  Transition(Vertex& source, Vertex& target) : source_(&source), target_(&target) {}
  Transition(const Transition&) = delete;
  Transition& operator=(const Transition&) = delete;

  [[nodiscard]] Vertex& source() const { return *source_; }
  [[nodiscard]] Vertex& target() const { return *target_; }

  Transition& set_trigger(std::string event_name) {
    trigger_ = std::move(event_name);
    return *this;
  }
  [[nodiscard]] const std::string& trigger() const { return trigger_; }
  [[nodiscard]] bool is_completion() const { return trigger_.empty(); }

  Transition& set_guard(Guard guard) {
    guard_ = std::move(guard);
    return *this;
  }
  Transition& set_guard(std::string text, std::function<bool(const ActionContext&)> fn) {
    return set_guard(Guard{std::move(text), std::move(fn)});
  }
  [[nodiscard]] const Guard& guard() const { return guard_; }

  Transition& set_effect(Behavior effect) {
    effect_ = std::move(effect);
    return *this;
  }
  Transition& set_effect(std::string text, std::function<void(ActionContext&)> fn) {
    return set_effect(Behavior{std::move(text), std::move(fn)});
  }
  [[nodiscard]] const Behavior& effect() const { return effect_; }

  /// Internal transitions fire without exiting/re-entering their state.
  Transition& set_internal(bool value) {
    internal_ = value;
    return *this;
  }
  [[nodiscard]] bool is_internal() const { return internal_; }

  [[nodiscard]] std::string str() const;

 private:
  Vertex* source_;
  Vertex* target_;
  std::string trigger_;
  Guard guard_;
  Behavior effect_;
  bool internal_ = false;
};

/// Container of vertices; owned by a StateMachine (top region) or a
/// composite State (orthogonal regions).
class Region final {
 public:
  Region(std::string name, StateMachine& machine, State* owner_state)
      : name_(std::move(name)), machine_(&machine), owner_state_(owner_state) {}
  Region(const Region&) = delete;
  Region& operator=(const Region&) = delete;

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] StateMachine& machine() const { return *machine_; }
  /// Composite state owning this region; nullptr for the top region.
  [[nodiscard]] State* owner_state() const { return owner_state_; }

  State& add_state(std::string name);
  FinalState& add_final(std::string name = "final");
  Pseudostate& add_pseudostate(VertexKind kind, std::string name = "");
  Pseudostate& add_initial() { return add_pseudostate(VertexKind::kInitial, "initial"); }

  /// Adds a transition; both ends must belong to this machine (any region).
  Transition& add_transition(Vertex& source, Vertex& target);

  [[nodiscard]] const std::vector<std::unique_ptr<Vertex>>& vertices() const { return vertices_; }
  [[nodiscard]] const std::vector<std::unique_ptr<Transition>>& transitions() const {
    return transitions_;
  }

  [[nodiscard]] Pseudostate* initial() const;
  [[nodiscard]] Vertex* find_vertex(std::string_view name) const;
  /// Recursive lookup through nested regions.
  [[nodiscard]] State* find_state(std::string_view name) const;

 private:
  std::string name_;
  StateMachine* machine_;
  State* owner_state_;
  std::vector<std::unique_ptr<Vertex>> vertices_;
  std::vector<std::unique_ptr<Transition>> transitions_;
};

/// A state machine; optionally attached to a uml::Class as its classifier
/// behavior (xUML-style executable class).
class StateMachine final {
 public:
  explicit StateMachine(std::string name);
  StateMachine(const StateMachine&) = delete;
  StateMachine& operator=(const StateMachine&) = delete;

  [[nodiscard]] const std::string& name() const { return name_; }

  [[nodiscard]] Region& top() { return *top_; }
  [[nodiscard]] const Region& top() const { return *top_; }

  [[nodiscard]] uml::Class* context() const { return context_; }
  void set_context(uml::Class& context) { context_ = &context; }

  /// All states, pre-order over the region tree.
  [[nodiscard]] std::vector<const State*> all_states() const;
  [[nodiscard]] std::vector<const Transition*> all_transitions() const;
  [[nodiscard]] std::size_t state_count() const { return all_states().size(); }

  /// All vertices (states, finals, pseudostates), pre-order over the region
  /// tree in declaration order. The position of a vertex in this sequence is
  /// its stable snapshot address: two structurally identical machines assign
  /// identical indices.
  [[nodiscard]] std::vector<const Vertex*> all_vertices() const;
  /// All regions, pre-order (top region first), same stability guarantee.
  [[nodiscard]] std::vector<const Region*> all_regions() const;

 private:
  std::string name_;
  std::unique_ptr<Region> top_;
  uml::Class* context_ = nullptr;
};

}  // namespace umlsoc::statechart
