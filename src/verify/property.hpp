// Safety properties for the explicit-state verification engine.
//
// A property is a named predicate over a reached network state; the
// explorer evaluates every state property at the initial state and after
// every run-to-completion step, and every deadlock property at each state
// from which no alphabet entry fires a transition anywhere. A check
// returning a message is a violation; the explorer attaches the event path
// from the initial state as the counterexample.
//
// The deadlock notion mirrors the simulation kernel's expectation-registry
// semantics (Kernel::QuiescenceReport): a state with no enabled event whose
// configuration has not discharged its obligations — by default, any
// started instance that is neither terminated nor in a final state — is
// the model-level analogue of "queues drained with expectations
// outstanding".
#pragma once

#include <functional>
#include <optional>
#include <span>
#include <string>

namespace umlsoc::verify {

class Network;
struct EventChoice;

/// Per-instance counter movement during one exploration step.
struct StepDelta {
  std::uint64_t transitions_fired = 0;
  std::uint64_t errors_raised = 0;
  std::uint64_t errors_unhandled = 0;
};

/// What a property check sees: the network's live instances (re-seated on
/// the state under evaluation), the step that produced it, and the
/// per-instance counter deltas of that step.
struct PropertyContext {
  const Network& network;
  /// The alphabet entry just delivered; null at the initial state and for
  /// deadlock checks (which evaluate the state itself, not a step).
  const EventChoice* step = nullptr;
  /// Parallel to the network's instances; empty when step is null. A view
  /// of the caller's deltas, valid for the check.
  std::span<const StepDelta> deltas;
  /// True when `step` fired at least one transition in some instance.
  bool any_transition_fired = false;
};

class Property {
 public:
  enum class Kind : std::uint8_t {
    kState,     ///< Checked at the initial state and after every step.
    kDeadlock,  ///< Checked at states where no alphabet entry fires.
  };

  /// Returns a violation message, or nullopt when the property holds.
  using Check = std::function<std::optional<std::string>(const PropertyContext&)>;

  Property(std::string name, Kind kind, Check check)
      : name_(std::move(name)), kind_(kind), check_(std::move(check)) {}

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] Kind kind() const { return kind_; }
  [[nodiscard]] std::optional<std::string> check(const PropertyContext& context) const {
    return check_(context);
  }

  // --- Factories ------------------------------------------------------------

  /// General state invariant: violated wherever `holds` returns false.
  static Property invariant(std::string name,
                            std::function<bool(const PropertyContext&)> holds);

  /// "Never reaches configuration X": violated when the named instance has
  /// an active state (at any depth) with `state_name`.
  static Property never_in(const std::string& instance_name, const std::string& state_name);

  /// Unhandled-error freedom: violated when a step leaves an error-channel
  /// event unhandled in any instance (errors_unhandled moved).
  static Property no_unhandled_errors();

  /// Deadlock freedom. A state with no enabled alphabet entry violates the
  /// property unless `accepting` holds there; the default accepting
  /// predicate requires every started instance to be terminated or in a
  /// final state (the expectation-registry analogy above).
  static Property deadlock_free(
      std::function<bool(const PropertyContext&)> accepting = nullptr);

 private:
  std::string name_;
  Kind kind_;
  Check check_;
};

}  // namespace umlsoc::verify
