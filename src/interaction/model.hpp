// UML 2.0 interaction metamodel: lifelines, messages, combined fragments.
// Paper §2: Sequence Diagrams "extended in UML 2.0 to be comparable to an
// SDL Message Sequence Chart (MSC)" — combined fragments (alt/opt/loop/par/
// strict) are exactly that extension.
//
// Semantics are trace-based (see interaction/trace.hpp): an interaction
// denotes a set of message-label sequences. Sequencing between consecutive
// fragments is strict (MSC-style); `par` provides explicit interleaving.
#pragma once

#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace umlsoc::uml {
class NamedElement;
}

namespace umlsoc::interaction {

class Interaction;

/// A participant; optionally bound to a model element it represents.
class Lifeline {
 public:
  explicit Lifeline(std::string name) : name_(std::move(name)) {}

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] uml::NamedElement* represents() const { return represents_; }
  void set_represents(uml::NamedElement& element) { represents_ = &element; }

 private:
  std::string name_;
  uml::NamedElement* represents_ = nullptr;
};

enum class MessageKind { kSync, kAsync, kReply, kCreate, kDestroy };

enum class FragmentKind { kMessage, kCombined };

enum class InteractionOperator { kAlt, kOpt, kLoop, kPar, kStrict };

[[nodiscard]] std::string_view to_string(InteractionOperator op);

class Fragment;

/// One operand of a combined fragment: a guarded sequence of fragments.
class Operand {
 public:
  explicit Operand(std::string guard = "") : guard_(std::move(guard)) {}
  Operand(const Operand&) = delete;
  Operand& operator=(const Operand&) = delete;

  [[nodiscard]] const std::string& guard() const { return guard_; }

  Fragment& add_message(Lifeline& from, Lifeline& to, std::string name,
                        MessageKind kind = MessageKind::kAsync);
  Fragment& add_combined(InteractionOperator op);

  [[nodiscard]] const std::vector<std::unique_ptr<Fragment>>& fragments() const {
    return fragments_;
  }

 private:
  std::string guard_;
  std::vector<std::unique_ptr<Fragment>> fragments_;
};

/// A message occurrence or a combined fragment, in document order.
class Fragment {
 public:
  Fragment(const Fragment&) = delete;
  Fragment& operator=(const Fragment&) = delete;

  [[nodiscard]] FragmentKind fragment_kind() const { return kind_; }

  // --- Message view ---------------------------------------------------------
  [[nodiscard]] Lifeline* from() const { return from_; }
  [[nodiscard]] Lifeline* to() const { return to_; }
  [[nodiscard]] const std::string& message_name() const { return message_name_; }
  [[nodiscard]] MessageKind message_kind() const { return message_kind_; }
  /// Canonical event label, e.g. "Cpu->Bus:read".
  [[nodiscard]] std::string label() const;

  // --- Combined-fragment view --------------------------------------------------
  [[nodiscard]] InteractionOperator combined_operator() const { return operator_; }
  Operand& add_operand(std::string guard = "");
  [[nodiscard]] const std::vector<std::unique_ptr<Operand>>& operands() const {
    return operands_;
  }
  /// Loop bounds; max < 0 means unbounded ("*").
  void set_loop_bounds(int min, int max) {
    loop_min_ = min;
    loop_max_ = max;
  }
  [[nodiscard]] int loop_min() const { return loop_min_; }
  [[nodiscard]] int loop_max() const { return loop_max_; }

 private:
  friend class Operand;
  friend class Interaction;

  Fragment(Lifeline& from, Lifeline& to, std::string name, MessageKind kind)
      : kind_(FragmentKind::kMessage),
        from_(&from),
        to_(&to),
        message_name_(std::move(name)),
        message_kind_(kind) {}
  explicit Fragment(InteractionOperator op) : kind_(FragmentKind::kCombined), operator_(op) {}

  FragmentKind kind_;
  // Message fields.
  Lifeline* from_ = nullptr;
  Lifeline* to_ = nullptr;
  std::string message_name_;
  MessageKind message_kind_ = MessageKind::kAsync;
  // Combined-fragment fields.
  InteractionOperator operator_ = InteractionOperator::kStrict;
  std::vector<std::unique_ptr<Operand>> operands_;
  int loop_min_ = 0;
  int loop_max_ = -1;
};

/// A sequence diagram.
class Interaction {
 public:
  explicit Interaction(std::string name) : name_(std::move(name)) {}
  Interaction(const Interaction&) = delete;
  Interaction& operator=(const Interaction&) = delete;

  [[nodiscard]] const std::string& name() const { return name_; }

  Lifeline& add_lifeline(std::string name);
  [[nodiscard]] const std::vector<std::unique_ptr<Lifeline>>& lifelines() const {
    return lifelines_;
  }
  [[nodiscard]] Lifeline* find_lifeline(std::string_view name) const;

  Fragment& add_message(Lifeline& from, Lifeline& to, std::string name,
                        MessageKind kind = MessageKind::kAsync);
  Fragment& add_combined(InteractionOperator op);
  [[nodiscard]] const std::vector<std::unique_ptr<Fragment>>& fragments() const {
    return fragments_;
  }

 private:
  std::string name_;
  std::vector<std::unique_ptr<Lifeline>> lifelines_;
  std::vector<std::unique_ptr<Fragment>> fragments_;
};

}  // namespace umlsoc::interaction
