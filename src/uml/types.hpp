// Classifiers and their features: Class, Interface, DataType, Enumeration,
// Signal, Component, Property, Operation, Parameter, Port.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "uml/element.hpp"

namespace umlsoc::uml {

class Class;
class Classifier;
class Connector;
class Interface;
class Operation;
class Port;
class Property;

/// UML multiplicity [lower..upper]; upper == kUnlimited means "*".
struct Multiplicity {
  static constexpr int kUnlimited = -1;

  int lower = 1;
  int upper = 1;

  [[nodiscard]] bool is_valid() const {
    return lower >= 0 && (upper == kUnlimited || upper >= lower);
  }
  [[nodiscard]] std::string str() const;

  friend bool operator==(const Multiplicity&, const Multiplicity&) = default;
};

enum class AggregationKind { kNone, kShared, kComposite };

[[nodiscard]] std::string_view to_string(AggregationKind kind);

/// Abstract base for everything that can be the type of a Property/Parameter.
class Classifier : public NamedElement {
 public:
  [[nodiscard]] bool is_abstract() const { return is_abstract_; }
  void set_abstract(bool value) { is_abstract_ = value; }

  /// Direct generalizations (this -> more general classifier).
  [[nodiscard]] const std::vector<Classifier*>& generals() const { return generals_; }
  void add_generalization(Classifier& general) { generals_.push_back(&general); }

  /// Reflexive-transitive generalization check; cycle-safe.
  [[nodiscard]] bool conforms_to(const Classifier& other) const;

 protected:
  using NamedElement::NamedElement;

 private:
  bool is_abstract_ = false;
  std::vector<Classifier*> generals_;
};

/// Structural feature of a classifier (attribute or association end / part).
class Property final : public NamedElement {
 public:
  explicit Property(std::string name) : NamedElement(std::move(name)) {}

  [[nodiscard]] ElementKind kind() const override { return ElementKind::kProperty; }
  void accept(ElementVisitor& visitor) override;

  [[nodiscard]] Classifier* type() const { return type_; }
  void set_type(Classifier& type) { type_ = &type; }

  [[nodiscard]] const Multiplicity& multiplicity() const { return multiplicity_; }
  void set_multiplicity(Multiplicity m) { multiplicity_ = m; }

  [[nodiscard]] AggregationKind aggregation() const { return aggregation_; }
  void set_aggregation(AggregationKind kind) { aggregation_ = kind; }

  /// Default value as concrete-syntax text, e.g. "0", "true", "IDLE".
  [[nodiscard]] const std::string& default_value() const { return default_value_; }
  void set_default_value(std::string value) { default_value_ = std::move(value); }

  [[nodiscard]] bool is_read_only() const { return is_read_only_; }
  void set_read_only(bool value) { is_read_only_ = value; }

  [[nodiscard]] bool is_static() const { return is_static_; }
  void set_static(bool value) { is_static_ = value; }

  /// True for composite parts of a composite structure (has class type and
  /// composite aggregation); these become sub-module instances in HW.
  [[nodiscard]] bool is_part() const;

 private:
  Classifier* type_ = nullptr;
  Multiplicity multiplicity_;
  AggregationKind aggregation_ = AggregationKind::kNone;
  std::string default_value_;
  bool is_read_only_ = false;
  bool is_static_ = false;
};

enum class ParameterDirection { kIn, kInOut, kOut, kReturn };

[[nodiscard]] std::string_view to_string(ParameterDirection direction);

class Parameter final : public NamedElement {
 public:
  explicit Parameter(std::string name) : NamedElement(std::move(name)) {}

  [[nodiscard]] ElementKind kind() const override { return ElementKind::kParameter; }
  void accept(ElementVisitor& visitor) override;

  [[nodiscard]] Classifier* type() const { return type_; }
  void set_type(Classifier& type) { type_ = &type; }

  [[nodiscard]] ParameterDirection direction() const { return direction_; }
  void set_direction(ParameterDirection direction) { direction_ = direction; }

  [[nodiscard]] const std::string& default_value() const { return default_value_; }
  void set_default_value(std::string value) { default_value_ = std::move(value); }

 private:
  Classifier* type_ = nullptr;
  ParameterDirection direction_ = ParameterDirection::kIn;
  std::string default_value_;
};

/// Behavioral feature. The optional `body` holds ASL text (DESIGN.md §2.8)
/// that module `asl` parses to make the model executable (xUML-style).
class Operation final : public NamedElement {
 public:
  explicit Operation(std::string name) : NamedElement(std::move(name)) {}

  [[nodiscard]] ElementKind kind() const override { return ElementKind::kOperation; }
  void accept(ElementVisitor& visitor) override;

  Parameter& add_parameter(std::string name, Classifier* type = nullptr,
                           ParameterDirection direction = ParameterDirection::kIn);
  [[nodiscard]] const std::vector<std::unique_ptr<Parameter>>& parameters() const {
    return parameters_;
  }

  /// The return parameter's type, or nullptr for void operations.
  [[nodiscard]] Classifier* return_type() const;
  void set_return_type(Classifier& type);

  [[nodiscard]] bool is_abstract() const { return is_abstract_; }
  void set_abstract(bool value) { is_abstract_ = value; }

  [[nodiscard]] bool is_query() const { return is_query_; }
  void set_query(bool value) { is_query_ = value; }

  [[nodiscard]] const std::string& body() const { return body_; }
  void set_body(std::string body) { body_ = std::move(body); }

 protected:
  void collect_owned(std::vector<Element*>& out) const override;

 private:
  std::vector<std::unique_ptr<Parameter>> parameters_;
  bool is_abstract_ = false;
  bool is_query_ = false;
  std::string body_;
};

/// Hardware-oriented port direction; UML 2.0 ports have no direction, but
/// the SoC profile (module `soc`) gives «HwModule» ports one.
enum class PortDirection { kIn, kOut, kInOut };

[[nodiscard]] std::string_view to_string(PortDirection direction);

/// Interaction point on the boundary of a Class/Component.
class Port final : public NamedElement {
 public:
  explicit Port(std::string name) : NamedElement(std::move(name)) {}

  [[nodiscard]] ElementKind kind() const override { return ElementKind::kPort; }
  void accept(ElementVisitor& visitor) override;

  [[nodiscard]] Classifier* type() const { return type_; }
  void set_type(Classifier& type) { type_ = &type; }

  [[nodiscard]] PortDirection direction() const { return direction_; }
  void set_direction(PortDirection direction) { direction_ = direction; }

  void add_provided(Interface& interface) { provided_.push_back(&interface); }
  void add_required(Interface& interface) { required_.push_back(&interface); }
  [[nodiscard]] const std::vector<Interface*>& provided() const { return provided_; }
  [[nodiscard]] const std::vector<Interface*>& required() const { return required_; }

  [[nodiscard]] bool is_service() const { return is_service_; }
  void set_service(bool value) { is_service_ = value; }

  /// Bit width for HW signal ports (1 for plain wires); interpreted by the
  /// RTL generator, ignored elsewhere.
  [[nodiscard]] int width() const { return width_; }
  void set_width(int width) { width_ = width; }

 private:
  Classifier* type_ = nullptr;
  PortDirection direction_ = PortDirection::kInOut;
  std::vector<Interface*> provided_;
  std::vector<Interface*> required_;
  bool is_service_ = true;
  int width_ = 1;
};

/// UML Class, including UML 2.0 composite-structure features (parts via
/// composite Properties, Ports, and owned Connectors).
class Class : public Classifier {
 public:
  // Constructor and destructor are out-of-line: member cleanup needs the
  // complete Connector type (defined in relationships.hpp), which this
  // header only forward-declares.
  explicit Class(std::string name);
  ~Class() override;

  [[nodiscard]] ElementKind kind() const override { return ElementKind::kClass; }
  void accept(ElementVisitor& visitor) override;

  Property& add_property(std::string name, Classifier* type = nullptr);
  Operation& add_operation(std::string name);
  Port& add_port(std::string name, PortDirection direction = PortDirection::kInOut);
  Connector& add_connector(std::string name);

  [[nodiscard]] const std::vector<std::unique_ptr<Property>>& properties() const {
    return properties_;
  }
  [[nodiscard]] const std::vector<std::unique_ptr<Operation>>& operations() const {
    return operations_;
  }
  [[nodiscard]] const std::vector<std::unique_ptr<Port>>& ports() const { return ports_; }
  [[nodiscard]] const std::vector<std::unique_ptr<Connector>>& connectors() const {
    return connectors_;
  }

  /// Own and inherited properties, most-derived first.
  [[nodiscard]] std::vector<Property*> all_properties() const;
  /// Own and inherited operations, most-derived first.
  [[nodiscard]] std::vector<Operation*> all_operations() const;

  [[nodiscard]] Property* find_property(std::string_view name) const;
  [[nodiscard]] Operation* find_operation(std::string_view name) const;
  [[nodiscard]] Port* find_port(std::string_view name) const;

  void add_interface_realization(Interface& contract) { realizations_.push_back(&contract); }
  [[nodiscard]] const std::vector<Interface*>& interface_realizations() const {
    return realizations_;
  }

  /// Active classes own a thread of control; state machines attach to them.
  [[nodiscard]] bool is_active() const { return is_active_; }
  void set_active(bool value) { is_active_ = value; }

 protected:
  void collect_owned(std::vector<Element*>& out) const override;

 private:
  std::vector<std::unique_ptr<Property>> properties_;
  std::vector<std::unique_ptr<Operation>> operations_;
  std::vector<std::unique_ptr<Port>> ports_;
  std::vector<std::unique_ptr<Connector>> connectors_;
  std::vector<Interface*> realizations_;
  bool is_active_ = false;
};

/// UML Component: a Class that additionally advertises provided/required
/// interfaces as its external contract (the "IP core" view, paper §4).
class Component final : public Class {
 public:
  explicit Component(std::string name) : Class(std::move(name)) {}

  [[nodiscard]] ElementKind kind() const override { return ElementKind::kComponent; }
  void accept(ElementVisitor& visitor) override;

  void add_provided(Interface& interface) { provided_.push_back(&interface); }
  void add_required(Interface& interface) { required_.push_back(&interface); }
  [[nodiscard]] const std::vector<Interface*>& provided() const { return provided_; }
  [[nodiscard]] const std::vector<Interface*>& required() const { return required_; }

 private:
  std::vector<Interface*> provided_;
  std::vector<Interface*> required_;
};

class Interface final : public Classifier {
 public:
  explicit Interface(std::string name) : Classifier(std::move(name)) {}

  [[nodiscard]] ElementKind kind() const override { return ElementKind::kInterface; }
  void accept(ElementVisitor& visitor) override;

  Operation& add_operation(std::string name);
  [[nodiscard]] const std::vector<std::unique_ptr<Operation>>& operations() const {
    return operations_;
  }
  [[nodiscard]] Operation* find_operation(std::string_view name) const;

 protected:
  void collect_owned(std::vector<Element*>& out) const override;

 private:
  std::vector<std::unique_ptr<Operation>> operations_;
};

class DataType : public Classifier {
 public:
  explicit DataType(std::string name) : Classifier(std::move(name)) {}

  [[nodiscard]] ElementKind kind() const override { return ElementKind::kDataType; }
  void accept(ElementVisitor& visitor) override;
};

/// Built-in value types ("Integer", "Boolean", "Bit", "Bit[N]", ...).
class PrimitiveType final : public DataType {
 public:
  explicit PrimitiveType(std::string name) : DataType(std::move(name)) {}

  [[nodiscard]] ElementKind kind() const override { return ElementKind::kPrimitiveType; }
  void accept(ElementVisitor& visitor) override;

  /// Bit width when mapped to hardware (0 = not a synthesizable type).
  [[nodiscard]] int bit_width() const { return bit_width_; }
  void set_bit_width(int width) { bit_width_ = width; }

 private:
  int bit_width_ = 0;
};

class Enumeration final : public DataType {
 public:
  explicit Enumeration(std::string name) : DataType(std::move(name)) {}

  [[nodiscard]] ElementKind kind() const override { return ElementKind::kEnumeration; }
  void accept(ElementVisitor& visitor) override;

  void add_literal(std::string literal) { literals_.push_back(std::move(literal)); }
  [[nodiscard]] const std::vector<std::string>& literals() const { return literals_; }
  [[nodiscard]] std::optional<std::size_t> literal_index(std::string_view literal) const;

 private:
  std::vector<std::string> literals_;
};

/// Asynchronous signal type; triggers in state machines reference these.
class Signal final : public Classifier {
 public:
  explicit Signal(std::string name) : Classifier(std::move(name)) {}

  [[nodiscard]] ElementKind kind() const override { return ElementKind::kSignal; }
  void accept(ElementVisitor& visitor) override;

  Property& add_property(std::string name, Classifier* type = nullptr);
  [[nodiscard]] const std::vector<std::unique_ptr<Property>>& properties() const {
    return properties_;
  }

 protected:
  void collect_owned(std::vector<Element*>& out) const override;

 private:
  std::vector<std::unique_ptr<Property>> properties_;
};

}  // namespace umlsoc::uml
