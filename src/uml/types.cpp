#include "uml/types.hpp"

#include <unordered_set>

#include "uml/package.hpp"
#include "uml/relationships.hpp"
#include "uml/visitor.hpp"

namespace umlsoc::uml {

std::string Multiplicity::str() const {
  if (lower == 1 && upper == 1) return "1";
  if (lower == 0 && upper == kUnlimited) return "*";
  std::string out = std::to_string(lower) + "..";
  out += upper == kUnlimited ? "*" : std::to_string(upper);
  return out;
}

std::string_view to_string(AggregationKind kind) {
  switch (kind) {
    case AggregationKind::kNone:
      return "none";
    case AggregationKind::kShared:
      return "shared";
    case AggregationKind::kComposite:
      return "composite";
  }
  return "none";
}

std::string_view to_string(ParameterDirection direction) {
  switch (direction) {
    case ParameterDirection::kIn:
      return "in";
    case ParameterDirection::kInOut:
      return "inout";
    case ParameterDirection::kOut:
      return "out";
    case ParameterDirection::kReturn:
      return "return";
  }
  return "in";
}

std::string_view to_string(PortDirection direction) {
  switch (direction) {
    case PortDirection::kIn:
      return "in";
    case PortDirection::kOut:
      return "out";
    case PortDirection::kInOut:
      return "inout";
  }
  return "inout";
}

// --- Classifier -------------------------------------------------------------

bool Classifier::conforms_to(const Classifier& other) const {
  std::unordered_set<const Classifier*> seen;
  std::vector<const Classifier*> stack{this};
  while (!stack.empty()) {
    const Classifier* current = stack.back();
    stack.pop_back();
    if (current == &other) return true;
    if (!seen.insert(current).second) continue;  // Cycle guard.
    for (Classifier* general : current->generals()) stack.push_back(general);
  }
  return false;
}

// --- Property ---------------------------------------------------------------

void Property::accept(ElementVisitor& visitor) { visitor.visit(*this); }

bool Property::is_part() const {
  return aggregation_ == AggregationKind::kComposite && type_ != nullptr &&
         dynamic_cast<const Class*>(type_) != nullptr;
}

// --- Parameter / Operation ---------------------------------------------------

void Parameter::accept(ElementVisitor& visitor) { visitor.visit(*this); }

void Operation::accept(ElementVisitor& visitor) { visitor.visit(*this); }

Parameter& Operation::add_parameter(std::string name, Classifier* type,
                                    ParameterDirection direction) {
  auto parameter = std::make_unique<Parameter>(std::move(name));
  if (type != nullptr) parameter->set_type(*type);
  parameter->set_direction(direction);
  Parameter& ref = *parameter;
  model().register_element(ref, *this);
  parameters_.push_back(std::move(parameter));
  return ref;
}

Classifier* Operation::return_type() const {
  for (const auto& parameter : parameters_) {
    if (parameter->direction() == ParameterDirection::kReturn) return parameter->type();
  }
  return nullptr;
}

void Operation::set_return_type(Classifier& type) {
  for (const auto& parameter : parameters_) {
    if (parameter->direction() == ParameterDirection::kReturn) {
      parameter->set_type(type);
      return;
    }
  }
  add_parameter("return", &type, ParameterDirection::kReturn);
}

void Operation::collect_owned(std::vector<Element*>& out) const {
  for (const auto& parameter : parameters_) out.push_back(parameter.get());
}

// --- Port --------------------------------------------------------------------

void Port::accept(ElementVisitor& visitor) { visitor.visit(*this); }

// --- Class -------------------------------------------------------------------

Class::Class(std::string name) : Classifier(std::move(name)) {}

Class::~Class() = default;

void Class::accept(ElementVisitor& visitor) { visitor.visit(*this); }

Property& Class::add_property(std::string name, Classifier* type) {
  auto property = std::make_unique<Property>(std::move(name));
  if (type != nullptr) property->set_type(*type);
  Property& ref = *property;
  model().register_element(ref, *this);
  properties_.push_back(std::move(property));
  return ref;
}

Operation& Class::add_operation(std::string name) {
  auto operation = std::make_unique<Operation>(std::move(name));
  Operation& ref = *operation;
  model().register_element(ref, *this);
  operations_.push_back(std::move(operation));
  return ref;
}

Port& Class::add_port(std::string name, PortDirection direction) {
  auto port = std::make_unique<Port>(std::move(name));
  port->set_direction(direction);
  Port& ref = *port;
  model().register_element(ref, *this);
  ports_.push_back(std::move(port));
  return ref;
}

Connector& Class::add_connector(std::string name) {
  auto connector = std::make_unique<Connector>(std::move(name));
  Connector& ref = *connector;
  model().register_element(ref, *this);
  connectors_.push_back(std::move(connector));
  return ref;
}

namespace {

// Collects features over the generalization closure, most-derived first,
// skipping classifiers already visited (diamond / cycle safety).
template <typename FeatureT, typename GetterT>
std::vector<FeatureT*> collect_features(const Class& start, GetterT getter) {
  std::vector<FeatureT*> out;
  std::unordered_set<const Classifier*> seen;
  std::vector<const Classifier*> stack{&start};
  while (!stack.empty()) {
    const Classifier* current = stack.back();
    stack.pop_back();
    if (!seen.insert(current).second) continue;
    if (const auto* as_class = dynamic_cast<const Class*>(current)) {
      for (const auto& feature : getter(*as_class)) out.push_back(feature.get());
    }
    for (Classifier* general : current->generals()) stack.push_back(general);
  }
  return out;
}

}  // namespace

std::vector<Property*> Class::all_properties() const {
  return collect_features<Property>(*this, [](const Class& c) -> const auto& {
    return c.properties();
  });
}

std::vector<Operation*> Class::all_operations() const {
  return collect_features<Operation>(*this, [](const Class& c) -> const auto& {
    return c.operations();
  });
}

Property* Class::find_property(std::string_view name) const {
  for (const auto& property : properties_) {
    if (property->name() == name) return property.get();
  }
  return nullptr;
}

Operation* Class::find_operation(std::string_view name) const {
  for (const auto& operation : operations_) {
    if (operation->name() == name) return operation.get();
  }
  return nullptr;
}

Port* Class::find_port(std::string_view name) const {
  for (const auto& port : ports_) {
    if (port->name() == name) return port.get();
  }
  return nullptr;
}

void Class::collect_owned(std::vector<Element*>& out) const {
  for (const auto& property : properties_) out.push_back(property.get());
  for (const auto& operation : operations_) out.push_back(operation.get());
  for (const auto& port : ports_) out.push_back(port.get());
  for (const auto& connector : connectors_) out.push_back(connector.get());
}

// --- Component ----------------------------------------------------------------

void Component::accept(ElementVisitor& visitor) { visitor.visit(*this); }

// --- Interface ------------------------------------------------------------------

void Interface::accept(ElementVisitor& visitor) { visitor.visit(*this); }

Operation& Interface::add_operation(std::string name) {
  auto operation = std::make_unique<Operation>(std::move(name));
  Operation& ref = *operation;
  model().register_element(ref, *this);
  operations_.push_back(std::move(operation));
  return ref;
}

void Interface::collect_owned(std::vector<Element*>& out) const {
  for (const auto& operation : operations_) out.push_back(operation.get());
}

// --- Data types -------------------------------------------------------------------

void DataType::accept(ElementVisitor& visitor) { visitor.visit(*this); }
void PrimitiveType::accept(ElementVisitor& visitor) { visitor.visit(*this); }
void Enumeration::accept(ElementVisitor& visitor) { visitor.visit(*this); }

// --- Signal ---------------------------------------------------------------------------

void Signal::accept(ElementVisitor& visitor) { visitor.visit(*this); }

Property& Signal::add_property(std::string name, Classifier* type) {
  auto property = std::make_unique<Property>(std::move(name));
  if (type != nullptr) property->set_type(*type);
  Property& ref = *property;
  model().register_element(ref, *this);
  properties_.push_back(std::move(property));
  return ref;
}

void Signal::collect_owned(std::vector<Element*>& out) const {
  for (const auto& property : properties_) out.push_back(property.get());
}

}  // namespace umlsoc::uml
