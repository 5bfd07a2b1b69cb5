#include "xmi/serialize.hpp"

#include <functional>
#include <optional>
#include <unordered_map>

#include "uml/instance.hpp"
#include "uml/visitor.hpp"
#include "xmi/xml.hpp"

namespace umlsoc::xmi {

using namespace uml;

namespace {

// --- Writer ------------------------------------------------------------------

void write_member(const NamedElement& element, XmlNode& parent);

void write_common(const NamedElement& element, XmlNode& node) {
  node.set_attribute("id", element.id().str());
  node.set_attribute("name", element.name());
  if (element.visibility() != Visibility::kPublic) {
    node.set_attribute("visibility", std::string(to_string(element.visibility())));
  }
  if (!element.documentation().empty()) {
    node.set_attribute("documentation", element.documentation());
  }
  for (const StereotypeApplication& application : element.stereotype_applications()) {
    XmlNode& app_node = node.add_child("appliedStereotype");
    app_node.set_attribute("stereotype", application.stereotype->id().str());
    for (const auto& [key, value] : application.tagged_values) {
      XmlNode& tag_node = app_node.add_child("taggedValue");
      tag_node.set_attribute("key", key);
      tag_node.set_attribute("value", value);
    }
  }
}

void write_classifier_common(const Classifier& classifier, XmlNode& node) {
  if (classifier.is_abstract()) node.set_attribute("isAbstract", "true");
  for (const Classifier* general : classifier.generals()) {
    node.add_child("generalization").set_attribute("general", general->id().str());
  }
}

void write_property(const Property& property, XmlNode& parent) {
  XmlNode& node = parent.add_child("Property");
  write_common(property, node);
  if (property.type() != nullptr) node.set_attribute("type", property.type()->id().str());
  if (!(property.multiplicity() == Multiplicity{})) {
    node.set_attribute("lower", std::to_string(property.multiplicity().lower));
    node.set_attribute("upper", std::to_string(property.multiplicity().upper));
  }
  if (property.aggregation() != AggregationKind::kNone) {
    node.set_attribute("aggregation", std::string(to_string(property.aggregation())));
  }
  if (!property.default_value().empty()) {
    node.set_attribute("default", property.default_value());
  }
  if (property.is_read_only()) node.set_attribute("isReadOnly", "true");
  if (property.is_static()) node.set_attribute("isStatic", "true");
}

void write_operation(const Operation& operation, XmlNode& parent) {
  XmlNode& node = parent.add_child("Operation");
  write_common(operation, node);
  if (operation.is_abstract()) node.set_attribute("isAbstract", "true");
  if (operation.is_query()) node.set_attribute("isQuery", "true");
  if (!operation.body().empty()) node.set_attribute("body", operation.body());
  for (const auto& parameter : operation.parameters()) {
    XmlNode& parameter_node = node.add_child("Parameter");
    write_common(*parameter, parameter_node);
    if (parameter->type() != nullptr) {
      parameter_node.set_attribute("type", parameter->type()->id().str());
    }
    if (parameter->direction() != ParameterDirection::kIn) {
      parameter_node.set_attribute("direction", std::string(to_string(parameter->direction())));
    }
    if (!parameter->default_value().empty()) {
      parameter_node.set_attribute("default", parameter->default_value());
    }
  }
}

void write_port(const Port& port, XmlNode& parent) {
  XmlNode& node = parent.add_child("Port");
  write_common(port, node);
  if (port.type() != nullptr) node.set_attribute("type", port.type()->id().str());
  if (port.direction() != PortDirection::kInOut) {
    node.set_attribute("direction", std::string(to_string(port.direction())));
  }
  if (port.width() != 1) node.set_attribute("width", std::to_string(port.width()));
  if (!port.is_service()) node.set_attribute("isService", "false");
  for (const Interface* interface : port.provided()) {
    node.add_child("provides").set_attribute("interface", interface->id().str());
  }
  for (const Interface* interface : port.required()) {
    node.add_child("requires").set_attribute("interface", interface->id().str());
  }
}

void write_class_content(const Class& cls, XmlNode& node) {
  write_classifier_common(cls, node);
  if (cls.is_active()) node.set_attribute("isActive", "true");
  for (const Interface* contract : cls.interface_realizations()) {
    node.add_child("interfaceRealization").set_attribute("contract", contract->id().str());
  }
  for (const auto& property : cls.properties()) write_property(*property, node);
  for (const auto& operation : cls.operations()) write_operation(*operation, node);
  for (const auto& port : cls.ports()) write_port(*port, node);
  for (const auto& connector : cls.connectors()) {
    XmlNode& connector_node = node.add_child("Connector");
    write_common(*connector, connector_node);
    for (const ConnectorEnd& end : connector->ends()) {
      XmlNode& end_node = connector_node.add_child("end");
      if (end.part != nullptr) end_node.set_attribute("part", end.part->id().str());
      if (end.port != nullptr) end_node.set_attribute("port", end.port->id().str());
    }
  }
}

void write_member(const NamedElement& element, XmlNode& parent) {
  switch (element.kind()) {
    case ElementKind::kPackage:
    case ElementKind::kProfile:
    case ElementKind::kModel: {
      XmlNode& node = parent.add_child(std::string(to_string(element.kind())));
      write_common(element, node);
      for (const auto& member : static_cast<const Package&>(element).members()) {
        write_member(*member, node);
      }
      if (element.kind() == ElementKind::kModel) {
        for (const Profile* profile : static_cast<const Model&>(element).applied_profiles()) {
          node.add_child("profileApplication")
              .set_attribute("appliedProfile", profile->id().str());
        }
      }
      break;
    }
    case ElementKind::kStereotype: {
      const auto& stereotype = static_cast<const Stereotype&>(element);
      XmlNode& node = parent.add_child("Stereotype");
      write_common(stereotype, node);
      for (ElementKind extended : stereotype.extended_metaclasses()) {
        node.add_child("extends").set_attribute("metaclass", std::string(to_string(extended)));
      }
      for (const auto& tag : stereotype.tag_definitions()) {
        XmlNode& tag_node = node.add_child("tagDefinition");
        tag_node.set_attribute("name", tag.name);
        if (!tag.default_value.empty()) tag_node.set_attribute("default", tag.default_value);
      }
      break;
    }
    case ElementKind::kClass:
    case ElementKind::kComponent: {
      const auto& cls = static_cast<const Class&>(element);
      XmlNode& node = parent.add_child(std::string(to_string(element.kind())));
      write_common(cls, node);
      write_class_content(cls, node);
      if (element.kind() == ElementKind::kComponent) {
        const auto& component = static_cast<const Component&>(element);
        for (const Interface* interface : component.provided()) {
          node.add_child("provides").set_attribute("interface", interface->id().str());
        }
        for (const Interface* interface : component.required()) {
          node.add_child("requires").set_attribute("interface", interface->id().str());
        }
      }
      break;
    }
    case ElementKind::kInterface: {
      const auto& interface = static_cast<const Interface&>(element);
      XmlNode& node = parent.add_child("Interface");
      write_common(interface, node);
      write_classifier_common(interface, node);
      for (const auto& operation : interface.operations()) write_operation(*operation, node);
      break;
    }
    case ElementKind::kDataType: {
      XmlNode& node = parent.add_child("DataType");
      write_common(element, node);
      write_classifier_common(static_cast<const Classifier&>(element), node);
      break;
    }
    case ElementKind::kPrimitiveType: {
      const auto& primitive = static_cast<const PrimitiveType&>(element);
      XmlNode& node = parent.add_child("PrimitiveType");
      write_common(primitive, node);
      if (primitive.bit_width() != 0) {
        node.set_attribute("bitWidth", std::to_string(primitive.bit_width()));
      }
      break;
    }
    case ElementKind::kEnumeration: {
      const auto& enumeration = static_cast<const Enumeration&>(element);
      XmlNode& node = parent.add_child("Enumeration");
      write_common(enumeration, node);
      for (const std::string& literal : enumeration.literals()) {
        node.add_child("literal").set_attribute("name", literal);
      }
      break;
    }
    case ElementKind::kSignal: {
      const auto& signal = static_cast<const Signal&>(element);
      XmlNode& node = parent.add_child("Signal");
      write_common(signal, node);
      write_classifier_common(signal, node);
      for (const auto& property : signal.properties()) write_property(*property, node);
      break;
    }
    case ElementKind::kAssociation: {
      const auto& association = static_cast<const Association&>(element);
      XmlNode& node = parent.add_child("Association");
      write_common(association, node);
      for (const auto& end : association.ends()) write_property(*end, node);
      break;
    }
    case ElementKind::kDependency: {
      const auto& dependency = static_cast<const Dependency&>(element);
      XmlNode& node = parent.add_child("Dependency");
      write_common(dependency, node);
      if (dependency.client() != nullptr) {
        node.set_attribute("client", dependency.client()->id().str());
      }
      if (dependency.supplier() != nullptr) {
        node.set_attribute("supplier", dependency.supplier()->id().str());
      }
      if (dependency.dependency_kind() != DependencyKind::kUse) {
        node.set_attribute("kind", std::string(to_string(dependency.dependency_kind())));
      }
      break;
    }
    case ElementKind::kInstanceSpecification: {
      const auto& instance = static_cast<const InstanceSpecification&>(element);
      XmlNode& node = parent.add_child("InstanceSpecification");
      write_common(instance, node);
      if (instance.classifier() != nullptr) {
        node.set_attribute("classifier", instance.classifier()->id().str());
      }
      for (const Slot& slot : instance.slots()) {
        XmlNode& slot_node = node.add_child("slot");
        if (slot.defining_feature != nullptr) {
          slot_node.set_attribute("feature", slot.defining_feature->id().str());
        }
        if (!slot.value.empty()) slot_node.set_attribute("value", slot.value);
        if (slot.reference != nullptr) {
          slot_node.set_attribute("reference", slot.reference->id().str());
        }
      }
      break;
    }
    case ElementKind::kProperty:
    case ElementKind::kOperation:
    case ElementKind::kParameter:
    case ElementKind::kPort:
    case ElementKind::kConnector:
      // Features are always written by their owner; never as package members.
      break;
  }
}

// --- Reader ------------------------------------------------------------------

int to_int(const std::string& text, int fallback) {
  try {
    return std::stoi(text);
  } catch (...) {
    return fallback;
  }
}

Visibility visibility_from(std::string_view text) {
  if (text == "protected") return Visibility::kProtected;
  if (text == "private") return Visibility::kPrivate;
  if (text == "package") return Visibility::kPackage;
  return Visibility::kPublic;
}

AggregationKind aggregation_from(std::string_view text) {
  if (text == "shared") return AggregationKind::kShared;
  if (text == "composite") return AggregationKind::kComposite;
  return AggregationKind::kNone;
}

ParameterDirection parameter_direction_from(std::string_view text) {
  if (text == "inout") return ParameterDirection::kInOut;
  if (text == "out") return ParameterDirection::kOut;
  if (text == "return") return ParameterDirection::kReturn;
  return ParameterDirection::kIn;
}

PortDirection port_direction_from(std::string_view text) {
  if (text == "in") return PortDirection::kIn;
  if (text == "out") return PortDirection::kOut;
  return PortDirection::kInOut;
}

DependencyKind dependency_kind_from(std::string_view text) {
  if (text == "realize") return DependencyKind::kRealize;
  if (text == "allocate") return DependencyKind::kAllocate;
  if (text == "trace") return DependencyKind::kTrace;
  return DependencyKind::kUse;
}

std::optional<ElementKind> element_kind_from(std::string_view text) {
  static const std::unordered_map<std::string_view, ElementKind> kMap = {
      {"Model", ElementKind::kModel},
      {"Package", ElementKind::kPackage},
      {"Profile", ElementKind::kProfile},
      {"Stereotype", ElementKind::kStereotype},
      {"Class", ElementKind::kClass},
      {"Component", ElementKind::kComponent},
      {"Interface", ElementKind::kInterface},
      {"DataType", ElementKind::kDataType},
      {"PrimitiveType", ElementKind::kPrimitiveType},
      {"Enumeration", ElementKind::kEnumeration},
      {"Signal", ElementKind::kSignal},
      {"Property", ElementKind::kProperty},
      {"Operation", ElementKind::kOperation},
      {"Parameter", ElementKind::kParameter},
      {"Port", ElementKind::kPort},
      {"Association", ElementKind::kAssociation},
      {"Connector", ElementKind::kConnector},
      {"Dependency", ElementKind::kDependency},
      {"InstanceSpecification", ElementKind::kInstanceSpecification},
  };
  auto it = kMap.find(text);
  if (it == kMap.end()) return std::nullopt;
  return it->second;
}

class Reader {
 public:
  explicit Reader(support::DiagnosticSink& sink) : sink_(sink) {}

  std::unique_ptr<Model> read(const XmlNode& root) {
    const XmlNode* model_node = root.name() == "Model" ? &root : root.child("Model");
    if (model_node == nullptr) {
      sink_.error("xmi", "document has no <Model> element");
      return nullptr;
    }
    auto model = std::make_unique<Model>(model_node->attribute_or("name", ""));
    register_node(*model_node, *model);
    read_common(*model_node, *model);
    for (const auto& child : model_node->children()) read_member(*model, *child);

    // Profile applications reference profiles read above.
    for (const XmlNode* application : model_node->children_named("profileApplication")) {
      std::string profile_id = application->attribute_or("appliedProfile", "");
      Model* model_ptr = model.get();
      fixups_.push_back([this, model_ptr, profile_id] {
        if (auto* profile = resolve<Profile>(profile_id, "profileApplication")) {
          model_ptr->apply_profile(*profile);
        }
      });
    }

    for (const auto& fixup : fixups_) fixup();
    if (sink_.has_errors()) return nullptr;
    return model;
  }

 private:
  void register_node(const XmlNode& node, Element& element) {
    std::string file_id = node.attribute_or("id", "");
    if (file_id.empty()) {
      sink_.error("xmi", "<" + node.name() + "> element without id");
      return;
    }
    if (!by_id_.emplace(file_id, &element).second) {
      sink_.error("xmi", "duplicate element id '" + file_id + "'");
    }
  }

  template <typename T>
  T* resolve(const std::string& file_id, const char* context) {
    if (file_id.empty()) return nullptr;
    auto it = by_id_.find(file_id);
    if (it == by_id_.end()) {
      sink_.error("xmi", std::string(context) + ": unresolved reference '" + file_id + "'");
      return nullptr;
    }
    T* typed = dynamic_cast<T*>(it->second);
    if (typed == nullptr) {
      sink_.error("xmi", std::string(context) + ": reference '" + file_id +
                             "' has unexpected metaclass " +
                             std::string(to_string(it->second->kind())));
    }
    return typed;
  }

  void read_common(const XmlNode& node, NamedElement& element) {
    element.set_visibility(visibility_from(node.attribute_or("visibility", "public")));
    element.set_documentation(node.attribute_or("documentation", ""));
    for (const XmlNode* application : node.children_named("appliedStereotype")) {
      std::string stereotype_id = application->attribute_or("stereotype", "");
      std::vector<std::pair<std::string, std::string>> tags;
      for (const XmlNode* tagged : application->children_named("taggedValue")) {
        tags.emplace_back(tagged->attribute_or("key", ""), tagged->attribute_or("value", ""));
      }
      NamedElement* target = &element;
      fixups_.push_back([this, target, stereotype_id, tags = std::move(tags)] {
        auto* stereotype = resolve<Stereotype>(stereotype_id, "appliedStereotype");
        if (stereotype == nullptr) return;
        target->apply_stereotype(*stereotype);
        for (const auto& [key, value] : tags) {
          target->set_tagged_value(*stereotype, key, value);
        }
      });
    }
  }

  void read_classifier_common(const XmlNode& node, Classifier& classifier) {
    if (node.attribute_or("isAbstract", "false") == "true") classifier.set_abstract(true);
    for (const XmlNode* generalization : node.children_named("generalization")) {
      std::string general_id = generalization->attribute_or("general", "");
      Classifier* target = &classifier;
      fixups_.push_back([this, target, general_id] {
        if (auto* general = resolve<Classifier>(general_id, "generalization")) {
          target->add_generalization(*general);
        }
      });
    }
  }

  void read_property_attrs(const XmlNode& node, Property& property) {
    read_common(node, property);
    std::string type_id = node.attribute_or("type", "");
    if (!type_id.empty()) {
      Property* target = &property;
      fixups_.push_back([this, target, type_id] {
        if (auto* type = resolve<Classifier>(type_id, "property type")) target->set_type(*type);
      });
    }
    if (node.attribute("lower") != nullptr) {
      Multiplicity multiplicity;
      multiplicity.lower = to_int(node.attribute_or("lower", "1"), 1);
      multiplicity.upper = to_int(node.attribute_or("upper", "1"), 1);
      property.set_multiplicity(multiplicity);
    }
    property.set_aggregation(aggregation_from(node.attribute_or("aggregation", "none")));
    property.set_default_value(node.attribute_or("default", ""));
    if (node.attribute_or("isReadOnly", "false") == "true") property.set_read_only(true);
    if (node.attribute_or("isStatic", "false") == "true") property.set_static(true);
  }

  void read_operation(const XmlNode& node, Operation& operation) {
    register_node(node, operation);
    read_common(node, operation);
    if (node.attribute_or("isAbstract", "false") == "true") operation.set_abstract(true);
    if (node.attribute_or("isQuery", "false") == "true") operation.set_query(true);
    operation.set_body(node.attribute_or("body", ""));
    for (const XmlNode* parameter_node : node.children_named("Parameter")) {
      Parameter& parameter = operation.add_parameter(parameter_node->attribute_or("name", ""));
      register_node(*parameter_node, parameter);
      read_common(*parameter_node, parameter);
      parameter.set_direction(
          parameter_direction_from(parameter_node->attribute_or("direction", "in")));
      parameter.set_default_value(parameter_node->attribute_or("default", ""));
      std::string type_id = parameter_node->attribute_or("type", "");
      if (!type_id.empty()) {
        Parameter* target = &parameter;
        fixups_.push_back([this, target, type_id] {
          if (auto* type = resolve<Classifier>(type_id, "parameter type")) {
            target->set_type(*type);
          }
        });
      }
    }
  }

  void read_interface_lists(const XmlNode& node, std::function<void(Interface&)> add_provided,
                            std::function<void(Interface&)> add_required) {
    for (const XmlNode* provides : node.children_named("provides")) {
      std::string interface_id = provides->attribute_or("interface", "");
      fixups_.push_back([this, add_provided, interface_id] {
        if (auto* interface = resolve<Interface>(interface_id, "provides")) {
          add_provided(*interface);
        }
      });
    }
    for (const XmlNode* requires_node : node.children_named("requires")) {
      std::string interface_id = requires_node->attribute_or("interface", "");
      fixups_.push_back([this, add_required, interface_id] {
        if (auto* interface = resolve<Interface>(interface_id, "requires")) {
          add_required(*interface);
        }
      });
    }
  }

  void read_class_content(const XmlNode& node, Class& cls) {
    read_common(node, cls);
    read_classifier_common(node, cls);
    if (node.attribute_or("isActive", "false") == "true") cls.set_active(true);
    for (const XmlNode* realization : node.children_named("interfaceRealization")) {
      std::string contract_id = realization->attribute_or("contract", "");
      Class* target = &cls;
      fixups_.push_back([this, target, contract_id] {
        if (auto* contract = resolve<Interface>(contract_id, "interfaceRealization")) {
          target->add_interface_realization(*contract);
        }
      });
    }
    for (const auto& child : node.children()) {
      if (child->name() == "Property") {
        Property& property = cls.add_property(child->attribute_or("name", ""));
        register_node(*child, property);
        read_property_attrs(*child, property);
      } else if (child->name() == "Operation") {
        read_operation(*child, cls.add_operation(child->attribute_or("name", "")));
      } else if (child->name() == "Port") {
        Port& port = cls.add_port(child->attribute_or("name", ""));
        register_node(*child, port);
        read_common(*child, port);
        port.set_direction(port_direction_from(child->attribute_or("direction", "inout")));
        port.set_width(to_int(child->attribute_or("width", "1"), 1));
        port.set_service(child->attribute_or("isService", "true") == "true");
        std::string type_id = child->attribute_or("type", "");
        if (!type_id.empty()) {
          Port* target = &port;
          fixups_.push_back([this, target, type_id] {
            if (auto* type = resolve<Classifier>(type_id, "port type")) target->set_type(*type);
          });
        }
        read_interface_lists(
            *child, [&port](Interface& i) { port.add_provided(i); },
            [&port](Interface& i) { port.add_required(i); });
      } else if (child->name() == "Connector") {
        Connector& connector = cls.add_connector(child->attribute_or("name", ""));
        register_node(*child, connector);
        read_common(*child, connector);
        for (const XmlNode* end_node : child->children_named("end")) {
          std::string part_id = end_node->attribute_or("part", "");
          std::string port_id = end_node->attribute_or("port", "");
          Connector* target = &connector;
          fixups_.push_back([this, target, part_id, port_id] {
            ConnectorEnd end;
            if (!part_id.empty()) end.part = resolve<Property>(part_id, "connector end part");
            if (!port_id.empty()) end.port = resolve<Port>(port_id, "connector end port");
            target->add_end(end);
          });
        }
      }
    }
  }

  void read_member(Package& package, const XmlNode& node) {
    std::optional<ElementKind> kind = element_kind_from(node.name());
    if (!kind.has_value()) return;  // Role nodes handled by their owner.
    std::string name = node.attribute_or("name", "");
    switch (*kind) {
      case ElementKind::kPackage: {
        Package& child = package.add_package(name);
        register_node(node, child);
        read_common(node, child);
        for (const auto& grandchild : node.children()) read_member(child, *grandchild);
        break;
      }
      case ElementKind::kProfile: {
        auto* model = dynamic_cast<Model*>(&package);
        if (model == nullptr) {
          sink_.error("xmi", "profile '" + name + "' must be owned by the model root");
          return;
        }
        Profile& profile = model->add_profile(name);
        register_node(node, profile);
        read_common(node, profile);
        for (const auto& grandchild : node.children()) read_member(profile, *grandchild);
        break;
      }
      case ElementKind::kStereotype: {
        auto* profile = dynamic_cast<Profile*>(&package);
        if (profile == nullptr) {
          sink_.error("xmi", "stereotype '" + name + "' must be owned by a profile");
          return;
        }
        Stereotype& stereotype = profile->add_stereotype(name);
        register_node(node, stereotype);
        read_common(node, stereotype);
        for (const XmlNode* extends : node.children_named("extends")) {
          std::optional<ElementKind> metaclass =
              element_kind_from(extends->attribute_or("metaclass", ""));
          if (metaclass.has_value()) stereotype.add_extended_metaclass(*metaclass);
        }
        for (const XmlNode* tag : node.children_named("tagDefinition")) {
          stereotype.add_tag_definition(tag->attribute_or("name", ""),
                                        tag->attribute_or("default", ""));
        }
        break;
      }
      case ElementKind::kClass: {
        Class& cls = package.add_class(name);
        register_node(node, cls);
        read_class_content(node, cls);
        break;
      }
      case ElementKind::kComponent: {
        Component& component = package.add_component(name);
        register_node(node, component);
        read_class_content(node, component);
        read_interface_lists(
            node, [&component](Interface& i) { component.add_provided(i); },
            [&component](Interface& i) { component.add_required(i); });
        break;
      }
      case ElementKind::kInterface: {
        Interface& interface = package.add_interface(name);
        register_node(node, interface);
        read_common(node, interface);
        read_classifier_common(node, interface);
        for (const XmlNode* operation_node : node.children_named("Operation")) {
          read_operation(*operation_node, interface.add_operation(
                                              operation_node->attribute_or("name", "")));
        }
        break;
      }
      case ElementKind::kDataType: {
        DataType& data_type = package.add_data_type(name);
        register_node(node, data_type);
        read_common(node, data_type);
        read_classifier_common(node, data_type);
        break;
      }
      case ElementKind::kPrimitiveType: {
        PrimitiveType& primitive =
            package.add_primitive_type(name, to_int(node.attribute_or("bitWidth", "0"), 0));
        register_node(node, primitive);
        read_common(node, primitive);
        break;
      }
      case ElementKind::kEnumeration: {
        Enumeration& enumeration = package.add_enumeration(name);
        register_node(node, enumeration);
        read_common(node, enumeration);
        for (const XmlNode* literal : node.children_named("literal")) {
          enumeration.add_literal(literal->attribute_or("name", ""));
        }
        break;
      }
      case ElementKind::kSignal: {
        Signal& signal = package.add_signal(name);
        register_node(node, signal);
        read_common(node, signal);
        read_classifier_common(node, signal);
        for (const XmlNode* property_node : node.children_named("Property")) {
          Property& property = signal.add_property(property_node->attribute_or("name", ""));
          register_node(*property_node, property);
          read_property_attrs(*property_node, property);
        }
        break;
      }
      case ElementKind::kAssociation: {
        Association& association = package.add_association(name);
        register_node(node, association);
        read_common(node, association);
        for (const XmlNode* end_node : node.children_named("Property")) {
          Property& end = association.add_end(end_node->attribute_or("name", ""));
          register_node(*end_node, end);
          read_property_attrs(*end_node, end);
        }
        break;
      }
      case ElementKind::kDependency: {
        Dependency& dependency = package.add_dependency(name);
        register_node(node, dependency);
        read_common(node, dependency);
        dependency.set_dependency_kind(dependency_kind_from(node.attribute_or("kind", "use")));
        std::string client_id = node.attribute_or("client", "");
        std::string supplier_id = node.attribute_or("supplier", "");
        Dependency* target = &dependency;
        fixups_.push_back([this, target, client_id, supplier_id] {
          if (auto* client = resolve<NamedElement>(client_id, "dependency client")) {
            target->set_client(*client);
          }
          if (auto* supplier = resolve<NamedElement>(supplier_id, "dependency supplier")) {
            target->set_supplier(*supplier);
          }
        });
        break;
      }
      case ElementKind::kInstanceSpecification: {
        InstanceSpecification& instance = package.add_instance(name);
        register_node(node, instance);
        read_common(node, instance);
        std::string classifier_id = node.attribute_or("classifier", "");
        InstanceSpecification* target = &instance;
        if (!classifier_id.empty()) {
          fixups_.push_back([this, target, classifier_id] {
            if (auto* classifier = resolve<Classifier>(classifier_id, "instance classifier")) {
              target->set_classifier(*classifier);
            }
          });
        }
        for (const XmlNode* slot_node : node.children_named("slot")) {
          std::string feature_id = slot_node->attribute_or("feature", "");
          std::string value = slot_node->attribute_or("value", "");
          std::string reference_id = slot_node->attribute_or("reference", "");
          fixups_.push_back([this, target, feature_id, value, reference_id] {
            auto* feature = resolve<Property>(feature_id, "slot feature");
            if (feature == nullptr) return;
            if (!reference_id.empty()) {
              if (auto* reference =
                      resolve<InstanceSpecification>(reference_id, "slot reference")) {
                target->set_slot_reference(*feature, *reference);
              }
            } else {
              target->set_slot(*feature, value);
            }
          });
        }
        break;
      }
      case ElementKind::kModel:
      case ElementKind::kProperty:
      case ElementKind::kOperation:
      case ElementKind::kParameter:
      case ElementKind::kPort:
      case ElementKind::kConnector:
        sink_.error("xmi", "<" + node.name() + "> cannot be a package member");
        break;
    }
  }

  support::DiagnosticSink& sink_;
  std::unordered_map<std::string, Element*> by_id_;
  std::vector<std::function<void()>> fixups_;
};

}  // namespace

std::string write_model(const Model& model) {
  XmlNode root("XMI");
  root.set_attribute("version", "2.1");
  root.set_attribute("xmlns:xmi", "http://schema.omg.org/spec/XMI/2.1");
  write_member(model, root);
  std::string out = "<?xml version=\"1.0\" encoding=\"UTF-8\"?>\n";
  out += root.str();
  return out;
}

std::unique_ptr<Model> read_model(std::string_view text, support::DiagnosticSink& sink) {
  std::unique_ptr<XmlNode> document = parse_xml(text, sink);
  if (document == nullptr) return nullptr;
  Reader reader(sink);
  return reader.read(*document);
}

}  // namespace umlsoc::xmi
