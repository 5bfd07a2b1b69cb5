// Package, Profile/Stereotype, and the Model root (factory + id index).
#pragma once

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "uml/relationships.hpp"
#include "uml/types.hpp"

namespace umlsoc::uml {

class InstanceSpecification;
class Model;
class Profile;
class Stereotype;

/// Namespace grouping packageable elements. All factory methods register the
/// created element with the owning Model, which assigns its Id.
class Package : public NamedElement {
 public:
  explicit Package(std::string name) : NamedElement(std::move(name)) {}

  [[nodiscard]] ElementKind kind() const override { return ElementKind::kPackage; }
  void accept(ElementVisitor& visitor) override;

  Package& add_package(std::string name);
  Class& add_class(std::string name);
  Component& add_component(std::string name);
  Interface& add_interface(std::string name);
  DataType& add_data_type(std::string name);
  PrimitiveType& add_primitive_type(std::string name, int bit_width = 0);
  Enumeration& add_enumeration(std::string name);
  Signal& add_signal(std::string name);
  Association& add_association(std::string name);
  Dependency& add_dependency(std::string name, NamedElement& client, NamedElement& supplier);
  /// Unresolved variant for deserializers; client/supplier set afterwards.
  Dependency& add_dependency(std::string name);
  InstanceSpecification& add_instance(std::string name, Classifier* classifier = nullptr);

  [[nodiscard]] const std::vector<std::unique_ptr<NamedElement>>& members() const {
    return members_;
  }

  /// First direct member with this name, or nullptr.
  [[nodiscard]] NamedElement* find_member(std::string_view name) const;

  /// Internal: detaches and returns the owning pointer for `member`
  /// (nullptr when it is not a direct member). Callers must also
  /// unregister the subtree from the Model — use uml::remove_member.
  std::unique_ptr<NamedElement> release_member(NamedElement& member);

 protected:
  void collect_owned(std::vector<Element*>& out) const override;

  /// Registers `element` under this package and returns a typed reference.
  template <typename T>
  T& adopt(std::unique_ptr<T> element);

 private:
  std::vector<std::unique_ptr<NamedElement>> members_;
};

/// A stereotype definition inside a Profile; extends one or more metaclasses
/// and may declare tag attributes with defaults.
class Stereotype final : public NamedElement {
 public:
  explicit Stereotype(std::string name) : NamedElement(std::move(name)) {}

  [[nodiscard]] ElementKind kind() const override { return ElementKind::kStereotype; }
  void accept(ElementVisitor& visitor) override;

  void add_extended_metaclass(ElementKind metaclass) { extended_.push_back(metaclass); }
  [[nodiscard]] const std::vector<ElementKind>& extended_metaclasses() const { return extended_; }
  [[nodiscard]] bool extends(ElementKind metaclass) const;

  struct TagDefinition {
    std::string name;
    std::string default_value;
  };
  void add_tag_definition(std::string name, std::string default_value = "");
  [[nodiscard]] const std::vector<TagDefinition>& tag_definitions() const { return tags_; }
  [[nodiscard]] const TagDefinition* find_tag_definition(std::string_view name) const;

 private:
  std::vector<ElementKind> extended_;
  std::vector<TagDefinition> tags_;
};

/// Package of stereotypes tailoring UML to a domain (paper §2: "a UML
/// profile defines a relevant domain-specific UML subset").
class Profile final : public Package {
 public:
  explicit Profile(std::string name) : Package(std::move(name)) {}

  [[nodiscard]] ElementKind kind() const override { return ElementKind::kProfile; }
  void accept(ElementVisitor& visitor) override;

  Stereotype& add_stereotype(std::string name);
  [[nodiscard]] Stereotype* find_stereotype(std::string_view name) const;
};

/// Root of the ownership tree; owns the id generator and id -> element index.
class Model final : public Package {
 public:
  explicit Model(std::string name);

  [[nodiscard]] ElementKind kind() const override { return ElementKind::kModel; }
  void accept(ElementVisitor& visitor) override;

  Profile& add_profile(std::string name);

  /// Declares a profile as applied to this model (validation uses this to
  /// check stereotype applications come from applied profiles only).
  void apply_profile(Profile& profile) { applied_profiles_.push_back(&profile); }
  [[nodiscard]] const std::vector<Profile*>& applied_profiles() const {
    return applied_profiles_;
  }

  [[nodiscard]] Element* find(support::Id id) const;
  [[nodiscard]] std::size_t element_count() const { return index_.size(); }

  /// Internal: assigns id/owner/model to a freshly created element. Called
  /// by the factory methods; user code never needs it directly.
  void register_element(Element& element, Element& owner);

  /// Internal: registers with a pre-assigned id (deserialization path).
  void register_element_with_id(Element& element, Element& owner, support::Id id);

  /// Internal: drops `element` from the id index (non-recursive).
  void unregister_element(const Element& element);

  /// Returns the model-wide primitive with this name, creating it inside an
  /// implicitly managed "<primitives>" package on first use.
  PrimitiveType& primitive(std::string_view name, int bit_width = 0);

 private:
  support::IdGenerator id_generator_;
  std::unordered_map<support::Id, Element*> index_;
  std::vector<Profile*> applied_profiles_;
  Package* primitives_package_ = nullptr;
};

}  // namespace umlsoc::uml
