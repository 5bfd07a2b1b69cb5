#include "codegen/hwmodel.hpp"

namespace umlsoc::codegen {

HwModuleSim::HwModuleSim(const uml::Class& psm_module, const soc::SocProfile& profile,
                         support::DiagnosticSink& sink)
    : name_(psm_module.name()) {
  std::uint64_t next_free = 0;
  for (const auto& property : psm_module.properties()) {
    if (!property->has_stereotype(*profile.hw_register)) continue;
    Register reg;
    reg.name = property->name();
    std::optional<std::uint64_t> address = profile.register_address(*property);
    if (!address.has_value()) {
      sink.warning(property->qualified_name(), "register address missing; auto-assigned");
      address = next_free;
    }
    next_free = std::max(next_free, *address + 4);
    const std::string access = profile.register_access(*property);
    reg.readable = access.find('r') != std::string::npos;
    reg.writable = access.find('w') != std::string::npos;
    reg.reset =
        soc::parse_address(property->tagged_value(*profile.hw_register, "reset")).value_or(0);
    reg.value = reg.reset;
    if (!registers_.emplace(*address, std::move(reg)).second) {
      sink.error(property->qualified_name(), "duplicate register address in module");
    }
  }
}

std::uint64_t HwModuleSim::read_register(std::uint64_t offset) {
  ++bus_reads_;
  auto it = registers_.find(offset);
  if (it == registers_.end() || !it->second.readable) return 0;
  dispatch("read_", it->second.name, static_cast<std::int64_t>(it->second.value));
  return it->second.value;
}

void HwModuleSim::write_register(std::uint64_t offset, std::uint64_t value) {
  ++bus_writes_;
  auto it = registers_.find(offset);
  if (it == registers_.end() || !it->second.writable) return;
  it->second.value = value;
  dispatch("write_", it->second.name, static_cast<std::int64_t>(value));
}

sim::BusStatus HwModuleSim::read_register_checked(std::uint64_t offset, std::uint64_t& value) {
  auto it = registers_.find(offset);
  if (it == registers_.end() || !it->second.readable) {
    value = 0;
    ++bus_reads_;
    return sim::BusStatus::kError;
  }
  value = read_register(offset);
  return sim::BusStatus::kOk;
}

sim::BusStatus HwModuleSim::write_register_checked(std::uint64_t offset, std::uint64_t value) {
  auto it = registers_.find(offset);
  if (it == registers_.end() || !it->second.writable) {
    ++bus_writes_;
    return sim::BusStatus::kError;
  }
  write_register(offset, value);
  return sim::BusStatus::kOk;
}

std::uint64_t HwModuleSim::peek(const std::string& register_name) const {
  for (const auto& [offset, reg] : registers_) {
    if (reg.name == register_name) return reg.value;
  }
  return 0;
}

void HwModuleSim::poke(const std::string& register_name, std::uint64_t value) {
  for (auto& [offset, reg] : registers_) {
    if (reg.name == register_name) {
      reg.value = value;
      return;
    }
  }
}

void HwModuleSim::reset() {
  for (auto& [offset, reg] : registers_) reg.value = reg.reset;
  if (behavior_ != nullptr) {
    support::DiagnosticSink sink;  // compile() accepted this machine at attach.
    attach_behavior(behavior_->machine(), sink);
  }
}

void HwModuleSim::map_onto(sim::MemoryMappedBus& bus, std::uint64_t base) {
  std::uint64_t span = 0;
  for (const auto& [offset, reg] : registers_) span = std::max(span, offset + 4);
  if (span == 0) span = 4;
  bus.map_device(
      name_, base, span,
      [this, base](std::uint64_t address) { return read_register(address - base); },
      [this, base](std::uint64_t address, std::uint64_t value) {
        write_register(address - base, value);
      });
}

bool HwModuleSim::attach_behavior(const statechart::StateMachine& machine,
                                  support::DiagnosticSink& sink) {
  behavior_ = statechart::compile(machine, sink);
  if (behavior_ == nullptr) return false;
  sync_to_behavior();
  behavior_->start();
  sync_from_behavior();
  return true;
}

void HwModuleSim::sync_to_behavior() {
  for (const auto& [offset, reg] : registers_) {
    behavior_->set_variable(reg.name, static_cast<std::int64_t>(reg.value));
  }
}

void HwModuleSim::sync_from_behavior() {
  for (auto& [offset, reg] : registers_) {
    reg.value = static_cast<std::uint64_t>(behavior_->variable(reg.name));
  }
}

void HwModuleSim::dispatch(const char* prefix, const std::string& register_name,
                           std::int64_t data) {
  // Checked before the event name is built, so a register file without a
  // behavior allocates nothing per access.
  if (behavior_ == nullptr) return;
  sync_to_behavior();
  behavior_->dispatch(statechart::Event{prefix + register_name, data});
  sync_from_behavior();
}

std::vector<std::pair<std::string, std::uint64_t>> HwModuleSim::capture_values() const {
  std::vector<std::pair<std::string, std::uint64_t>> values;
  values.reserve(registers_.size() + 2);
  for (const auto& [offset, reg] : registers_) values.emplace_back(reg.name, reg.value);
  values.emplace_back("#bus-reads", bus_reads_);
  values.emplace_back("#bus-writes", bus_writes_);
  return values;
}

bool HwModuleSim::restore_values(const std::vector<std::pair<std::string, std::uint64_t>>& values,
                                 support::DiagnosticSink& sink) {
  bool ok = true;
  for (const auto& [key, value] : values) {
    if (key == "#bus-reads") {
      bus_reads_ = value;
      continue;
    }
    if (key == "#bus-writes") {
      bus_writes_ = value;
      continue;
    }
    bool found = false;
    for (auto& [offset, reg] : registers_) {
      if (reg.name == key) {
        reg.value = value;
        found = true;
        break;
      }
    }
    if (!found) {
      sink.error("hw-module " + name_, "snapshot names unknown register '" + key + "'");
      ok = false;
    }
  }
  if (ok && behavior_ != nullptr) sync_to_behavior();
  return ok;
}

}  // namespace umlsoc::codegen
