// Runtime-interpreted hardware module: the executable twin of the text
// generators. A HwModuleSim is built directly from a hardware-PSM class —
// register file with addresses/access/reset from the «Register» tags — and
// can be mapped onto a sim::MemoryMappedBus and driven by an attached state
// machine. This realizes the paper's "early prototyping and inherent
// software simulation capabilities" (§4) without a C++ compile step.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "sim/bus.hpp"
#include "soc/profile.hpp"
#include "statechart/interpreter.hpp"
#include "support/diagnostics.hpp"

namespace umlsoc::codegen {

class HwModuleSim {
 public:
  /// Builds the register file from `psm_module`'s «Register» properties.
  HwModuleSim(const uml::Class& psm_module, const soc::SocProfile& profile,
              support::DiagnosticSink& sink);

  [[nodiscard]] const std::string& name() const { return name_; }

  /// Local (bus-relative) register access honoring access modes: reading a
  /// write-only register returns 0; writing a read-only register is ignored.
  [[nodiscard]] std::uint64_t read_register(std::uint64_t offset);
  void write_register(std::uint64_t offset, std::uint64_t value);

  /// Status-carrying variants mirroring the generated read_reg_checked /
  /// write_reg_checked: an unknown offset or access violation reports
  /// BusStatus::kError instead of a silent 0 / ignored write.
  sim::BusStatus read_register_checked(std::uint64_t offset, std::uint64_t& value);
  sim::BusStatus write_register_checked(std::uint64_t offset, std::uint64_t value);

  /// Register value by name (test/introspection path, ignores access mode).
  [[nodiscard]] std::uint64_t peek(const std::string& register_name) const;
  void poke(const std::string& register_name, std::uint64_t value);

  /// Restores every register to its reset tag value.
  void reset();

  /// Maps this module at `base` on the bus.
  void map_onto(sim::MemoryMappedBus& bus, std::uint64_t base);

  /// Attaches a behavior machine. Bus writes to register R become events
  /// "write_R" (data = value); reads become "read_R". Machine variables
  /// named like registers are synchronized both ways around each dispatch,
  /// so transition effects can update registers.
  void attach_behavior(const statechart::StateMachine& machine);
  [[nodiscard]] statechart::StateMachineInstance* behavior() { return behavior_.get(); }

  [[nodiscard]] std::uint64_t bus_reads() const { return bus_reads_; }
  [[nodiscard]] std::uint64_t bus_writes() const { return bus_writes_; }

  /// Flat checkpoint view for the replay module's generic value banks:
  /// every register (key = register name, ascending offset order) plus the
  /// access counters under the reserved keys "#bus-reads" / "#bus-writes"
  /// ('#' cannot occur in a model property name). The attached behavior
  /// machine is snapshotted separately through its StateMachineInstance.
  [[nodiscard]] std::vector<std::pair<std::string, std::uint64_t>> capture_values() const;

  /// Restores a capture_values() view. Unknown keys report through `sink`
  /// and fail the restore (registers already matched stay written — callers
  /// treat a failed restore as fatal).
  bool restore_values(const std::vector<std::pair<std::string, std::uint64_t>>& values,
                      support::DiagnosticSink& sink);

 private:
  struct Register {
    std::string name;
    std::uint64_t value = 0;
    std::uint64_t reset = 0;
    bool readable = true;
    bool writable = true;
  };

  void sync_to_behavior();
  void sync_from_behavior();
  /// Dispatches `prefix + register_name` to the attached behavior, if any.
  void dispatch(const char* prefix, const std::string& register_name, std::int64_t data);

  std::string name_;
  std::map<std::uint64_t, Register> registers_;  // Keyed by offset.
  std::unique_ptr<statechart::StateMachineInstance> behavior_;
  std::uint64_t bus_reads_ = 0;
  std::uint64_t bus_writes_ = 0;
};

}  // namespace umlsoc::codegen
