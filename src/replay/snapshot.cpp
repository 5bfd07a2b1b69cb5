#include "replay/snapshot.hpp"

#include <map>
#include <memory>
#include <string_view>

namespace umlsoc::replay {

namespace {

/// Checks that the image's named sections of one kind and the targets' names
/// match one-to-one. `order` receives, per target, the image index holding
/// its section.
template <typename Section, typename Target>
bool match_sections(std::string_view element,
                    const std::vector<SnapshotImage::Named<Section>>& sections,
                    const std::vector<Target>& targets, std::vector<std::size_t>& order,
                    support::DiagnosticSink& sink) {
  bool ok = true;
  std::map<std::string, std::size_t> by_name;
  for (std::size_t i = 0; i < sections.size(); ++i) {
    if (!by_name.emplace(sections[i].name, i).second) {
      sink.error("snapshot", "duplicate <" + std::string(element) + "> section '" +
                                 sections[i].name + "'");
      ok = false;
    }
  }
  order.assign(targets.size(), 0);
  for (std::size_t i = 0; i < targets.size(); ++i) {
    const auto it = by_name.find(targets[i].name);
    if (it == by_name.end()) {
      sink.error("snapshot",
                 "no <" + std::string(element) + "> section named '" + targets[i].name + "'");
      ok = false;
      continue;
    }
    order[i] = it->second;
  }
  for (const auto& [name, index] : by_name) {
    bool registered = false;
    for (const Target& target : targets) registered = registered || target.name == name;
    if (!registered) {
      sink.error("snapshot", "<" + std::string(element) + "> section '" + name +
                                 "' has no registered target");
      ok = false;
    }
  }
  return ok;
}

}  // namespace

// --- capture -----------------------------------------------------------------

bool capture_image(const SnapshotTargets& targets, SnapshotImage& image,
                   support::DiagnosticSink& sink) {
  if (targets.kernel == nullptr) {
    sink.error("snapshot", "no kernel target registered");
    return false;
  }

  SnapshotImage out;
  if (!targets.kernel->capture_checkpoint(out.kernel, sink)) return false;

  bool ok = true;
  for (const BusTarget& target : targets.buses) {
    if (target.bus->pending_transactions() != 0) {
      sink.error("snapshot", "bus '" + target.name + "' has " +
                                 std::to_string(target.bus->pending_transactions()) +
                                 " pending transactions; checkpoint between quiescent points");
      ok = false;
    }
  }
  // Outstanding expectations are restorable only when a registered target
  // owns them: a watchdog's armed flag travels in the watchdog section, a
  // supervisor's pending-restart queue in the supervisor section. Anything
  // else — an in-flight bus-port transaction, a custom expectation — holds
  // callbacks this format cannot serialize.
  for (sim::ExpectationId id = 0; id < out.kernel.expectations.size(); ++id) {
    const auto& expectation = out.kernel.expectations[id];
    if (expectation.outstanding == 0) continue;
    bool owned = false;
    for (const WatchdogTarget& target : targets.watchdogs) {
      owned = owned || id == target.watchdog->expectation();
    }
    for (const SupervisorTarget& target : targets.supervisors) {
      owned = owned || id == target.supervisor->restart_expectation();
    }
    if (!owned) {
      sink.error("snapshot",
                 "expectation '" + expectation.label + "' has " +
                     std::to_string(expectation.outstanding) +
                     " outstanding instances not owned by a registered watchdog or supervisor");
      ok = false;
    }
  }
  if (!ok) return false;

  if (targets.fault_plan != nullptr) {
    SnapshotImage::FaultPlanState plan;
    plan.seed = targets.fault_plan->seed();
    for (std::size_t i = 0; i < sim::kFaultSiteCount; ++i) {
      const auto site = static_cast<sim::FaultSite>(i);
      plan.sites.emplace_back(site, targets.fault_plan->site_state(site));
    }
    out.fault_plan = std::move(plan);
  }
  if (targets.recorder != nullptr) {
    out.recorder = SnapshotImage::RecorderState{targets.recorder->total_events(),
                                                targets.recorder->log()};
  }
  for (const MachineTarget& target : targets.machines) {
    out.machines.push_back({target.name, target.instance->capture()});
  }
  for (const BusTarget& target : targets.buses) {
    out.buses.push_back({target.name, target.bus->capture_checkpoint()});
  }
  for (const WatchdogTarget& target : targets.watchdogs) {
    out.watchdogs.push_back({target.name, target.watchdog->capture_checkpoint()});
  }
  for (const SupervisorTarget& target : targets.supervisors) {
    out.supervisors.push_back({target.name, target.supervisor->capture_checkpoint()});
  }
  for (const BreakerTarget& target : targets.breakers) {
    out.breakers.push_back({target.name, target.breaker->capture_checkpoint()});
  }
  for (const HealthTarget& target : targets.health) {
    out.health.push_back({target.name, target.registry->capture_checkpoint()});
  }
  for (const ValueBank& bank : targets.banks) {
    out.banks.push_back({bank.name, bank.capture()});
  }
  image = std::move(out);
  return true;
}

// --- apply -------------------------------------------------------------------

bool apply_image(const SnapshotTargets& targets, const SnapshotImage& image,
                 support::DiagnosticSink& sink) {
  if (targets.kernel == nullptr) {
    sink.error("snapshot", "no kernel target registered");
    return false;
  }

  bool ok = true;
  if (image.fault_plan.has_value() != (targets.fault_plan != nullptr)) {
    sink.error("snapshot", image.fault_plan
                               ? "snapshot has a <fault-plan> section but no plan is registered"
                               : "no <fault-plan> section for the registered plan");
    ok = false;
  } else if (image.fault_plan && image.fault_plan->seed != targets.fault_plan->seed()) {
    sink.error("snapshot", "fault-plan seed mismatch: snapshot " +
                               std::to_string(image.fault_plan->seed) + ", registered plan " +
                               std::to_string(targets.fault_plan->seed()));
    ok = false;
  }
  if (image.recorder.has_value() != (targets.recorder != nullptr)) {
    sink.error("snapshot", image.recorder
                               ? "snapshot has a <recorder> section but no recorder is registered"
                               : "no <recorder> section for the registered recorder");
    ok = false;
  }

  std::vector<std::size_t> machine_order;
  std::vector<std::size_t> bus_order;
  std::vector<std::size_t> watchdog_order;
  std::vector<std::size_t> supervisor_order;
  std::vector<std::size_t> breaker_order;
  std::vector<std::size_t> health_order;
  std::vector<std::size_t> bank_order;
  ok = match_sections("machine", image.machines, targets.machines, machine_order, sink) && ok;
  ok = match_sections("bus", image.buses, targets.buses, bus_order, sink) && ok;
  ok = match_sections("watchdog", image.watchdogs, targets.watchdogs, watchdog_order, sink) &&
       ok;
  ok = match_sections("supervisor", image.supervisors, targets.supervisors, supervisor_order,
                      sink) &&
       ok;
  ok = match_sections("breaker", image.breakers, targets.breakers, breaker_order, sink) && ok;
  ok = match_sections("health", image.health, targets.health, health_order, sink) && ok;
  ok = match_sections("bank", image.banks, targets.banks, bank_order, sink) && ok;
  if (!ok) return false;

  // Apply. The kernel goes first (it validates process addressing and wipes
  // construction-time scheduling); watchdogs after it (their expectation
  // counts arrive with the kernel's registry).
  if (!targets.kernel->restore_checkpoint(image.kernel, sink)) return false;
  if (image.fault_plan) {
    for (const auto& [site, state] : image.fault_plan->sites) {
      targets.fault_plan->restore_site_state(site, state);
    }
  }
  for (std::size_t i = 0; i < targets.machines.size(); ++i) {
    if (!targets.machines[i].instance->restore(image.machines[machine_order[i]].state, sink)) {
      return false;
    }
  }
  for (std::size_t i = 0; i < targets.buses.size(); ++i) {
    targets.buses[i].bus->restore_checkpoint(image.buses[bus_order[i]].state);
  }
  for (std::size_t i = 0; i < targets.watchdogs.size(); ++i) {
    targets.watchdogs[i].watchdog->restore_checkpoint(
        image.watchdogs[watchdog_order[i]].state);
  }
  for (std::size_t i = 0; i < targets.supervisors.size(); ++i) {
    if (!targets.supervisors[i].supervisor->restore_checkpoint(
            image.supervisors[supervisor_order[i]].state, sink)) {
      return false;
    }
  }
  for (std::size_t i = 0; i < targets.breakers.size(); ++i) {
    if (!targets.breakers[i].breaker->restore_checkpoint(image.breakers[breaker_order[i]].state,
                                                         sink)) {
      return false;
    }
  }
  for (std::size_t i = 0; i < targets.health.size(); ++i) {
    if (!targets.health[i].registry->restore_checkpoint(image.health[health_order[i]].state,
                                                        sink)) {
      return false;
    }
  }
  for (std::size_t i = 0; i < targets.banks.size(); ++i) {
    if (!targets.banks[i].restore(image.banks[bank_order[i]].state, sink)) return false;
  }
  if (targets.recorder != nullptr) {
    targets.recorder->restore_log(image.recorder->events, image.recorder->total);
  }
  return true;
}

// --- warm-restart factories --------------------------------------------------

std::function<bool()> restart_from_snapshot(statechart::Engine& instance,
                                            support::DiagnosticSink& sink) {
  auto snapshot = std::make_shared<statechart::InstanceSnapshot>(instance.capture());
  return [&instance, &sink, snapshot] { return instance.restore(*snapshot, sink); };
}

}  // namespace umlsoc::replay
