// The four benchmark workloads. Each takes its inputs only from `seed`.
#pragma once

#include <cstdint>
#include <filesystem>
#include <memory>

#include "trace.hpp"

namespace perfbench {

struct WorkloadOptions {
  std::uint64_t seed = 1;
  /// Where checkpoint ladders are written; removed after the run.
  std::filesystem::path scratch;
};

/// Chaos-soak seeds through fleet::FleetDriver (jobs=1): reference,
/// checkpointed and restored twins, an on-disk ladder under write faults,
/// and a crash leg recovered by RecoveryCoordinator. Work: kernel events.
std::unique_ptr<Workload> make_soak(const WorkloadOptions& options);

/// Exhaustive BFS over seeded statechart networks. Work: states stored.
std::unique_ptr<Workload> make_verify(const WorkloadOptions& options);

/// Model -> XMI -> validation -> MDA -> RTL/C++/PlantUML over seeded SoC
/// models. Work: generated non-empty lines.
std::unique_ptr<Workload> make_compile(const WorkloadOptions& options);

/// restore_to and root_cause over one deep checkpoint ladder. Work: kernel
/// events replayed.
std::unique_ptr<Workload> make_timetravel(const WorkloadOptions& options);

}  // namespace perfbench
