// E18 "Recovery orchestration": what the RecoveryCoordinator costs and
// buys. Three measurements on a worker rig (kernel + event recorder +
// supervisor + value bank): wall overhead of background checkpointing at
// varying cadence vs an uncheckpointed baseline, restore_latest_good
// latency as the delta chain under the newest rung grows, and the
// root-cause binary search (restore + verify-replay per probe) as the
// window between the last good checkpoint and the failure widens.
// Restore latency is timed cold (a fresh store per restore, so the chain is
// decoded every time) and warm (one store restoring an unchanged chain, as
// root-cause probes do, reusing its decode).
// Expected shape: checkpoint overhead scales with write cadence and stays
// small at crash-recovery-useful intervals; cold restore latency grows
// roughly linearly with chain length, and a warm restore costs its reads,
// header checks and apply; root-cause probes grow as log2(window) while
// per-probe cost grows with the replayed prefix.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <filesystem>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "replay/recovery.hpp"
#include "replay/store.hpp"
#include "sim/kernel.hpp"
#include "sim/replay.hpp"
#include "sim/supervise.hpp"
#include "support/diagnostics.hpp"

namespace {

using namespace umlsoc;
using sim::SimTime;

/// The recovery_test worker shape: one self-rescheduling process mutating a
/// small checkpointed bank, so every rung carries real (if modest) state and
/// every activation lands in the recorder.
struct WorkerRig {
  static constexpr std::uint64_t kWorkerPs = 10'000;  // 10ns grid.

  sim::Kernel kernel;
  sim::EventRecorder recorder;
  sim::Supervisor supervisor;
  sim::ProcessId worker = sim::kInvalidProcess;
  std::uint64_t ticks = 0;
  std::uint64_t counter = 0;
  std::uint64_t corrupt_at_tick = 0;  ///< 0: never.

  WorkerRig()
      : supervisor(kernel, "soc", sim::RestartStrategy::kOneForOne, sim::RestartPolicy{}) {
    worker = kernel.register_process([this] { work(); }, "bench.worker");
    kernel.set_recorder(&recorder);
  }

  void start() { kernel.schedule(SimTime(kWorkerPs), worker); }

  void work() {
    kernel.schedule(SimTime(kWorkerPs), worker);
    ++ticks;
    ++counter;
    if (corrupt_at_tick != 0 && ticks == corrupt_at_tick) counter += 1000;
  }

  [[nodiscard]] replay::SnapshotTargets targets() {
    replay::SnapshotTargets out;
    out.kernel = &kernel;
    out.recorder = &recorder;
    out.supervisors.push_back({"soc", &supervisor});
    out.banks.push_back(
        {"state",
         [this] {
           return std::vector<std::pair<std::string, std::uint64_t>>{{"ticks", ticks},
                                                                     {"counter", counter}};
         },
         [this](const std::vector<std::pair<std::string, std::uint64_t>>& values,
                support::DiagnosticSink& sink) {
           for (const auto& [key, value] : values) {
             if (key == "ticks") {
               ticks = value;
             } else if (key == "counter") {
               counter = value;
             } else {
               sink.error("state", "unknown key '" + key + "'");
               return false;
             }
           }
           return true;
         }});
    return out;
  }
};

std::filesystem::path scratch_dir() {
  return std::filesystem::temp_directory_path() / "umlsoc-bench-recovery";
}

replay::CheckpointStoreConfig store_config(const std::filesystem::path& dir) {
  replay::CheckpointStoreConfig config;
  config.directory = dir;
  config.full_interval = 8;
  config.keep_fulls = 4;
  return config;
}

// --- Background checkpoint cadence ------------------------------------------------------

/// Arg: worker ticks per checkpoint interval; 0 runs the uncheckpointed
/// baseline. The horizon is fixed (2000 ticks), so the delta between rows is
/// the coordinator's tick + capture + encode + fsync-less write cost.
void BM_RecoveryCheckpointCadence(benchmark::State& state) {
  const std::uint64_t every = static_cast<std::uint64_t>(state.range(0));
  constexpr std::uint64_t kHorizonTicks = 2000;
  const std::filesystem::path dir = scratch_dir();
  support::DiagnosticSink sink;
  std::uint64_t written = 0;
  std::uint64_t bytes = 0;
  for (auto _ : state) {
    state.PauseTiming();
    std::filesystem::remove_all(dir);
    WorkerRig rig;
    std::optional<replay::CheckpointStore> store;
    std::optional<replay::RecoveryCoordinator> coordinator;
    if (every != 0) {
      store.emplace(store_config(dir));
      replay::RecoveryPolicy policy;
      policy.checkpoint_interval = SimTime(every * WorkerRig::kWorkerPs);
      // Off the worker's 10ns grid so captures are never co-batch refused.
      policy.tick_interval = SimTime(every * WorkerRig::kWorkerPs / 4 + 1);
      coordinator.emplace(rig.kernel, *store, rig.targets(), policy);
      coordinator->start();
    }
    rig.start();
    state.ResumeTiming();
    rig.kernel.run(SimTime(kHorizonTicks * WorkerRig::kWorkerPs));
    state.PauseTiming();
    if (coordinator.has_value()) {
      written = coordinator->stats().written;
      bytes = store->stats().bytes_written;
    }
    state.ResumeTiming();
  }
  std::filesystem::remove_all(dir);
  state.counters["checkpoints"] = static_cast<double>(written);
  state.counters["bytes"] = static_cast<double>(bytes);
  state.SetLabel(every == 0 ? "baseline" : "every-" + std::to_string(every) + "-ticks");
}
BENCHMARK(BM_RecoveryCheckpointCadence)
    ->Arg(0)
    ->Arg(10)
    ->Arg(40)
    ->Arg(160)
    ->Unit(benchmark::kMillisecond);

// --- Restore latency vs chain length ----------------------------------------------------

/// Writes one full base and `deltas` deltas chained on it into a fresh
/// scratch store directory. Returns false when a checkpoint fails.
bool write_ladder(const replay::CheckpointStoreConfig& config, std::uint64_t deltas,
                  support::DiagnosticSink& sink) {
  std::filesystem::remove_all(config.directory);
  replay::CheckpointStore store(config);
  WorkerRig source;
  source.start();
  for (std::uint64_t i = 0; i <= deltas; ++i) {
    source.kernel.run(SimTime((100 + i * 25) * WorkerRig::kWorkerPs));
    replay::CheckpointStore::WriteResult result;
    if (!store.checkpoint(source.targets(), result, sink)) return false;
  }
  return true;
}

replay::CheckpointStoreConfig ladder_config(std::uint64_t deltas) {
  replay::CheckpointStoreConfig config = store_config(scratch_dir());
  config.full_interval = static_cast<unsigned>(deltas) + 1;  // One base, then deltas.
  return config;
}

/// Arg: deltas stacked on the base full. restore_latest_good validates the
/// whole chain, materializes it and applies the image, so latency is the
/// crash-recovery critical path. Each iteration restores
/// through a fresh store (built with timing paused), which has no decode to
/// reuse: this row times a cold decode and keeps the chain-length gate
/// meaningful.
void BM_RecoveryRestoreLatency(benchmark::State& state) {
  const std::uint64_t chain = static_cast<std::uint64_t>(state.range(0));
  const replay::CheckpointStoreConfig config = ladder_config(chain);
  support::DiagnosticSink sink;
  if (!write_ladder(config, chain, sink)) {
    state.SkipWithError("checkpoint failed");
    return;
  }

  WorkerRig victim;
  std::optional<replay::CheckpointStore> store;
  for (auto _ : state) {
    state.PauseTiming();
    store.emplace(config);
    state.ResumeTiming();
    if (!store->restore_latest_good(victim.targets(), sink)) {
      state.SkipWithError("restore failed");
      return;
    }
    benchmark::DoNotOptimize(victim.ticks);
  }
  store.reset();
  std::filesystem::remove_all(config.directory);
  state.counters["chain"] = static_cast<double>(chain + 1);
  state.counters["restores/s"] =
      benchmark::Counter(static_cast<double>(state.iterations()), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_RecoveryRestoreLatency)
    ->Arg(0)
    ->Arg(4)
    ->Arg(16)
    ->Arg(64)
    ->Unit(benchmark::kMicrosecond);

/// The root-cause probe pattern: one store restores the same unchanged
/// chain over and over. Every restore still lists the directory, reads the
/// chain file in full (through the descriptor the untimed first restore
/// opened and the store kept) and checks every rung header, then applies
/// the image that first restore decoded (`reused` is the share of timed
/// restores that did, `held` the share that read through the held
/// descriptor).
void BM_RecoveryRestoreLatencyWarm(benchmark::State& state) {
  const std::uint64_t chain = static_cast<std::uint64_t>(state.range(0));
  const replay::CheckpointStoreConfig config = ladder_config(chain);
  support::DiagnosticSink sink;
  if (!write_ladder(config, chain, sink)) {
    state.SkipWithError("checkpoint failed");
    return;
  }

  WorkerRig victim;
  replay::CheckpointStore store(config);
  if (!store.restore_latest_good(victim.targets(), sink)) {
    state.SkipWithError("restore failed");
    return;
  }
  for (auto _ : state) {
    if (!store.restore_latest_good(victim.targets(), sink)) {
      state.SkipWithError("restore failed");
      return;
    }
    benchmark::DoNotOptimize(victim.ticks);
  }
  std::filesystem::remove_all(config.directory);
  state.counters["chain"] = static_cast<double>(chain + 1);
  state.counters["reused"] = static_cast<double>(store.stats().reused_decodes) /
                             static_cast<double>(state.iterations());
  state.counters["held"] = static_cast<double>(store.stats().held_reads) /
                           static_cast<double>(state.iterations());
}
BENCHMARK(BM_RecoveryRestoreLatencyWarm)->Arg(0)->Arg(64)->Unit(benchmark::kMicrosecond);

// --- Root-cause binary search -----------------------------------------------------------

/// Arg: recorded activations between the last good rung and the failure
/// point. Each probe restores the rung and verify-replays a prefix, so the
/// search is O(log2 window) probes of O(window) replay each.
void BM_RecoveryRootCause(benchmark::State& state) {
  const std::uint64_t window = static_cast<std::uint64_t>(state.range(0));
  const std::filesystem::path dir = scratch_dir();
  std::filesystem::remove_all(dir);
  support::DiagnosticSink sink;

  WorkerRig rig;
  replay::CheckpointStore store(store_config(dir));
  replay::RecoveryCoordinator coordinator(rig.kernel, store, rig.targets(),
                                          replay::RecoveryPolicy{});
  rig.corrupt_at_tick = 100 + window / 2;
  rig.start();
  rig.kernel.run(SimTime(100 * WorkerRig::kWorkerPs));
  replay::CheckpointStore::WriteResult rung;
  if (!store.checkpoint(rig.targets(), rung, sink)) {
    state.SkipWithError("checkpoint failed");
    return;
  }
  rig.kernel.run(SimTime((100 + window) * WorkerRig::kWorkerPs));
  const std::vector<sim::RecordedEvent> expected = rig.recorder.log();
  const std::uint64_t failure_index = expected.size() - 1;

  std::uint64_t probes = 0;
  for (auto _ : state) {
    const replay::RecoveryCoordinator::RootCauseReport report = coordinator.root_cause(
        expected, failure_index, [&rig] { return rig.counter != rig.ticks; }, sink);
    if (!report.found) {
      state.SkipWithError("root cause not found");
      return;
    }
    probes = report.probes;
  }
  std::filesystem::remove_all(dir);
  state.counters["probes"] = static_cast<double>(probes);
  state.counters["window"] = static_cast<double>(window);
}
BENCHMARK(BM_RecoveryRootCause)->Arg(64)->Arg(512)->Unit(benchmark::kMillisecond);

}  // namespace
