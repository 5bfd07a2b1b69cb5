// E17 "Binary checkpointing": snapshot encode/restore wall time and
// incremental delta size on a SoC-shaped rig (bus, fault plan, watchdog,
// supervisor, breaker, health registry, event recorder, value bank, N
// statecharts). Expected shape: a steady-state delta with <20% of sections
// dirty >=5x smaller than its full base. The checksum rows time the format's
// XXH64 against byte-serial FNV-1a, the checksum before format v6.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "replay/binary.hpp"
#include "replay/snapshot.hpp"
#include "sim/bus.hpp"
#include "sim/fault.hpp"
#include "sim/kernel.hpp"
#include "sim/replay.hpp"
#include "sim/supervise.hpp"
#include "statechart/interpreter.hpp"
#include "statechart/model.hpp"
#include "support/checksum.hpp"
#include "support/rng.hpp"

namespace {

using namespace umlsoc;
using sim::SimTime;

std::unique_ptr<statechart::StateMachine> make_machine() {
  auto machine = std::make_unique<statechart::StateMachine>("Bench");
  statechart::Region& top = machine->top();
  statechart::State& idle = top.add_state("Idle");
  statechart::State& busy = top.add_state("Busy");
  top.add_transition(top.add_initial(), idle);
  top.add_transition(idle, busy).set_trigger("go");
  top.add_transition(busy, idle).set_trigger("done");
  return machine;
}

/// A uart_soc-shaped rig scaled to `machine_count` statechart sections.
/// One ticker advances the whole SoC: watchdog kick, a bus read, one
/// machine dispatched round-robin — so between two checkpoints one tick
/// apart, only a fixed handful of sections is dirty regardless of scale.
struct BenchRig {
  static constexpr std::uint64_t kTickPs = 10000;

  sim::Kernel kernel;
  sim::MemoryMappedBus bus;
  sim::FaultPlan plan;
  sim::Watchdog watchdog;
  sim::EventRecorder recorder;
  sim::BusMasterPort port;
  sim::CircuitBreaker breaker;
  sim::Supervisor supervisor;
  sim::HealthRegistry health;
  std::unique_ptr<statechart::StateMachine> machine = make_machine();
  std::vector<std::unique_ptr<statechart::StateMachineInstance>> instances;
  std::vector<std::uint64_t> memory = std::vector<std::uint64_t>(64, 0);
  sim::ProcessId ticker = sim::kInvalidProcess;
  std::uint64_t ticks = 0;
  std::uint64_t read_sum = 0;

  explicit BenchRig(std::size_t machine_count)
      : bus(kernel, "mem", SimTime::ns(4)),
        plan(/*seed=*/7),
        watchdog(kernel, "dog", SimTime::us(10)),
        recorder(/*ring_capacity=*/0),
        port(kernel, bus, "port"),
        breaker(kernel, port, "dma"),
        supervisor(kernel, "soc") {
    for (std::size_t i = 0; i < memory.size(); ++i) memory[i] = 0x1000 + i;
    bus.map_device(
        "ram", 0x0, memory.size() * 8,
        [this](std::uint64_t address) { return memory[address / 8]; },
        [this](std::uint64_t address, std::uint64_t value) { memory[address / 8] = value; });
    sim::FaultPlan::SiteConfig config;
    config.error_rate = 0.05;
    plan.configure(sim::FaultSite::kBusRead, config);
    bus.install_fault_plan(&plan);
    breaker.bind_health(&health, health.register_unit("dma"));
    supervisor.add_child("link", [] { return true; });
    for (std::size_t i = 0; i < machine_count; ++i) {
      instances.push_back(std::make_unique<statechart::StateMachineInstance>(*machine));
      statechart::StateMachineInstance& instance = *instances.back();
      instance.set_trace_enabled(false);
      instance.start();
      for (int v = 0; v < 16; ++v) {
        instance.set_variable("v" + std::to_string(v),
                              static_cast<std::int64_t>(i * 16 + static_cast<std::size_t>(v)));
      }
    }
    ticker = kernel.register_process([this] { tick(); }, "bench.ticker");
    kernel.set_recorder(&recorder);
    watchdog.arm();
    kernel.schedule(SimTime(kTickPs), ticker);
  }

  void tick() {
    ++ticks;
    watchdog.kick();
    bus.read((ticks % memory.size()) * 8,
             sim::MemoryMappedBus::ReadCompletion(
                 [this](sim::BusStatus, std::uint64_t value) { read_sum += value; }));
    statechart::StateMachineInstance& instance = *instances[ticks % instances.size()];
    instance.dispatch(statechart::Event{instance.is_in("Idle") ? "go" : "done",
                                        static_cast<std::int64_t>(ticks)});
    kernel.schedule(SimTime(kTickPs), ticker);
  }

  /// Advances by whole ticks, stopping at a bus-quiescent instant.
  void run_ticks(std::uint64_t count) {
    kernel.run(SimTime(kernel.now().picoseconds() + count * kTickPs + kTickPs / 2));
  }

  [[nodiscard]] replay::SnapshotTargets targets() {
    replay::SnapshotTargets out;
    out.kernel = &kernel;
    out.fault_plan = &plan;
    out.recorder = &recorder;
    for (std::size_t i = 0; i < instances.size(); ++i) {
      out.machines.push_back({"m" + std::to_string(i), instances[i].get()});
    }
    out.buses.push_back({"mem", &bus});
    out.watchdogs.push_back({"dog", &watchdog});
    out.supervisors.push_back({"soc", &supervisor});
    out.breakers.push_back({"dma", &breaker});
    out.health.push_back({"health", &health});
    out.banks.push_back(
        {"memory",
         [this] {
           std::vector<std::pair<std::string, std::uint64_t>> values;
           for (std::size_t i = 0; i < memory.size(); ++i) {
             values.emplace_back("w" + std::to_string(i), memory[i]);
           }
           values.emplace_back("ticks", ticks);
           values.emplace_back("read-sum", read_sum);
           return values;
         },
         [this](const std::vector<std::pair<std::string, std::uint64_t>>& values,
                support::DiagnosticSink& sink) {
           for (const auto& [key, value] : values) {
             if (key == "ticks") {
               ticks = value;
             } else if (key == "read-sum") {
               read_sum = value;
             } else if (key.size() > 1 && key[0] == 'w') {
               memory[static_cast<std::size_t>(std::stoul(key.substr(1)))] = value;
             } else {
               sink.error("memory", "unknown key '" + key + "'");
               return false;
             }
           }
           return true;
         }});
    return out;
  }
};

constexpr std::size_t kMachines = 8;     // The uart_soc-scale rig.
constexpr std::uint64_t kWarmTicks = 200;  // Populates the event log.

void BM_SnapshotBinaryEncode(benchmark::State& state) {
  BenchRig rig(kMachines);
  rig.run_ticks(kWarmTicks);
  std::string snapshot;
  support::DiagnosticSink sink;
  for (auto _ : state) {
    snapshot.clear();
    if (!replay::save_snapshot_binary(rig.targets(), snapshot, sink)) {
      state.SkipWithError("save failed");
    }
    benchmark::DoNotOptimize(snapshot);
  }
  state.counters["bytes"] = static_cast<double>(snapshot.size());
  state.counters["snapshots/s"] =
      benchmark::Counter(static_cast<double>(state.iterations()), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_SnapshotBinaryEncode)->Unit(benchmark::kMicrosecond);

void BM_SnapshotBinaryRestore(benchmark::State& state) {
  BenchRig source(kMachines);
  source.run_ticks(kWarmTicks);
  std::string snapshot;
  support::DiagnosticSink sink;
  if (!replay::save_snapshot_binary(source.targets(), snapshot, sink)) {
    state.SkipWithError("save failed");
    return;
  }
  BenchRig target(kMachines);
  for (auto _ : state) {
    support::DiagnosticSink restore_sink;
    if (!replay::restore_snapshot_binary(target.targets(), snapshot, restore_sink)) {
      state.SkipWithError("restore failed");
    }
  }
  state.counters["bytes"] = static_cast<double>(snapshot.size());
  state.counters["restores/s"] =
      benchmark::Counter(static_cast<double>(state.iterations()), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_SnapshotBinaryRestore)->Unit(benchmark::kMicrosecond);

void BM_SnapshotIncremental(benchmark::State& state) {
  // Steady-state checkpointing: one tick of SoC progress per delta. With 32
  // machines only ~7 of the 41 sections (17%) are dirty per tick, so the
  // delta should be >=5x smaller than the full base it chains to.
  BenchRig rig(static_cast<std::size_t>(state.range(0)));
  rig.run_ticks(kWarmTicks);
  replay::IncrementalEncoder encoder;
  replay::IncrementalEncoder::Result full;
  support::DiagnosticSink sink;
  if (!encoder.encode(rig.targets(), /*force_full=*/true, full, sink)) {
    state.SkipWithError("full encode failed");
    return;
  }
  double delta_bytes = 0;
  double dirty = 0;
  double total = 0;
  double deltas = 0;
  for (auto _ : state) {
    state.PauseTiming();
    rig.run_ticks(1);
    state.ResumeTiming();
    replay::IncrementalEncoder::Result delta;
    if (!encoder.encode(rig.targets(), /*force_full=*/false, delta, sink)) {
      state.SkipWithError("delta encode failed");
      break;
    }
    delta_bytes += static_cast<double>(delta.bytes.size());
    dirty += static_cast<double>(delta.sections_dirty);
    total += static_cast<double>(delta.sections_total);
    deltas += 1;
  }
  if (deltas > 0) {
    state.counters["full_bytes"] = static_cast<double>(full.bytes.size());
    state.counters["delta_bytes"] = delta_bytes / deltas;
    state.counters["size_ratio"] = static_cast<double>(full.bytes.size()) / (delta_bytes / deltas);
    state.counters["dirty_sections"] = dirty / deltas;
    state.counters["dirty_fraction"] = dirty / total;
  }
  state.counters["machines"] = static_cast<double>(state.range(0));
}
BENCHMARK(BM_SnapshotIncremental)->Arg(8)->Arg(32)->Arg(64)->Unit(benchmark::kMicrosecond);

/// Byte-serial FNV-1a: the reference row for the checksum speed gate.
std::uint64_t fnv1a(std::string_view data) {
  std::uint64_t hash = 1469598103934665603ULL;
  for (const unsigned char c : data) {
    hash ^= c;
    hash *= 1099511628211ULL;
  }
  return hash;
}

template <std::uint64_t (*Checksum)(std::string_view)>
void checksum_rate(benchmark::State& state) {
  support::Rng rng(11);
  std::string data(static_cast<std::size_t>(state.range(0)), '\0');
  for (char& c : data) c = static_cast<char>(rng.next());
  for (auto _ : state) {
    benchmark::DoNotOptimize(Checksum(data));
    benchmark::ClobberMemory();  // The bytes may have changed: hash them again.
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations() * data.size()));
}

std::uint64_t xxh64(std::string_view data) { return support::xxh64(data); }

void BM_SnapshotChecksum(benchmark::State& state) { checksum_rate<xxh64>(state); }
BENCHMARK(BM_SnapshotChecksum)->Arg(65536);

void BM_SnapshotChecksumFnv1a(benchmark::State& state) { checksum_rate<fnv1a>(state); }
BENCHMARK(BM_SnapshotChecksumFnv1a)->Arg(65536);

}  // namespace
