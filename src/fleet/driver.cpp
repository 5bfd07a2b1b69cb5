#include "fleet/driver.hpp"

#include <atomic>
#include <chrono>
#include <exception>
#include <mutex>
#include <thread>

#include "fleet/procpool.hpp"

namespace umlsoc::fleet {

void HealthRollup::add(const sim::HealthRegistry& registry) {
  for (sim::HealthRegistry::UnitId unit = 0; unit < registry.unit_count(); ++unit) {
    switch (registry.health(unit)) {
      case sim::UnitHealth::kHealthy: ++healthy; break;
      case sim::UnitHealth::kDegraded: ++degraded; break;
      case sim::UnitHealth::kFailed: ++failed; break;
    }
  }
}

bool RigOutcome::deterministic_equal(const RigOutcome& other) const {
  bool same = seed == other.seed && ok == other.ok && failure == other.failure &&
              sim_time_ps == other.sim_time_ps &&
              events_processed == other.events_processed &&
              fault_template == other.fault_template;
  const auto compare = [&same](const char*, sim::Counter kind, std::uint64_t mine,
                               std::uint64_t theirs) {
    same = same && (kind == sim::Counter::kWall || mine == theirs);
  };
  SloCounters::counters(compare, slo, other.slo);
  HealthRollup::counters(compare, health, other.health);
  sim::Kernel::Stats::counters(compare, kernel, other.kernel);
  return same;
}

FleetDriver::FleetDriver(FleetConfig config) : config_(config) {}

unsigned FleetDriver::resolve_jobs(unsigned requested) {
  if (requested != 0) return requested;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

std::vector<RigOutcome> FleetDriver::run_range(std::uint64_t seed_base,
                                               std::uint64_t count,
                                               const RigRunner& runner) {
  std::vector<std::uint64_t> seeds;
  seeds.reserve(count);
  for (std::uint64_t i = 0; i < count; ++i) seeds.push_back(seed_base + i);
  return run(seeds, runner);
}

std::vector<RigOutcome> FleetDriver::run(const std::vector<std::uint64_t>& seeds,
                                         const RigRunner& runner) {
  const std::uint64_t total = seeds.size();
  const unsigned jobs =
      static_cast<unsigned>(std::min<std::uint64_t>(resolve_jobs(config_.jobs),
                                                    std::max<std::uint64_t>(total, 1)));
  std::uint64_t chunk = config_.chunk;
  if (chunk == 0) {
    // ~4 chunks per worker: enough slack to back-fill a slow worker without
    // hammering the claim cursor.
    chunk = std::max<std::uint64_t>(1, total / (4 * static_cast<std::uint64_t>(jobs)));
  }

  std::vector<RigOutcome> outcomes(total);
  stats_ = FleetStats{};
  stats_.jobs = jobs;
  stats_.chunk = chunk;
  stats_.rigs = total;
  stats_.rigs_per_worker.assign(jobs, 0);
  if (total == 0) return outcomes;

  const std::uint32_t templates =
      config_.fault_templates == 0 ? 1 : config_.fault_templates;

  if (config_.isolation == Isolation::kProcess) {
    // Supervised worker-process pool: same slot-indexed outcomes, same
    // index-based template assignment, so the report fingerprint matches
    // the thread path bit for bit.
    const auto wall_start = std::chrono::steady_clock::now();
    ProcPool pool(config_, jobs, chunk);
    outcomes = pool.run(seeds, runner, progress_, stats_);
    stats_.wall_ns = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - wall_start)
            .count());
    return outcomes;
  }

  // Shared fleet state: the chunk cursor (the only hot-path shared write),
  // a completion counter and a mutex serializing the progress hook.
  std::atomic<std::uint64_t> next_chunk{0};
  std::atomic<std::uint64_t> chunks_claimed{0};
  std::atomic<std::uint64_t> done{0};
  std::mutex progress_mutex;

  const auto run_one = [&](std::uint64_t index, unsigned worker) {
    RigJob job;
    job.index = index;
    job.seed = seeds[index];
    job.worker = worker;
    job.fault_template = static_cast<std::uint32_t>(index % templates);
    RigOutcome& slot = outcomes[index];
    const auto start = std::chrono::steady_clock::now();
    try {
      slot = runner(job);
    } catch (const std::exception& error) {
      slot = RigOutcome{};
      slot.ok = false;
      slot.failure = std::string("uncaught exception: ") + error.what();
    } catch (...) {
      slot = RigOutcome{};
      slot.ok = false;
      slot.failure = "uncaught exception (non-standard)";
    }
    slot.seed = job.seed;
    slot.fault_template = job.fault_template;
    if (slot.attempts == 0) slot.attempts = 1;
    if (slot.wall_ns == 0) {
      slot.wall_ns = static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              std::chrono::steady_clock::now() - start)
              .count());
    }
    ++stats_.rigs_per_worker[worker];
    const std::uint64_t completed = done.fetch_add(1, std::memory_order_relaxed) + 1;
    if (progress_) {
      std::lock_guard<std::mutex> lock(progress_mutex);
      progress_(job, slot, completed, total);
    }
  };

  const auto worker_body = [&](unsigned worker) {
    for (;;) {
      const std::uint64_t begin =
          next_chunk.fetch_add(chunk, std::memory_order_relaxed);
      if (begin >= total) return;
      chunks_claimed.fetch_add(1, std::memory_order_relaxed);
      const std::uint64_t end = std::min(total, begin + chunk);
      for (std::uint64_t index = begin; index < end; ++index) run_one(index, worker);
    }
  };

  const auto wall_start = std::chrono::steady_clock::now();
  if (jobs == 1) {
    worker_body(0);
  } else {
    std::vector<std::thread> workers;
    workers.reserve(jobs);
    for (unsigned worker = 0; worker < jobs; ++worker) {
      workers.emplace_back(worker_body, worker);
    }
    for (std::thread& thread : workers) thread.join();
  }
  stats_.wall_ns = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - wall_start)
          .count());
  stats_.chunks_claimed = chunks_claimed.load(std::memory_order_relaxed);
  return outcomes;
}

}  // namespace umlsoc::fleet
