// Fleet engine (src/fleet): sharded multi-rig execution and SLO rollups.
// The load-bearing property is determinism — the same seed set must produce
// identical per-seed outcomes and an identical aggregated FleetReport
// whether the fleet runs on 1 worker or 8 — plus the driver mechanics
// (every rig runs exactly once, chunk config honored, exceptions contained
// to their rig, progress serialized) and the report arithmetic, with every
// fleet counter swept through its record's counters() list.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "fleet/driver.hpp"
#include "fleet/handoff.hpp"
#include "fleet/report.hpp"
#include "mini_rig.hpp"
#include "sim/kernel.hpp"
#include "sim/supervise.hpp"
#include "support/checksum.hpp"

namespace umlsoc::fleet {
namespace {

/// 200 requests per seed under the loss SLO, so the determinism checks see
/// failing seeds as well as passing ones.
constexpr MiniRig run_mini_rig{200, /*loss_slo=*/true};

TEST(FleetDriver, RunsEveryRigExactlyOnceAcrossChunks) {
  const std::uint64_t kRigs = 103;  // Deliberately not a multiple of anything.
  std::vector<std::atomic<int>> executed(kRigs);
  FleetConfig config;
  config.jobs = 4;
  config.chunk = 5;
  FleetDriver driver(config);
  const std::vector<RigOutcome> outcomes =
      driver.run_range(0, kRigs, [&](const RigJob& job) {
        executed[job.index].fetch_add(1);
        RigOutcome outcome;
        outcome.ok = true;
        return outcome;
      });
  ASSERT_EQ(outcomes.size(), kRigs);
  for (std::uint64_t i = 0; i < kRigs; ++i) {
    EXPECT_EQ(executed[i].load(), 1) << "rig " << i;
    EXPECT_EQ(outcomes[i].seed, i);
    EXPECT_TRUE(outcomes[i].ok);
  }
  EXPECT_EQ(driver.stats().rigs, kRigs);
  EXPECT_EQ(driver.stats().chunk, 5u);
  EXPECT_EQ(driver.stats().chunks_claimed, (kRigs + 4) / 5);
  EXPECT_LE(driver.stats().jobs, 4u);
  std::uint64_t per_worker_total = 0;
  for (std::uint64_t count : driver.stats().rigs_per_worker) per_worker_total += count;
  EXPECT_EQ(per_worker_total, kRigs);
}

TEST(FleetDriver, SeedVectorMapsToOutcomeSlots) {
  const std::vector<std::uint64_t> seeds = {42, 7, 42, 1000000007};
  FleetDriver driver;
  const std::vector<RigOutcome> outcomes = driver.run(seeds, [](const RigJob& job) {
    RigOutcome outcome;
    outcome.ok = true;
    outcome.slo.requests = job.seed * 2;
    return outcome;
  });
  ASSERT_EQ(outcomes.size(), seeds.size());
  for (std::size_t i = 0; i < seeds.size(); ++i) {
    EXPECT_EQ(outcomes[i].seed, seeds[i]);
    EXPECT_EQ(outcomes[i].slo.requests, seeds[i] * 2);
  }
}

TEST(FleetDriver, EmptyFleetReturnsEmptyResults) {
  FleetDriver driver;
  EXPECT_TRUE(driver.run({}, [](const RigJob&) { return RigOutcome{}; }).empty());
  EXPECT_EQ(driver.stats().rigs, 0u);
}

TEST(FleetDriver, MoreJobsThanRigsStillRunsEverything) {
  FleetConfig config;
  config.jobs = 16;
  FleetDriver driver(config);
  const std::vector<RigOutcome> outcomes =
      driver.run_range(5, 3, [](const RigJob& job) {
        RigOutcome outcome;
        outcome.ok = true;
        outcome.slo.delivered = job.seed;
        return outcome;
      });
  ASSERT_EQ(outcomes.size(), 3u);
  EXPECT_EQ(outcomes[0].slo.delivered, 5u);
  EXPECT_EQ(outcomes[2].slo.delivered, 7u);
  // Workers are capped by the rig count: no idle thread spawn.
  EXPECT_LE(driver.stats().jobs, 3u);
}

TEST(FleetDriver, ExceptionIsContainedToItsRig) {
  FleetConfig config;
  config.jobs = 2;
  FleetDriver driver(config);
  const std::vector<RigOutcome> outcomes =
      driver.run_range(0, 8, [](const RigJob& job) -> RigOutcome {
        if (job.seed == 3) throw std::runtime_error("rig exploded");
        RigOutcome outcome;
        outcome.ok = true;
        return outcome;
      });
  ASSERT_EQ(outcomes.size(), 8u);
  for (std::uint64_t i = 0; i < 8; ++i) {
    if (i == 3) {
      EXPECT_FALSE(outcomes[i].ok);
      EXPECT_EQ(outcomes[i].failure, "uncaught exception: rig exploded");
      EXPECT_EQ(outcomes[i].seed, 3u);
    } else {
      EXPECT_TRUE(outcomes[i].ok) << "rig " << i;
    }
  }
}

TEST(FleetDriver, ProgressIsSerializedAndCountsToTotal) {
  FleetConfig config;
  config.jobs = 8;
  config.chunk = 1;
  FleetDriver driver(config);
  // The progress contract is "at most one invocation at a time": an
  // unsynchronized counter and set stay consistent iff that holds (TSAN
  // enforces the stronger claim; this checks the visible effects).
  std::uint64_t calls = 0;
  std::uint64_t last_done = 0;
  std::set<std::uint64_t> seen;
  driver.set_progress([&](const RigJob& job, const RigOutcome& outcome,
                          std::uint64_t done, std::uint64_t total) {
    ++calls;
    last_done = std::max(last_done, done);
    seen.insert(job.seed);
    EXPECT_TRUE(outcome.ok);
    EXPECT_EQ(total, 64u);
  });
  (void)driver.run_range(100, 64, [](const RigJob&) {
    RigOutcome outcome;
    outcome.ok = true;
    return outcome;
  });
  EXPECT_EQ(calls, 64u);
  EXPECT_EQ(last_done, 64u);
  EXPECT_EQ(seen.size(), 64u);
}

TEST(FleetDeterminism, SameSeedsSameOutcomesRegardlessOfJobs) {
  FleetConfig serial;
  serial.jobs = 1;
  FleetDriver baseline(serial);
  const std::vector<RigOutcome> reference = baseline.run_range(1, 96, run_mini_rig);

  for (unsigned jobs : {2u, 8u}) {
    FleetConfig config;
    config.jobs = jobs;
    config.chunk = 3;
    FleetDriver driver(config);
    const std::vector<RigOutcome> outcomes = driver.run_range(1, 96, run_mini_rig);
    ASSERT_EQ(outcomes.size(), reference.size());
    for (std::size_t i = 0; i < reference.size(); ++i) {
      EXPECT_TRUE(outcomes[i].deterministic_equal(reference[i]))
          << "seed " << reference[i].seed << " diverged at jobs=" << jobs;
    }
    EXPECT_EQ(FleetReport::aggregate(outcomes).fingerprint(),
              FleetReport::aggregate(reference).fingerprint())
        << "aggregated report diverged at jobs=" << jobs;
  }
}

TEST(FleetDeterminism, WallTimeDoesNotBreakDeterministicEquality) {
  RigOutcome a = run_mini_rig({0, 11, 0});
  RigOutcome b = run_mini_rig({5, 11, 3});
  a.wall_ns = 123;
  b.wall_ns = 456789;
  // Host wall time (and snapshot wall ns inside kernel stats) may differ.
  b.kernel.snapshot.encode_wall_ns = 999;
  b.kernel.snapshot.store_wall_ns = 888;
  EXPECT_TRUE(a.deterministic_equal(b));
  b.slo.delivered += 1;
  EXPECT_FALSE(a.deterministic_equal(b));
}

TEST(FleetReportTest, AggregatesCountersHealthAndFailures) {
  std::vector<RigOutcome> outcomes(3);
  outcomes[0].seed = 10;
  outcomes[0].ok = true;
  outcomes[0].slo.requests = 100;
  outcomes[0].slo.delivered = 99;
  outcomes[0].slo.lost = 1;
  outcomes[0].slo.transactions = 100;
  outcomes[0].slo.timeouts = 5;
  outcomes[0].slo.lost_work_ps_max = 50;
  outcomes[0].health.healthy = 2;
  outcomes[0].kernel.timed_peak = 7;
  outcomes[0].sim_time_ps = 1000;
  outcomes[0].events_processed = 500;
  outcomes[0].wall_ns = 10;
  outcomes[1].seed = 11;
  outcomes[1].ok = false;
  outcomes[1].failure = "boom";
  outcomes[1].slo.requests = 10;
  outcomes[1].slo.lost = 10;
  outcomes[1].slo.lost_work_ps_max = 80;
  outcomes[1].health.failed = 1;
  outcomes[1].kernel.timed_peak = 3;
  outcomes[1].sim_time_ps = 4000;
  outcomes[2].seed = 12;
  outcomes[2].ok = true;
  outcomes[2].slo.requests = 100;
  outcomes[2].slo.delivered = 100;
  outcomes[2].slo.errors_raised = 4;
  outcomes[2].slo.errors_unhandled = 1;
  outcomes[2].health.degraded = 1;

  const FleetReport report = FleetReport::aggregate(outcomes);
  EXPECT_EQ(report.rigs_total, 3u);
  EXPECT_EQ(report.rigs_ok, 2u);
  EXPECT_EQ(report.rigs_failed, 1u);
  ASSERT_EQ(report.failed_seeds.size(), 1u);
  EXPECT_EQ(report.failed_seeds[0], 11u);
  EXPECT_DOUBLE_EQ(report.availability(), 2.0 / 3.0);
  EXPECT_EQ(report.slo.requests, 210u);
  EXPECT_EQ(report.slo.delivered, 199u);
  EXPECT_EQ(report.slo.lost, 11u);
  EXPECT_DOUBLE_EQ(report.delivery_rate(), 199.0 / 210.0);
  EXPECT_DOUBLE_EQ(report.timeout_rate(), 5.0 / 100.0);
  EXPECT_DOUBLE_EQ(report.unhandled_error_rate(), 1.0 / 4.0);
  EXPECT_EQ(report.slo.lost_work_ps_max, 80u);  // Max, not sum.
  EXPECT_EQ(report.health.healthy, 2u);
  EXPECT_EQ(report.health.degraded, 1u);
  EXPECT_EQ(report.health.failed, 1u);
  EXPECT_DOUBLE_EQ(report.unit_health_rate(), 2.0 / 4.0);
  EXPECT_EQ(report.kernel.timed_peak, 7u);  // Max across rigs.
  EXPECT_EQ(report.sim_time_ps_total, 5000u);
  EXPECT_EQ(report.sim_time_ps_max, 4000u);
  EXPECT_EQ(report.events_total, 500u);
  EXPECT_EQ(report.rig_wall_ns_total, 10u);

  const std::string text = report.str();
  EXPECT_NE(text.find("fleet SLO rollup"), std::string::npos);
  EXPECT_NE(text.find("failed seeds: 11"), std::string::npos);
}

TEST(FleetReportTest, EmptyFleetHasBenignRates) {
  const FleetReport report = FleetReport::aggregate({});
  EXPECT_DOUBLE_EQ(report.availability(), 1.0);
  EXPECT_DOUBLE_EQ(report.delivery_rate(), 1.0);
  EXPECT_DOUBLE_EQ(report.timeout_rate(), 0.0);
  EXPECT_DOUBLE_EQ(report.unit_health_rate(), 1.0);
  EXPECT_DOUBLE_EQ(report.checkpoint_overhead(), 0.0);
}

TEST(FleetReportTest, CheckpointOverheadCountsStoreWrites) {
  std::vector<RigOutcome> outcomes(2);
  outcomes[0].wall_ns = 600;
  outcomes[0].kernel.snapshot.encode_wall_ns = 60;
  outcomes[0].kernel.snapshot.store_wall_ns = 90;
  outcomes[1].wall_ns = 400;
  outcomes[1].kernel.snapshot.restore_wall_ns = 20;
  outcomes[1].kernel.snapshot.store_wall_ns = 30;
  const FleetReport report = FleetReport::aggregate(outcomes);
  EXPECT_EQ(report.kernel.snapshot.store_wall_ns, 120u);
  // (60 encode + 20 restore + 120 store) / 1000 rig wall.
  EXPECT_DOUBLE_EQ(report.checkpoint_overhead(), 0.2);
}

TEST(FleetReportTest, FingerprintExcludesWallTime) {
  std::vector<RigOutcome> a(2);
  a[0].seed = 1;
  a[0].ok = true;
  a[0].slo.delivered = 10;
  a[0].wall_ns = 111;
  a[0].kernel.snapshot.encode_wall_ns = 5;
  a[1].seed = 2;
  a[1].ok = true;
  std::vector<RigOutcome> b = a;
  b[0].wall_ns = 99999;
  b[0].kernel.snapshot.encode_wall_ns = 77777;
  b[0].kernel.snapshot.store_wall_ns = 88888;
  EXPECT_EQ(FleetReport::aggregate(a).fingerprint(),
            FleetReport::aggregate(b).fingerprint());
  b[1].slo.delivered = 1;
  EXPECT_NE(FleetReport::aggregate(a).fingerprint(),
            FleetReport::aggregate(b).fingerprint());
}

TEST(FleetReportTest, FingerprintCoversKernelHighWaterMarks) {
  std::vector<RigOutcome> a(1);
  a[0].seed = 1;
  a[0].ok = true;
  a[0].kernel.timed_peak = 4;
  a[0].kernel.max_deltas_per_instant = 2;
  for (std::uint64_t sim::Kernel::Stats::*peak :
       {&sim::Kernel::Stats::timed_peak, &sim::Kernel::Stats::max_deltas_per_instant}) {
    std::vector<RigOutcome> b = a;
    ++(b[0].kernel.*peak);
    ASSERT_FALSE(a[0].deterministic_equal(b[0]));
    EXPECT_NE(FleetReport::aggregate(a).fingerprint(),
              FleetReport::aggregate(b).fingerprint());
  }
}

TEST(FleetOutcome, KernelStatsReduceSumsCountersAndMaxesPeaks) {
  sim::Kernel::Stats into;
  into.timed_peak = 10;
  into.max_deltas_per_instant = 2;
  into.wheel_hits = 100;
  into.snapshot.encodes = 1;
  sim::Kernel::Stats other;
  other.timed_peak = 4;
  other.max_deltas_per_instant = 9;
  other.wheel_hits = 50;
  other.heap_hits = 7;
  other.snapshot.encodes = 2;
  other.snapshot.bytes_written = 64;
  reduce(into, other);
  EXPECT_EQ(into.timed_peak, 10u);
  EXPECT_EQ(into.max_deltas_per_instant, 9u);
  EXPECT_EQ(into.wheel_hits, 150u);
  EXPECT_EQ(into.heap_hits, 7u);
  EXPECT_EQ(into.snapshot.encodes, 3u);
  EXPECT_EQ(into.snapshot.bytes_written, 64u);
}

TEST(FleetOutcome, HealthRollupCountsRegistryUnits) {
  sim::HealthRegistry registry;
  const auto a = registry.register_unit("a");
  const auto b = registry.register_unit("b");
  (void)registry.register_unit("c");
  registry.set_health(a, sim::UnitHealth::kDegraded, "probe");
  registry.set_health(b, sim::UnitHealth::kFailed, "gone");
  HealthRollup rollup;
  rollup.add(registry);
  EXPECT_EQ(rollup.healthy, 1u);
  EXPECT_EQ(rollup.degraded, 1u);
  EXPECT_EQ(rollup.failed, 1u);
  EXPECT_EQ(rollup.units(), 3u);
}

TEST(FleetReportTest, StrPrintsTheFingerprintHash) {
  std::vector<RigOutcome> outcomes(1);
  outcomes[0].ok = true;
  outcomes[0].kernel.cascades = 3;  // Printed by fingerprint(), not by str().
  const FleetReport report = FleetReport::aggregate(outcomes);
  char line[64];
  std::snprintf(line, sizeof(line), "\n  fingerprint: %016llx\n",
                static_cast<unsigned long long>(support::xxh64(report.fingerprint())));
  EXPECT_NE(report.str().find(line), std::string::npos) << report.str();
}

/// The counter at `position` in `record`'s counters() list.
template <typename Record>
std::uint64_t& counter_at(Record& record, std::size_t position) {
  std::uint64_t* slot = nullptr;
  std::size_t index = 0;
  Record::counters(
      [&](const char*, sim::Counter, std::uint64_t& field) {
        if (index++ == position) slot = &field;
      },
      record);
  return *slot;
}

struct CounterSweep {
  std::size_t total = 0;
  std::set<std::string> max_names;
  std::set<std::string> wall_names;
};

/// Walks `Record`'s counters() list. Each counter is set to 3 in one rig
/// and 5 in another; the fleet report must sum or max it by its kind.
/// Raising the larger value moves the fold whatever the kind, so the
/// determinism check and the fingerprint must see the raise unless the
/// counter is kWall. The wire codec must carry it.
template <typename Record>
void sweep_counters(Record RigOutcome::*member, Record FleetReport::*rollup,
                    CounterSweep& sweep) {
  std::size_t position = 0;
  Record::counters([&](const char* name, sim::Counter kind) {
    SCOPED_TRACE(name);
    ++sweep.total;
    if (kind == sim::Counter::kMax) sweep.max_names.insert(name);
    if (kind == sim::Counter::kWall) sweep.wall_names.insert(name);

    std::vector<RigOutcome> rigs(2);
    counter_at(rigs[0].*member, position) = 3;
    counter_at(rigs[1].*member, position) = 5;
    FleetReport report = FleetReport::aggregate(rigs);
    EXPECT_EQ(counter_at(report.*rollup, position), kind == sim::Counter::kMax ? 5u : 8u);

    std::vector<RigOutcome> raised = rigs;
    ++counter_at(raised[1].*member, position);
    const bool deterministic = kind != sim::Counter::kWall;
    EXPECT_EQ(!raised[1].deterministic_equal(rigs[1]), deterministic);
    EXPECT_EQ(FleetReport::aggregate(raised).fingerprint() != report.fingerprint(),
              deterministic);

    std::uint64_t index = 0;
    RigOutcome decoded;
    EXPECT_TRUE(decode_result(encode_result(0, raised[1]), index, decoded));
    EXPECT_EQ(counter_at(decoded.*member, position), 6u);
    ++position;
  });
}

TEST(FleetCounters, EveryCounterFoldsComparesAndCrossesTheWireByItsKind) {
  CounterSweep sweep;
  sweep_counters(&RigOutcome::slo, &FleetReport::slo, sweep);
  sweep_counters(&RigOutcome::health, &FleetReport::health, sweep);
  sweep_counters(&RigOutcome::kernel, &FleetReport::kernel, sweep);
  EXPECT_EQ(sweep.total, 41u);
  EXPECT_EQ(sweep.max_names,
            (std::set<std::string>{"timed_peak", "max_deltas_per_instant", "lost_work_ps_max"}));
  EXPECT_EQ(sweep.wall_names,
            (std::set<std::string>{"snapshot.encode_wall_ns", "snapshot.restore_wall_ns",
                                   "snapshot.store_wall_ns"}));
}

TEST(FleetDriver, ResolveJobsHonorsExplicitCounts) {
  EXPECT_EQ(FleetDriver::resolve_jobs(1), 1u);
  EXPECT_EQ(FleetDriver::resolve_jobs(7), 7u);
  EXPECT_GE(FleetDriver::resolve_jobs(0), 1u);  // Hardware default, never 0.
}

}  // namespace
}  // namespace umlsoc::fleet
