// Fault-injection and resilience tests: seeded determinism of the
// FaultPlan, the bus-level fault surface (errors, drops, bit-flips),
// BusMasterPort timeout/retry/backoff, watchdog supervision,
// deadlock detection via kernel expectations, and the statechart error
// channel driven end-to-end by injected faults.
#include <gtest/gtest.h>

#include <bit>
#include <vector>

#include "codegen/swruntime.hpp"
#include "sim/bus.hpp"
#include "sim/fault.hpp"
#include "statechart/interpreter.hpp"

namespace umlsoc::sim {
namespace {

struct Draw {
  FaultKind kind;
  std::uint64_t flip_mask;

  bool operator==(const Draw&) const = default;
};

std::vector<Draw> draw_sequence(FaultPlan& plan, FaultSite site, int count) {
  std::vector<Draw> draws;
  for (int i = 0; i < count; ++i) {
    const FaultDecision decision = plan.consult(site);
    draws.push_back({decision.kind, decision.flip_mask});
  }
  return draws;
}

FaultPlan::SiteConfig mixed_rates() {
  FaultPlan::SiteConfig config;
  config.error_rate = 0.15;
  config.drop_rate = 0.15;
  config.bit_flip_rate = 0.15;
  return config;
}

TEST(FaultPlan, SameSeedReplaysSameSequence) {
  FaultPlan a(7);
  FaultPlan b(7);
  a.configure(FaultSite::kBusRead, mixed_rates());
  b.configure(FaultSite::kBusRead, mixed_rates());
  const auto seq_a = draw_sequence(a, FaultSite::kBusRead, 300);
  const auto seq_b = draw_sequence(b, FaultSite::kBusRead, 300);
  EXPECT_EQ(seq_a, seq_b);
  // The mixed config must actually exercise several kinds.
  EXPECT_GT(a.counters(FaultSite::kBusRead).errors, 0u);
  EXPECT_GT(a.counters(FaultSite::kBusRead).drops, 0u);
  EXPECT_GT(a.counters(FaultSite::kBusRead).bit_flips, 0u);
}

TEST(FaultPlan, DifferentSeedsDiverge) {
  FaultPlan a(7);
  FaultPlan b(8);
  a.configure(FaultSite::kBusRead, mixed_rates());
  b.configure(FaultSite::kBusRead, mixed_rates());
  EXPECT_NE(draw_sequence(a, FaultSite::kBusRead, 300),
            draw_sequence(b, FaultSite::kBusRead, 300));
}

TEST(FaultPlan, SitesDrawIndependentStreams) {
  // Consulting one site must not perturb another site's sequence: the
  // write-site sequence is identical whether or not reads are consulted
  // in between.
  FaultPlan quiet(99);
  FaultPlan busy(99);
  quiet.configure(FaultSite::kBusWrite, mixed_rates());
  busy.configure(FaultSite::kBusWrite, mixed_rates());
  busy.configure(FaultSite::kBusRead, mixed_rates());

  std::vector<Draw> quiet_writes = draw_sequence(quiet, FaultSite::kBusWrite, 100);
  std::vector<Draw> busy_writes;
  for (int i = 0; i < 100; ++i) {
    (void)busy.consult(FaultSite::kBusRead);
    const FaultDecision decision = busy.consult(FaultSite::kBusWrite);
    busy_writes.push_back({decision.kind, decision.flip_mask});
  }
  EXPECT_EQ(quiet_writes, busy_writes);
}

TEST(FaultPlan, MaxFaultsCapsInjection) {
  FaultPlan::SiteConfig config;
  config.error_rate = 1.0;
  config.max_faults = 3;

  FaultPlan plan(5);
  plan.configure(FaultSite::kBusWrite, config);
  int injected = 0;
  for (int i = 0; i < 10; ++i) {
    if (plan.consult(FaultSite::kBusWrite).faulted()) ++injected;
  }
  EXPECT_EQ(injected, 3);
  EXPECT_EQ(plan.counters(FaultSite::kBusWrite).errors, 3u);
  EXPECT_EQ(plan.counters(FaultSite::kBusWrite).consults, 10u);
  EXPECT_EQ(plan.total_injected(), 3u);
}

// --- Bus-level fault surface ------------------------------------------------

struct FaultyBusFixture {
  Kernel kernel;
  MemoryMappedBus bus{kernel, "axi", SimTime::ns(8)};
  FaultPlan plan{42};
  std::uint64_t mem[8] = {};
  std::uint64_t device_reads = 0;

  FaultyBusFixture() {
    bus.map_device(
        "ram", 0, sizeof(mem),
        [this](std::uint64_t a) {
          ++device_reads;
          return mem[(a / 8) % 8];
        },
        [this](std::uint64_t a, std::uint64_t v) { mem[(a / 8) % 8] = v; });
    bus.install_fault_plan(&plan);
  }

  void always(FaultSite site, FaultKind kind) {
    FaultPlan::SiteConfig config;
    switch (kind) {
      case FaultKind::kError:
        config.error_rate = 1.0;
        break;
      case FaultKind::kDropResponse:
        config.drop_rate = 1.0;
        break;
      case FaultKind::kBitFlip:
        config.bit_flip_rate = 1.0;
        break;
      default:
        break;
    }
    plan.configure(site, config);
  }
};

TEST(BusFaults, InjectedErrorSkipsDeviceAndReportsStatus) {
  FaultyBusFixture f;
  f.always(FaultSite::kBusRead, FaultKind::kError);
  BusStatus status = BusStatus::kOk;
  std::uint64_t value = 0;
  f.bus.read(0x8, [&](BusStatus s, std::uint64_t v) {
    status = s;
    value = v;
  });
  f.kernel.run();
  EXPECT_EQ(status, BusStatus::kError);
  EXPECT_EQ(value, MemoryMappedBus::kBusError);
  EXPECT_EQ(f.device_reads, 0u);  // Faulted transaction has no data phase.
  EXPECT_EQ(f.plan.counters(FaultSite::kBusRead).errors, 1u);
  EXPECT_EQ(f.bus.stats().errors, 1u);
}

TEST(BusFaults, DroppedResponseNeverCompletes) {
  FaultyBusFixture f;
  f.always(FaultSite::kBusWrite, FaultKind::kDropResponse);
  bool completed = false;
  f.bus.write(0x0, 77, [&](BusStatus) { completed = true; });
  f.kernel.run();
  EXPECT_FALSE(completed);
  EXPECT_EQ(f.mem[0], 0u);  // Hung device: no data phase either.
  EXPECT_EQ(f.plan.counters(FaultSite::kBusWrite).drops, 1u);
  EXPECT_EQ(f.bus.stats().dropped_completions, 1u);
}

TEST(BusFaults, BitFlipCorruptsExactlyOneBitDeterministically) {
  auto flipped_read = [] {
    FaultyBusFixture f;
    f.always(FaultSite::kBusRead, FaultKind::kBitFlip);
    std::uint64_t value = 0;
    f.bus.read(0x0, [&](BusStatus s, std::uint64_t v) {
      EXPECT_EQ(s, BusStatus::kOk);  // Silent corruption, not an error.
      value = v;
    });
    f.kernel.run();
    return value;
  };
  const std::uint64_t first = flipped_read();
  EXPECT_EQ(std::popcount(first), 1);  // Device value 0, exactly one bit flipped.
  EXPECT_EQ(first, flipped_read());    // Same seed => same corruption.
}

TEST(BusFaults, UninstalledPlanIsUntouched) {
  FaultyBusFixture f;
  f.always(FaultSite::kBusRead, FaultKind::kError);
  f.bus.install_fault_plan(nullptr);
  BusStatus status = BusStatus::kError;
  f.bus.read(0x0, [&](BusStatus s, std::uint64_t) { status = s; });
  f.kernel.run();
  EXPECT_EQ(status, BusStatus::kOk);
  EXPECT_EQ(f.plan.counters(FaultSite::kBusRead).consults, 0u);
}

// --- BusMasterPort: timeout, retry, backoff ---------------------------------

TEST(BusMasterPort, TimeoutRetryRecovers) {
  FaultyBusFixture f;
  FaultPlan::SiteConfig one_drop;
  one_drop.drop_rate = 1.0;
  one_drop.max_faults = 1;
  f.plan.configure(FaultSite::kBusWrite, one_drop);

  RetryPolicy policy;
  policy.timeout = SimTime::ns(20);
  policy.max_attempts = 3;
  BusMasterPort port(f.kernel, f.bus, "cpu0", policy);

  BusStatus status = BusStatus::kError;
  port.write(0x0, 123, [&](BusStatus s) { status = s; });
  f.kernel.run();

  EXPECT_EQ(status, BusStatus::kOk);
  EXPECT_EQ(f.mem[0], 123u);
  EXPECT_EQ(port.stats().timeouts, 1u);
  EXPECT_EQ(port.stats().retries, 1u);
  EXPECT_EQ(port.stats().recovered, 1u);
  EXPECT_EQ(port.stats().exhausted, 0u);
  EXPECT_EQ(f.kernel.outstanding_expectations(), 0u);
  EXPECT_FALSE(f.kernel.quiescence_report().deadlocked());
}

TEST(BusMasterPort, RetriesExhaustAndReportTimeout) {
  FaultyBusFixture f;
  f.always(FaultSite::kBusWrite, FaultKind::kDropResponse);

  RetryPolicy policy;
  policy.timeout = SimTime::ns(20);
  policy.max_attempts = 3;
  BusMasterPort port(f.kernel, f.bus, "cpu0", policy);

  std::vector<BusMasterPort::Notice::Kind> notices;
  port.set_listener(
      [&](const BusMasterPort::Notice& notice) { notices.push_back(notice.kind); });

  BusStatus status = BusStatus::kOk;
  bool completed = false;
  port.write(0x0, 9, [&](BusStatus s) {
    status = s;
    completed = true;
  });
  f.kernel.run();

  EXPECT_TRUE(completed);  // Supervision guarantees an answer even for hangs.
  EXPECT_EQ(status, BusStatus::kTimeout);
  EXPECT_EQ(port.stats().timeouts, 3u);
  EXPECT_EQ(port.stats().retries, 2u);
  EXPECT_EQ(port.stats().exhausted, 1u);
  EXPECT_EQ(port.stats().recovered, 0u);
  using Kind = BusMasterPort::Notice::Kind;
  EXPECT_EQ(notices,
            (std::vector<Kind>{Kind::kTimeout, Kind::kRetry, Kind::kTimeout, Kind::kRetry,
                               Kind::kTimeout, Kind::kExhausted}));
  EXPECT_EQ(f.kernel.outstanding_expectations(), 0u);
}

TEST(BusMasterPort, BackoffStretchesDeadlines) {
  // 3 attempts at timeout 20ns with multiplier 2: give-up time is bounded
  // below by 20 + 40 + 80 = 140ns of supervision.
  FaultyBusFixture f;
  f.always(FaultSite::kBusWrite, FaultKind::kDropResponse);
  RetryPolicy policy;
  policy.timeout = SimTime::ns(20);
  policy.max_attempts = 3;
  policy.backoff_multiplier = 2;
  BusMasterPort port(f.kernel, f.bus, "cpu0", policy);

  std::uint64_t finished_ps = 0;
  port.write(0x0, 9, [&](BusStatus) { finished_ps = f.kernel.now().picoseconds(); });
  f.kernel.run();
  EXPECT_GE(finished_ps, SimTime::ns(140).picoseconds());
}

TEST(BusMasterPort, HungTransactionShowsInQuiescenceReport) {
  // No timeout supervision: the dropped response leaves the in-flight
  // expectation unresolved, and the drained run reports the deadlock.
  FaultyBusFixture f;
  f.always(FaultSite::kBusRead, FaultKind::kDropResponse);
  BusMasterPort port(f.kernel, f.bus, "cpu0", RetryPolicy{});

  bool completed = false;
  port.read(0x0, [&](BusStatus, std::uint64_t) { completed = true; });
  f.kernel.run();

  EXPECT_FALSE(completed);
  const QuiescenceReport& report = f.kernel.quiescence_report();
  EXPECT_TRUE(report.drained);
  EXPECT_TRUE(report.deadlocked());
  EXPECT_EQ(report.outstanding_total, 1u);
  ASSERT_EQ(report.outstanding.size(), 1u);
  EXPECT_EQ(report.outstanding[0].label, "axi.cpu0 in-flight");
  EXPECT_NE(report.str().find("axi.cpu0 in-flight"), std::string::npos);
}

TEST(BusMasterPort, CleanRunReportsNoDeadlock) {
  FaultyBusFixture f;
  BusMasterPort port(f.kernel, f.bus, "cpu0", RetryPolicy{});
  bool completed = false;
  port.write(0x0, 1, [&](BusStatus) { completed = true; });
  f.kernel.run();
  EXPECT_TRUE(completed);
  EXPECT_TRUE(f.kernel.quiescence_report().drained);
  EXPECT_FALSE(f.kernel.quiescence_report().deadlocked());
  EXPECT_TRUE(f.kernel.quiescence_report().outstanding.empty());
}

// --- Watchdog ---------------------------------------------------------------

TEST(Watchdog, TripsWhenNotKicked) {
  Kernel kernel;
  bool fired = false;
  Watchdog dog(kernel, "main", SimTime::ns(10), [&] { fired = true; });
  dog.arm();
  kernel.run();
  EXPECT_TRUE(dog.tripped());
  EXPECT_FALSE(dog.armed());
  EXPECT_EQ(dog.trips(), 1u);
  EXPECT_TRUE(fired);
  EXPECT_EQ(kernel.now().picoseconds(), SimTime::ns(10).picoseconds());
  // The trip resolves the armed-expectation: no phantom deadlock.
  EXPECT_EQ(kernel.outstanding_expectations(), 0u);
  EXPECT_FALSE(kernel.quiescence_report().deadlocked());
}

TEST(Watchdog, KickPushesTripPointOut) {
  Kernel kernel;
  Watchdog dog(kernel, "main", SimTime::ns(10));
  dog.arm();
  kernel.schedule(SimTime::ns(8), kernel.register_process([&] { dog.kick(); }));
  kernel.run(SimTime::ns(15));
  EXPECT_FALSE(dog.tripped());  // Kick at 8ns moved the trip point to 18ns.
  kernel.run();
  EXPECT_TRUE(dog.tripped());
  EXPECT_EQ(kernel.now().picoseconds(), SimTime::ns(18).picoseconds());
  EXPECT_EQ(dog.kicks(), 1u);
  EXPECT_EQ(dog.trips(), 1u);
}

TEST(Watchdog, RepeatedKicksKeepItAlive) {
  Kernel kernel;
  Watchdog dog(kernel, "main", SimTime::ns(10));
  dog.arm();
  const ProcessId kicker = kernel.register_process([&] { dog.kick(); });
  for (int i = 1; i <= 5; ++i) {
    kernel.schedule(SimTime::ns(static_cast<std::uint64_t>(7 * i)), kicker);
  }
  kernel.run(SimTime::ns(40));
  EXPECT_FALSE(dog.tripped());
  EXPECT_EQ(dog.kicks(), 5u);
  dog.disarm();
  kernel.run();
  EXPECT_FALSE(dog.tripped());
  EXPECT_EQ(kernel.outstanding_expectations(), 0u);
}

TEST(Watchdog, DisarmPreventsTripAndResolvesExpectation) {
  Kernel kernel;
  Watchdog dog(kernel, "main", SimTime::ns(10));
  dog.arm();
  EXPECT_EQ(kernel.outstanding_expectations(), 1u);
  kernel.schedule(SimTime::ns(5), kernel.register_process([&] { dog.disarm(); }));
  kernel.run();
  EXPECT_FALSE(dog.tripped());
  EXPECT_EQ(dog.trips(), 0u);
  EXPECT_EQ(kernel.outstanding_expectations(), 0u);
}

TEST(Watchdog, RearmAfterTripSupervisesAgain) {
  Kernel kernel;
  Watchdog dog(kernel, "main", SimTime::ns(10));
  dog.arm();
  kernel.run();
  EXPECT_TRUE(dog.tripped());
  dog.arm();
  EXPECT_FALSE(dog.tripped());
  kernel.run();
  EXPECT_TRUE(dog.tripped());
  EXPECT_EQ(dog.trips(), 2u);
}

// --- Statechart error channel ----------------------------------------------

void build_health_machine(statechart::StateMachine& machine, statechart::State** operational,
                          statechart::State** degraded, statechart::State** failed) {
  statechart::Region& top = machine.top();
  *operational = &top.add_state("Operational");
  *degraded = &top.add_state("Degraded");
  *failed = &top.add_state("Failed");
  top.add_transition(top.add_initial(), **operational);
  top.add_transition(**operational, **degraded).set_trigger("bus_timeout");
  top.add_transition(**degraded, **operational).set_trigger("bus_recovered");
  top.add_transition(**degraded, **failed).set_trigger("bus_failed");
}

TEST(ErrorChannel, ErrorEventsJumpTheQueueAndAreCounted) {
  statechart::State* operational = nullptr;
  statechart::State* degraded = nullptr;
  statechart::State* failed = nullptr;
  statechart::StateMachine machine("DriverHealth");
  build_health_machine(machine, &operational, &degraded, &failed);
  statechart::StateMachineInstance instance(machine);
  instance.start();

  EXPECT_TRUE(instance.dispatch_error({"bus_timeout"}));
  EXPECT_TRUE(instance.is_active(*degraded));
  EXPECT_EQ(instance.errors_raised(), 1u);
  EXPECT_EQ(instance.errors_unhandled(), 0u);

  // An error no state handles is counted, not silently discarded.
  EXPECT_FALSE(instance.dispatch_error({"brownout"}));
  EXPECT_EQ(instance.errors_raised(), 2u);
  EXPECT_EQ(instance.errors_unhandled(), 1u);

  EXPECT_TRUE(instance.dispatch({"bus_recovered"}));
  EXPECT_TRUE(instance.is_active(*operational));
}

TEST(ErrorChannel, BusTimeoutDrivesRecoveryStatesEndToEnd) {
  // The acceptance scenario: a dropped bus response times out, the retry
  // succeeds, and the driver's health statechart walks
  // Operational -> Degraded -> Operational off the port notices.
  FaultyBusFixture f;
  FaultPlan::SiteConfig one_drop;
  one_drop.drop_rate = 1.0;
  one_drop.max_faults = 1;
  f.plan.configure(FaultSite::kBusWrite, one_drop);

  statechart::State* operational = nullptr;
  statechart::State* degraded = nullptr;
  statechart::State* failed = nullptr;
  statechart::StateMachine machine("DriverHealth");
  build_health_machine(machine, &operational, &degraded, &failed);
  statechart::StateMachineInstance health(machine);
  health.start();

  RetryPolicy policy;
  policy.timeout = SimTime::ns(20);
  policy.max_attempts = 3;
  codegen::BusMasterContext driver(f.kernel, f.bus, policy);
  driver.set_error_sink(&health);

  driver.run("bus_write(0, 434);");

  EXPECT_EQ(driver.last_status(), BusStatus::kOk);
  EXPECT_EQ(f.mem[0], 434u);
  EXPECT_TRUE(health.is_active(*operational));  // Recovered, not stuck in Degraded.
  EXPECT_FALSE(health.is_active(*failed));
  EXPECT_EQ(health.errors_raised(), 1u);   // The bus_timeout error event.
  EXPECT_EQ(health.errors_unhandled(), 0u);
  EXPECT_EQ(driver.port().stats().recovered, 1u);
}

TEST(ErrorChannel, ExhaustedRetriesReachFailedState) {
  FaultyBusFixture f;
  f.always(FaultSite::kBusWrite, FaultKind::kDropResponse);

  statechart::State* operational = nullptr;
  statechart::State* degraded = nullptr;
  statechart::State* failed = nullptr;
  statechart::StateMachine machine("DriverHealth");
  build_health_machine(machine, &operational, &degraded, &failed);
  statechart::StateMachineInstance health(machine);
  health.start();

  RetryPolicy policy;
  policy.timeout = SimTime::ns(20);
  policy.max_attempts = 2;
  codegen::BusMasterContext driver(f.kernel, f.bus, policy);
  driver.set_error_sink(&health);

  driver.run("bus_write(0, 1);");

  EXPECT_EQ(driver.last_status(), BusStatus::kTimeout);
  EXPECT_TRUE(health.is_active(*failed));
  EXPECT_EQ(driver.port().stats().exhausted, 1u);
}

}  // namespace
}  // namespace umlsoc::sim
