// Supervision, circuit breaking and degraded-mode recovery (sim/supervise):
// breaker automaton edges, supervisor restart/backoff/give-up, health
// aggregation, watchdog-driven recovery, and checkpoint/restore of all of it
// — both the direct Checkpoint structs and a full binary snapshot
// (supervisor pending-restart expectations must be accepted by capture).
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "replay/binary.hpp"
#include "replay/snapshot.hpp"
#include "sim/bus.hpp"
#include "sim/fault.hpp"
#include "sim/kernel.hpp"
#include "sim/supervise.hpp"
#include "statechart/interpreter.hpp"
#include "statechart/synthetic.hpp"
#include "support/diagnostics.hpp"

namespace umlsoc::sim {
namespace {

// A bus rig with one mapped RAM window: writes to kRamBase succeed, writes
// to kBadAddress decode-error — a deterministic failure source that needs
// no fault plan.
struct BusRig {
  static constexpr std::uint64_t kRamBase = 0x0;
  static constexpr std::uint64_t kBadAddress = 0x10000;

  Kernel kernel;
  MemoryMappedBus bus{kernel, "bus", SimTime::ns(1)};
  BusMasterPort port{kernel, bus, "port"};
  std::uint64_t mem[8] = {};

  BusRig() {
    bus.map_device(
        "ram", kRamBase, sizeof(mem), [this](std::uint64_t a) { return mem[(a / 8) % 8]; },
        [this](std::uint64_t a, std::uint64_t v) { mem[(a / 8) % 8] = v; });
  }
};

CircuitBreaker::Config small_breaker_config() {
  CircuitBreaker::Config config;
  config.window = 4;
  config.min_samples = 2;
  config.failure_threshold = 0.5;
  config.open_duration = SimTime::ns(100);
  config.reopen_multiplier = 2;
  config.max_open_duration = SimTime::ns(300);
  return config;
}

// --- CircuitBreaker ----------------------------------------------------------

TEST(CircuitBreaker, OpensAtFailureThresholdAndEmitsEvent) {
  BusRig rig;
  CircuitBreaker breaker(rig.kernel, rig.port, "dma", small_breaker_config());
  std::vector<std::string> events;
  breaker.set_error_emitter(
      [&events](const std::string& event, std::int64_t) { events.push_back(event); });

  int errors = 0;
  breaker.write(BusRig::kBadAddress, 1,
                [&errors](BusStatus status) { errors += status == BusStatus::kError; });
  breaker.write(BusRig::kBadAddress, 2,
                [&errors](BusStatus status) { errors += status == BusStatus::kError; });
  rig.kernel.run(SimTime::ns(50));

  EXPECT_EQ(errors, 2);
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kOpen);
  EXPECT_EQ(breaker.stats().opens, 1u);
  EXPECT_EQ(breaker.window_failures(), 2u);
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0], "breaker_open");
}

TEST(CircuitBreaker, FastFailsWhileOpenWithoutBusTraffic) {
  BusRig rig;
  CircuitBreaker breaker(rig.kernel, rig.port, "dma", small_breaker_config());
  breaker.write(BusRig::kBadAddress, 1, nullptr);
  breaker.write(BusRig::kBadAddress, 2, nullptr);
  rig.kernel.run(SimTime::ns(50));
  ASSERT_EQ(breaker.state(), CircuitBreaker::State::kOpen);

  const std::uint64_t writes_before = rig.bus.stats().writes;
  bool done = false;
  BusStatus status = BusStatus::kOk;
  breaker.write(BusRig::kRamBase, 7, [&](BusStatus s) {
    done = true;
    status = s;
  });
  // Synchronous rejection: no kernel.run needed, no bus transaction issued.
  EXPECT_TRUE(done);
  EXPECT_EQ(status, BusStatus::kError);
  EXPECT_EQ(rig.bus.stats().writes, writes_before);
  EXPECT_EQ(breaker.stats().fast_failed, 1u);
}

TEST(CircuitBreaker, HalfOpenProbeSuccessCloses) {
  BusRig rig;
  CircuitBreaker breaker(rig.kernel, rig.port, "dma", small_breaker_config());
  std::vector<std::string> events;
  breaker.set_error_emitter(
      [&events](const std::string& event, std::int64_t) { events.push_back(event); });
  breaker.write(BusRig::kBadAddress, 1, nullptr);
  breaker.write(BusRig::kBadAddress, 2, nullptr);
  rig.kernel.run();  // Drains through the open-duration timer: half-open.
  ASSERT_EQ(breaker.state(), CircuitBreaker::State::kHalfOpen);

  bool ok = false;
  breaker.write(BusRig::kRamBase, 42, [&ok](BusStatus s) { ok = s == BusStatus::kOk; });
  rig.kernel.run();

  EXPECT_TRUE(ok);
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kClosed);
  EXPECT_EQ(breaker.stats().probes, 1u);
  EXPECT_EQ(breaker.stats().closes, 1u);
  EXPECT_EQ(breaker.window_samples(), 0u) << "close resets the window";
  EXPECT_EQ(breaker.current_open_duration(), small_breaker_config().open_duration);
  EXPECT_EQ(rig.mem[0], 42u) << "the probe reached the device";
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[1], "breaker_closed");
}

TEST(CircuitBreaker, HalfOpenAdmitsExactlyOneProbe) {
  BusRig rig;
  CircuitBreaker breaker(rig.kernel, rig.port, "dma", small_breaker_config());
  breaker.write(BusRig::kBadAddress, 1, nullptr);
  breaker.write(BusRig::kBadAddress, 2, nullptr);
  rig.kernel.run();
  ASSERT_EQ(breaker.state(), CircuitBreaker::State::kHalfOpen);

  bool second_rejected = false;
  breaker.write(BusRig::kRamBase, 1, nullptr);  // The probe, now in flight.
  breaker.write(BusRig::kRamBase, 2,
                [&second_rejected](BusStatus s) { second_rejected = s == BusStatus::kError; });
  EXPECT_TRUE(second_rejected) << "only one probe may be in flight";
  EXPECT_EQ(breaker.stats().probes, 1u);
  EXPECT_EQ(breaker.stats().fast_failed, 1u);
  rig.kernel.run();
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kClosed);
}

TEST(CircuitBreaker, FailedProbeReopensWithDoubledDurationClamped) {
  BusRig rig;
  CircuitBreaker breaker(rig.kernel, rig.port, "dma", small_breaker_config());
  breaker.write(BusRig::kBadAddress, 1, nullptr);
  breaker.write(BusRig::kBadAddress, 2, nullptr);
  rig.kernel.run(SimTime::ns(150));  // Past the 100ns open duration: half-open.
  ASSERT_EQ(breaker.state(), CircuitBreaker::State::kHalfOpen);

  breaker.read(BusRig::kBadAddress, nullptr);  // Probe fails.
  rig.kernel.run(SimTime::ns(200));
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kOpen);
  EXPECT_EQ(breaker.stats().probe_failures, 1u);
  EXPECT_EQ(breaker.current_open_duration(), SimTime::ns(200)) << "100ns doubled";

  rig.kernel.run(SimTime::ns(450));  // Past reopen: half-open again.
  ASSERT_EQ(breaker.state(), CircuitBreaker::State::kHalfOpen);
  breaker.read(BusRig::kBadAddress, nullptr);
  rig.kernel.run(SimTime::ns(500));
  EXPECT_EQ(breaker.current_open_duration(), SimTime::ns(300))
      << "400ns clamped to max_open_duration";
  EXPECT_EQ(breaker.stats().opens, 3u);

  // A successful probe resets the duration to the configured base.
  rig.kernel.run(SimTime::ns(900));
  ASSERT_EQ(breaker.state(), CircuitBreaker::State::kHalfOpen);
  breaker.write(BusRig::kRamBase, 5, nullptr);
  rig.kernel.run();
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kClosed);
  EXPECT_EQ(breaker.current_open_duration(), SimTime::ns(100));
}

TEST(CircuitBreaker, SlidingWindowOverwritesOldOutcomes) {
  BusRig rig;
  CircuitBreaker::Config config = small_breaker_config();
  config.failure_threshold = 0.9;  // High enough that this mix never opens.
  config.min_samples = 4;
  CircuitBreaker breaker(rig.kernel, rig.port, "dma", config);

  breaker.write(BusRig::kBadAddress, 1, nullptr);
  breaker.write(BusRig::kBadAddress, 2, nullptr);
  rig.kernel.run(SimTime::ns(20));
  EXPECT_EQ(breaker.window_failures(), 2u);
  EXPECT_EQ(breaker.window_samples(), 2u);

  // Four successes roll both failures out of the 4-wide window.
  for (int i = 0; i < 4; ++i) {
    breaker.write(BusRig::kRamBase, static_cast<std::uint64_t>(i), nullptr);
    rig.kernel.run(rig.kernel.now() + SimTime::ns(5));
  }
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kClosed);
  EXPECT_EQ(breaker.window_samples(), 4u);
  EXPECT_EQ(breaker.window_failures(), 0u);
}

TEST(CircuitBreaker, ForceClosedResetsFromOpen) {
  BusRig rig;
  CircuitBreaker breaker(rig.kernel, rig.port, "dma", small_breaker_config());
  breaker.write(BusRig::kBadAddress, 1, nullptr);
  breaker.write(BusRig::kBadAddress, 2, nullptr);
  rig.kernel.run(SimTime::ns(50));
  ASSERT_EQ(breaker.state(), CircuitBreaker::State::kOpen);

  breaker.force_closed();
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kClosed);
  EXPECT_EQ(breaker.window_samples(), 0u);
  // The stale timer wakeup at 101ns finds the breaker closed and falls
  // through instead of flipping it to half-open.
  rig.kernel.run();
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kClosed);
}

TEST(CircuitBreaker, HealthBindingTracksState) {
  BusRig rig;
  HealthRegistry health;
  const auto unit = health.register_unit("dma");
  CircuitBreaker breaker(rig.kernel, rig.port, "dma", small_breaker_config());
  breaker.bind_health(&health, unit);

  breaker.write(BusRig::kBadAddress, 1, nullptr);
  breaker.write(BusRig::kBadAddress, 2, nullptr);
  rig.kernel.run(SimTime::ns(50));
  EXPECT_EQ(health.health(unit), UnitHealth::kDegraded);
  EXPECT_FALSE(health.all_healthy());

  rig.kernel.run();  // Half-open.
  breaker.write(BusRig::kRamBase, 1, nullptr);
  rig.kernel.run();
  EXPECT_EQ(health.health(unit), UnitHealth::kHealthy);
  EXPECT_TRUE(health.all_healthy());
}

TEST(CircuitBreaker, CheckpointRoundtripReproducesAutomatonState) {
  BusRig source;
  CircuitBreaker source_breaker(source.kernel, source.port, "dma", small_breaker_config());
  source_breaker.write(BusRig::kBadAddress, 1, nullptr);
  source_breaker.write(BusRig::kBadAddress, 2, nullptr);
  source.kernel.run(SimTime::ns(50));
  ASSERT_EQ(source_breaker.state(), CircuitBreaker::State::kOpen);
  const CircuitBreaker::Checkpoint checkpoint = source_breaker.capture_checkpoint();

  BusRig restored;
  CircuitBreaker breaker(restored.kernel, restored.port, "dma", small_breaker_config());
  support::DiagnosticSink sink;
  ASSERT_TRUE(breaker.restore_checkpoint(checkpoint, sink)) << sink.str();
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kOpen);
  EXPECT_EQ(breaker.window_failures(), source_breaker.window_failures());
  EXPECT_EQ(breaker.current_open_duration(), source_breaker.current_open_duration());
  EXPECT_EQ(breaker.stats().opens, 1u);
}

CircuitBreaker::Checkpoint window_state(std::uint64_t outcomes, std::uint32_t cursor,
                                        std::uint32_t samples, std::uint32_t failures) {
  CircuitBreaker::Checkpoint checkpoint;
  checkpoint.outcomes = outcomes;
  checkpoint.cursor = cursor;
  checkpoint.samples = samples;
  checkpoint.failures_in_window = failures;
  return checkpoint;
}

TEST(CircuitBreaker, RestoreRejectsWindowStateOutOfRange) {
  BusRig rig;
  CircuitBreaker breaker(rig.kernel, rig.port, "dma", small_breaker_config());
  // No run reaches these: the configured window is 4, a filling window holds
  // its outcomes in bits [0, samples) and writes the next one at `samples`,
  // and failures_in_window counts the set bits.
  const CircuitBreaker::Checkpoint states[] = {
      window_state(0x0, 99, 0, 0),  // Cursor past the window.
      window_state(0xF, 0, 4, 0),   // Four failure bits, none counted.
      window_state(0x1, 1, 1, 0),   // One failure bit, none counted.
      window_state(0x3, 2, 2, 1),   // Two failure bits, one counted.
      window_state(0x4, 1, 1, 1),   // The failure bit is outside the filled one.
      window_state(0x10, 0, 4, 1),  // The failure bit is outside the window.
      window_state(0x0, 0, 2, 0),   // Filling, but the next write would not land at 2.
  };
  for (const CircuitBreaker::Checkpoint& checkpoint : states) {
    support::DiagnosticSink sink;
    EXPECT_FALSE(breaker.restore_checkpoint(checkpoint, sink))
        << "outcomes=" << checkpoint.outcomes << " cursor=" << checkpoint.cursor
        << " samples=" << checkpoint.samples << " failures=" << checkpoint.failures_in_window;
    EXPECT_TRUE(sink.has_errors());
  }
  // Refused restores leave the breaker as it was. Accepting {0xF, 0, 4, 0}
  // instead, one successful write would roll a set bit out of the full
  // window and underflow failures_in_window.
  EXPECT_EQ(breaker.window_samples(), 0u);
  EXPECT_EQ(breaker.window_failures(), 0u);
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kClosed);
}

TEST(CircuitBreaker, FullSixtyFourOutcomeWindowRoundTrips) {
  CircuitBreaker::Config config = small_breaker_config();
  config.window = 64;  // The widest window: every bit of the ring is filled.
  config.min_samples = 64;
  config.failure_threshold = 1.0;
  BusRig source;
  CircuitBreaker source_breaker(source.kernel, source.port, "dma", config);
  for (std::uint64_t i = 0; i < 64; ++i) {
    source_breaker.write(BusRig::kBadAddress, i, nullptr);
  }
  source.kernel.run(SimTime::ns(90));
  ASSERT_EQ(source_breaker.state(), CircuitBreaker::State::kOpen);
  const CircuitBreaker::Checkpoint checkpoint = source_breaker.capture_checkpoint();
  ASSERT_EQ(checkpoint.samples, 64u);
  ASSERT_EQ(checkpoint.outcomes, ~0ULL);

  BusRig restored;
  CircuitBreaker breaker(restored.kernel, restored.port, "dma", config);
  support::DiagnosticSink sink;
  ASSERT_TRUE(breaker.restore_checkpoint(checkpoint, sink)) << sink.str();
  EXPECT_EQ(breaker.window_failures(), 64u);

  CircuitBreaker::Checkpoint miscounted = checkpoint;
  miscounted.failures_in_window = 63;
  support::DiagnosticSink reject;
  EXPECT_FALSE(breaker.restore_checkpoint(miscounted, reject));
  EXPECT_TRUE(reject.has_errors());
}

// --- HealthRegistry ----------------------------------------------------------

TEST(HealthRegistry, AggregatesWorstAndNotifiesListeners) {
  HealthRegistry health;
  const auto cpu = health.register_unit("cpu");
  const auto dma = health.register_unit("dma");
  EXPECT_EQ(health.aggregate(), UnitHealth::kHealthy);

  std::vector<std::string> log;
  health.add_listener([&log, &health](HealthRegistry::UnitId unit, UnitHealth from,
                                      UnitHealth to, std::string_view reason) {
    log.push_back(health.unit_name(unit) + ": " + std::string(to_string(from)) + "->" +
                  std::string(to_string(to)) + " (" + std::string(reason) + ")");
  });

  health.set_health(dma, UnitHealth::kDegraded, "breaker open");
  health.set_health(dma, UnitHealth::kDegraded, "again");  // No transition, no callback.
  health.set_health(cpu, UnitHealth::kFailed, "gave up");
  EXPECT_EQ(health.aggregate(), UnitHealth::kFailed);
  EXPECT_EQ(health.transitions(), 2u);
  ASSERT_EQ(log.size(), 2u);
  EXPECT_EQ(log[0], "dma: healthy->degraded (breaker open)");
  EXPECT_EQ(log[1], "cpu: healthy->failed (gave up)");
  EXPECT_EQ(health.str(), "cpu=failed dma=degraded");
}

TEST(HealthRegistry, CheckpointRoundtripAndValidation) {
  HealthRegistry source;
  source.register_unit("cpu");
  const auto dma = source.register_unit("dma");
  source.set_health(dma, UnitHealth::kDegraded, "x");
  const HealthRegistry::Checkpoint checkpoint = source.capture_checkpoint();

  HealthRegistry restored;
  restored.register_unit("cpu");
  const auto dma2 = restored.register_unit("dma");
  bool listener_fired = false;
  restored.add_listener([&listener_fired](HealthRegistry::UnitId, UnitHealth, UnitHealth,
                                          std::string_view) { listener_fired = true; });
  support::DiagnosticSink sink;
  ASSERT_TRUE(restored.restore_checkpoint(checkpoint, sink)) << sink.str();
  EXPECT_EQ(restored.health(dma2), UnitHealth::kDegraded);
  EXPECT_EQ(restored.transitions(), 1u);
  EXPECT_FALSE(listener_fired) << "restore reproduces state, not history";

  HealthRegistry mismatched;  // Wrong unit count.
  mismatched.register_unit("cpu");
  support::DiagnosticSink reject;
  EXPECT_FALSE(mismatched.restore_checkpoint(checkpoint, reject));
  EXPECT_TRUE(reject.has_errors());
}

// --- Supervisor --------------------------------------------------------------

RestartPolicy fast_policy() {
  RestartPolicy policy;
  policy.backoff = SimTime::ns(100);
  policy.backoff_multiplier = 2;
  policy.max_backoff = SimTime::ns(350);
  policy.max_restarts = 3;
  policy.window = SimTime::us(50);
  return policy;
}

TEST(Supervisor, OneForOneRestartsOnlyTheFailedChild) {
  Kernel kernel;
  Supervisor sup(kernel, "root", RestartStrategy::kOneForOne, fast_policy());
  int restarted_a = 0;
  int restarted_b = 0;
  const auto a = sup.add_child("a", [&restarted_a] {
    ++restarted_a;
    return true;
  });
  sup.add_child("b", [&restarted_b] {
    ++restarted_b;
    return true;
  });

  sup.report_failure(a, "crash");
  EXPECT_EQ(sup.pending_restarts(), 1u);
  EXPECT_FALSE(sup.quiescent());
  kernel.run();

  EXPECT_EQ(restarted_a, 1);
  EXPECT_EQ(restarted_b, 0);
  EXPECT_EQ(sup.child_stats(a).failures, 1u);
  EXPECT_EQ(sup.child_stats(a).restarts, 1u);
  EXPECT_TRUE(sup.quiescent());
  EXPECT_EQ(kernel.now(), SimTime::ns(100)) << "restart after the base backoff";
}

TEST(Supervisor, AllForOneRestartsEveryChild) {
  Kernel kernel;
  Supervisor sup(kernel, "root", RestartStrategy::kAllForOne, fast_policy());
  int restarted_a = 0;
  int restarted_b = 0;
  const auto a = sup.add_child("a", [&restarted_a] {
    ++restarted_a;
    return true;
  });
  sup.add_child("b", [&restarted_b] {
    ++restarted_b;
    return true;
  });

  sup.report_failure(a, "crash");
  EXPECT_EQ(sup.pending_restarts(), 2u);
  kernel.run();
  EXPECT_EQ(restarted_a, 1);
  EXPECT_EQ(restarted_b, 1);
}

TEST(Supervisor, BackoffGrowsExponentiallyWithinBurstAndClamps) {
  Kernel kernel;
  Supervisor sup(kernel, "root", RestartStrategy::kOneForOne, fast_policy());
  const auto a = sup.add_child("a", [] { return true; });

  EXPECT_EQ(sup.backoff_for(a), SimTime::ns(100)) << "no failures yet: base backoff";
  sup.report_failure(a, "1");
  EXPECT_EQ(sup.backoff_for(a), SimTime::ns(100));
  kernel.run();
  sup.report_failure(a, "2");
  EXPECT_EQ(sup.backoff_for(a), SimTime::ns(200)) << "second failure in the burst";
  kernel.run();
  sup.report_failure(a, "3");
  EXPECT_EQ(sup.backoff_for(a), SimTime::ns(350)) << "400ns clamped to max_backoff";
  EXPECT_EQ(sup.child_stats(a).consecutive, 3u);
}

TEST(Supervisor, BurstResetsAfterQuietWindow) {
  Kernel kernel;
  RestartPolicy policy = fast_policy();
  policy.window = SimTime::ns(1000);
  policy.max_restarts = 2;
  Supervisor sup(kernel, "root", RestartStrategy::kOneForOne, policy);
  const auto a = sup.add_child("a", [] { return true; });

  sup.report_failure(a, "1");
  kernel.run();
  sup.report_failure(a, "2");
  kernel.run();
  EXPECT_EQ(sup.child_stats(a).consecutive, 2u);
  EXPECT_FALSE(sup.gave_up());

  // A quiet gap longer than the window: the burst counter resets AND the
  // intensity window drains, so the third failure is a fresh incident, not
  // a give-up. (An idle tick actually advances kernel time; run(until)
  // alone stops at the last event.)
  kernel.schedule(SimTime::us(2), kernel.register_process([] {}));
  kernel.run();
  sup.report_failure(a, "3");
  EXPECT_EQ(sup.child_stats(a).consecutive, 1u);
  EXPECT_EQ(sup.backoff_for(a), SimTime::ns(100));
  kernel.run();
  EXPECT_FALSE(sup.gave_up());
  EXPECT_EQ(sup.child_stats(a).restarts, 3u);
}

TEST(Supervisor, RestartStormExhaustsBudgetAndRootGivesUp) {
  Kernel kernel;
  HealthRegistry health;
  const auto unit = health.register_unit("a");
  Supervisor sup(kernel, "root", RestartStrategy::kOneForOne, fast_policy());
  // A child whose restart always fails: each failed restart is a fresh
  // failure, so one report storms through the whole budget.
  const auto a = sup.add_child("a", [] { return false; });
  sup.bind_child_health(a, health, unit);
  std::vector<std::string> events;
  sup.set_error_emitter(
      [&events](const std::string& event, std::int64_t) { events.push_back(event); });
  sup.report_failure(a, "crash");
  kernel.run();

  EXPECT_TRUE(sup.gave_up());
  EXPECT_FALSE(sup.quiescent());
  // Budget is 3 restarts: three failed attempts, the fourth report gives up.
  EXPECT_EQ(sup.child_stats(a).failed_restarts, 3u);
  EXPECT_EQ(sup.child_stats(a).failures, 4u);
  EXPECT_NE(sup.give_up_reason().find("restart budget exhausted"), std::string::npos)
      << sup.give_up_reason();
  EXPECT_EQ(health.health(unit), UnitHealth::kFailed);
  EXPECT_EQ(std::count(events.begin(), events.end(), "restart_failed"), 3);
  EXPECT_EQ(std::count(events.begin(), events.end(), "supervisor_give_up"), 1);
  // Terminal: further failures are ignored.
  sup.report_failure(a, "more");
  EXPECT_EQ(sup.child_stats(a).failures, 4u);
}

TEST(Supervisor, PendingRestartDedupsPerChild) {
  Kernel kernel;
  Supervisor sup(kernel, "root", RestartStrategy::kOneForOne, fast_policy());
  int restarts = 0;
  const auto a = sup.add_child("a", [&restarts] {
    ++restarts;
    return true;
  });
  sup.report_failure(a, "1");
  sup.report_failure(a, "2");  // Restart already pending: no second entry.
  EXPECT_EQ(sup.pending_restarts(), 1u);
  kernel.run();
  EXPECT_EQ(restarts, 1);
}

TEST(Supervisor, WatchdogTripDrivesSupervisedRestartAndRearm) {
  Kernel kernel;
  RestartPolicy policy = fast_policy();
  policy.backoff = SimTime::ns(10);
  Watchdog dog(kernel, "cpu-dog", SimTime::ns(50));
  Supervisor sup(kernel, "root", RestartStrategy::kOneForOne, policy);
  int restarts = 0;
  const auto cpu = sup.add_child("cpu", [&restarts] {
    ++restarts;
    return true;
  });
  sup.attach_watchdog(cpu, dog);
  std::vector<std::string> events;
  sup.set_error_emitter(
      [&events](const std::string& event, std::int64_t) { events.push_back(event); });

  dog.arm();
  // Nobody kicks: the trip at 50ns reports a failure; the restart at 60ns
  // succeeds and re-arms the watchdog.
  kernel.run(SimTime::ns(80));
  EXPECT_EQ(dog.trips(), 1u);
  EXPECT_EQ(restarts, 1);
  EXPECT_TRUE(dog.armed()) << "successful restart re-arms the watchdog";
  EXPECT_EQ(std::count(events.begin(), events.end(), "watchdog_trip"), 1);
  EXPECT_EQ(std::count(events.begin(), events.end(), "unit_restarted"), 1);
  dog.disarm();
  kernel.run();
  EXPECT_TRUE(sup.quiescent());
}

TEST(Supervisor, RepeatedWatchdogTripsEventuallyExhaustTheBudget) {
  Kernel kernel;
  RestartPolicy policy = fast_policy();
  policy.backoff = SimTime::ns(10);
  policy.backoff_multiplier = 1;
  policy.max_restarts = 3;
  Watchdog dog(kernel, "cpu-dog", SimTime::ns(50));
  Supervisor sup(kernel, "root", RestartStrategy::kOneForOne, policy);
  const auto cpu = sup.add_child("cpu", [] { return true; });
  sup.attach_watchdog(cpu, dog);

  dog.arm();
  kernel.run();  // Trip -> restart -> re-arm -> trip ... until give-up.
  EXPECT_TRUE(sup.gave_up());
  EXPECT_EQ(dog.trips(), 4u) << "three supervised restarts, the fourth trip gives up";
  EXPECT_EQ(sup.child_stats(cpu).restarts, 3u);
  EXPECT_FALSE(dog.armed());
}

TEST(Supervisor, CheckpointRoundtripWithPendingRestart) {
  Kernel source_kernel;
  Supervisor source(source_kernel, "soc", RestartStrategy::kOneForOne, fast_policy());
  const auto a = source.add_child("a", [] { return true; });
  source.add_child("b", [] { return true; });
  source.report_failure(a, "crash");
  ASSERT_EQ(source.pending_restarts(), 1u);
  const Supervisor::Checkpoint checkpoint = source.capture_checkpoint();

  Kernel kernel;
  Supervisor restored(kernel, "soc", RestartStrategy::kOneForOne, fast_policy());
  restored.add_child("a", [] { return true; });
  restored.add_child("b", [] { return true; });
  support::DiagnosticSink sink;
  ASSERT_TRUE(restored.restore_checkpoint(checkpoint, sink)) << sink.str();
  EXPECT_EQ(restored.pending_restarts(), 1u);
  EXPECT_EQ(restored.child_stats(a).failures, 1u);
  EXPECT_EQ(restored.child_stats(a).consecutive, 1u);

  Supervisor mismatched(kernel, "soc2", RestartStrategy::kOneForOne, fast_policy());
  mismatched.add_child("only-one", [] { return true; });
  support::DiagnosticSink reject;
  EXPECT_FALSE(mismatched.restore_checkpoint(checkpoint, reject));
  EXPECT_TRUE(reject.has_errors());

  // Restart windows no run produces: the supervisor records restarts in
  // time order and keeps at most max_restarts (3) of them. Accepted, {600us,
  // 0} would make the next failure at 600us give up after a single restart.
  const std::uint64_t us600 = SimTime::us(600).picoseconds();
  const std::vector<std::uint64_t> windows[] = {
      {us600, 0},
      {0, us600, us600 - 1},
      {0, 1, 2, 3},
  };
  for (const std::vector<std::uint64_t>& window : windows) {
    Supervisor::Checkpoint bad = checkpoint;
    bad.window = window;
    support::DiagnosticSink window_sink;
    EXPECT_FALSE(restored.restore_checkpoint(bad, window_sink)) << window.size();
    EXPECT_TRUE(window_sink.has_errors());
  }
  Supervisor::Checkpoint in_order = checkpoint;
  in_order.window = {0, us600};
  support::DiagnosticSink order_sink;
  EXPECT_TRUE(restored.restore_checkpoint(in_order, order_sink)) << order_sink.str();

  // Nor does a run queue two restarts for one child: accepted, one failure
  // would restart it twice.
  Supervisor::Checkpoint twice = checkpoint;
  twice.pending.push_back(twice.pending.front());
  support::DiagnosticSink twice_sink;
  EXPECT_FALSE(restored.restore_checkpoint(twice, twice_sink));
  EXPECT_TRUE(twice_sink.has_errors());
}

// --- Binary snapshot integration ---------------------------------------------

TEST(SuperviseSnapshot, PendingRestartSurvivesSaveAndRestore) {
  // Save while a restart is pending: the supervisor's outstanding
  // expectation must be accepted by capture_image (whitelisted by label),
  // and the restored run must execute the restart at the original due time.
  Kernel source_kernel;
  Supervisor source_sup(source_kernel, "soc", RestartStrategy::kOneForOne, fast_policy());
  const auto a = source_sup.add_child("dma", [] { return true; });
  source_sup.report_failure(a, "crash");
  ASSERT_EQ(source_sup.pending_restarts(), 1u);

  replay::SnapshotTargets source_targets;
  source_targets.kernel = &source_kernel;
  source_targets.supervisors.push_back({"soc", &source_sup});
  std::string snapshot;
  support::DiagnosticSink sink;
  ASSERT_TRUE(replay::save_snapshot_binary(source_targets, snapshot, sink)) << sink.str();

  Kernel kernel;
  Supervisor sup(kernel, "soc", RestartStrategy::kOneForOne, fast_policy());
  int restarts = 0;
  sup.add_child("dma", [&restarts] {
    ++restarts;
    return true;
  });
  replay::SnapshotTargets targets;
  targets.kernel = &kernel;
  targets.supervisors.push_back({"soc", &sup});
  support::DiagnosticSink restore_sink;
  ASSERT_TRUE(replay::restore_snapshot_binary(targets, snapshot, restore_sink))
      << restore_sink.str();

  EXPECT_EQ(sup.pending_restarts(), 1u);
  kernel.run();
  EXPECT_EQ(restarts, 1);
  EXPECT_EQ(kernel.now(), SimTime::ns(100)) << "restart fires at the original due time";
  EXPECT_TRUE(sup.quiescent());
}

TEST(SuperviseSnapshot, GiveUpSurvivesSaveAndRestore) {
  Kernel source_kernel;
  Supervisor source_sup(source_kernel, "soc", RestartStrategy::kOneForOne, fast_policy());
  const auto a = source_sup.add_child("dma", [] { return false; });
  source_sup.report_failure(a, "crash");
  source_kernel.run();
  ASSERT_TRUE(source_sup.gave_up());

  replay::SnapshotTargets source_targets;
  source_targets.kernel = &source_kernel;
  source_targets.supervisors.push_back({"soc", &source_sup});
  std::string snapshot;
  support::DiagnosticSink sink;
  ASSERT_TRUE(replay::save_snapshot_binary(source_targets, snapshot, sink)) << sink.str();

  Kernel kernel;
  Supervisor sup(kernel, "soc", RestartStrategy::kOneForOne, fast_policy());
  int restarts = 0;
  sup.add_child("dma", [&restarts] {
    ++restarts;
    return true;
  });
  replay::SnapshotTargets targets;
  targets.kernel = &kernel;
  targets.supervisors.push_back({"soc", &sup});
  support::DiagnosticSink restore_sink;
  ASSERT_TRUE(replay::restore_snapshot_binary(targets, snapshot, restore_sink))
      << restore_sink.str();

  EXPECT_TRUE(sup.gave_up());
  EXPECT_EQ(sup.give_up_reason(), source_sup.give_up_reason());
  EXPECT_FALSE(sup.quiescent());
  const std::uint64_t failures = sup.child_stats(a).failures;
  EXPECT_EQ(failures, source_sup.child_stats(a).failures);
  // Give-up is terminal across the restore too: a later failure is ignored.
  sup.report_failure(a, "after restore");
  EXPECT_EQ(sup.child_stats(a).failures, failures);
  EXPECT_EQ(sup.pending_restarts(), 0u);
  kernel.run();
  EXPECT_EQ(restarts, 0);
}

TEST(SuperviseSnapshot, OpenBreakerSurvivesSaveAndRestore) {
  BusRig source;
  CircuitBreaker source_breaker(source.kernel, source.port, "dma", small_breaker_config());
  HealthRegistry source_health;
  source_breaker.bind_health(&source_health, source_health.register_unit("dma"));
  source_breaker.write(BusRig::kBadAddress, 1, nullptr);
  source_breaker.write(BusRig::kBadAddress, 2, nullptr);
  source.kernel.run(SimTime::ns(50));  // Open since 1ns; timer due at 101ns.
  ASSERT_EQ(source_breaker.state(), CircuitBreaker::State::kOpen);

  replay::SnapshotTargets source_targets;
  source_targets.kernel = &source.kernel;
  source_targets.buses.push_back({"bus", &source.bus});
  source_targets.breakers.push_back({"dma", &source_breaker});
  source_targets.health.push_back({"health", &source_health});
  std::string snapshot;
  support::DiagnosticSink sink;
  ASSERT_TRUE(replay::save_snapshot_binary(source_targets, snapshot, sink)) << sink.str();

  BusRig restored;
  CircuitBreaker breaker(restored.kernel, restored.port, "dma", small_breaker_config());
  HealthRegistry health;
  const auto unit = health.register_unit("dma");
  breaker.bind_health(&health, unit);
  replay::SnapshotTargets targets;
  targets.kernel = &restored.kernel;
  targets.buses.push_back({"bus", &restored.bus});
  targets.breakers.push_back({"dma", &breaker});
  targets.health.push_back({"health", &health});
  support::DiagnosticSink restore_sink;
  ASSERT_TRUE(replay::restore_snapshot_binary(targets, snapshot, restore_sink))
      << restore_sink.str();

  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kOpen);
  EXPECT_EQ(health.health(unit), UnitHealth::kDegraded);
  EXPECT_EQ(breaker.stats().opens, 1u);

  // The open-duration timer was restored with the kernel checkpoint: the
  // breaker goes half-open at the original 101ns, and a clean probe closes.
  restored.kernel.run(SimTime::ns(150));
  ASSERT_EQ(breaker.state(), CircuitBreaker::State::kHalfOpen);
  breaker.write(BusRig::kRamBase, 9, nullptr);
  restored.kernel.run();
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kClosed);
  EXPECT_EQ(health.health(unit), UnitHealth::kHealthy);
}

TEST(SuperviseSnapshot, WarmRestartFromSnapshotRewindsAStatechart) {
  auto machine = statechart::make_chain_machine(4);
  statechart::StateMachineInstance instance(*machine);
  instance.set_trace_enabled(false);
  instance.start();
  instance.dispatch({"e"});  // s0 -> s1: the known-good point.
  ASSERT_TRUE(instance.is_in("s1"));

  support::DiagnosticSink sink;
  auto restart = replay::restart_from_snapshot(instance, sink);

  instance.dispatch({"e"});
  instance.dispatch({"e"});
  EXPECT_FALSE(instance.dispatch_error({"brownout"}));
  ASSERT_TRUE(instance.is_in("s3"));
  const std::uint64_t events = instance.events_processed();
  const std::uint64_t transitions = instance.transitions_fired();
  ASSERT_TRUE(restart()) << sink.str();
  EXPECT_TRUE(instance.is_in("s1")) << "warm restart rewound to the captured point";
  // ... and kept the run counters: an error raised before the restart still
  // counts, as raised and as unhandled.
  EXPECT_EQ(instance.events_processed(), events);
  EXPECT_EQ(instance.transitions_fired(), transitions);
  EXPECT_EQ(instance.errors_raised(), 1u);
  EXPECT_EQ(instance.errors_unhandled(), 1u);

  // Wired as a supervisor child: a failure later in the run restores the
  // known-good configuration.
  Kernel kernel;
  Supervisor sup(kernel, "soc", RestartStrategy::kOneForOne, fast_policy());
  const auto unit = sup.add_child("fsm", replay::restart_from_snapshot(instance, sink));
  instance.dispatch({"e"});
  ASSERT_TRUE(instance.is_in("s2"));
  sup.report_failure(unit, "bad state");
  kernel.run();
  EXPECT_TRUE(instance.is_in("s1"));
  EXPECT_EQ(sup.child_stats(unit).restarts, 1u);
}

}  // namespace
}  // namespace umlsoc::sim
