// Cross-process fleet (src/fleet/procpool + handoff): the supervised
// worker-process pool behind FleetDriver's process isolation. Covered here:
// the wire-protocol codecs (bit-exact RigOutcome round-trips, truncated-tail
// tolerance, corruption latching), the at-most-once HandoffLedger (claim
// order, duplicate rejection, death requeue, quarantine attribution), the
// worker-death matrix against real forked workers (SIGKILL mid-seed,
// nonzero exit, heartbeat silence via SIGSTOP, per-seed watchdog timeout,
// poisoned-seed quarantine), determinism parity between a chaos-killed
// process fleet and an in-process jobs=1 run, and the CheckpointStore's
// concurrent-worker hygiene (pid-scoped tmp names, stray-tmp sweep).
#include <gtest/gtest.h>

#include <signal.h>
#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "fleet/driver.hpp"
#include "fleet/handoff.hpp"
#include "fleet/report.hpp"
#include "mini_rig.hpp"
#include "replay/store.hpp"
#include "sim/fault.hpp"
#include "sim/kernel.hpp"
#include "sim/supervise.hpp"
#include "support/diagnostics.hpp"

namespace umlsoc::fleet {
namespace {

/// 100 requests per seed; every seed passes, so a failed outcome can only
/// come from the pool.
constexpr MiniRig run_mini_rig{100, /*loss_slo=*/false};

/// A RigOutcome with every field set to a distinct value, so a codec that
/// drops or reorders a field cannot round-trip it.
RigOutcome distinct_outcome() {
  RigOutcome out;
  out.seed = 101;
  out.ok = false;
  out.failure = "synthetic failure: \xff\x00 binary-safe?";
  out.failure[out.failure.size() - 2] = '\0';  // Embedded NUL survives.
  out.sim_time_ps = 102;
  out.events_processed = 103;
  std::uint64_t next = 200;
  const auto fill = [&next](const char*, sim::Counter, std::uint64_t& field) {
    field = next++;
  };
  SloCounters::counters(fill, out.slo);
  HealthRollup::counters(fill, out.health);
  sim::Kernel::Stats::counters(fill, out.kernel);
  out.wall_ns = next++;
  out.resumed_from_seq = next++;
  out.fault_template = 3;
  out.attempts = 4;
  return out;
}

// --- Wire protocol -------------------------------------------------------------

TEST(HandoffCodec, ResultRoundTripsEveryFieldBitExactly) {
  const RigOutcome original = distinct_outcome();
  const std::string payload = encode_result(77, original);
  std::uint64_t index = 0;
  RigOutcome decoded;
  ASSERT_TRUE(decode_result(payload, index, decoded));
  EXPECT_EQ(index, 77u);
  EXPECT_EQ(decoded.seed, original.seed);
  EXPECT_EQ(decoded.ok, original.ok);
  EXPECT_EQ(decoded.failure, original.failure);
  EXPECT_EQ(decoded.sim_time_ps, original.sim_time_ps);
  EXPECT_EQ(decoded.events_processed, original.events_processed);
  EXPECT_EQ(decoded.slo, original.slo);
  EXPECT_EQ(decoded.health, original.health);
  EXPECT_EQ(decoded.fault_template, original.fault_template);
  EXPECT_EQ(decoded.wall_ns, original.wall_ns);
  EXPECT_EQ(decoded.attempts, original.attempts);
  EXPECT_EQ(decoded.resumed_from_seq, original.resumed_from_seq);
  // deterministic_equal() skips the kernel's wall-clock fields.
  EXPECT_EQ(decoded.kernel.snapshot.encode_wall_ns, original.kernel.snapshot.encode_wall_ns);
  EXPECT_EQ(decoded.kernel.snapshot.restore_wall_ns, original.kernel.snapshot.restore_wall_ns);
  EXPECT_EQ(decoded.kernel.snapshot.store_wall_ns, original.kernel.snapshot.store_wall_ns);
  EXPECT_TRUE(decoded.deterministic_equal(original));
}

TEST(HandoffCodec, DecodersRejectEveryTruncation) {
  const std::string result = encode_result(1, distinct_outcome());
  for (std::size_t length = 0; length < result.size(); ++length) {
    std::uint64_t index = 0;
    RigOutcome out;
    EXPECT_FALSE(decode_result(result.substr(0, length), index, out))
        << "truncated to " << length;
  }
  const std::string assign = encode_assign({Grant{1, 2, 3, 4}, Grant{5, 6, 7, 8}});
  for (std::size_t length = 0; length < assign.size(); ++length) {
    std::vector<Grant> grants;
    EXPECT_FALSE(decode_assign(assign.substr(0, length), grants));
  }
}

TEST(HandoffCodec, AssignRoundTrips) {
  const std::vector<Grant> grants = {Grant{9, 1009, 2, 3}, Grant{0, 1000, 0, 0}};
  std::vector<Grant> decoded;
  ASSERT_TRUE(decode_assign(encode_assign(grants), decoded));
  ASSERT_EQ(decoded.size(), 2u);
  EXPECT_EQ(decoded[0].index, 9u);
  EXPECT_EQ(decoded[0].seed, 1009u);
  EXPECT_EQ(decoded[0].attempt, 2u);
  EXPECT_EQ(decoded[0].fault_template, 3u);
  EXPECT_EQ(decoded[1].index, 0u);
}

TEST(HandoffCodec, CorruptCountIsRejectedWithoutAllocating) {
  // A count of 2^32 - 1 grants with no grant bytes behind it: a decoder
  // that sizes its vector from the count asks for ~100 GB and throws.
  std::vector<Grant> grants;
  EXPECT_FALSE(decode_assign(std::string("\xff\xff\xff\xff", 4), grants));
  // The same count followed by one whole grant fails at the second one.
  std::string one_grant = encode_assign({Grant{1, 2, 3, 4}});
  one_grant.replace(0, 4, "\xff\xff\xff\xff", 4);
  EXPECT_FALSE(decode_assign(one_grant, grants));
}

std::uint64_t fnv1a(std::string_view bytes) {
  std::uint64_t hash = 1469598103934665603ULL;
  for (const char c : bytes) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 1099511628211ULL;
  }
  return hash;
}

// Round trips cannot see a change that moves an encoder and its decoder
// together; pinned bytes can. Changing the result layout on purpose means
// bumping kResultVersion and re-pinning these values.
TEST(HandoffCodec, EncodingIsPinned) {
  const std::string result = encode_result(77, distinct_outcome());
  EXPECT_EQ(result.size(), 413u);
  EXPECT_EQ(fnv1a(result), 0x7e15ce1b7de3101cULL);
  const std::string assign = encode_assign({Grant{9, 1009, 2, 3}, Grant{0, 1000, 0, 0}});
  EXPECT_EQ(assign.size(), 52u);
  EXPECT_EQ(fnv1a(assign), 0xa9929404bd49ac30ULL);
  const std::string frames = encode_frame(FrameType::kHello, encode_hello(4242)) +
                             encode_frame(FrameType::kStartSeed, encode_start_seed(5, 1));
  EXPECT_EQ(frames.size(), 38u);
  EXPECT_EQ(fnv1a(frames), 0xe60cf9bc6a2e70a5ULL);
}

TEST(FrameReader, ReassemblesFramesFedByteByByte) {
  const std::string wire = encode_frame(FrameType::kStartSeed, encode_start_seed(5, 1)) +
                           encode_frame(FrameType::kHeartbeat, {}) +
                           encode_frame(FrameType::kResult, encode_result(5, distinct_outcome()));
  FrameReader reader;
  std::vector<Frame> frames;
  for (char byte : wire) {
    reader.feed(&byte, 1);
    Frame frame;
    while (reader.next(frame)) frames.push_back(frame);
  }
  ASSERT_EQ(frames.size(), 3u);
  EXPECT_EQ(frames[0].type, FrameType::kStartSeed);
  EXPECT_EQ(frames[1].type, FrameType::kHeartbeat);
  EXPECT_EQ(frames[2].type, FrameType::kResult);
  EXPECT_FALSE(reader.corrupt());
}

TEST(FrameReader, TruncatedTailIsPendingNotCorrupt) {
  const std::string wire = encode_frame(FrameType::kResult, encode_result(1, RigOutcome{}));
  FrameReader reader;
  reader.feed(wire.data(), wire.size() - 1);  // Worker killed mid-write.
  Frame frame;
  EXPECT_FALSE(reader.next(frame));
  EXPECT_FALSE(reader.corrupt());
  reader.feed(wire.data() + wire.size() - 1, 1);
  EXPECT_TRUE(reader.next(frame));
  EXPECT_EQ(frame.type, FrameType::kResult);
}

TEST(FrameReader, BadMagicLatchesCorrupt) {
  FrameReader reader;
  const char garbage[] = "not a frame at all, definitely";
  reader.feed(garbage, sizeof garbage);
  Frame frame;
  EXPECT_FALSE(reader.next(frame));
  EXPECT_TRUE(reader.corrupt());
  // Feeding a valid frame afterwards cannot un-corrupt the stream.
  const std::string wire = encode_frame(FrameType::kHeartbeat, {});
  reader.feed(wire.data(), wire.size());
  EXPECT_FALSE(reader.next(frame));
  EXPECT_TRUE(reader.corrupt());
}

// --- HandoffLedger -------------------------------------------------------------

TEST(HandoffLedger, ClaimsFreshSeedsInIndexOrder) {
  HandoffLedger ledger(5, 3);
  const std::vector<std::uint64_t> first = ledger.claim(0, 2);
  ASSERT_EQ(first, (std::vector<std::uint64_t>{0, 1}));
  const std::vector<std::uint64_t> second = ledger.claim(1, 10);
  ASSERT_EQ(second, (std::vector<std::uint64_t>{2, 3, 4}));
  EXPECT_TRUE(ledger.drained());
  EXPECT_FALSE(ledger.settled());
  EXPECT_TRUE(ledger.claim(0, 1).empty());
}

TEST(HandoffLedger, AcceptsEachOutcomeAtMostOnce) {
  HandoffLedger ledger(2, 3);
  (void)ledger.claim(0, 2);
  ASSERT_TRUE(ledger.start(0, 0));
  EXPECT_TRUE(ledger.accept(0, 0));
  EXPECT_FALSE(ledger.accept(0, 0)) << "duplicate result must be dropped";
  EXPECT_FALSE(ledger.accept(1, 1)) << "result from a worker that holds no grant";
  EXPECT_TRUE(ledger.accept(0, 1)) << "assigned-but-not-started still accepts once";
  EXPECT_TRUE(ledger.settled());
  EXPECT_EQ(ledger.done(), 2u);
}

TEST(HandoffLedger, DeathRequeuesUnfinishedGrantsAndChargesInFlight) {
  HandoffLedger ledger(3, 3);
  (void)ledger.claim(0, 3);
  ASSERT_TRUE(ledger.start(0, 0));
  ASSERT_TRUE(ledger.accept(0, 0));
  ASSERT_TRUE(ledger.start(0, 1));  // In flight when the worker dies.
  const HandoffLedger::DeathReport report = ledger.on_worker_death(0);
  EXPECT_TRUE(report.poisoned.empty());
  ASSERT_EQ(report.requeued.size(), 2u);
  EXPECT_EQ(ledger.kills(1), 1u) << "in-flight seed charged with the kill";
  EXPECT_EQ(ledger.kills(2), 0u) << "assigned-not-started seed not blamed";
  // The requeued seeds go to the next claimer, in-flight first, with a
  // bumped attempt.
  const std::vector<std::uint64_t> reclaimed = ledger.claim(1, 10);
  ASSERT_EQ(reclaimed.size(), 2u);
  EXPECT_EQ(reclaimed[0], 1u);
  EXPECT_EQ(ledger.attempt(1), 1u);
  EXPECT_EQ(ledger.redispatches(), 2u);
  // A late result from the dead worker is rejected.
  EXPECT_FALSE(ledger.accept(0, 1));
  EXPECT_TRUE(ledger.accept(1, 1));
  EXPECT_TRUE(ledger.accept(1, 2));
  EXPECT_TRUE(ledger.settled());
}

TEST(HandoffLedger, QuarantinesSeedAfterThresholdKills) {
  HandoffLedger ledger(1, 2);
  for (unsigned round = 0; round < 2; ++round) {
    const std::vector<std::uint64_t> claimed = ledger.claim(round, 1);
    ASSERT_EQ(claimed.size(), 1u);
    ASSERT_TRUE(ledger.start(round, 0));
    const HandoffLedger::DeathReport report = ledger.on_worker_death(round);
    if (round == 0) {
      ASSERT_EQ(report.requeued.size(), 1u);
      EXPECT_TRUE(report.poisoned.empty());
    } else {
      EXPECT_TRUE(report.requeued.empty());
      ASSERT_EQ(report.poisoned.size(), 1u);
      EXPECT_EQ(report.poisoned[0], 0u);
    }
  }
  EXPECT_EQ(ledger.state(0), HandoffLedger::SeedState::kPoisoned);
  EXPECT_TRUE(ledger.settled());
  EXPECT_EQ(ledger.poisoned(), 1u);
  // Even a raced result for a poisoned seed is dropped.
  EXPECT_FALSE(ledger.accept(1, 0));
}

// --- Worker-death matrix (real forked workers) ---------------------------------

FleetConfig process_config(unsigned jobs) {
  FleetConfig config;
  config.jobs = jobs;
  config.isolation = Isolation::kProcess;
  config.chunk = 1;
  config.heartbeat_interval_ms = 25;
  config.heartbeat_deadline_ms = 2000;
  config.seed_timeout_ms = 60000;
  return config;
}

TEST(ProcPool, SigkillMidSeedRedispatchesAndCompletes) {
  FleetDriver driver(process_config(2));
  const std::vector<RigOutcome> outcomes =
      driver.run_range(0, 8, [](const RigJob& job) {
        if (job.seed == 3 && job.attempt == 0) ::kill(::getpid(), SIGKILL);
        return run_mini_rig(job);
      });
  ASSERT_EQ(outcomes.size(), 8u);
  for (const RigOutcome& outcome : outcomes) {
    EXPECT_TRUE(outcome.ok) << "seed " << outcome.seed << ": " << outcome.failure;
  }
  EXPECT_GE(outcomes[3].attempts, 2u) << "killed seed must have been re-dispatched";
  EXPECT_GE(driver.stats().pool.deaths, 1u);
  // No respawn assertion: the surviving worker may finish the re-dispatched
  // seed before the respawn backoff elapses, which is correct behavior.
  EXPECT_GE(driver.stats().pool.redispatches, 1u);
  EXPECT_EQ(driver.stats().pool.poisoned, 0u);
}

TEST(ProcPool, NonzeroExitIsADeathNotALostResult) {
  FleetDriver driver(process_config(2));
  const std::vector<RigOutcome> outcomes =
      driver.run_range(0, 6, [](const RigJob& job) {
        if (job.seed == 1 && job.attempt == 0) ::_exit(3);
        return run_mini_rig(job);
      });
  for (const RigOutcome& outcome : outcomes) {
    EXPECT_TRUE(outcome.ok) << "seed " << outcome.seed << ": " << outcome.failure;
  }
  EXPECT_GE(outcomes[1].attempts, 2u);
  EXPECT_GE(driver.stats().pool.deaths, 1u);
}

TEST(ProcPool, HeartbeatSilenceIsDetectedAndKilled) {
  FleetConfig config = process_config(2);
  config.heartbeat_interval_ms = 20;
  config.heartbeat_deadline_ms = 250;
  FleetDriver driver(config);
  const std::vector<RigOutcome> outcomes =
      driver.run_range(0, 4, [](const RigJob& job) {
        // SIGSTOP freezes every thread including the heartbeat: the worker
        // is alive but silent, which must read as dead.
        if (job.seed == 2 && job.attempt == 0) ::kill(::getpid(), SIGSTOP);
        return run_mini_rig(job);
      });
  for (const RigOutcome& outcome : outcomes) {
    EXPECT_TRUE(outcome.ok) << "seed " << outcome.seed << ": " << outcome.failure;
  }
  EXPECT_GE(driver.stats().pool.heartbeat_kills, 1u);
  EXPECT_GE(outcomes[2].attempts, 2u);
}

TEST(ProcPool, SeedWatchdogKillsHungRigDespiteHeartbeats) {
  FleetConfig config = process_config(2);
  config.seed_timeout_ms = 300;
  FleetDriver driver(config);
  const std::vector<RigOutcome> outcomes =
      driver.run_range(0, 4, [](const RigJob& job) {
        // The heartbeat thread keeps beating: only the per-seed watchdog
        // can catch this hang.
        if (job.seed == 1 && job.attempt == 0) {
          std::this_thread::sleep_for(std::chrono::seconds(30));
        }
        return run_mini_rig(job);
      });
  for (const RigOutcome& outcome : outcomes) {
    EXPECT_TRUE(outcome.ok) << "seed " << outcome.seed << ": " << outcome.failure;
  }
  EXPECT_GE(driver.stats().pool.seed_timeout_kills, 1u);
  EXPECT_GE(outcomes[1].attempts, 2u);
}

TEST(ProcPool, SeedThatAlwaysKillsItsWorkerIsQuarantined) {
  FleetConfig config = process_config(2);
  config.quarantine_threshold = 2;
  FleetDriver driver(config);
  const std::vector<RigOutcome> outcomes =
      driver.run_range(0, 6, [](const RigJob& job) {
        if (job.seed == 4) ::kill(::getpid(), SIGKILL);  // Every attempt.
        return run_mini_rig(job);
      });
  ASSERT_EQ(outcomes.size(), 6u);
  for (const RigOutcome& outcome : outcomes) {
    if (outcome.seed == 4) continue;
    EXPECT_TRUE(outcome.ok) << "seed " << outcome.seed << ": " << outcome.failure;
  }
  EXPECT_FALSE(outcomes[4].ok);
  EXPECT_EQ(outcomes[4].slo.seeds_poisoned, 1u);
  EXPECT_NE(outcomes[4].failure.find("quarantined"), std::string::npos)
      << outcomes[4].failure;
  EXPECT_EQ(driver.stats().pool.poisoned, 1u);
  const FleetReport report = FleetReport::aggregate(outcomes);
  ASSERT_EQ(report.poisoned_seeds.size(), 1u);
  EXPECT_EQ(report.poisoned_seeds[0], 4u);
  EXPECT_EQ(report.slo.seeds_poisoned, 1u);
  // The quarantine is visible in the fingerprint, so a poisoned fleet can
  // never silently compare equal to a healthy one.
  EXPECT_NE(report.fingerprint().find("poisoned-seeds=4,"), std::string::npos);
}

TEST(ProcPool, ChaosKilledFleetMatchesInProcessRunBitExactly) {
  // The acceptance gate in miniature: a process fleet with supervisor-
  // injected kills must produce outcomes deterministic_equal to a jobs=1
  // in-process run, and an identical report fingerprint.
  // The dwell keeps workers mid-seed long enough for the supervisor's
  // best-effort chaos triggers to find a busy victim; it cannot leak into
  // the outcome (only wall_ns, which determinism checks exclude).
  const auto dwelling_rig = [](const RigJob& job) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    return run_mini_rig(job);
  };
  FleetConfig baseline;
  baseline.jobs = 1;
  FleetDriver inproc(baseline);
  const std::vector<RigOutcome> reference = inproc.run_range(500, 24, dwelling_rig);

  FleetConfig config = process_config(3);
  config.chaos_kill_workers = 2;
  FleetDriver driver(config);
  const std::vector<RigOutcome> outcomes = driver.run_range(500, 24, dwelling_rig);

  ASSERT_EQ(outcomes.size(), reference.size());
  // Parity only holds while no seed is poisoned: a quarantined seed gets a
  // synthesized outcome (and a poisoned-seeds fingerprint line) that the
  // in-process run cannot produce. With the generous quarantine threshold
  // here this is a precondition check, not an expected outcome.
  ASSERT_EQ(driver.stats().pool.poisoned, 0u)
      << "kill schedule poisoned a seed; fingerprint parity is undefined";
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    EXPECT_TRUE(outcomes[i].deterministic_equal(reference[i]))
        << "seed " << reference[i].seed << " diverged across isolation modes";
  }
  EXPECT_EQ(FleetReport::aggregate(outcomes).fingerprint(),
            FleetReport::aggregate(reference).fingerprint());
  EXPECT_GE(driver.stats().pool.chaos_kills, 1u);
  EXPECT_GE(driver.stats().pool.redispatches, 1u);
}

TEST(ProcPool, DegradedPoolFinishesOrphanedGrantsInline) {
  // min_workers=2 with a zero respawn budget: the first worker death drops
  // usable slots to 1 and the pool must degrade to the inline fallback.
  // The surviving worker is still alive and holding grants at that moment —
  // the pool has to settle it (drain raced results, requeue its assigned
  // and in-flight seeds) before going inline, or those seeds' outcomes are
  // silently lost as default-constructed slots.
  FleetConfig config = process_config(2);
  config.min_workers = 2;
  config.max_respawns = 0;
  config.chunk = 4;  // Multi-grant chunks: the survivor always holds work.
  FleetDriver driver(config);
  const auto rig = [](const RigJob& job) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    // Worker 0 claims the first chunk [700..703] and dies on its third
    // seed; by then the survivor has moved on to the chunk holding 708,
    // whose long first-attempt dwell pins it mid-seed (with the rest of
    // its chunk assigned-not-started) when the pool degrades.
    if (job.seed == 702 && job.attempt == 0) ::kill(::getpid(), SIGKILL);
    if (job.seed == 708 && job.attempt == 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(200));
    }
    return run_mini_rig(job);
  };
  const std::vector<RigOutcome> outcomes = driver.run_range(700, 16, rig);
  ASSERT_EQ(outcomes.size(), 16u);
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    EXPECT_EQ(outcomes[i].seed, 700u + i) << "slot " << i << " lost its outcome";
    EXPECT_TRUE(outcomes[i].ok)
        << "seed " << outcomes[i].seed << ": " << outcomes[i].failure;
  }
  EXPECT_TRUE(driver.stats().pool.degraded_to_inline);
  EXPECT_GE(driver.stats().pool.inline_fallback_rigs, 1u);
  EXPECT_EQ(driver.stats().pool.poisoned, 0u);

  // And the degraded run still matches the in-process reference bit-exactly.
  FleetConfig baseline;
  baseline.jobs = 1;
  FleetDriver inproc(baseline);
  const std::vector<RigOutcome> reference =
      inproc.run_range(700, 16, [](const RigJob& job) { return run_mini_rig(job); });
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    EXPECT_TRUE(outcomes[i].deterministic_equal(reference[i]))
        << "seed " << reference[i].seed << " diverged after inline fallback";
  }
  EXPECT_EQ(FleetReport::aggregate(outcomes).fingerprint(),
            FleetReport::aggregate(reference).fingerprint());
}

TEST(ProcPool, TemplateSweepAssignsByIndexInBothIsolationModes) {
  FleetConfig thread_config;
  thread_config.jobs = 2;
  thread_config.fault_templates = 3;
  FleetDriver threads(thread_config);
  const std::vector<RigOutcome> thread_outcomes =
      threads.run_range(0, 9, run_mini_rig);

  FleetConfig proc = process_config(2);
  proc.fault_templates = 3;
  FleetDriver processes(proc);
  const std::vector<RigOutcome> process_outcomes =
      processes.run_range(0, 9, run_mini_rig);

  for (std::size_t i = 0; i < 9; ++i) {
    EXPECT_EQ(thread_outcomes[i].fault_template, i % 3);
    EXPECT_EQ(process_outcomes[i].fault_template, i % 3);
  }
  const FleetReport report = FleetReport::aggregate(thread_outcomes);
  ASSERT_EQ(report.templates.size(), 3u);
  for (const FleetReport::TemplateRollup& slice : report.templates) {
    EXPECT_EQ(slice.rigs, 3u);
  }
  EXPECT_EQ(report.fingerprint(),
            FleetReport::aggregate(process_outcomes).fingerprint());
}

// --- CheckpointStore concurrent-worker hygiene ---------------------------------

class TempDir {
 public:
  TempDir() {
    root_ = std::filesystem::temp_directory_path() /
            ("procpool-store-" + std::to_string(::getpid()) + "-" +
             std::to_string(counter_++));
    std::filesystem::create_directories(root_);
  }
  ~TempDir() {
    std::error_code ec;
    std::filesystem::remove_all(root_, ec);
  }
  [[nodiscard]] const std::filesystem::path& path() const { return root_; }

 private:
  static inline int counter_ = 0;
  std::filesystem::path root_;
};

TEST(CheckpointStoreProcess, TmpFilesArePidScoped) {
  TempDir dir;
  sim::Kernel kernel;
  replay::SnapshotTargets targets;
  targets.kernel = &kernel;
  replay::CheckpointStoreConfig config;
  config.directory = dir.path();
  config.prefix = "pool";
  replay::CheckpointStore store(config);
  // A drop-rate-1 plan models a crash before the rename on every write:
  // the tmp file is written but never lands.
  sim::FaultPlan plan(7);
  sim::FaultPlan::SiteConfig site;
  site.drop_rate = 1.0;
  plan.configure(sim::FaultSite::kCheckpoint, site);
  store.install_fault_plan(&plan);
  replay::CheckpointStore::WriteResult result;
  support::DiagnosticSink sink;
  ASSERT_TRUE(store.checkpoint(targets, result, sink)) << sink.str();
  EXPECT_TRUE(result.lost);
  const std::string marker = "." + std::to_string(::getpid()) + ".tmp";
  bool found = false;
  for (const auto& entry : std::filesystem::directory_iterator(dir.path())) {
    const std::string name = entry.path().filename().string();
    if (name.size() > marker.size() &&
        name.compare(name.size() - marker.size(), marker.size(), marker) == 0) {
      found = true;
    }
  }
  EXPECT_TRUE(found) << "stray tmp must carry the writer pid in its name";
}

TEST(CheckpointStoreProcess, OpenSweepsStrayTmpsButNotForeignFiles) {
  TempDir dir;
  // 999999999 exceeds the Linux pid_max ceiling, so the embedded writer pid
  // is guaranteed dead and the tmp reads as a stray.
  const std::filesystem::path stray = dir.path() / "pool-00000001.usnap.999999999.tmp";
  const std::filesystem::path legacy = dir.path() / "pool-00000002.usnap.tmp";
  const std::filesystem::path foreign = dir.path() / "other-00000001.usnap.tmp";
  std::ofstream(stray) << "half a checkpoint";
  std::ofstream(legacy) << "older tmp convention";
  std::ofstream(foreign) << "someone else's prefix";
  replay::CheckpointStoreConfig config;
  config.directory = dir.path();
  config.prefix = "pool";
  replay::CheckpointStore store(config);
  EXPECT_FALSE(std::filesystem::exists(stray));
  EXPECT_FALSE(std::filesystem::exists(legacy));
  EXPECT_TRUE(std::filesystem::exists(foreign))
      << "a different prefix belongs to a different store";
  EXPECT_EQ(store.stats().tmp_swept, 2u);
}

TEST(CheckpointStoreProcess, SweepSparesLiveWritersInFlightTmp) {
  // The sweep must not race a still-running concurrent writer: a tmp whose
  // embedded pid is alive is an in-flight checkpoint, and deleting it would
  // fail that writer's rename — the exact predecessor-teardown race the
  // pid-scoped tmp names were introduced to tolerate. Our own pid stands in
  // for the live sibling.
  TempDir dir;
  const std::filesystem::path inflight =
      dir.path() /
      ("pool-00000001.usnap." + std::to_string(::getpid()) + ".tmp");
  const std::filesystem::path orphaned = dir.path() / "pool-00000002.usnap.999999999.tmp";
  std::ofstream(inflight) << "concurrent writer, mid-checkpoint";
  std::ofstream(orphaned) << "writer long dead";
  replay::CheckpointStoreConfig config;
  config.directory = dir.path();
  config.prefix = "pool";
  replay::CheckpointStore store(config);
  EXPECT_TRUE(std::filesystem::exists(inflight))
      << "a live writer's in-flight tmp must survive the sweep";
  EXPECT_FALSE(std::filesystem::exists(orphaned));
  EXPECT_EQ(store.stats().tmp_swept, 1u);
}

TEST(CheckpointStoreProcess, SweptDirectoryStillRestores) {
  TempDir dir;
  sim::Kernel kernel;
  replay::SnapshotTargets targets;
  targets.kernel = &kernel;
  replay::CheckpointStoreConfig config;
  config.directory = dir.path();
  config.prefix = "pool";
  support::DiagnosticSink sink;
  {
    replay::CheckpointStore writer(config);
    replay::CheckpointStore::WriteResult result;
    ASSERT_TRUE(writer.checkpoint(targets, result, sink)) << sink.str();
    // Simulate a successor's in-flight write that died mid-stream.
    std::ofstream(dir.path() / "pool-00000002.usnap.999999999.tmp") << "torn";
  }
  replay::CheckpointStore reader(config);
  EXPECT_EQ(reader.stats().tmp_swept, 1u);
  EXPECT_EQ(reader.newest_on_disk(), 1u);
  sim::Kernel fresh;
  replay::SnapshotTargets restore_targets;
  restore_targets.kernel = &fresh;
  support::DiagnosticSink restore_sink;
  EXPECT_TRUE(reader.restore_latest_good(restore_targets, restore_sink))
      << restore_sink.str();
  EXPECT_EQ(reader.stats().restored_seq, 1u);
}

}  // namespace
}  // namespace umlsoc::fleet
