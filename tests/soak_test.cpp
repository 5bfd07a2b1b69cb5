// Chaos soak library (src/soak): the real UART rig's legs per seed and the
// fleet run over them. A seed must pass every leg, produce the same
// deterministic outcome when run again and clean its scratch up; its twins
// replay without writing; a re-dispatched seed resumes from the handoff
// rung its predecessor left; a fleet run must give the same fingerprint at
// any job count, with fault templates assigned by rig index.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include "fleet/report.hpp"
#include "sim/fault.hpp"
#include "soak/soak.hpp"
#include "support/checksum.hpp"

namespace umlsoc::soak {
namespace {

/// A scratch directory under the system temp dir, removed on destruction.
/// The pid and a counter keep concurrently running test processes and
/// cases apart.
class TempDir {
 public:
  TempDir() {
    root_ = std::filesystem::temp_directory_path() /
            ("soak-test-" + std::to_string(::getpid()) + "-" + std::to_string(counter_++));
    std::filesystem::create_directories(root_);
  }
  ~TempDir() {
    std::error_code ec;
    std::filesystem::remove_all(root_, ec);
  }
  TempDir(const TempDir&) = delete;
  TempDir& operator=(const TempDir&) = delete;
  [[nodiscard]] const std::filesystem::path& path() const { return root_; }

 private:
  static inline int counter_ = 0;
  std::filesystem::path root_;
};

TEST(Soak, SeedPassesEveryLegTwiceIdenticallyAndRemovesItsScratch) {
  Model model;
  support::DiagnosticSink sink;
  ASSERT_TRUE(model.build(sink)) << sink.str();
  TempDir scratch;
  for (std::uint64_t seed = 1000; seed <= 1002; ++seed) {
    fleet::RigJob job;
    job.seed = seed;
    const fleet::RigOutcome first = run_seed(model, job, scratch.path());
    const fleet::RigOutcome second = run_seed(model, job, scratch.path());
    EXPECT_TRUE(first.ok) << "seed " << seed << ": " << first.failure;
    EXPECT_TRUE(second.ok) << "seed " << seed << ": " << second.failure;
    EXPECT_TRUE(first.deterministic_equal(second)) << "seed " << seed;
    EXPECT_FALSE(std::filesystem::exists(scratch.path() / ("seed-" + std::to_string(seed))));
  }
}

// Twins restore and replay; they write nothing. So every snapshot a seed
// encodes is a rung of the reference's or the victim's ladder, or one of
// the reference's three captures: the standalone snapshot and the two
// handoff rungs.
TEST(Soak, TwinsReplayWithoutWriting) {
  Model model;
  support::DiagnosticSink sink;
  ASSERT_TRUE(model.build(sink)) << sink.str();
  TempDir artifacts;
  fleet::FleetConfig config;
  config.jobs = 1;
  fleet::FleetDriver driver(config);
  const fleet::FleetReport report =
      fleet::FleetReport::aggregate(run_fleet(model, driver, 1000, 8, artifacts.path()));
  ASSERT_EQ(report.rigs_ok, 8u);
  EXPECT_EQ(report.kernel.snapshot.encodes,
            report.slo.checkpoints_written + 3 * report.rigs_total);
}

// A seed re-dispatched after its worker died resumes from the handoff rung
// the dead worker left in `seed-N/handoff`. The predecessor is built the
// way the soak builds every rig, so its rung restores into the soak's. It
// was killed while appending its save-point rung after its t=0 base (a
// plan that tears every write cuts that rung short, as the kill would), so
// the successor resumes from the base, seq 1.
TEST(Soak, RedispatchedSeedResumesFromItsPredecessorsHandoffRung) {
  Model model;
  support::DiagnosticSink sink;
  ASSERT_TRUE(model.build(sink)) << sink.str();
  TempDir scratch;
  fleet::RigJob job;
  job.seed = 1000;
  const fleet::RigOutcome fresh = run_seed(model, job, scratch.path());
  ASSERT_TRUE(fresh.ok) << fresh.failure;
  EXPECT_EQ(fresh.resumed_from_seq, 0u);

  replay::CheckpointStoreConfig handoff;
  handoff.directory = scratch.path() / "seed-1000" / "handoff";
  handoff.prefix = "handoff";
  handoff.full_interval = 2;
  {
    DegradedRig predecessor(model, kSoakTemplates[0], job.seed, sink, handoff);
    predecessor.start();
    replay::CheckpointStore::WriteResult written;
    ASSERT_TRUE(predecessor.store.checkpoint(predecessor.targets(), written, sink))
        << sink.str();
    const std::uintmax_t base_bytes = written.bytes;
    sim::FaultPlan kill(job.seed);
    sim::FaultPlan::SiteConfig mid_write;
    mid_write.error_rate = 1.0;
    kill.configure(sim::FaultSite::kCheckpoint, mid_write);
    predecessor.store.install_fault_plan(&kill);
    ASSERT_TRUE(predecessor.store.checkpoint(predecessor.targets(), written, sink))
        << sink.str();
    ASSERT_TRUE(written.torn);
    ASSERT_TRUE(written.delta) << "the save point is appended to the base's chain";
    ASSERT_GT(std::filesystem::file_size(written.path), base_bytes);
  }

  job.attempt = 1;
  const fleet::RigOutcome resumed = run_seed(model, job, scratch.path());
  EXPECT_TRUE(resumed.ok) << resumed.failure;
  EXPECT_EQ(resumed.resumed_from_seq, 1u);
  EXPECT_TRUE(resumed.deterministic_equal(fresh));
  EXPECT_TRUE(std::filesystem::is_empty(scratch.path()));
}

TEST(Soak, FleetSweepsTemplatesByIndexAndMatchesAcrossJobCounts) {
  Model model;
  support::DiagnosticSink sink;
  ASSERT_TRUE(model.build(sink)) << sink.str();
  TempDir artifacts;
  std::vector<std::string> fingerprints;
  for (unsigned jobs : {1u, 3u}) {
    fleet::FleetConfig config;
    config.jobs = jobs;
    config.fault_templates = 3;
    fleet::FleetDriver driver(config);
    const std::vector<fleet::RigOutcome> outcomes =
        run_fleet(model, driver, 1000, 6, artifacts.path());
    const fleet::FleetReport report = fleet::FleetReport::aggregate(outcomes);
    EXPECT_EQ(report.rigs_ok, 6u) << "jobs=" << jobs;
    ASSERT_EQ(report.templates.size(), 3u);
    for (const fleet::FleetReport::TemplateRollup& slice : report.templates) {
      EXPECT_EQ(slice.rigs, 2u);
    }
    fingerprints.push_back(report.fingerprint());
  }
  EXPECT_EQ(fingerprints[0], fingerprints[1]);
  // Only a failing seed leaves forensics behind.
  EXPECT_TRUE(std::filesystem::is_empty(artifacts.path()));
}

// Pins what the soak decides: every counter the fleet fingerprint covers,
// rung bytes included, over eight seeds and all four fault templates. A
// change that moves this value on purpose re-pins it and says in
// CHANGES.md why it moved; any other change must leave it alone. Every
// seed's script must also have taken the breaker, the watchdog and the
// supervisor through a failure, with every error event it raised handled.
TEST(Soak, FingerprintIsPinned) {
  Model model;
  support::DiagnosticSink sink;
  ASSERT_TRUE(model.build(sink)) << sink.str();
  TempDir artifacts;
  fleet::FleetConfig config;
  config.jobs = 1;
  config.isolation = fleet::Isolation::kThread;
  config.fault_templates = 4;
  fleet::FleetDriver driver(config);
  const std::vector<fleet::RigOutcome> outcomes =
      run_fleet(model, driver, 1000, 8, artifacts.path());
  for (const fleet::RigOutcome& outcome : outcomes) {
    EXPECT_TRUE(outcome.ok) << "seed " << outcome.seed << ": " << outcome.failure;
    EXPECT_GE(outcome.slo.breaker_opens, 1u) << "seed " << outcome.seed;
    EXPECT_GE(outcome.slo.breaker_closes, 1u) << "seed " << outcome.seed;
    EXPECT_GE(outcome.slo.watchdog_trips, 1u) << "seed " << outcome.seed;
    EXPECT_GE(outcome.slo.restarts, 1u) << "seed " << outcome.seed;
    EXPECT_GE(outcome.slo.errors_raised, 1u) << "seed " << outcome.seed;
    EXPECT_EQ(outcome.slo.errors_unhandled, 0u) << "seed " << outcome.seed;
  }
  const fleet::FleetReport report = fleet::FleetReport::aggregate(outcomes);
  EXPECT_EQ(report.rigs_ok, 8u);
  EXPECT_EQ(support::xxh64(report.fingerprint()), 0xb9ee8cb31fc0dba7ULL);
}

}  // namespace
}  // namespace umlsoc::soak
