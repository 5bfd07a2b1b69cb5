// Chaos soak library (src/soak): the real UART rig's legs per seed and the
// fleet run over them. A seed must pass every leg, produce the same
// deterministic outcome when run again and clean its scratch up; a fleet
// run must give the same fingerprint at any job count, with fault
// templates assigned by rig index.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include "fleet/report.hpp"
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
// CHANGES.md why it moved; any other change must leave it alone.
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
  }
  const fleet::FleetReport report = fleet::FleetReport::aggregate(outcomes);
  EXPECT_EQ(report.rigs_ok, 8u);
  EXPECT_EQ(support::xxh64(report.fingerprint()), 0x28d9943ac5114472ULL);
}

}  // namespace
}  // namespace umlsoc::soak
