// Span tracing and shared plumbing for the umlsoc end-to-end benchmark.
//
// Spans are recorded only from the benchmark's own code, around the calls it
// makes into each library layer. With tracing off (the timed runs) a Span
// costs one null check; with tracing on it appends {name, start, end,
// parent, unit} to an in-memory vector that is written out at exit. A
// layer's self time is its span's duration minus the durations of its
// direct children (spans nest strictly: they are scoped objects on one
// thread).
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

[[nodiscard]] inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                        std::chrono::steady_clock::now().time_since_epoch())
                                        .count());
}

/// SplitMix64 finalizer: derives independent per-unit inputs from the
/// workload seed.
[[nodiscard]] inline std::uint64_t mix(std::uint64_t a, std::uint64_t b = 0) {
  std::uint64_t z = a * 0x9E3779B97F4A7C15ULL + b + 0x632BE59BD9B4E019ULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

class Trace {
 public:
  struct Record {
    const char* name;
    std::uint64_t start_ns;
    std::uint64_t end_ns;
    std::int64_t parent;  ///< Index of the enclosing span, -1 at the root.
    std::int64_t unit;    ///< Unit id; -1 for set-up spans.
  };

  struct Aggregate {
    std::uint64_t self_ns = 0;
    std::uint64_t total_ns = 0;
    std::uint64_t count = 0;
  };

  /// The trace spans report to; null while tracing is off.
  static Trace* active;

  void set_unit(std::int64_t unit) { unit_ = unit; }

  std::int64_t open(const char* name) {
    records_.push_back(Record{name, now_ns(), 0, current_, unit_});
    current_ = static_cast<std::int64_t>(records_.size()) - 1;
    return current_;
  }
  void close(std::int64_t index) {
    Record& record = records_[static_cast<std::size_t>(index)];
    record.end_ns = now_ns();
    current_ = record.parent;
  }

  [[nodiscard]] std::size_t size() const { return records_.size(); }

  /// Per-name self and total time over every recorded span.
  [[nodiscard]] std::map<std::string, Aggregate> aggregate() const;

  /// Writes the spans as Chrome trace-event JSON (opens in Perfetto).
  bool write_json(const std::string& path) const;

 private:
  std::vector<Record> records_;
  std::int64_t current_ = -1;
  std::int64_t unit_ = -1;
};

/// Scoped span; a null check when tracing is off.
class Span {
 public:
  explicit Span(const char* name) {
    if (Trace::active != nullptr) index_ = Trace::active->open(name);
  }
  ~Span() {
    if (index_ >= 0) Trace::active->close(index_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  std::int64_t index_ = -1;
};

/// One completed unit of a block.
struct UnitSample {
  std::uint64_t wall_ns = 0;
  bool ok = false;
  double work = 0;  ///< Workload-specific work items (events, states, lines).
};

/// Tags the spans that follow with a unit id (no-op while tracing is off).
inline void trace_unit(std::uint64_t unit) {
  if (Trace::active != nullptr) Trace::active->set_unit(static_cast<std::int64_t>(unit));
}

/// A benchmark workload. Its inputs are a fixed pool of units derived from
/// the seed; one block runs every unit of the pool once, in order, so
/// every block does identical work. set_up() builds the shared inputs and
/// may be called several times (each call replaces the previous inputs).
class Workload {
 public:
  virtual ~Workload() = default;

  /// Name of what `UnitSample::work` counts, for the human-readable report.
  [[nodiscard]] virtual const char* work_name() const = 0;

  virtual bool set_up(std::string& problem) = 0;

  /// Runs one block, appending one sample per unit. Returns false (with
  /// `problem`) when a block-level oracle fails, such as a block whose
  /// deterministic result differs from the first block's.
  virtual bool run_block(std::vector<UnitSample>& out, std::string& problem) = 0;

  /// Per-layer counts per unit, filled by the first block. They are
  /// simulation-deterministic and repeat exactly for a given seed.
  std::map<std::string, double> counts;

  /// Host-time accumulators the traced run reports per unit (nanoseconds),
  /// reset before the traced phase.
  std::map<std::string, double> wall;

  /// First unit oracle failure, for the report.
  std::string first_failure;
};

}  // namespace perfbench
