// umlsoc end-to-end benchmark driver.
//
//   umlsoc_perfbench --workload soak|verify|compile|timetravel --seed N
//                    --seconds S --trace 0|1 --scratch DIR [--trace-out FILE]
//
// One run: set the workload up repeatedly (setup_s is the median), run one
// untimed block (warm-up, deterministic per-layer counts, and the reference
// for block-level oracles), then run blocks for S seconds of host time. A
// block runs the workload's whole seed-derived pool of units once, so every
// block does identical work. Each unit's time is its fastest over the
// blocks, and throughput divides a block's units by the sum of those
// times, which keeps the slow stretches of a shared host from moving the
// result. Every unit checks its
// own oracle. The last stdout line is one JSON object: end-to-end metrics
// with --trace 0, per-layer metrics with --trace 1. A traced run spends its
// first half untraced, which gives the tracing overhead, and records spans
// only in its second half.
#include <sys/resource.h>
#include <sys/vfs.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "trace.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;

/// setup_s is the median over at least kMinSetUps set-ups, repeated until
/// kSetUpBudgetS of set-up time has passed (at most kMaxSetUps): tiny
/// set-ups get many samples, large ones few. The budget spans more than
/// one of a shared host's slow stretches, so no single one sets the median.
constexpr std::size_t kMinSetUps = 5;
constexpr std::size_t kMaxSetUps = 100'001;
constexpr double kSetUpBudgetS = 1.0;
constexpr long kTmpfsMagic = 0x01021994;
constexpr std::size_t kMaxSpans = 300'000;

struct Metric {
  const char* name;
  const char* unit;
};

/// The per-layer metrics of a traced run, in output order. `_ns` values are
/// self time per unit of the traced blocks; counts are per unit of the first
/// block and repeat exactly for a given seed.
constexpr Metric kLayerMetrics[] = {
    {"sim.run_self_ns", "ns"},
    {"sim.events", "count"},
    {"sim.timed_peak", "count"},
    {"sim.heap_hits", "count"},
    {"sim.bus_write_ns", "ns"},
    {"sim.bus_transactions", "count"},
    {"sim.timeouts", "count"},
    {"sim.retries", "count"},
    {"sim.restart_ns", "ns"},
    {"sim.breaker_opens", "count"},
    {"sim.restarts", "count"},
    {"sim.watchdog_trips", "count"},
    {"statechart.dispatch_ns", "ns"},
    {"statechart.dispatches", "count"},
    {"statechart.compile_ns", "ns"},
    {"statechart.fallback_machines", "count"},
    {"replay.checkpoint_ns", "ns"},
    {"replay.encode_ns", "ns"},
    {"replay.store_io_ns", "ns"},
    {"replay.encodes", "count"},
    {"replay.bytes_written", "bytes"},
    {"replay.dirty_ratio", "ratio"},
    {"replay.save_ns", "ns"},
    {"replay.restore_ns", "ns"},
    {"replay.restores", "count"},
    {"replay.quarantines", "count"},
    {"replay.verify_replay_ns", "ns"},
    {"replay.root_cause_ns", "ns"},
    {"replay.probes", "count"},
    {"replay.ckpt_share", "ratio"},
    {"replay.scratch_tmpfs", "flag"},
    {"verify.explore_ns", "ns"},
    {"verify.states", "count"},
    {"verify.transitions", "count"},
    {"verify.revisit_ratio", "ratio"},
    {"verify.bytes_used", "bytes"},
    {"verify.peak_frontier", "count"},
    {"fleet.dispatch_ns_per_rig", "ns"},
    {"xmi.write_ns", "ns"},
    {"xmi.read_ns", "ns"},
    {"xmi.bytes", "bytes"},
    {"uml.validate_ns", "ns"},
    {"mda.transform_ns", "ns"},
    {"mda.links", "count"},
    {"codegen.rtl_ns", "ns"},
    {"codegen.rtl_fsm_ns", "ns"},
    {"codegen.systemc_ns", "ns"},
    {"codegen.sw_ns", "ns"},
    {"codegen.tables_ns", "ns"},
    {"codegen.plantuml_ns", "ns"},
    {"codegen.loc", "count"},
    {"trace.overhead_ratio", "ratio"},
    {"trace.spans_per_unit", "count"},
};

[[noreturn]] void usage(const char* message) {
  std::fprintf(stderr,
               "umlsoc_perfbench: %s\nusage: umlsoc_perfbench --workload "
               "soak|verify|compile|timetravel --seed N --seconds S --trace 0|1 "
               "--scratch DIR [--trace-out FILE]\n",
               message);
  std::exit(2);
}

double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double position = q * static_cast<double>(values.size() - 1);
  const std::size_t lower = static_cast<std::size_t>(position);
  const std::size_t upper = std::min(lower + 1, values.size() - 1);
  const double fraction = position - static_cast<double>(lower);
  return values[lower] + (values[upper] - values[lower]) * fraction;
}

/// Blocks of one timed phase: samples[b][u] is unit u of block b.
struct Phase {
  std::vector<std::vector<UnitSample>> samples;

  /// Each unit's fastest time across blocks (ms). A unit repeats identical
  /// work in every block, so its fastest repetition is its cost with the
  /// least interference from the rest of a shared host, whose slow
  /// stretches come in bursts of a fraction of a second to a few seconds.
  [[nodiscard]] std::vector<double> unit_best_ms() const {
    std::vector<double> best;
    if (samples.empty()) return best;
    for (std::size_t unit = 0; unit < samples.front().size(); ++unit) {
      std::uint64_t fastest = samples.front()[unit].wall_ns;
      for (const auto& block : samples) fastest = std::min(fastest, block[unit].wall_ns);
      best.push_back(static_cast<double>(fastest) / 1e6);
    }
    return best;
  }

  /// Percentile over units of each unit's fastest time (ms).
  [[nodiscard]] double unit_ms(double q) const { return percentile(unit_best_ms(), q); }

  /// One block at every unit's fastest time (s): the denominator of the
  /// throughput metrics.
  [[nodiscard]] double best_block_s() const {
    double total_ms = 0;
    for (const double ms : unit_best_ms()) total_ms += ms;
    return total_ms / 1e3;
  }

  [[nodiscard]] double block_work() const {
    double work = 0;
    if (!samples.empty()) {
      for (const UnitSample& sample : samples.front()) work += sample.work;
    }
    return work;
  }
};

/// Runs blocks until `seconds` of host time have passed (at least two). A
/// traced phase runs at least one block and stops early once the trace
/// holds kMaxSpans spans, which bounds its memory and its file.
bool timed_phase(Workload& workload, double seconds, Phase& phase, std::string& problem) {
  const std::uint64_t start = now_ns();
  const std::uint64_t budget = static_cast<std::uint64_t>(seconds * 1e9);
  const std::size_t min_blocks = Trace::active != nullptr ? 1 : 2;
  while (phase.samples.size() < min_blocks ||
         (now_ns() - start < budget &&
          (Trace::active == nullptr || Trace::active->size() < kMaxSpans))) {
    std::vector<UnitSample> block;
    if (!workload.run_block(block, problem)) return false;
    phase.samples.push_back(std::move(block));
  }
  return true;
}

void print_metric(bool& first, const char* name, double value, const char* unit) {
  std::printf("%s\"%s\": {\"value\": %.9g, \"unit\": \"%s\"}", first ? "" : ", ", name, value,
              unit);
  first = false;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload_name;
  std::uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  std::filesystem::path scratch;
  std::string trace_out;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const char* value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      workload_name = value;
    } else if (flag == "--seed") {
      seed = std::strtoull(value, &end, 10);
      if (end == value || *end != '\0') usage("invalid --seed");
    } else if (flag == "--seconds") {
      seconds = std::strtod(value, &end);
      if (end == value || *end != '\0' || seconds <= 0 || seconds > 600) {
        usage("invalid --seconds");
      }
    } else if (flag == "--trace") {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0) {
        usage("--trace takes 0 or 1");
      }
      trace = value[0] - '0';
    } else if (flag == "--scratch") {
      scratch = value;
    } else if (flag == "--trace-out") {
      trace_out = value;
    } else {
      usage(("unknown argument " + flag).c_str());
    }
  }
  if (scratch.empty()) usage("--scratch is required");

  std::error_code ec;
  std::filesystem::remove_all(scratch, ec);
  std::filesystem::create_directories(scratch, ec);
  if (ec) usage(("cannot create scratch directory: " + ec.message()).c_str());
  struct statfs fs_info {};
  const bool tmpfs = statfs(scratch.c_str(), &fs_info) == 0 &&
                     static_cast<long>(fs_info.f_type) == kTmpfsMagic;

  WorkloadOptions options;
  options.seed = seed;
  options.scratch = scratch;
  std::unique_ptr<Workload> workload;
  if (workload_name == "soak") {
    workload = make_soak(options);
  } else if (workload_name == "verify") {
    workload = make_verify(options);
  } else if (workload_name == "compile") {
    workload = make_compile(options);
  } else if (workload_name == "timetravel") {
    workload = make_timetravel(options);
  } else {
    usage("unknown workload");
  }

  std::printf("workload=%s seed=%llu seconds=%g trace=%d\n", workload_name.c_str(),
              static_cast<unsigned long long>(seed), seconds, trace);
  std::printf("store scratch: %s on %s (replay.store_io_ns depends on it)\n",
              scratch.c_str(), tmpfs ? "tmpfs" : "disk");

  Trace tracer;
  std::string problem;
  std::vector<double> setup_times;
  double setup_total = 0;
  bool ok = true;
  while (ok && (setup_times.size() < kMinSetUps ||
                (setup_times.size() < kMaxSetUps && setup_total < kSetUpBudgetS))) {
    const std::uint64_t start = now_ns();
    ok = workload->set_up(problem);
    setup_times.push_back(static_cast<double>(now_ns() - start) / 1e9);
    setup_total += setup_times.back();
  }
  if (ok && trace != 0) {
    // One extra, untimed set-up under tracing: it feeds statechart.compile_ns.
    Trace::active = &tracer;
    ok = workload->set_up(problem);
    Trace::active = nullptr;
  }
  const std::map<std::string, Trace::Aggregate> setup_spans = tracer.aggregate();
  tracer = Trace{};

  // The first block is untimed: warm-up, per-layer counts, oracle reference.
  std::vector<UnitSample> first_block;
  if (ok) ok = workload->run_block(first_block, problem);
  std::map<std::string, double> counts = workload->counts;
  counts["replay.scratch_tmpfs"] = tmpfs ? 1.0 : 0.0;

  Phase untraced;
  Phase traced;
  std::size_t spans = 0;
  std::map<std::string, Trace::Aggregate> unit_spans;
  if (ok) {
    if (trace == 0) {
      ok = timed_phase(*workload, seconds, untraced, problem);
    } else {
      ok = timed_phase(*workload, seconds / 2, untraced, problem);
      workload->wall.clear();
      Trace::active = &tracer;
      if (ok) ok = timed_phase(*workload, seconds / 2, traced, problem);
      Trace::active = nullptr;
      unit_spans = tracer.aggregate();
      spans = tracer.size();
      if (!trace_out.empty() && !tracer.write_json(trace_out)) {
        std::fprintf(stderr, "cannot write trace to %s\n", trace_out.c_str());
      }
    }
  }
  std::filesystem::remove_all(scratch, ec);

  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  for (const Phase* phase : {&untraced, &traced}) {
    for (const auto& block : phase->samples) {
      for (const UnitSample& sample : block) {
        ++attempted;
        if (!sample.ok) ++failed;
      }
    }
  }
  for (const UnitSample& sample : first_block) {
    ++attempted;
    if (!sample.ok) ++failed;
  }
  if (!ok) {
    std::printf("FAILED: %s\n", problem.c_str());
    attempted = std::max<std::uint64_t>(attempted, 1);
    failed = std::max<std::uint64_t>(failed, 1);
  } else if (failed != 0) {
    std::printf("FAILED units: %llu, first: %s\n", static_cast<unsigned long long>(failed),
                workload->first_failure.c_str());
  }

  const double setup_s = percentile(setup_times, 0.5);
  const Phase& main_phase = untraced;
  const double block_s = main_phase.best_block_s();
  const double units_per_s =
      block_s > 0 ? static_cast<double>(first_block.size()) / block_s : 0.0;
  const double work_per_s = block_s > 0 ? main_phase.block_work() / block_s : 0.0;
  struct rusage usage_info {};
  getrusage(RUSAGE_SELF, &usage_info);
  const double peak_rss_mb = static_cast<double>(usage_info.ru_maxrss) / 1024.0;

  std::printf("setup_s = %.6f s (median of %zu set-ups)\n", setup_s, setup_times.size());
  std::printf("units: %llu attempted, %llu failed, fail_ratio = %.6f\n",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed),
              attempted == 0 ? 0.0 : static_cast<double>(failed) / static_cast<double>(attempted));
  std::printf("units_per_s = %.3f 1/s (%zu units per block, each unit the fastest of %zu "
              "blocks)\n",
              units_per_s, first_block.size(), main_phase.samples.size());
  std::printf("unit_ms_p50 = %.4f ms, unit_ms_p90 = %.4f ms (n = %zu units, each the "
              "fastest of its %zu repetitions)\n",
              main_phase.unit_ms(0.5), main_phase.unit_ms(0.9), first_block.size(),
              main_phase.samples.size());
  std::printf("work_per_s = %.1f 1/s (%s_per_s)\n", work_per_s, workload->work_name());
  std::printf("peak_rss_mb = %.2f MB\n", peak_rss_mb);
  std::printf("counts per unit:");
  for (const auto& [name, value] : counts) std::printf(" %s=%.6g", name.c_str(), value);
  std::printf("\n");

  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              ok && failed == 0 ? "true" : "false", static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  bool first = true;
  if (trace == 0) {
    print_metric(first, "setup_s", setup_s, "s");
    print_metric(first, "units_per_s", units_per_s, "1/s");
    print_metric(first, "unit_ms_p50", main_phase.unit_ms(0.5), "ms");
    print_metric(first, "unit_ms_p90", main_phase.unit_ms(0.9), "ms");
    print_metric(first, "work_per_s", work_per_s, "1/s");
    print_metric(first, "peak_rss_mb", peak_rss_mb, "MB");
  } else {
    double traced_units = 0;
    double traced_wall_ns = 0;
    for (const auto& block : traced.samples) {
      for (const UnitSample& sample : block) {
        traced_units += 1;
        traced_wall_ns += static_cast<double>(sample.wall_ns);
      }
    }
    traced_units = std::max(1.0, traced_units);
    const auto span_total = [&](const char* name) {
      const auto it = unit_spans.find(name);
      return it == unit_spans.end() ? 0.0 : static_cast<double>(it->second.total_ns);
    };
    const auto span_self = [&](const std::string& name) {
      const auto it = unit_spans.find(name);
      return it == unit_spans.end() ? 0.0 : static_cast<double>(it->second.self_ns);
    };
    const double store_io_ns = std::max(
        0.0, span_total("replay.checkpoint") - workload->wall["replay.checkpoint_encode_ns"]);
    std::map<std::string, double> derived = counts;
    derived["replay.encode_ns"] = workload->wall["replay.encode_ns"] / traced_units;
    derived["replay.store_io_ns"] = store_io_ns / traced_units;
    derived["replay.ckpt_share"] =
        traced_wall_ns <= 0 ? 0.0
                            : (workload->wall["replay.encode_ns"] + store_io_ns +
                               span_total("replay.restore")) /
                                  traced_wall_ns;
    derived["fleet.dispatch_ns_per_rig"] = workload->wall["fleet.dispatch_ns"] / traced_units;
    derived["sim.run_self_ns"] = span_self("sim.run") / traced_units;
    const auto setup_compile = setup_spans.find("statechart.compile");
    derived["statechart.compile_ns"] =
        span_self("statechart.compile") / traced_units +
        (setup_compile == setup_spans.end() ? 0.0
                                            : static_cast<double>(setup_compile->second.self_ns));
    const double untraced_block_s = untraced.best_block_s();
    derived["trace.overhead_ratio"] =
        untraced_block_s > 0 ? traced.best_block_s() / untraced_block_s : 0.0;
    derived["trace.spans_per_unit"] = static_cast<double>(spans) / traced_units;
    for (const Metric& metric : kLayerMetrics) {
      const std::string name = metric.name;
      double value = 0;
      if (const auto it = derived.find(name); it != derived.end()) {
        value = it->second;
      } else if (name.size() > 3 && name.compare(name.size() - 3, 3, "_ns") == 0) {
        value = span_self(name.substr(0, name.size() - 3)) / traced_units;
      }
      print_metric(first, metric.name, value, metric.unit);
    }
  }
  std::printf("}}\n");
  return 0;
}
