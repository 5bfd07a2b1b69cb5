#include "fleet/report.hpp"

#include <algorithm>
#include <cinttypes>
#include <cstdarg>
#include <cstdio>

#include "support/checksum.hpp"

namespace umlsoc::fleet {

namespace {

double ratio(std::uint64_t numerator, std::uint64_t denominator, double empty) {
  if (denominator == 0) return empty;
  return static_cast<double>(numerator) / static_cast<double>(denominator);
}

void append_line(std::string& out, const char* format, ...) {
  char line[512];
  va_list args;
  va_start(args, format);
  std::vsnprintf(line, sizeof(line), format, args);
  va_end(args);
  out += line;
  out += '\n';
}

/// One line: `label` then `name=value` for each of `record`'s counters
/// except the kWall (host time) ones.
template <typename Record>
void append_counters(std::string& out, const char* label, const Record& record) {
  out += label;
  Record::counters(
      [&out](const char* name, sim::Counter kind, std::uint64_t value) {
        if (kind == sim::Counter::kWall) return;
        out += ' ';
        out += name;
        out += '=';
        out += std::to_string(value);
      },
      record);
  out += '\n';
}

}  // namespace

double FleetReport::availability() const { return ratio(rigs_ok, rigs_total, 1.0); }

double FleetReport::delivery_rate() const {
  return ratio(slo.delivered, slo.delivered + slo.lost, 1.0);
}

double FleetReport::timeout_rate() const {
  return ratio(slo.timeouts, slo.transactions, 0.0);
}

double FleetReport::unhandled_error_rate() const {
  return ratio(slo.errors_unhandled, slo.errors_raised, 0.0);
}

double FleetReport::unit_health_rate() const {
  return ratio(health.healthy, health.units(), 1.0);
}

double FleetReport::checkpoint_overhead() const {
  return ratio(kernel.snapshot.encode_wall_ns + kernel.snapshot.restore_wall_ns +
                   kernel.snapshot.store_wall_ns,
               rig_wall_ns_total, 0.0);
}

FleetReport FleetReport::aggregate(const std::vector<RigOutcome>& outcomes) {
  FleetReport report;
  report.rigs_total = outcomes.size();
  for (const RigOutcome& outcome : outcomes) {
    if (outcome.ok) {
      ++report.rigs_ok;
    } else {
      ++report.rigs_failed;
      report.failed_seeds.push_back(outcome.seed);
    }
    if (outcome.slo.seeds_poisoned != 0) report.poisoned_seeds.push_back(outcome.seed);
    reduce(report.slo, outcome.slo);
    reduce(report.health, outcome.health);
    reduce(report.kernel, outcome.kernel);
    report.sim_time_ps_total += outcome.sim_time_ps;
    report.sim_time_ps_max = std::max(report.sim_time_ps_max, outcome.sim_time_ps);
    report.events_total += outcome.events_processed;
    report.rig_wall_ns_total += outcome.wall_ns;
    if (outcome.fault_template >= report.templates.size()) {
      report.templates.resize(outcome.fault_template + 1);
    }
    TemplateRollup& slice = report.templates[outcome.fault_template];
    ++slice.rigs;
    if (outcome.ok) ++slice.rigs_ok;
    reduce(slice.slo, outcome.slo);
  }
  return report;
}

std::string FleetReport::fingerprint() const {
  std::string out;
  out.reserve(1024);
  append_line(out, "rigs=%" PRIu64 "/%" PRIu64, rigs_ok, rigs_total);
  out += "failed-seeds=";
  for (std::uint64_t seed : failed_seeds) {
    out += std::to_string(seed);
    out += ',';
  }
  out += '\n';
  append_counters(out, "slo", slo);
  append_counters(out, "health", health);
  append_counters(out, "kernel", kernel);
  append_line(out, "sim-time=%" PRIu64 "/%" PRIu64 " events=%" PRIu64,
              sim_time_ps_total, sim_time_ps_max, events_total);
  out += "poisoned-seeds=";
  for (std::uint64_t seed : poisoned_seeds) {
    out += std::to_string(seed);
    out += ',';
  }
  out += '\n';
  for (std::size_t t = 0; t < templates.size(); ++t) {
    const TemplateRollup& slice = templates[t];
    char label[64];
    std::snprintf(label, sizeof(label), "template[%zu]=%" PRIu64 "/%" PRIu64, t,
                  slice.rigs_ok, slice.rigs);
    append_counters(out, label, slice.slo);
  }
  return out;
}

std::string FleetReport::str(const FleetStats* stats) const {
  std::string out;
  out.reserve(1024);
  append_line(out,
              "fleet SLO rollup: %" PRIu64 " rigs, %" PRIu64 " ok, %" PRIu64
              " failed — availability %.4f",
              rigs_total, rigs_ok, rigs_failed, availability());
  if (!failed_seeds.empty()) {
    out += "  failed seeds:";
    for (std::uint64_t seed : failed_seeds) {
      out += ' ';
      out += std::to_string(seed);
    }
    out += '\n';
  }
  append_line(out,
              "  traffic: %" PRIu64 " requests, %" PRIu64 " delivered (%.4f), %" PRIu64
              " lost",
              slo.requests, slo.delivered, delivery_rate(), slo.lost);
  append_line(out,
              "  bus: %" PRIu64 " transactions, %" PRIu64 " timeouts (%.4f), %" PRIu64
              " retries, %" PRIu64 " recovered, %" PRIu64 " exhausted",
              slo.transactions, slo.timeouts, timeout_rate(), slo.retries,
              slo.recovered, slo.exhausted);
  append_line(out, "  errors: %" PRIu64 " raised, %" PRIu64 " unhandled (%.4f)",
              slo.errors_raised, slo.errors_unhandled, unhandled_error_rate());
  append_line(out,
              "  supervision: %" PRIu64 " restarts, %" PRIu64 " watchdog trips, %" PRIu64
              " escalations, %" PRIu64 " give-ups, %" PRIu64 " rollbacks",
              slo.restarts, slo.watchdog_trips, slo.escalations, slo.give_ups,
              slo.rollbacks);
  append_line(out,
              "  breaker: %" PRIu64 " opens, %" PRIu64 " closes, %" PRIu64
              " fast-failed",
              slo.breaker_opens, slo.breaker_closes, slo.breaker_fast_failed);
  append_line(out,
              "  recovery: %" PRIu64 " checkpoints (%" PRIu64 " write faults, %" PRIu64
              " rungs quarantined), %" PRIu64 " ladder + %" PRIu64
              " crash recoveries, max lost work %s",
              slo.checkpoints_written, slo.checkpoint_write_faults,
              slo.rungs_quarantined, slo.ladder_recoveries, slo.crash_recoveries,
              sim::SimTime(slo.lost_work_ps_max).str().c_str());
  append_line(out,
              "  health: %" PRIu64 " units healthy, %" PRIu64 " degraded, %" PRIu64
              " failed (healthy rate %.4f)",
              health.healthy, health.degraded, health.failed, unit_health_rate());
  append_line(out,
              "  checkpoint overhead: %.4f of rig wall time (%" PRIu64 " encodes, %" PRIu64
              " restores, %" PRIu64 " bytes)",
              checkpoint_overhead(), kernel.snapshot.encodes, kernel.snapshot.restores,
              kernel.snapshot.bytes_written);
  if (!poisoned_seeds.empty()) {
    out += "  poisoned seeds (quarantined after killing workers):";
    for (std::uint64_t seed : poisoned_seeds) {
      out += ' ';
      out += std::to_string(seed);
    }
    out += '\n';
  }
  if (templates.size() > 1) {
    append_line(out, "  fault-template sweep (%zu templates):", templates.size());
    for (std::size_t t = 0; t < templates.size(); ++t) {
      const TemplateRollup& slice = templates[t];
      append_line(out,
                  "    template %zu: %" PRIu64 " rigs, availability %.4f, %" PRIu64
                  " timeouts, %" PRIu64 " exhausted, %" PRIu64 " lost, %" PRIu64
                  " unhandled errors",
                  t, slice.rigs, slice.availability(), slice.slo.timeouts,
                  slice.slo.exhausted, slice.slo.lost, slice.slo.errors_unhandled);
    }
  }
  append_line(out, "  fingerprint: %016" PRIx64, support::xxh64(fingerprint()));
  if (stats != nullptr && stats->wall_ns > 0) {
    const double seconds = static_cast<double>(stats->wall_ns) / 1e9;
    append_line(out,
                "  throughput: %.2f rigs/s, %.0f events/s over %u jobs "
                "(chunk %" PRIu64 ", %" PRIu64 " chunks, %.2fs wall)",
                static_cast<double>(rigs_total) / seconds,
                static_cast<double>(events_total) / seconds, stats->jobs, stats->chunk,
                stats->chunks_claimed, seconds);
  }
  if (stats != nullptr && stats->pool.forks > 0) {
    const FleetStats::PoolStats& pool = stats->pool;
    append_line(out,
                "  fleet worker pool: %" PRIu64 " forks (%" PRIu64 " respawns), %" PRIu64
                " deaths (%" PRIu64 " heartbeat, %" PRIu64 " seed-timeout, %" PRIu64
                " chaos kills), %" PRIu64 " re-dispatches, %" PRIu64 " ladder resumes, %" PRIu64
                " poisoned%s",
                pool.forks, pool.respawns, pool.deaths, pool.heartbeat_kills,
                pool.seed_timeout_kills, pool.chaos_kills, pool.redispatches,
                pool.resumes, pool.poisoned,
                pool.degraded_to_inline ? " — DEGRADED to in-process" : "");
  }
  return out;
}

}  // namespace umlsoc::fleet
