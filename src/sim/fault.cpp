#include "sim/fault.hpp"

namespace umlsoc::sim {

namespace {

/// SplitMix64 finalizer: decorrelates the per-site seeds derived from the
/// plan seed so sites draw independent streams.
std::uint64_t mix(std::uint64_t value) {
  value += 0x9e3779b97f4a7c15ULL;
  value = (value ^ (value >> 30)) * 0xbf58476d1ce4e5b9ULL;
  value = (value ^ (value >> 27)) * 0x94d049bb133111ebULL;
  return value ^ (value >> 31);
}

}  // namespace

std::string_view to_string(FaultSite site) {
  switch (site) {
    case FaultSite::kBusRead:
      return "bus-read";
    case FaultSite::kBusWrite:
      return "bus-write";
    case FaultSite::kCheckpoint:
      return "checkpoint";
    case FaultSite::kCrash:
      return "crash";
  }
  return "?";
}

FaultPlan::FaultPlan(std::uint64_t seed) : seed_(seed) {
  // Salt 3 belonged to a deleted signal site between kBusWrite and
  // kCheckpoint. The sites after it keep their salts, so a recorded seed
  // still draws the same faults at every site.
  constexpr std::uint64_t kSalts[kFaultSiteCount] = {1, 2, 4, 5};
  for (std::size_t i = 0; i < kFaultSiteCount; ++i) {
    sites_[i].rng = support::Rng(mix(seed ^ kSalts[i]));
  }
}

void FaultPlan::configure(FaultSite site, SiteConfig config) {
  sites_[static_cast<std::size_t>(site)].config = config;
}

FaultDecision FaultPlan::consult(FaultSite site) {
  Site& entry = sites_[static_cast<std::size_t>(site)];
  ++entry.counters.consults;
  if (entry.counters.injected() >= entry.config.max_faults) return {};

  // One uniform draw partitioned into bands keeps the stream aligned no
  // matter which kind fires; a bit flip draws its bit only on a hit.
  const double u = entry.rng.uniform();
  double band = entry.config.error_rate;
  FaultDecision decision;
  if (u < band) {
    decision.kind = FaultKind::kError;
    ++entry.counters.errors;
    return decision;
  }
  band += entry.config.drop_rate;
  if (u < band) {
    decision.kind = FaultKind::kDropResponse;
    ++entry.counters.drops;
    return decision;
  }
  band += entry.config.bit_flip_rate;
  if (u < band) {
    decision.kind = FaultKind::kBitFlip;
    decision.flip_mask = 1ULL << entry.rng.below(64);
    ++entry.counters.bit_flips;
    return decision;
  }
  return decision;
}

std::uint64_t FaultPlan::total_injected() const {
  std::uint64_t total = 0;
  for (const Site& site : sites_) total += site.counters.injected();
  return total;
}

std::string FaultPlan::str() const {
  std::string out = "fault-plan seed=" + std::to_string(seed_);
  for (std::size_t i = 0; i < kFaultSiteCount; ++i) {
    const SiteCounters& counters = sites_[i].counters;
    if (counters.consults == 0) continue;
    out += " " + std::string(to_string(static_cast<FaultSite>(i))) + "{consults=" +
           std::to_string(counters.consults);
    if (counters.errors != 0) out += " errors=" + std::to_string(counters.errors);
    if (counters.drops != 0) out += " drops=" + std::to_string(counters.drops);
    if (counters.bit_flips != 0) out += " bit-flips=" + std::to_string(counters.bit_flips);
    out += "}";
  }
  return out;
}

// --- Watchdog ---------------------------------------------------------------

Watchdog::Watchdog(Kernel& kernel, std::string name, SimTime deadline,
                   std::function<void()> on_trip)
    : kernel_(kernel),
      name_(std::move(name)),
      deadline_(deadline),
      on_trip_(std::move(on_trip)) {
  check_process_ = kernel_.register_process([this] { check(); }, "wd." + name_ + ".check");
  expectation_ = kernel_.register_expectation("watchdog " + name_ + " armed");
}

void Watchdog::arm() {
  if (armed_) {
    kick();
    return;
  }
  armed_ = true;
  tripped_ = false;
  trip_at_ps_ = (kernel_.now() + deadline_).picoseconds();
  kernel_.expect(expectation_);
  if (!check_pending_) {
    check_pending_ = true;
    kernel_.schedule(deadline_, check_process_);
  }
}

void Watchdog::kick() {
  if (!armed_) return;
  ++kicks_;
  // The already-scheduled check observes the extended trip point and
  // re-schedules itself — no cancellation needed.
  trip_at_ps_ = (kernel_.now() + deadline_).picoseconds();
}

void Watchdog::disarm() {
  if (!armed_) return;
  armed_ = false;
  kernel_.fulfill(expectation_);
}

void Watchdog::check() {
  check_pending_ = false;
  if (!armed_) return;
  const std::uint64_t now_ps = kernel_.now().picoseconds();
  if (now_ps < trip_at_ps_) {
    // Kicked since this check was scheduled: supervise up to the new point.
    check_pending_ = true;
    kernel_.schedule(SimTime(trip_at_ps_ - now_ps), check_process_);
    return;
  }
  armed_ = false;
  tripped_ = true;
  ++trips_;
  kernel_.fulfill(expectation_);
  if (on_trip_ != nullptr) on_trip_();
}

// --- CrashInjector ----------------------------------------------------------

CrashInjector::CrashInjector(Kernel& kernel, FaultPlan* plan, SimTime interval)
    : kernel_(kernel), plan_(plan), interval_(interval) {
  tick_process_ = kernel_.register_process([this] { tick(); }, "crash.tick");
}

void CrashInjector::start() {
  if (started_) return;
  started_ = true;
  kernel_.schedule(interval_, tick_process_);
}

void CrashInjector::tick() {
  // Reschedule before the draw: the pending next tick must exist in any
  // checkpoint captured after this instant, and must survive the throw.
  kernel_.schedule(interval_, tick_process_);
  if (plan_ == nullptr || !armed_) return;
  const FaultDecision decision = plan_->consult(FaultSite::kCrash);
  if (decision.kind != FaultKind::kError) return;
  throw SimulatedCrash(kernel_.now().picoseconds());
}

}  // namespace umlsoc::sim
