// The miniature rig the fleet tests dispatch: one kernel, a seeded fault
// plan and a health registry, driven by a self-rescheduling process whose
// behaviour depends only on the seed. It runs the real simulation stack on
// worker threads and in forked workers (the sanitizer jobs' target) while
// staying fast enough for a fleet of hundreds, and its outcome is a pure
// function of the seed, which is what the determinism and process-vs-thread
// parity tests pin.
#pragma once

#include <cstdint>

#include "fleet/outcome.hpp"
#include "sim/fault.hpp"
#include "sim/kernel.hpp"
#include "sim/supervise.hpp"

namespace umlsoc::fleet {

/// Runs `ticks` worker activations, each a request that a 5% error and 2%
/// drop plan may lose. With `loss_slo` the outcome fails ("loss SLO
/// violated") once a tenth of the requests are lost; without it every seed
/// passes.
struct MiniRig {
  std::uint64_t ticks = 0;
  bool loss_slo = false;

  RigOutcome operator()(const RigJob& job) const {
    sim::Kernel kernel;
    sim::FaultPlan plan(job.seed);
    sim::FaultPlan::SiteConfig site;
    site.error_rate = 0.05;
    site.drop_rate = 0.02;
    plan.configure(sim::FaultSite::kBusWrite, site);
    sim::HealthRegistry health;
    const sim::HealthRegistry::UnitId unit = health.register_unit("worker");

    RigOutcome outcome;
    std::uint64_t done = 0;
    sim::ProcessId worker = sim::kInvalidProcess;
    worker = kernel.register_process(
        [&] {
          ++done;
          ++outcome.slo.requests;
          const sim::FaultDecision decision = plan.consult(sim::FaultSite::kBusWrite);
          if (decision.faulted()) {
            ++outcome.slo.lost;
            health.set_health(unit, sim::UnitHealth::kDegraded, "fault");
          } else {
            ++outcome.slo.delivered;
            health.set_health(unit, sim::UnitHealth::kHealthy, "ok");
          }
          if (done < ticks) kernel.schedule(sim::SimTime::ns(10), worker);
        },
        "mini-rig.worker");
    kernel.schedule(sim::SimTime::ns(10), worker);
    kernel.run();

    outcome.ok = !loss_slo || outcome.slo.lost * 10 < outcome.slo.requests;
    if (!outcome.ok) outcome.failure = "loss SLO violated";
    outcome.sim_time_ps = kernel.now().picoseconds();
    outcome.events_processed = kernel.events_processed();
    outcome.health.add(health);
    reduce(outcome.kernel, kernel.stats());
    return outcome;
  }
};

}  // namespace umlsoc::fleet
