// Counterexample contract of the verification engine (DESIGN.md
// "Explicit-state verification"): a Violation's event path is not just a
// diagnostic — it is a replayable schedule and a renderable scenario.
//
//  * replay_counterexample re-runs the path through the network's own
//    engines driven by the real simulation kernel: one registered process
//    per step, scheduled 1ns apart, with an EventRecorder attached. The run
//    happens twice — once recording, once in verify mode against the
//    recorded log — so the schedule is certified deterministic by the same
//    machinery that certifies checkpoint/restore replays (sim/replay). The
//    report says whether the violation reproduced and whether the verifier
//    accepted the schedule.
//
//  * counterexample_trace/_interaction convert the path into an
//    interaction::Trace ("env->Driver:bus_timeout", "fault->..." labels)
//    and from there into a sequence diagram via interaction_from_trace —
//    codegen::to_plantuml_sequence renders the failing scenario.
#pragma once

#include <memory>
#include <string>

#include "interaction/from_trace.hpp"
#include "verify/explore.hpp"

namespace umlsoc::verify {

struct ReplayReport {
  bool reproduced = false;         ///< The named property violated again at path end.
  bool schedule_verified = false;  ///< EventRecorder verify mode accepted the re-run.
  std::uint64_t scheduled_steps = 0;
  std::string detail;  ///< Failure explanation when !ok().

  [[nodiscard]] bool ok() const { return reproduced && schedule_verified; }
  /// "replayed 5 steps: violation reproduced, schedule verified".
  [[nodiscard]] std::string str() const;
};

/// Replays `violation`'s event path from `initial` (the snapshot tuple
/// returned by explore()) through the network's engines under a
/// simulation kernel, twice (record, then verify). `properties` must
/// contain the violated property by name.
[[nodiscard]] ReplayReport replay_counterexample(
    Network& network, const std::vector<statechart::InstanceSnapshot>& initial,
    const Violation& violation, const std::vector<Property>& properties,
    support::DiagnosticSink& sink);

/// The path as canonical trace labels, in delivery order.
[[nodiscard]] interaction::Trace counterexample_trace(const Network& network,
                                                      const Violation& violation);

/// The path as a sequence diagram: lifelines "env"/"fault" plus the target
/// instances, one async message per step. Feed to
/// codegen::to_plantuml_sequence for rendering.
[[nodiscard]] std::unique_ptr<interaction::Interaction> counterexample_interaction(
    const Network& network, const Violation& violation);

}  // namespace umlsoc::verify
