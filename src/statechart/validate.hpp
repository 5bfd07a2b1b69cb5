// Well-formedness checks for state machines, mirroring the constraints the
// engines rely on.
#pragma once

#include "statechart/model.hpp"
#include "support/diagnostics.hpp"

namespace umlsoc::statechart {

/// Validates structure (initial pseudostates, pseudostate arities, name
/// clashes, transition endpoints) and reports reachability/determinism
/// warnings. Returns true when no errors were found.
bool validate(const StateMachine& machine, support::DiagnosticSink& sink);

}  // namespace umlsoc::statechart
