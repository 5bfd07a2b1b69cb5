// Deterministic state-machine generators for tests and benchmark E3.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>

#include "statechart/model.hpp"

namespace umlsoc::statechart {

/// Linear chain: s0 -e-> s1 -e-> ... -e-> s(n-1) -e-> s0 (cyclic).
/// Every dispatch of "e" fires exactly one transition.
[[nodiscard]] std::unique_ptr<StateMachine> make_chain_machine(std::size_t states);

/// Nested machine of the given depth: each level is a composite state with
/// `width` leaf siblings cycling on event "step"; the innermost level also
/// reacts to "reset" handled at the outermost composite (exercises the
/// ancestor-transition lookup that makes hierarchical dispatch costly).
[[nodiscard]] std::unique_ptr<StateMachine> make_nested_machine(std::size_t depth,
                                                                std::size_t width);

/// One orthogonal composite with `regions` parallel regions, each a cycle of
/// `states_per_region` states reacting to a region-specific event "rK".
/// Dispatching "tick" advances every region at once (tests maximal
/// conflict-free firing across orthogonal regions).
[[nodiscard]] std::unique_ptr<StateMachine> make_orthogonal_machine(
    std::size_t regions, std::size_t states_per_region);

/// Randomized single-leaf machine (no orthogonality/history/completion, so
/// the RTL FSM can encode it): each region holds `states_per_region`
/// states, states recursively become composites up to `max_depth`, and
/// every state gets transitions on a random subset of events
/// "e0".."e(events-1)" to random same-region targets. Deterministic in
/// `seed`; passes validate() (unreachable-state warnings aside). Used by
/// the interpreter-vs-compiled differential test.
[[nodiscard]] std::unique_ptr<StateMachine> make_random_hierarchical_machine(
    std::uint64_t seed, std::size_t max_depth, std::size_t states_per_region,
    std::size_t events);

}  // namespace umlsoc::statechart
