// Binding of state machines to the simulation kernel: UML time events
// ("after(10ns)") realized as kernel-scheduled event injections. This is
// the real-time face of the executable-UML story (UML-RT lineage, paper §2).
#pragma once

#include <deque>
#include <map>
#include <optional>
#include <string>

#include <memory>

#include "sim/kernel.hpp"
#include "statechart/compile.hpp"
#include "support/diagnostics.hpp"

namespace umlsoc::codegen {

/// Parses "after(<n><ps|ns|us>)"; nullopt when `text` is not a time trigger
/// at all, and an engaged-but-zero result is never returned (a malformed
/// after(...) yields nullopt too — callers distinguish via looks_like).
[[nodiscard]] std::optional<sim::SimTime> parse_after_trigger(const std::string& text);
[[nodiscard]] bool looks_like_after_trigger(const std::string& text);

/// Wraps a compiled statechart engine and a sim::Kernel. after(state,
/// delay, event) arms a timer whenever `state` is entered; if the state is
/// still active (same activation) when the timer expires, `event` is
/// dispatched. Leaving the state cancels the pending timer (by activation
/// epoch). Process activations run on the AOT-compiled plan-table engine:
/// timer dispatch is the sim kernel's hot path, and epochs key off the
/// state-listener callbacks.
class TimedStateMachine {
 public:
  /// Throws std::invalid_argument carrying the compiler's diagnostic when
  /// compile() rejects `machine` (a model validate() also rejects).
  TimedStateMachine(const statechart::StateMachine& machine, sim::Kernel& kernel);

  /// Declares a time trigger: `delay` after entering `state_name`, dispatch
  /// Event{event_name}. Call before start().
  void after(const std::string& state_name, sim::SimTime delay, std::string event_name);

  /// Scans the machine for transitions whose trigger text is a UML time
  /// trigger — "after(5ns)", "after(2us)", "after(100ps)" — and arms the
  /// corresponding timer on the source state automatically. The trigger
  /// string itself is the dispatched event, so the model stays plain text
  /// (and survives XMI). Returns the number of triggers bound; unparsable
  /// after(...) texts are reported through `sink`.
  std::size_t bind_after_triggers(support::DiagnosticSink& sink);

  void start() { engine_->start(); }
  bool dispatch(statechart::Event event) { return engine_->dispatch(std::move(event)); }

  [[nodiscard]] statechart::Engine& instance() { return *engine_; }
  [[nodiscard]] const statechart::Engine& instance() const { return *engine_; }
  [[nodiscard]] std::uint64_t timeouts_fired() const { return timeouts_fired_; }
  [[nodiscard]] std::uint64_t timeouts_cancelled() const { return timeouts_cancelled_; }

 private:
  struct Timeout {
    sim::SimTime delay;
    std::string event;
    // One registered kernel process per timeout (handle API): re-armed by
    // scheduling the handle, never by constructing per-arm closures. All
    // arms of one timeout share the delay, so expiries pop armed_epochs in
    // FIFO order to recover each arm's activation epoch.
    sim::ProcessId process = sim::kInvalidProcess;
    std::deque<std::uint64_t> armed_epochs;
  };

  void on_state(const statechart::State& state, bool entered);
  void on_timeout(const statechart::State& state, Timeout& timeout);

  std::unique_ptr<statechart::CompiledMachine> engine_;
  sim::Kernel& kernel_;
  std::multimap<std::string, Timeout> timeouts_;       // Keyed by state name.
  std::map<const statechart::State*, std::uint64_t> epochs_;
  std::uint64_t timeouts_fired_ = 0;
  std::uint64_t timeouts_cancelled_ = 0;
};

}  // namespace umlsoc::codegen
