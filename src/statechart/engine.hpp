// Execution-engine interface for state machines. Production code runs the
// AOT-compiled plan-table stepper (compile.hpp); guards and actions see it
// only through ActionContext (model.hpp), and harnesses — the verify
// network, the sim-kernel timer binding, replay snapshots, HwModuleSim —
// program against this interface.
//
// The reference interpreter (interpreter.hpp, umlsoc_statechart_oracle)
// implements it too, so tests can hold the compiled engine to it snapshot
// for snapshot (statechart_differential_test).
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "statechart/model.hpp"
#include "support/diagnostics.hpp"

namespace umlsoc::support {
class ByteReader;
class ByteWriter;
}  // namespace umlsoc::support

namespace umlsoc::statechart {

/// Checkpointable execution state of one engine. Vertices and regions are
/// addressed by their pre-order index (StateMachine::all_vertices /
/// all_regions), so a snapshot restores into any engine bound to a
/// structurally identical machine — in particular one rebuilt by a fresh
/// process, or one running the other engine. Captured: active
/// configuration, final flags, history memory, variables, the
/// pending/deferred event pools, and counters. Not captured: listeners,
/// trace contents, or mid-RTC-step state (capture between dispatches).
struct InstanceSnapshot {
  struct EventRecord {
    std::string name;
    std::int64_t data = 0;
    std::string tag;

    bool operator==(const EventRecord&) const = default;
  };

  bool started = false;
  bool terminated = false;
  std::vector<std::uint32_t> active_states;  ///< Vertex indices, ascending.
  std::vector<std::uint32_t> active_finals;  ///< Vertex indices, ascending.
  /// (region index, state vertex index), ascending by region.
  std::vector<std::pair<std::uint32_t, std::uint32_t>> shallow_history;
  /// (region index, leaf state vertex indices in recorded order).
  std::vector<std::pair<std::uint32_t, std::vector<std::uint32_t>>> deep_history;
  std::vector<std::pair<std::string, std::int64_t>> variables;  ///< Sorted by name.
  std::vector<EventRecord> queue;
  std::vector<EventRecord> deferred;
  std::uint64_t events_processed = 0;
  std::uint64_t transitions_fired = 0;
  std::uint64_t errors_raised = 0;
  std::uint64_t errors_unhandled = 0;

  bool operator==(const InstanceSnapshot&) const = default;
};

/// The byte layout of a snapshot's configuration, history, variables and
/// event pools, written once as a transfer() over support/bytes.hpp: it
/// encodes over a ByteWriter and decodes over a ByteReader, whose
/// sequence() appends, so a decode target's containers must start empty.
/// The flags and counters are each caller's own head: the checkpoint codec
/// (replay/binary.cpp) writes both ahead of this layout, the verifier's
/// state encoding (verify/statespace.cpp) a flags word and no counters.
/// Both codec instantiations are compiled once, in engine.cpp (see the
/// extern declarations below), so every binary runs the same copy whatever
/// order its libraries link in.
template <typename Io>
void transfer_execution_state(Io& io, InstanceSnapshot& snapshot) {
  const auto pair = [&io](auto& entry) {
    io.field(entry.first);
    io.field(entry.second);
  };
  const auto event = [&io](InstanceSnapshot::EventRecord& record) {
    io.field(record.name);
    io.field(record.data);
    io.field(record.tag);
  };
  io.sequence(snapshot.active_states);
  io.sequence(snapshot.active_finals);
  io.sequence(snapshot.shallow_history, pair);
  io.sequence(snapshot.deep_history, [&io](auto& entry) {
    io.field(entry.first);
    io.sequence(entry.second);
  });
  io.sequence(snapshot.variables, pair);
  io.sequence(snapshot.queue, event);
  io.sequence(snapshot.deferred, event);
}

extern template void transfer_execution_state(support::ByteWriter&, InstanceSnapshot&);
extern template void transfer_execution_state(support::ByteReader&, InstanceSnapshot&);

/// One executing state machine, independent of execution strategy.
class Engine {
 public:
  virtual ~Engine() = default;

  [[nodiscard]] virtual const StateMachine& machine() const = 0;

  /// Enters the top region through its initial pseudostate and runs
  /// completion transitions to quiescence.
  virtual void start() = 0;

  /// Queues an event and processes the queue to quiescence. Returns true
  /// when at least one transition fired for this event.
  virtual bool dispatch(Event event) = 0;

  /// Queues without processing (used by actions raising internal events).
  virtual void post(Event event) = 0;

  /// Error-event channel: error events jump ahead of the normal pool and
  /// are counted separately; one that fires no transition is recorded as
  /// unhandled.
  virtual bool dispatch_error(Event event) = 0;

  /// Processes queued events until the pool is empty.
  virtual void run_to_quiescence() = 0;

  /// Conservative no-op filter: false only when delivering `event` via
  /// dispatch() is *guaranteed* to leave the execution state unchanged —
  /// no transition can fire, the event is not deferrable here, and no
  /// queued work would run. The verifier prunes such deliveries; engines
  /// without a cheap answer keep the default `true` (always sound). The
  /// error channel is excluded: an unhandled error event still counts, so
  /// callers must not consult this for dispatch_error().
  [[nodiscard]] virtual bool can_react(const Event& event) { (void)event; return true; }

  /// Events waiting in the ordinary pool (excludes the deferred pool).
  [[nodiscard]] virtual std::size_t pending_events() const = 0;

  /// True when any active state (at any depth) has this name.
  [[nodiscard]] virtual bool is_in(std::string_view state_name) const = 0;
  /// Names of active simple (leaf) states, in stable order.
  [[nodiscard]] virtual std::vector<std::string> active_leaf_names() const = 0;
  /// True when the top region has reached a final state.
  [[nodiscard]] virtual bool is_in_final_state() const = 0;
  /// True after a terminate pseudostate was reached (dispatch is a no-op).
  [[nodiscard]] virtual bool is_terminated() const = 0;
  [[nodiscard]] virtual bool started() const = 0;

  /// Trace capture is interpreter-only; the compiled engine ignores this.
  virtual void set_trace_enabled(bool enabled) = 0;

  [[nodiscard]] virtual std::uint64_t events_processed() const = 0;
  [[nodiscard]] virtual std::uint64_t transitions_fired() const = 0;
  [[nodiscard]] virtual std::uint64_t errors_raised() const = 0;
  [[nodiscard]] virtual std::uint64_t errors_unhandled() const = 0;

  /// Machine-variable store available to guards/effects via ActionContext.
  [[nodiscard]] virtual std::int64_t variable(const std::string& name) const = 0;
  virtual void set_variable(const std::string& name, std::int64_t value) = 0;

  /// Observer invoked on every state entry (entered=true) and exit
  /// (entered=false); used by the sim-kernel timer binding and by monitors.
  using StateListener = std::function<void(const State&, bool entered)>;
  virtual void set_state_listener(StateListener listener) = 0;

  /// Captures the engine's execution state in machine-independent,
  /// deterministic form (indices ascending, variables sorted by name).
  [[nodiscard]] virtual InstanceSnapshot capture() const = 0;
  /// As capture(), but reuses `out`'s buffers (hot path in the explorer).
  virtual void capture_into(InstanceSnapshot& out) const = 0;

  /// Replaces this engine's execution state with `snapshot`. Validates the
  /// snapshot against the bound machine before mutating anything: on any
  /// out-of-range or kind-mismatched index it reports through `sink` and
  /// returns false with the engine unchanged. No entry/exit behaviors run
  /// and no listener fires — restore reproduces state, not history.
  virtual bool restore(const InstanceSnapshot& snapshot, support::DiagnosticSink& sink) = 0;
};

}  // namespace umlsoc::statechart
