// Discrete-event simulation kernel ("miniSysC"): the SystemC-testbed
// substitution from DESIGN.md. Implements the two-phase evaluate/update
// delta-cycle scheduler that SystemC-style generated code relies on:
//
//   while events pending:
//     advance time to the earliest event, collect its callbacks
//     repeat (delta cycles):
//       EVALUATE: run all runnable processes
//       UPDATE:   apply pending signal updates; value changes notify
//                 sensitive processes into the next delta
//     until no process is runnable at the current time
//
// Processes are callbacks (no threads/coroutines); "waiting" is expressed by
// sensitivity to events or by self-rescheduling with a delay.
//
// Scheduling is handle-based: a process registers its callback once
// (register_process) and every queue entry afterwards is a POD
// {time, sequence, ProcessId} record — no std::function is constructed or
// copied on the steady-state scheduling path. Timed events live in a
// two-level structure: a time wheel (bitmap-indexed buckets covering the
// near future) plus an overflow binary heap for events beyond the wheel
// horizon; heap entries cascade into the wheel as time advances.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <deque>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "support/diagnostics.hpp"

namespace umlsoc::sim {

class EventRecorder;

/// Simulation time in picoseconds.
class SimTime {
 public:
  constexpr SimTime() = default;
  constexpr explicit SimTime(std::uint64_t picoseconds) : ps_(picoseconds) {}

  [[nodiscard]] static constexpr SimTime ps(std::uint64_t v) { return SimTime(v); }
  [[nodiscard]] static constexpr SimTime ns(std::uint64_t v) { return SimTime(v * 1000); }
  [[nodiscard]] static constexpr SimTime us(std::uint64_t v) { return SimTime(v * 1000000); }
  [[nodiscard]] static constexpr SimTime max() {
    return SimTime(std::numeric_limits<std::uint64_t>::max());
  }

  [[nodiscard]] constexpr std::uint64_t picoseconds() const { return ps_; }
  [[nodiscard]] std::string str() const;

  /// Saturating addition: `now + delay` near SimTime::max() clamps to
  /// SimTime::max() instead of wrapping (a wrapped sum would silently
  /// schedule the event in the past).
  friend constexpr SimTime operator+(SimTime a, SimTime b) {
    const std::uint64_t sum = a.ps_ + b.ps_;
    return SimTime(sum < a.ps_ ? std::numeric_limits<std::uint64_t>::max() : sum);
  }
  friend constexpr auto operator<=>(SimTime, SimTime) = default;

 private:
  std::uint64_t ps_ = 0;
};

class Kernel;

/// Stable handle to a registered process (an index into the kernel's
/// process table). 8 bytes of queue payload per scheduled event.
using ProcessId = std::uint32_t;
inline constexpr ProcessId kInvalidProcess = std::numeric_limits<ProcessId>::max();

/// Stable handle to a registered expectation class (see
/// Kernel::register_expectation).
using ExpectationId = std::uint32_t;
inline constexpr ExpectationId kInvalidExpectation =
    std::numeric_limits<ExpectationId>::max();

/// End-of-run diagnosis: did the event queues drain while registered
/// expectations (in-flight bus transactions, armed watchdogs, ...) were
/// still outstanding? That is a deadlock/starvation signature — something
/// was waiting for a response that can no longer arrive.
struct QuiescenceReport {
  bool drained = true;                  ///< Queues empty when run() returned.
  std::uint64_t outstanding_total = 0;  ///< Unresolved expectations at that point.

  struct Outstanding {
    std::string label;
    std::uint64_t count;
  };
  /// Per-label breakdown; populated only when deadlocked() (the clean path
  /// allocates nothing).
  std::vector<Outstanding> outstanding;

  [[nodiscard]] bool deadlocked() const { return drained && outstanding_total != 0; }
  /// "deadlock: 2 outstanding (axi.cpu0 in-flight x1, wd.main armed x1)".
  [[nodiscard]] std::string str() const;
};

/// Notification primitive. Processes subscribe; notify() wakes them in the
/// next delta cycle, notify(delay) at a later time.
class SimEvent {
 public:
  explicit SimEvent(Kernel& kernel, std::string name = "");
  SimEvent(const SimEvent&) = delete;
  SimEvent& operator=(const SimEvent&) = delete;

  [[nodiscard]] const std::string& name() const { return name_; }

  /// Immediate (next-delta) notification. SystemC-style collapsing: an
  /// event has at most one pending delta notification, so notifying twice
  /// before the next delta wakes each subscriber once, not twice.
  void notify();
  /// Timed notification.
  void notify(SimTime delay);

  /// Persistent subscription of an already-registered process.
  void subscribe(ProcessId process);
  /// Persistent subscription: `callback` is registered as a process and
  /// runs on every notification.
  void subscribe(std::function<void()> callback);

 private:
  friend class Kernel;

  Kernel& kernel_;
  std::string name_;
  std::vector<ProcessId> subscribers_;
  bool delta_pending_ = false;
};

/// Base for update-phase participants (signals).
class Updatable {
 public:
  virtual ~Updatable() = default;
  virtual void update() = 0;
};

/// How a fleet folds one counter of a stats record across rigs.
enum class Counter : std::uint8_t {
  kSum,   ///< Summed.
  kMax,   ///< High-water mark: the maximum.
  kWall,  ///< Summed host time; determinism checks skip it.
};

/// Entries in `Record::counters()`, the record's one list of its counters.
/// Walked with no record, the list visits each counter's name and kind.
template <typename Record>
constexpr std::size_t counter_count() {
  std::size_t count = 0;
  Record::counters([&count](const char*, Counter) { ++count; });
  return count;
}

/// The scheduler.
class Kernel {
 public:
  Kernel();
  Kernel(const Kernel&) = delete;
  Kernel& operator=(const Kernel&) = delete;

  [[nodiscard]] SimTime now() const { return now_; }
  [[nodiscard]] std::uint64_t delta_count() const { return delta_count_; }
  [[nodiscard]] std::uint64_t events_processed() const { return events_processed_; }

  /// Registers `body` as a process and returns its stable handle. Register
  /// once, then schedule the handle: scheduling performs no std::function
  /// construction and no per-event allocation in steady state.
  [[nodiscard]] ProcessId register_process(std::function<void()> body);

  /// Same, attaching a diagnostic label (shown by replay-divergence reports
  /// and snapshot validation). Registration is cold; labels cost nothing on
  /// the scheduling path.
  [[nodiscard]] ProcessId register_process(std::function<void()> body, std::string label);

  /// Label given at registration, or "" for unlabeled processes.
  [[nodiscard]] const std::string& process_label(ProcessId process) const {
    return labels_[process];
  }
  [[nodiscard]] std::size_t process_count() const { return processes_.size(); }

  /// Schedules the registered process to run `delay` after the current time
  /// (a delay of zero runs at the current time but in a later delta batch).
  /// The same process may be pending any number of times.
  void schedule(SimTime delay, ProcessId process);

  /// Registers a signal update for the current delta's update phase.
  void request_update(Updatable& target) { update_requests_.push_back(&target); }

  /// Registers a named expectation class once (e.g. "axi.cpu0 in-flight");
  /// expect/fulfill then adjust plain counters, so tracking an individual
  /// transaction is allocation-free.
  [[nodiscard]] ExpectationId register_expectation(std::string label);
  /// Declares one more outstanding instance of the expectation.
  void expect(ExpectationId id) {
    ++expectations_[id].outstanding;
    ++outstanding_total_;
  }
  /// Resolves one outstanding instance (over-fulfilling is ignored).
  void fulfill(ExpectationId id) {
    if (expectations_[id].outstanding == 0) return;
    --expectations_[id].outstanding;
    --outstanding_total_;
  }
  [[nodiscard]] std::uint64_t outstanding_expectations() const { return outstanding_total_; }

  /// Rebuilt at the end of every run(). A run whose queues drain while
  /// expectations remain outstanding reports deadlocked() instead of
  /// returning silently.
  [[nodiscard]] const QuiescenceReport& quiescence_report() const { return report_; }

  /// Runs until the event queue drains or `end` is passed. Returns the
  /// number of callbacks executed. Stops (throwing std::runtime_error) if a
  /// single timestamp exceeds the delta limit (combinational loop guard);
  /// the runnable/update sets are cleared before throwing so the kernel
  /// stays usable (timed events remain pending).
  std::uint64_t run(SimTime end = SimTime::max());

  /// True when nothing remains scheduled.
  [[nodiscard]] bool idle() const {
    return timed_size_ == 0 && runnable_.empty() && next_runnable_.empty();
  }

  /// Checkpoint-encoding observability, fed by the replay layer (standalone
  /// snapshots, CheckpointStore). Sections dirty/total describe
  /// incremental encodes; wall times are host-clock nanoseconds.
  struct SnapshotStats {
    std::uint64_t encodes = 0;          ///< Snapshot/checkpoint serializations.
    std::uint64_t restores = 0;         ///< Successful snapshot applications.
    std::uint64_t bytes_written = 0;    ///< Serialized bytes across all encodes.
    std::uint64_t sections_dirty = 0;   ///< Sections re-encoded with a payload.
    std::uint64_t sections_total = 0;   ///< Sections considered across all encodes.
    std::uint64_t encode_wall_ns = 0;   ///< Host time spent serializing.
    std::uint64_t restore_wall_ns = 0;  ///< Host time spent decoding + applying.
    std::uint64_t store_wall_ns = 0;    ///< Host time creating, appending, pruning chains.
  };

  /// Scheduler observability counters (monotonic over the kernel's life).
  struct Stats {
    std::uint64_t timed_peak = 0;             ///< high-water mark of pending timed events
    std::uint64_t max_deltas_per_instant = 0; ///< worst delta-cycle count at one timestamp
    std::uint64_t wheel_hits = 0;             ///< timed entries bucketed in the wheel
    std::uint64_t heap_hits = 0;              ///< timed entries overflowed to the far heap
    std::uint64_t cascades = 0;               ///< heap entries migrated into the wheel
    std::uint64_t processes_registered = 0;   ///< register_process calls
    std::uint64_t collapsed_notifications = 0;///< delta notify() calls absorbed by a pending one
    SnapshotStats snapshot;                   ///< checkpoint encode/restore accounting

    /// Every counter once, in fleet wire order: `visit(name, kind,
    /// r.field...)` over the records `r` (none, one, or two in step).
    template <typename Visit, typename... Self>
    static constexpr void counters(Visit&& visit, Self&... r) {
      using enum Counter;
      visit("timed_peak", kMax, r.timed_peak...);
      visit("max_deltas_per_instant", kMax, r.max_deltas_per_instant...);
      visit("wheel_hits", kSum, r.wheel_hits...);
      visit("heap_hits", kSum, r.heap_hits...);
      visit("cascades", kSum, r.cascades...);
      visit("processes_registered", kSum, r.processes_registered...);
      visit("collapsed_notifications", kSum, r.collapsed_notifications...);
      visit("snapshot.encodes", kSum, r.snapshot.encodes...);
      visit("snapshot.restores", kSum, r.snapshot.restores...);
      visit("snapshot.bytes_written", kSum, r.snapshot.bytes_written...);
      visit("snapshot.sections_dirty", kSum, r.snapshot.sections_dirty...);
      visit("snapshot.sections_total", kSum, r.snapshot.sections_total...);
      visit("snapshot.encode_wall_ns", kWall, r.snapshot.encode_wall_ns...);
      visit("snapshot.restore_wall_ns", kWall, r.snapshot.restore_wall_ns...);
      visit("snapshot.store_wall_ns", kWall, r.snapshot.store_wall_ns...);
    }
  };
  [[nodiscard]] const Stats& stats() const { return stats_; }

  /// Accounting hooks for the snapshot machinery (replay layer).
  void note_snapshot_encode(std::uint64_t bytes, std::uint64_t sections_dirty,
                            std::uint64_t sections_total, std::uint64_t wall_ns) {
    ++stats_.snapshot.encodes;
    stats_.snapshot.bytes_written += bytes;
    stats_.snapshot.sections_dirty += sections_dirty;
    stats_.snapshot.sections_total += sections_total;
    stats_.snapshot.encode_wall_ns += wall_ns;
  }
  void note_snapshot_restore(std::uint64_t wall_ns) {
    ++stats_.snapshot.restores;
    stats_.snapshot.restore_wall_ns += wall_ns;
  }
  void note_snapshot_store(std::uint64_t wall_ns) { stats_.snapshot.store_wall_ns += wall_ns; }

  // --- Checkpoint / restore --------------------------------------------------

  /// Serializable scheduler state. Pending timed events are captured as
  /// {time, sequence, ProcessId} metadata — process *bodies* are not
  /// captured; a restoring kernel must have registered the same processes in
  /// the same order (deterministic construction), which makes ProcessIds
  /// stable addresses across processes.
  struct Checkpoint {
    std::uint64_t now_ps = 0;
    std::uint64_t sequence = 0;
    std::uint64_t delta_count = 0;
    std::uint64_t events_processed = 0;
    std::uint64_t process_count = 0;  ///< Registered processes at capture time.

    struct PendingTimed {
      std::uint64_t at_ps = 0;
      std::uint64_t sequence = 0;  ///< FIFO tiebreak among same-time events.
      ProcessId process = kInvalidProcess;
    };
    std::vector<PendingTimed> timed;  ///< Sorted by (at_ps, sequence).

    struct ExpectationEntry {
      std::string label;
      std::uint64_t outstanding = 0;
    };
    std::vector<ExpectationEntry> expectations;  ///< One per registered id.
  };

  /// Captures the scheduler state between run() calls — or from inside a
  /// process that is the *only* member of its delta batch (a background
  /// checkpoint tick). Fails (returns false, reports through `sink`) when
  /// called mid-delta: runnable processes, batch co-members still to run,
  /// or pending signal updates exist, because their in-flight work would be
  /// invisible to the capture.
  bool capture_checkpoint(Checkpoint& out, support::DiagnosticSink& sink) const;

  /// Replaces the scheduler state with `checkpoint`: time, sequence counter,
  /// counters, every pending timed event, and expectation counters. All
  /// previously pending work is discarded (a deterministic setup schedules
  /// its initial events at construction; the snapshot supersedes them).
  /// Validates before mutating: unknown ProcessIds, events in the past, or
  /// expectation labels that do not match this kernel's registrations report
  /// through `sink` and return false with the kernel unchanged.
  bool restore_checkpoint(const Checkpoint& checkpoint, support::DiagnosticSink& sink);

  /// Attaches (or detaches, with nullptr) an event recorder/verifier. The
  /// hot-path cost when detached is a single pointer null check per event.
  void set_recorder(EventRecorder* recorder) { recorder_ = recorder; }
  [[nodiscard]] EventRecorder* recorder() const { return recorder_; }

  static constexpr std::uint64_t kMaxDeltasPerInstant = 10000;

  /// Wheel geometry: buckets of 2^kWheelShift ps (≈1ns), kWheelBuckets of
  /// them — events within ~4.2us of now() go to the wheel, farther ones to
  /// the overflow heap.
  static constexpr std::uint32_t kWheelShift = 10;
  static constexpr std::uint32_t kWheelBuckets = 4096;

 private:
  struct TimedEntry {
    std::uint64_t at_ps;
    std::uint64_t sequence;
    ProcessId process;
    std::int32_t next;  // intrusive chain link within a wheel bucket
  };

  static bool heap_later(const TimedEntry& a, const TimedEntry& b) {
    if (a.at_ps != b.at_ps) return a.at_ps > b.at_ps;
    return a.sequence > b.sequence;
  }

  static constexpr std::uint32_t kWheelMask = kWheelBuckets - 1;
  static constexpr std::uint32_t kWheelWords = kWheelBuckets / 64;

  // Called by SimEvent.
  friend class SimEvent;
  void enqueue_delta_subscribers(SimEvent& event);

  void push_timed(std::uint64_t at_ps, ProcessId process);
  void push_wheel(const TimedEntry& entry);
  void cascade_heap();
  /// Earliest pending timed timestamp; timed_size_ must be nonzero. Caches
  /// the wheel slot holding it (or -1 for heap) for collect_runnable_at.
  [[nodiscard]] std::uint64_t peek_next_timed();
  /// Wheel slot of the first occupied bucket at/after the cursor in window
  /// order, or -1 when the wheel is empty.
  [[nodiscard]] int first_occupied_slot() const;
  /// Moves every wheel entry at exactly `at_ps` into runnable_ (FIFO by
  /// sequence). Caller must have advanced now_/wheel base first.
  void collect_runnable_at(std::uint64_t at_ps);

  void run_process(ProcessId process);
  /// Out-of-line recorder notification (recorder_ already known non-null).
  void record_event(ProcessId process);
  /// Promotes next_runnable_ to runnable_ and clears pending-notification
  /// flags (their subscribers are now in the runnable set).
  void begin_delta();
  void run_delta_loop();
  /// Clears all delta-cycle state so the kernel survives a thrown
  /// combinational-loop error; timed events stay pending.
  void clear_delta_state();

  SimTime now_;
  std::uint64_t sequence_ = 0;
  std::uint64_t delta_count_ = 0;
  std::uint64_t events_processed_ = 0;

  // Process table. deque: references stay stable while callbacks register
  // further processes mid-run.
  std::deque<std::function<void()>> processes_;
  std::deque<std::string> labels_;  // parallel to processes_
  EventRecorder* recorder_ = nullptr;

  // Timed events: wheel (intrusive chains over a pooled arena — bucket
  // heads are one contiguous array and freed pool slots are reused LIFO,
  // so the steady-state working set stays cache-resident) + occupancy
  // bitmaps + overflow heap.
  std::vector<std::int32_t> wheel_heads_;  // kWheelBuckets, -1 = empty
  std::vector<TimedEntry> pool_;
  std::vector<std::int32_t> free_pool_;
  std::uint64_t occupancy_[kWheelWords] = {};
  std::uint64_t occupancy_summary_ = 0;
  std::vector<TimedEntry> heap_;  // min-heap via heap_later
  std::uint64_t wheel_base_quantum_ = 0;
  std::uint64_t wheel_count_ = 0;
  std::uint64_t timed_size_ = 0;
  int peeked_slot_ = -1;  // wheel slot found by peek_next_timed, -1 = heap
  // When exactly one timed event is pending and it sits in the wheel, its
  // slot; -1 = unknown (fall back to the bitmap scan). Lets the sparse
  // steady state (single self-rescheduling process) pop in O(1) flat.
  int solo_slot_ = -1;

  // Delta-cycle working sets (members so run_delta_loop allocates nothing
  // in steady state: capacity is retained across deltas and runs).
  std::vector<ProcessId> runnable_;
  std::vector<ProcessId> next_runnable_;
  std::vector<ProcessId> current_;
  // Batch co-members still to run after the currently-executing process.
  // capture_checkpoint refuses while nonzero: a multi-entry evaluate batch
  // is walked from current_, which the runnable_-emptiness check alone
  // cannot see (an in-simulation checkpoint tick is only sound when it is
  // the lone member of its batch).
  std::size_t batch_remaining_ = 0;
  std::vector<Updatable*> update_requests_;
  std::vector<Updatable*> update_scratch_;
  std::vector<TimedEntry> collect_scratch_;
  std::vector<SimEvent*> pending_delta_events_;

  // Expectation registry (resilience diagnostics). deque: labels referenced
  // by the report builder stay stable as registrations grow the table.
  struct Expectation {
    std::string label;
    std::uint64_t outstanding = 0;
  };
  std::deque<Expectation> expectations_;
  std::uint64_t outstanding_total_ = 0;
  QuiescenceReport report_;

  Stats stats_;
};

static_assert(sizeof(Kernel::Stats) == 8 * counter_count<Kernel::Stats>(),
              "every Kernel::Stats field needs an entry in Stats::counters()");

// ---- inline hot path ------------------------------------------------------
// Scheduling an already-registered handle is the per-event steady-state
// path; defining it here lets callers (Clock, Signal, generated modules,
// benchmarks) inline the wheel push instead of paying a cross-TU call.

inline void Kernel::push_wheel(const TimedEntry& entry) {
  const std::uint32_t slot =
      static_cast<std::uint32_t>(entry.at_ps >> kWheelShift) & kWheelMask;
  std::int32_t index;
  if (!free_pool_.empty()) {
    index = free_pool_.back();
    free_pool_.pop_back();
    pool_[static_cast<std::size_t>(index)] = entry;
  } else {
    index = static_cast<std::int32_t>(pool_.size());
    pool_.push_back(entry);
  }
  pool_[static_cast<std::size_t>(index)].next = wheel_heads_[slot];
  wheel_heads_[slot] = index;
  occupancy_[slot >> 6] |= 1ULL << (slot & 63);
  occupancy_summary_ |= 1ULL << (slot >> 6);
  ++wheel_count_;
}

inline void Kernel::push_timed(std::uint64_t at_ps, ProcessId process) {
  const TimedEntry entry{at_ps, ++sequence_, process, -1};
  const std::uint64_t quantum = at_ps >> kWheelShift;
  if (quantum - wheel_base_quantum_ < kWheelBuckets) {
    push_wheel(entry);
    ++stats_.wheel_hits;
    solo_slot_ = timed_size_ == 0
                     ? static_cast<int>(static_cast<std::uint32_t>(quantum) & kWheelMask)
                     : -1;
  } else {
    heap_.push_back(entry);
    std::push_heap(heap_.begin(), heap_.end(), heap_later);
    ++stats_.heap_hits;
    solo_slot_ = -1;
  }
  ++timed_size_;
  // timed_peak is sampled at the top of each run() timestep (exact: pushes
  // land between collections), keeping this hot path lean.
}

inline void Kernel::schedule(SimTime delay, ProcessId process) {
  push_timed((now_ + delay).picoseconds(), process);
}

inline void Kernel::enqueue_delta_subscribers(SimEvent& event) {
  if (event.subscribers_.size() == 1) {
    next_runnable_.push_back(event.subscribers_.front());
  } else {
    next_runnable_.insert(next_runnable_.end(), event.subscribers_.begin(),
                          event.subscribers_.end());
  }
  pending_delta_events_.push_back(&event);
}

inline void SimEvent::notify() {
  if (subscribers_.empty()) return;
  if (delta_pending_) {
    ++kernel_.stats_.collapsed_notifications;
    return;
  }
  delta_pending_ = true;
  kernel_.enqueue_delta_subscribers(*this);
}

inline void SimEvent::notify(SimTime delay) {
  for (ProcessId subscriber : subscribers_) kernel_.schedule(delay, subscriber);
}

inline void SimEvent::subscribe(ProcessId process) { subscribers_.push_back(process); }

}  // namespace umlsoc::sim
