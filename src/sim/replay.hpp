// Deterministic-replay support: an event-sequence recorder for the kernel.
//
// Attached via Kernel::set_recorder, the recorder observes every process
// execution as a {sim time, ProcessId} pair. Because the kernel is
// deterministic (FIFO same-time ordering by sequence number, seeded fault
// streams), the recorded sequence is a complete fingerprint of a run: two
// runs of the same setup diverge exactly where their event streams first
// differ.
//
// Two modes:
//  * kRecord — append events to the log (optionally a bounded ring that
//    keeps the last N events: the flight-recorder configuration for long
//    adversarial runs).
//  * kVerify — compare each event against an expected log and latch the
//    first divergence (expected vs actual process, time, label) instead of
//    crashing or silently drifting. Recording continues during verification
//    so the actual log stays available for inspection.
//
// The expected log is held as a SharedEventLog, a shared pointer to an
// immutable vector: a caller that verifies many windows against one
// recording (a root-cause search runs one per probe) makes one shared copy
// and hands it to every begin_verify, instead of copying the log per
// window. The recorder keeps the log alive for as long as it verifies
// against it, so no caller has to.
//
// Cost: detached, one pointer null check per event in the kernel hot path;
// attached, one bounds check and a 16-byte append.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "sim/kernel.hpp"

namespace umlsoc::sim {

/// One executed process activation.
struct RecordedEvent {
  std::uint64_t at_ps = 0;
  ProcessId process = kInvalidProcess;

  friend bool operator==(const RecordedEvent&, const RecordedEvent&) = default;
};

/// An immutable event log shared by every verify window that reads it.
using SharedEventLog = std::shared_ptr<const std::vector<RecordedEvent>>;

class EventRecorder {
 public:
  enum class Mode : std::uint8_t { kRecord, kVerify };

  /// First point where a verified run departs from the expected log.
  struct Divergence {
    std::uint64_t index = 0;    ///< Position in the event stream (0-based).
    bool extra_event = false;   ///< Actual run produced events past the log's end.
    RecordedEvent expected;     ///< Valid when !extra_event.
    RecordedEvent actual;
    std::string expected_label;
    std::string actual_label;

    /// "diverged at event #12: expected process 3 'bus.axi.completion' at
    /// 96ns, got process 5 'wd.main' at 104ns".
    [[nodiscard]] std::string str() const;
  };

  /// ring_capacity 0 keeps the full log; otherwise only the most recent
  /// `ring_capacity` events are retained (total_events() still counts all).
  explicit EventRecorder(std::size_t ring_capacity = 0);

  [[nodiscard]] Mode mode() const { return mode_; }
  [[nodiscard]] std::size_t ring_capacity() const { return ring_capacity_; }

  /// Events observed over the recorder's life (including overwritten ring
  /// entries and events restored from a snapshot).
  [[nodiscard]] std::uint64_t total_events() const { return total_; }
  /// Events no longer retained (ring overwrites).
  [[nodiscard]] std::uint64_t dropped_events() const { return total_ - retained_count(); }

  /// Retained events, oldest first.
  [[nodiscard]] std::vector<RecordedEvent> log() const;

  /// Replaces the log (snapshot restore): `events` become the retained
  /// prefix and `total` the running count. Recording continues after them,
  /// so a restored run's final log is directly comparable with an
  /// uninterrupted run's. The events are copied into the buffer the
  /// recorder already holds, so a restore allocates only when the log
  /// outgrows it.
  void restore_log(const std::vector<RecordedEvent>& events, std::uint64_t total);

  /// Switches to verify mode: events from stream position `start_index`
  /// onward are compared against `expected[start_index...]`. Pass the full
  /// expected log with start_index = total_events() to verify a restored
  /// run's continuation against an uninterrupted reference. This overload
  /// moves `expected` into a new shared log; a caller passing an lvalue
  /// copies it.
  void begin_verify(std::vector<RecordedEvent> expected, std::uint64_t start_index = 0);
  /// As above, verifying against `expected` (not null) without copying it.
  void begin_verify(SharedEventLog expected, std::uint64_t start_index = 0);

  /// Returns to record mode after a verify window, keeping the stream
  /// position and the retained log. Events past the expected log's end no
  /// longer latch an extra-event divergence — required when a rollback
  /// replays a verified suffix and then *resumes* live execution beyond
  /// the recording. Any divergence latched during the window survives.
  void end_verify();

  /// First mismatch latched so far (std::nullopt: no divergence yet).
  [[nodiscard]] const std::optional<Divergence>& divergence() const { return divergence_; }

  /// End-of-run check in verify mode: reports a divergence when the
  /// expected log has unconsumed events (the verified run stopped short).
  [[nodiscard]] std::optional<Divergence> missing_events() const;

  /// Kernel hook: called once per executed process. The common case —
  /// unbounded recording — inlines to a 16-byte append; ring and verify
  /// modes take the out-of-line path.
  void on_event(std::uint64_t at_ps, ProcessId process, const Kernel& kernel) {
    if (mode_ == Mode::kRecord) {
      ++total_;
      if (ring_capacity_ == 0 || events_.size() < ring_capacity_) {
        events_.push_back(RecordedEvent{at_ps, process});
        return;
      }
      events_[ring_head_] = RecordedEvent{at_ps, process};
      if (++ring_head_ == ring_capacity_) ring_head_ = 0;
      return;
    }
    on_event_slow(at_ps, process, kernel);
  }

 private:
  void on_event_slow(std::uint64_t at_ps, ProcessId process, const Kernel& kernel);

  [[nodiscard]] std::uint64_t retained_count() const {
    return events_.size();
  }

  Mode mode_ = Mode::kRecord;
  std::size_t ring_capacity_ = 0;
  std::vector<RecordedEvent> events_;  // Ring when ring_capacity_ != 0.
  std::size_t ring_head_ = 0;          // Oldest retained entry (ring mode).
  std::uint64_t total_ = 0;
  SharedEventLog expected_;  // Set in verify mode only.
  std::optional<Divergence> divergence_;
};

/// Offline comparison of two complete logs; labels resolved through
/// `kernel` when provided. Returns the first mismatch (including length
/// mismatches) or std::nullopt when identical.
[[nodiscard]] std::optional<EventRecorder::Divergence> first_divergence(
    const std::vector<RecordedEvent>& expected, const std::vector<RecordedEvent>& actual,
    const Kernel* kernel = nullptr);

}  // namespace umlsoc::sim
