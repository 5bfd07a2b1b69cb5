// Memory-mapped bus with latency: the TLM-style blocking-transport
// substitute. Devices register address windows; masters issue reads/writes
// that complete (callbacks) after the bus latency.
//
// Completions carry a BusStatus, which resolves the classic all-ones
// ambiguity: a device can legitimately return 0xFFFF'FFFF'FFFF'FFFF, and
// only the status distinguishes that from a decode error.
//
// Resilience: an installed sim::FaultPlan is consulted at every issue
// (sites kBusRead/kBusWrite) and can inject transaction errors, data
// bit-flips, and dropped (hung-device) responses; the plan's site counters
// count them. BusMasterPort layers per-master timeout supervision with
// retry + exponential backoff on top, and registers its in-flight
// transactions as kernel expectations so hangs surface in the
// QuiescenceReport.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "sim/kernel.hpp"

namespace umlsoc::sim {

class FaultPlan;

/// Completion status of a bus transaction.
enum class BusStatus : std::uint8_t {
  kOk = 0,
  kError,    ///< Decode error (unmapped address) or injected transaction error.
  kTimeout,  ///< Master-side timeout (reported by BusMasterPort after retries).
};

/// Bus observability counters (monotonic over the bus's life).
struct BusStats {
  std::uint64_t reads = 0;
  std::uint64_t writes = 0;
  std::uint64_t errors = 0;  ///< Decode errors + injected errors.
  std::uint64_t completions = 0;          ///< Issued transactions whose latency elapsed.
  std::uint64_t dropped_completions = 0;  ///< Responses that never reached the master.
};

class MemoryMappedBus {
 public:
  using ReadHandler = std::function<std::uint64_t(std::uint64_t address)>;
  using WriteHandler = std::function<void(std::uint64_t address, std::uint64_t value)>;
  /// Status-carrying completions (primary API).
  using ReadCompletion = std::function<void(BusStatus status, std::uint64_t value)>;
  using WriteCompletion = std::function<void(BusStatus status)>;

  MemoryMappedBus(Kernel& kernel, std::string name, SimTime latency);

  /// Maps [base, base+size) to the handlers. Overlapping windows are a
  /// wiring error and are rejected at registration time
  /// (std::invalid_argument), as is a zero-size window.
  void map_device(std::string device_name, std::uint64_t base, std::uint64_t size,
                  ReadHandler read, WriteHandler write);

  /// Non-blocking master read; `done` fires after the bus latency with the
  /// completion status and the device's value. Unmapped addresses complete
  /// with kError (value kBusError); a fault-injected drop never completes
  /// (pair with BusMasterPort for timeout supervision).
  void read(std::uint64_t address, ReadCompletion done);

  /// Non-blocking master write; `done` fires after the latency.
  void write(std::uint64_t address, std::uint64_t value, WriteCompletion done);

  /// Sentinel value delivered to ReadCompletion alongside kError (a device
  /// legitimately returning all-ones is disambiguated by the status).
  static constexpr std::uint64_t kBusError = ~0ULL;

  /// Installs (or clears, with nullptr) a fault plan consulted at every
  /// issue. The fault-free path costs exactly this null check.
  void install_fault_plan(FaultPlan* plan) { fault_plan_ = plan; }
  [[nodiscard]] FaultPlan* fault_plan() const { return fault_plan_; }

  [[nodiscard]] const BusStats& stats() const { return stats_; }
  [[nodiscard]] std::uint64_t reads() const { return stats_.reads; }
  [[nodiscard]] std::uint64_t writes() const { return stats_.writes; }
  [[nodiscard]] std::uint64_t errors() const { return stats_.errors; }
  [[nodiscard]] const std::string& name() const { return name_; }

  /// Issued transactions whose completion has not fired yet. A bus is only
  /// checkpointable while this is zero: a pending transaction's completion
  /// callback cannot be serialized.
  [[nodiscard]] std::size_t pending_transactions() const { return pending_.size(); }

  /// Checkpointable bus state: the counters.
  [[nodiscard]] const BusStats& capture_checkpoint() const { return stats_; }
  /// Capture refuses while transactions are pending, so a restored bus has
  /// none: a transaction still in flight when a live rig is rewound belongs
  /// to the abandoned timeline (its completion wakeup went with the
  /// kernel's schedule) and is dropped.
  void restore_checkpoint(const BusStats& stats) {
    stats_ = stats;
    pending_.clear();
  }

 private:
  struct Window {
    std::string device_name;
    std::uint64_t base;
    std::uint64_t size;
    ReadHandler read;
    WriteHandler write;
  };

  /// An issued transaction waiting for its completion time. The data phase
  /// (device handler + master callback) runs at completion, modeling the
  /// end of the bus transaction.
  struct Pending {
    const Window* window;  // nullptr = decode error
    BusStatus status;
    bool is_read;
    bool dropped;  // Hung device: data phase skipped, master never called.
    std::uint64_t address;
    std::uint64_t value;
    std::uint64_t flip_mask;  // Injected data corruption (0 = clean).
    ReadCompletion read_done;
    WriteCompletion write_done;
  };

  [[nodiscard]] const Window* find_window(std::uint64_t address) const;
  void issue(Pending txn);
  void complete_front();

  Kernel& kernel_;
  std::string name_;
  SimTime latency_;
  // deque: element addresses stay stable across map_device calls (the
  // pending transactions capture Window pointers).
  std::deque<Window> windows_;
  // One completion process drains pending_ in FIFO order. Every
  // transaction takes the same latency, so completions come due in issue
  // order and the single handle needs no per-transaction closure on the
  // kernel side.
  ProcessId completion_ = kInvalidProcess;
  std::deque<Pending> pending_;
  FaultPlan* fault_plan_ = nullptr;
  BusStats stats_;
};

/// Per-master retry policy for BusMasterPort.
struct RetryPolicy {
  /// Supervision deadline for the first attempt; zero disables timeouts
  /// (the port then only forwards completions and tracks expectations).
  SimTime timeout{};
  /// Total attempts including the first. 1 = no retries.
  int max_attempts = 1;
  /// Each retry multiplies the previous deadline by this (exponential
  /// backoff); 1 keeps a constant deadline.
  unsigned backoff_multiplier = 2;
};

/// A master-side port wrapping a bus: issues transactions with timeout
/// supervision and retry/backoff per RetryPolicy, keeps per-port stats, and
/// registers every in-flight transaction as a kernel expectation (a hung
/// transaction shows up in the QuiescenceReport instead of vanishing).
class BusMasterPort {
 public:
  /// Progress notices for observers (e.g. driving a statechart's error
  /// channel): one notice per timeout, retry, and final completion.
  struct Notice {
    enum class Kind : std::uint8_t { kTimeout, kRetry, kCompleted, kExhausted };
    Kind kind;
    BusStatus status;  ///< Valid for kCompleted / kExhausted.
    bool is_read;
    std::uint64_t address;
    int attempt;  ///< 0-based attempt the notice refers to.
  };

  struct Stats {
    std::uint64_t transactions = 0;
    std::uint64_t timeouts = 0;
    std::uint64_t retries = 0;
    std::uint64_t exhausted = 0;         ///< Gave up after max_attempts.
    std::uint64_t recovered = 0;         ///< Succeeded on a retry attempt.
    std::uint64_t late_completions = 0;  ///< Responses that arrived after a timeout.
  };

  BusMasterPort(Kernel& kernel, MemoryMappedBus& bus, std::string name,
                RetryPolicy policy = {});

  void read(std::uint64_t address, MemoryMappedBus::ReadCompletion done);
  void write(std::uint64_t address, std::uint64_t value,
             MemoryMappedBus::WriteCompletion done);

  void set_listener(std::function<void(const Notice&)> listener) {
    listener_ = std::move(listener);
  }

  [[nodiscard]] const Stats& stats() const { return stats_; }
  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] const RetryPolicy& policy() const { return policy_; }

  /// Checkpointable per-port state: the counters. Supervision entries for
  /// in-flight transactions hold completion callbacks and cannot be
  /// captured — the port's in-flight expectation makes capture_image
  /// reject such states, so a restorable checkpoint always has an empty
  /// supervision queue, and a restore into a live port empties it too.
  [[nodiscard]] const Stats& capture_checkpoint() const { return stats_; }
  void restore_checkpoint(const Stats& stats) {
    stats_ = stats;
    supervision_.clear();
  }

 private:
  struct Txn {
    bool is_read;
    std::uint64_t address;
    std::uint64_t value;  // Writes only.
    int attempt = 0;
    bool completed = false;
    MemoryMappedBus::ReadCompletion read_done;
    MemoryMappedBus::WriteCompletion write_done;
  };

  /// A scheduled timeout check for one attempt. Supervision runs on a single
  /// registered kernel process (no per-attempt std::function registration,
  /// and — unlike a transient closure — snapshot-restorable): each attempt
  /// appends an entry and schedules the shared process at the deadline; the
  /// process drains every entry that is due.
  struct Supervision {
    std::uint64_t due_ps;
    int attempt;
    std::shared_ptr<Txn> txn;
  };

  void start_attempt(const std::shared_ptr<Txn>& txn);
  void finish(const std::shared_ptr<Txn>& txn, BusStatus status, std::uint64_t value);
  /// Retries if the policy allows; returns false when attempts are spent.
  bool try_retry(const std::shared_ptr<Txn>& txn);
  void notify(Notice::Kind kind, const Txn& txn, BusStatus status) const;
  [[nodiscard]] SimTime deadline_for(int attempt) const;
  void check_timeouts();
  void handle_timeout(const std::shared_ptr<Txn>& txn, int attempt);

  Kernel& kernel_;
  MemoryMappedBus& bus_;
  std::string name_;
  RetryPolicy policy_;
  ExpectationId inflight_ = kInvalidExpectation;
  ProcessId timeout_process_ = kInvalidProcess;
  std::vector<Supervision> supervision_;  // Insertion (FIFO) order.
  std::vector<Supervision> due_scratch_;
  std::function<void(const Notice&)> listener_;
  Stats stats_;
};

}  // namespace umlsoc::sim
