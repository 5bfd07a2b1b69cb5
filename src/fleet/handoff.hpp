// Checkpoint-based work handoff for the cross-process fleet: the wire
// protocol the process pool speaks over its worker pipes, and the ledger
// that makes re-dispatch after a worker death safe.
//
// Protocol. Each direction of a worker pipe carries a stream of framed
// messages: [magic u32][type u8][length u32][payload]. The parent sends
// kAssign (a batch of seed grants) and kShutdown; a worker sends kHello
// once after exec-less fork, kHeartbeat on a timer thread, kStartSeed
// before it begins a grant and kResult after. Frames are written whole
// under a worker-side mutex (heartbeat thread and runner share the pipe),
// so the parent never sees two messages interleaved; a worker killed
// mid-write leaves at most one truncated frame at the end of the stream,
// which FrameReader simply never completes. Every payload integer is
// little-endian and the RigOutcome codec is versioned, so a result
// round-trips bit-exactly — the property that keeps a process-isolated
// fleet's report fingerprint identical to an in-process run.
//
// Ledger. HandoffLedger owns the at-most-once outcome accounting: every
// seed moves Pending -> Assigned -> InFlight -> Done, a worker death
// requeues its unfinished grants (re-dispatch), a result for a seed that
// is already Done is rejected (the pool drains a dead worker's pipe before
// requeueing, so a result that raced the kill is accepted once and only
// once), and a seed whose execution killed `quarantine_threshold`
// consecutive workers is poisoned instead of requeued — the pool
// synthesizes a failed outcome for it and the fleet moves on.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "fleet/outcome.hpp"

namespace umlsoc::fleet {

// --- Wire protocol ------------------------------------------------------------

enum class FrameType : std::uint8_t {
  kHello = 1,      ///< worker -> parent: ready (payload: u64 pid).
  kHeartbeat = 2,  ///< worker -> parent: liveness beat (empty payload).
  kStartSeed = 3,  ///< worker -> parent: beginning a grant (u64 index, u32 attempt).
  kResult = 4,     ///< worker -> parent: u64 index + encoded RigOutcome.
  kAssign = 5,     ///< parent -> worker: batch of Grants.
  kShutdown = 6,   ///< parent -> worker: drain and _exit(0) (empty payload).
};

struct Frame {
  FrameType type = FrameType::kHeartbeat;
  std::string payload;
};

/// One unit of work the parent hands a worker.
struct Grant {
  std::uint64_t index = 0;  ///< Dense result-slot index.
  std::uint64_t seed = 0;
  std::uint32_t attempt = 0;         ///< 0 first dispatch, +1 per re-dispatch.
  std::uint32_t fault_template = 0;  ///< index % templates, stamped by the driver.
};

/// Serializes one frame (header + payload) ready for write().
[[nodiscard]] std::string encode_frame(FrameType type, std::string_view payload);

/// Incremental frame decoder over a pipe byte stream. Feed bytes as they
/// arrive; next() yields complete frames in order. A bad magic or an
/// implausible length marks the stream corrupt — the connection is
/// unusable from that point and the worker should be treated as dead.
class FrameReader {
 public:
  void feed(const char* data, std::size_t size);
  /// Extracts the next complete frame; false when none is buffered (or the
  /// stream is corrupt). A truncated tail (worker killed mid-write) is
  /// simply never completed and is discarded with the reader.
  [[nodiscard]] bool next(Frame& out);
  [[nodiscard]] bool corrupt() const { return corrupt_; }
  [[nodiscard]] std::size_t buffered() const { return buffer_.size() - consumed_; }

 private:
  std::string buffer_;
  std::size_t consumed_ = 0;
  bool corrupt_ = false;
};

// Payload codecs, over the byte codec in support/bytes.hpp. Decoders return
// false on truncated or malformed input (never read out of bounds, never
// throw, never size a container from a count read off the wire).
[[nodiscard]] std::string encode_hello(std::uint64_t pid);
[[nodiscard]] std::string encode_start_seed(std::uint64_t index, std::uint32_t attempt);
[[nodiscard]] bool decode_start_seed(std::string_view payload, std::uint64_t& index,
                                     std::uint32_t& attempt);
[[nodiscard]] std::string encode_assign(const std::vector<Grant>& grants);
[[nodiscard]] bool decode_assign(std::string_view payload, std::vector<Grant>& grants);

/// Versioned bit-exact RigOutcome codec: every field, including the
/// host-side ones (wall_ns, attempts, resumed_from_seq) — the parent, not
/// the wire, decides what feeds determinism checks.
[[nodiscard]] std::string encode_result(std::uint64_t index, const RigOutcome& outcome);
[[nodiscard]] bool decode_result(std::string_view payload, std::uint64_t& index,
                                 RigOutcome& outcome);

// --- At-most-once work ledger -------------------------------------------------

class HandoffLedger {
 public:
  enum class SeedState : std::uint8_t {
    kPending,   ///< Never dispatched (or requeued and awaiting a claim).
    kAssigned,  ///< Granted to a worker, not yet started.
    kInFlight,  ///< Worker reported kStartSeed.
    kDone,      ///< Outcome accepted (exactly once).
    kPoisoned,  ///< Quarantined: killed `quarantine_threshold` workers.
  };

  HandoffLedger() = default;
  HandoffLedger(std::uint64_t total, std::uint32_t quarantine_threshold);

  /// Claims up to `max` grants for `worker`: requeued seeds first (oldest
  /// death first, so a re-dispatched seed never starves behind fresh work),
  /// then fresh seeds in index order. Claimed seeds become kAssigned.
  [[nodiscard]] std::vector<std::uint64_t> claim(unsigned worker, std::uint64_t max);

  /// Worker reported it began `index`. False if the worker does not hold
  /// that grant (stale frame) — the pool treats that as protocol corruption.
  [[nodiscard]] bool start(unsigned worker, std::uint64_t index);

  /// Accepts the outcome for `index` at most once. False means the result
  /// must be dropped: duplicate (already done/poisoned) or not granted to
  /// this worker.
  [[nodiscard]] bool accept(unsigned worker, std::uint64_t index);

  struct DeathReport {
    std::vector<std::uint64_t> requeued;  ///< Unfinished grants, back to pending.
    std::vector<std::uint64_t> poisoned;  ///< Newly quarantined (not requeued).
  };

  /// Settles a dead worker's grants. The in-flight seed (started, no result)
  /// is charged one worker kill; at `quarantine_threshold` kills it is
  /// poisoned, otherwise requeued with the rest of the unfinished grants,
  /// each with attempt + 1.
  [[nodiscard]] DeathReport on_worker_death(unsigned worker);

  /// Attempt counter the next dispatch of `index` should carry.
  [[nodiscard]] std::uint32_t attempt(std::uint64_t index) const {
    return seeds_[index].attempt;
  }
  [[nodiscard]] std::uint32_t kills(std::uint64_t index) const {
    return seeds_[index].kills;
  }
  [[nodiscard]] SeedState state(std::uint64_t index) const {
    return seeds_[index].state;
  }

  /// True when every seed is Done or Poisoned — the fleet run is complete.
  [[nodiscard]] bool settled() const { return done_ + poisoned_ == seeds_.size(); }
  /// True when no unfinished work remains to claim (all assigned or settled).
  [[nodiscard]] bool drained() const { return requeue_.empty() && cursor_ == seeds_.size(); }
  [[nodiscard]] std::uint64_t done() const { return done_; }
  [[nodiscard]] std::uint64_t poisoned() const { return poisoned_; }
  [[nodiscard]] std::uint64_t redispatches() const { return redispatches_; }

 private:
  struct SeedRecord {
    SeedState state = SeedState::kPending;
    unsigned owner = 0;        ///< Valid while kAssigned/kInFlight.
    std::uint32_t attempt = 0; ///< Dispatch count charged so far.
    std::uint32_t kills = 0;   ///< Workers that died while this seed was in flight.
  };

  std::vector<SeedRecord> seeds_;
  std::vector<std::uint64_t> requeue_;  ///< FIFO of seeds to re-dispatch.
  std::uint64_t cursor_ = 0;            ///< Next fresh (never-dispatched) index.
  std::uint64_t done_ = 0;
  std::uint64_t poisoned_ = 0;
  std::uint64_t redispatches_ = 0;
  std::uint32_t quarantine_threshold_ = 3;
};

}  // namespace umlsoc::fleet
