// Canonical state encoding and the hashed visited-state store of the
// explicit-state verification engine (DESIGN.md "Explicit-state
// verification").
//
// A network state is the tuple of its instances' execution states. The
// encoding reuses PR 3's InstanceSnapshot capture — already canonical:
// indices ascending, variables sorted — serialized to a compact binary
// string *minus the monotonic counters* (events_processed and friends
// would make every state unique and the search diverge). Each instance is
// a u32 flags word followed by the execution-state layout the checkpoint
// codec also writes (statechart::transfer_execution_state over
// support/bytes.hpp). The encoding is bidirectional: the explorer stores
// only encodings and decodes them back into snapshots to re-seat the
// engines on a state before expanding it.
//
// The StateStore is an open-addressing hash set over encodings keyed by a
// 64-bit XXH64 fingerprint (support/checksum.hpp). A fingerprint match is
// never trusted on its own: the full encodings are compared byte-for-byte,
// so two distinct states that collide on the fingerprint stay distinct
// (the collision is counted, not conflated). The store runs under a
// configurable memory budget covering the encoding arena, the entry table
// and the slot array; an insert that would exceed it returns a structured
// kOutOfMemory instead of aborting, which the explorer surfaces as a
// "bound reached" result.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "statechart/engine.hpp"

namespace umlsoc::verify {

/// Appends the canonical encoding of one instance's execution state to
/// `out`, keeping its capacity. Captured: started/terminated flags, active
/// configuration, final flags, history, variables, pending and deferred
/// event pools. Excluded: the monotonic counters (events_processed,
/// transitions_fired, errors_raised, errors_unhandled) — they never repeat,
/// so including them would make every explored state fresh.
void encode_snapshot(const statechart::InstanceSnapshot& snapshot, std::string& out);

/// Canonical encoding of a network state (instance count, then each
/// instance's encoding in network order).
[[nodiscard]] std::string encode_network(
    const std::vector<statechart::InstanceSnapshot>& snapshots);

/// Inverse of encode_network. Returns false (leaving `out` unspecified) on
/// a malformed encoding: truncation, trailing bytes, undefined flag bits, or
/// counts that do not match the payload. Counters in the decoded snapshots
/// are zero, and snapshots already in `out` are reused as scratch. When
/// `segments` is non-null it receives each instance's (offset, length) byte
/// span within `encoding` — the explorer splices successor encodings from
/// these spans instead of re-encoding untouched instances.
[[nodiscard]] bool decode_network(
    std::string_view encoding, std::vector<statechart::InstanceSnapshot>& out,
    std::vector<std::pair<std::size_t, std::size_t>>* segments = nullptr);

/// Visited-state set with parent/action metadata for counterexample
/// reconstruction. States are dense ids in insertion order (the BFS/DFS
/// discovery order), so id 0 is always the initial state.
class StateStore {
 public:
  using HashFn = std::uint64_t (*)(std::string_view);

  struct Config {
    /// Budget over arena bytes + entry table + slot array. Exceeding it
    /// makes insert() return kOutOfMemory (the store stays queryable).
    std::size_t memory_budget_bytes = std::size_t{64} << 20;
    /// Fingerprint override for tests (forcing collisions); null = XXH64.
    HashFn hash = nullptr;
  };

  static constexpr std::uint32_t kNoState = 0xffffffffu;
  static constexpr std::uint32_t kNoAction = 0xffffffffu;

  enum class Status : std::uint8_t {
    kNew,          ///< First visit; a fresh id was assigned.
    kVisited,      ///< Already stored; id names the prior entry.
    kOutOfMemory,  ///< Insert would exceed the memory budget; not stored.
  };

  struct InsertResult {
    Status status = Status::kOutOfMemory;
    std::uint32_t id = kNoState;
  };

  StateStore();
  explicit StateStore(Config config);

  /// Inserts `encoding` reached from `parent` by alphabet entry `action`
  /// (kNoState/kNoAction for the initial state). Parent metadata is
  /// recorded only on first visit — the stored path is the discovery path.
  InsertResult insert(std::string_view encoding, std::uint32_t parent = kNoState,
                      std::uint32_t action = kNoAction);

  [[nodiscard]] std::size_t size() const { return entries_.size(); }
  [[nodiscard]] std::uint64_t revisits() const { return revisits_; }
  /// Counts an edge the caller proved lands on an already-stored state
  /// (successor encoding identical to its expanded base), sparing the
  /// hash-and-probe of a full insert.
  void note_revisit() { ++revisits_; }
  /// Fingerprint-equal, encoding-distinct pairs observed during probes.
  [[nodiscard]] std::uint64_t fingerprint_collisions() const { return collisions_; }
  [[nodiscard]] std::size_t bytes_used() const;
  [[nodiscard]] std::size_t memory_budget_bytes() const { return config_.memory_budget_bytes; }

  [[nodiscard]] std::string_view encoding(std::uint32_t id) const {
    const Entry& entry = entries_[id];
    return std::string_view(arena_).substr(entry.offset, entry.length);
  }
  [[nodiscard]] std::uint32_t parent(std::uint32_t id) const { return entries_[id].parent; }
  [[nodiscard]] std::uint32_t action(std::uint32_t id) const { return entries_[id].action; }
  [[nodiscard]] std::uint32_t depth(std::uint32_t id) const { return entries_[id].depth; }

  /// Action indices along the discovery path from the initial state to
  /// `id`, in firing order (empty for the initial state).
  [[nodiscard]] std::vector<std::uint32_t> path_actions(std::uint32_t id) const;

 private:
  struct Entry {
    std::uint64_t fingerprint = 0;
    std::size_t offset = 0;
    std::uint32_t length = 0;
    std::uint32_t parent = kNoState;
    std::uint32_t action = kNoAction;
    std::uint32_t depth = 0;
  };

  [[nodiscard]] bool grow_slots();

  Config config_;
  std::string arena_;                ///< Concatenated encodings.
  std::vector<Entry> entries_;       ///< Dense, id-indexed.
  std::vector<std::uint32_t> slots_; ///< Open addressing: id or kNoState.
  /// Budget-derived slot count the first growth jumps to (single rehash
  /// instead of a doubling cascade); small searches never reach it.
  std::size_t reserve_target_slots_ = 0;
  std::uint64_t revisits_ = 0;
  std::uint64_t collisions_ = 0;
};

}  // namespace umlsoc::verify
