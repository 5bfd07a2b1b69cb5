#include "verify/statespace.hpp"

#include <algorithm>
#include <cstring>

#include "support/bytes.hpp"
#include "support/checksum.hpp"

namespace umlsoc::verify {

// --- Encoding ------------------------------------------------------------------

namespace {

using statechart::InstanceSnapshot;

constexpr std::uint32_t kStarted = 1u;
constexpr std::uint32_t kTerminated = 2u;

/// One instance: a u32 flags word, then the shared execution-state layout.
void write_instance(support::ByteWriter& out, const InstanceSnapshot& snapshot) {
  out.u32((snapshot.started ? kStarted : 0u) | (snapshot.terminated ? kTerminated : 0u));
  // The writer only reads the snapshot.
  statechart::transfer_execution_state(out, const_cast<InstanceSnapshot&>(snapshot));
}

/// Decodes one instance into a reused scratch snapshot, keeping its
/// containers' capacity.
void read_instance(support::ByteReader& in, InstanceSnapshot& snapshot) {
  const std::uint32_t flags = in.u32();
  support::check(in, (flags & ~(kStarted | kTerminated)) == 0);
  snapshot.started = (flags & kStarted) != 0;
  snapshot.terminated = (flags & kTerminated) != 0;
  // The counters are not encoded, so a decoded snapshot carries zeros
  // rather than the previous decode's values.
  snapshot.events_processed = 0;
  snapshot.transitions_fired = 0;
  snapshot.errors_raised = 0;
  snapshot.errors_unhandled = 0;
  // ByteReader::sequence appends.
  snapshot.active_states.clear();
  snapshot.active_finals.clear();
  snapshot.shallow_history.clear();
  snapshot.deep_history.clear();
  snapshot.variables.clear();
  snapshot.queue.clear();
  snapshot.deferred.clear();
  statechart::transfer_execution_state(in, snapshot);
}

}  // namespace

void encode_snapshot(const InstanceSnapshot& snapshot, std::string& out) {
  support::ByteWriter writer(std::move(out));
  write_instance(writer, snapshot);
  out = writer.take();
}

std::string encode_network(const std::vector<InstanceSnapshot>& snapshots) {
  support::ByteWriter writer;
  writer.sequence(snapshots, [&writer](const InstanceSnapshot& snapshot) {
    write_instance(writer, snapshot);
  });
  return writer.take();
}

bool decode_network(std::string_view encoding, std::vector<InstanceSnapshot>& out,
                    std::vector<std::pair<std::size_t, std::size_t>>* segments) {
  support::ByteReader in(encoding);
  const std::uint32_t count = in.u32();
  // Every instance takes at least one byte, so a larger count is corrupt;
  // it must fail before it sizes `out`.
  if (count > in.remaining()) return false;
  // resize, not assign: the explorer re-decodes into the same scratch
  // snapshots on every expansion, and their buffers are kept.
  out.resize(count);
  if (segments != nullptr) segments->resize(count);
  for (std::uint32_t i = 0; i < count && !in.failed(); ++i) {
    const std::size_t begin = in.position();
    read_instance(in, out[i]);
    if (segments != nullptr) (*segments)[i] = {begin, in.position() - begin};
  }
  return in.exhausted();
}

// --- StateStore ----------------------------------------------------------------

namespace {
constexpr std::size_t kInitialSlots = 1024;  // Power of two.
}

StateStore::StateStore() : StateStore(Config{}) {}

StateStore::StateStore(Config config) : config_(config) {
  // Target slot count for the state count the budget can plausibly hold
  // (conservatively ~64 arena+entry bytes per state, target load ~0.75),
  // capping the table at 1/8 of the budget. Small explorations never pay
  // for it: the table starts at kInitialSlots, and the first growth jumps
  // straight to the target, so a budget-sized search rehashes exactly once
  // instead of through the doubling cascade that showed up as latency
  // spikes in E14 at N=4.
  const std::size_t budget_states = config_.memory_budget_bytes / 64;
  reserve_target_slots_ = kInitialSlots;
  while (reserve_target_slots_ < budget_states + budget_states / 3 &&
         reserve_target_slots_ * 2 * sizeof(std::uint32_t) <=
             config_.memory_budget_bytes / 8) {
    reserve_target_slots_ *= 2;
  }
  slots_.assign(kInitialSlots, kNoState);
}

std::size_t StateStore::bytes_used() const {
  return arena_.capacity() + entries_.capacity() * sizeof(Entry) +
         slots_.capacity() * sizeof(std::uint32_t);
}

bool StateStore::grow_slots() {
  const std::size_t new_size = std::max(slots_.size() * 2, reserve_target_slots_);
  const std::size_t projected = arena_.capacity() + entries_.capacity() * sizeof(Entry) +
                                new_size * sizeof(std::uint32_t);
  if (projected > config_.memory_budget_bytes) return false;
  std::vector<std::uint32_t> fresh(new_size, kNoState);
  const std::size_t mask = new_size - 1;
  for (std::uint32_t id = 0; id < entries_.size(); ++id) {
    std::size_t slot = entries_[id].fingerprint & mask;
    while (fresh[slot] != kNoState) slot = (slot + 1) & mask;
    fresh[slot] = id;
  }
  slots_ = std::move(fresh);
  return true;
}

StateStore::InsertResult StateStore::insert(std::string_view encoding, std::uint32_t parent,
                                            std::uint32_t action) {
  const std::uint64_t fingerprint =
      config_.hash != nullptr ? config_.hash(encoding) : support::xxh64(encoding);

  // A probe over a full table never terminates; when the budget blocked
  // earlier growth and the table has filled up anyway, fail structurally.
  if (entries_.size() + 1 >= slots_.size() && !grow_slots()) {
    return InsertResult{Status::kOutOfMemory, kNoState};
  }

  const std::size_t mask = slots_.size() - 1;
  std::size_t slot = fingerprint & mask;
  while (slots_[slot] != kNoState) {
    const std::uint32_t id = slots_[slot];
    const Entry& entry = entries_[id];
    if (entry.fingerprint == fingerprint) {
      if (entry.length == encoding.size() &&
          std::memcmp(arena_.data() + entry.offset, encoding.data(), encoding.size()) == 0) {
        ++revisits_;
        return InsertResult{Status::kVisited, id};
      }
      // Same fingerprint, different state: keep both, keep probing.
      ++collisions_;
    }
    slot = (slot + 1) & mask;
  }

  // Budget check before committing anything. Account for capacity doubling
  // so the charge reflects what the allocators will actually hold.
  std::size_t arena_needed = arena_.capacity();
  if (arena_.size() + encoding.size() > arena_needed) {
    arena_needed = std::max(arena_.size() + encoding.size(), arena_.capacity() * 2);
  }
  std::size_t entries_needed = entries_.capacity();
  if (entries_.size() + 1 > entries_needed) {
    entries_needed = std::max<std::size_t>(entries_.capacity() * 2, 16);
  }
  if (arena_needed + entries_needed * sizeof(Entry) + slots_.capacity() * sizeof(std::uint32_t) >
      config_.memory_budget_bytes) {
    return InsertResult{Status::kOutOfMemory, kNoState};
  }

  const auto id = static_cast<std::uint32_t>(entries_.size());
  Entry entry;
  entry.fingerprint = fingerprint;
  entry.offset = arena_.size();
  entry.length = static_cast<std::uint32_t>(encoding.size());
  entry.parent = parent;
  entry.action = action;
  entry.depth = parent == kNoState ? 0 : entries_[parent].depth + 1;
  arena_.append(encoding);
  entries_.push_back(entry);
  slots_[slot] = id;

  // Keep the load factor below ~0.75. A failed grow is only fatal once the
  // table is genuinely full; until then lookups just probe longer.
  if (entries_.size() * 4 > slots_.size() * 3) (void)grow_slots();
  return InsertResult{Status::kNew, id};
}

std::vector<std::uint32_t> StateStore::path_actions(std::uint32_t id) const {
  std::vector<std::uint32_t> actions;
  for (std::uint32_t current = id; current != kNoState && parent(current) != kNoState;
       current = parent(current)) {
    actions.push_back(action(current));
  }
  std::reverse(actions.begin(), actions.end());
  return actions;
}

}  // namespace umlsoc::verify
