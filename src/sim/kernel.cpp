#include "sim/kernel.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>

#include "sim/replay.hpp"

namespace umlsoc::sim {

std::string SimTime::str() const {
  if (ps_ % 1000000 == 0) return std::to_string(ps_ / 1000000) + "us";
  if (ps_ % 1000 == 0) return std::to_string(ps_ / 1000) + "ns";
  return std::to_string(ps_) + "ps";
}

SimEvent::SimEvent(Kernel& kernel, std::string name)
    : kernel_(kernel), name_(std::move(name)) {}

void SimEvent::subscribe(std::function<void()> callback) {
  subscribers_.push_back(kernel_.register_process(std::move(callback)));
}

std::string QuiescenceReport::str() const {
  if (!deadlocked()) {
    return drained ? "quiescent: clean" : "stopped at end time";
  }
  std::string out = "deadlock: " + std::to_string(outstanding_total) + " outstanding (";
  for (std::size_t i = 0; i < outstanding.size(); ++i) {
    if (i != 0) out += ", ";
    out += outstanding[i].label + " x" + std::to_string(outstanding[i].count);
  }
  out += ")";
  return out;
}

Kernel::Kernel() : wheel_heads_(kWheelBuckets, -1) {}

ExpectationId Kernel::register_expectation(std::string label) {
  expectations_.push_back(Expectation{std::move(label), 0});
  return static_cast<ExpectationId>(expectations_.size() - 1);
}

ProcessId Kernel::register_process(std::function<void()> body) {
  ++stats_.processes_registered;
  processes_.push_back(std::move(body));
  labels_.emplace_back();
  return static_cast<ProcessId>(processes_.size() - 1);
}

ProcessId Kernel::register_process(std::function<void()> body, std::string label) {
  const ProcessId id = register_process(std::move(body));
  labels_[id] = std::move(label);
  return id;
}

void Kernel::cascade_heap() {
  solo_slot_ = -1;
  while (!heap_.empty() &&
         (heap_.front().at_ps >> kWheelShift) - wheel_base_quantum_ < kWheelBuckets) {
    std::pop_heap(heap_.begin(), heap_.end(), heap_later);
    push_wheel(heap_.back());
    heap_.pop_back();
    ++stats_.cascades;
  }
}

int Kernel::first_occupied_slot() const {
  if (wheel_count_ == 0) return -1;
  const std::uint32_t cursor = static_cast<std::uint32_t>(wheel_base_quantum_) & kWheelMask;
  const std::uint32_t cursor_word = cursor >> 6;
  const std::uint32_t cursor_bit = cursor & 63;
  // Bits of the cursor word at/after the cursor.
  std::uint64_t word = occupancy_[cursor_word] & (~0ULL << cursor_bit);
  if (word != 0) return static_cast<int>((cursor_word << 6) + std::countr_zero(word));
  // Words strictly after the cursor word.
  if (cursor_word + 1 < kWheelWords) {
    const std::uint64_t high =
        occupancy_summary_ & ~((1ULL << (cursor_word + 1)) - 1);
    if (high != 0) {
      const auto w = static_cast<std::uint32_t>(std::countr_zero(high));
      return static_cast<int>((w << 6) + std::countr_zero(occupancy_[w]));
    }
  }
  // Wrap: words before the cursor word.
  const std::uint64_t low =
      occupancy_summary_ & ((cursor_word == 0) ? 0 : ((1ULL << cursor_word) - 1));
  if (low != 0) {
    const auto w = static_cast<std::uint32_t>(std::countr_zero(low));
    return static_cast<int>((w << 6) + std::countr_zero(occupancy_[w]));
  }
  // Wrapped tail of the cursor word (bits before the cursor).
  word = occupancy_[cursor_word] & ((cursor_bit == 0) ? 0 : ((1ULL << cursor_bit) - 1));
  if (word != 0) return static_cast<int>((cursor_word << 6) + std::countr_zero(word));
  return -1;
}

std::uint64_t Kernel::peek_next_timed() {
  // Heap entries are always at/after the wheel horizon (cascade_heap keeps
  // the invariant), so the wheel — when occupied — holds the minimum.
  peeked_slot_ = first_occupied_slot();
  if (peeked_slot_ < 0) return heap_.front().at_ps;
  std::uint64_t best = SimTime::max().picoseconds();
  for (std::int32_t index = wheel_heads_[static_cast<std::size_t>(peeked_slot_)];
       index != -1; index = pool_[static_cast<std::size_t>(index)].next) {
    const std::uint64_t at = pool_[static_cast<std::size_t>(index)].at_ps;
    if (at < best) best = at;
  }
  return best;
}

void Kernel::collect_runnable_at(std::uint64_t at_ps) {
  solo_slot_ = -1;  // Whatever remains after this, its slot is unknown.
  const std::uint32_t slot =
      peeked_slot_ >= 0
          ? static_cast<std::uint32_t>(peeked_slot_)
          : static_cast<std::uint32_t>(at_ps >> kWheelShift) & kWheelMask;
  std::int32_t index = wheel_heads_[slot];
  if (index != -1 && pool_[static_cast<std::size_t>(index)].next == -1) {
    // Singleton bucket (the common sparse case): the lone entry is the
    // bucket minimum, i.e. exactly at_ps — no partition or sort needed.
    runnable_.push_back(pool_[static_cast<std::size_t>(index)].process);
    free_pool_.push_back(index);
    wheel_heads_[slot] = -1;
    --wheel_count_;
    --timed_size_;
    occupancy_[slot >> 6] &= ~(1ULL << (slot & 63));
    if (occupancy_[slot >> 6] == 0) occupancy_summary_ &= ~(1ULL << (slot >> 6));
    return;
  }
  collect_scratch_.clear();
  // Partition the bucket chain: entries at exactly at_ps leave, later ones
  // (same bucket quantum) stay; intra-bucket order is irrelevant, FIFO
  // comes from the sequence sort below.
  std::int32_t kept_head = -1;
  while (index != -1) {
    TimedEntry& entry = pool_[static_cast<std::size_t>(index)];
    const std::int32_t next = entry.next;
    if (entry.at_ps == at_ps) {
      collect_scratch_.push_back(entry);
      free_pool_.push_back(index);
    } else {
      entry.next = kept_head;
      kept_head = index;
    }
    index = next;
  }
  wheel_heads_[slot] = kept_head;
  wheel_count_ -= collect_scratch_.size();
  timed_size_ -= collect_scratch_.size();
  if (kept_head == -1) {
    occupancy_[slot >> 6] &= ~(1ULL << (slot & 63));
    if (occupancy_[slot >> 6] == 0) occupancy_summary_ &= ~(1ULL << (slot >> 6));
  }
  // FIFO among same-time events = ascending sequence. Same-time batches are
  // usually small; insertion sort beats std::sort's fixed costs there.
  if (collect_scratch_.size() > 1) {
    if (collect_scratch_.size() <= 32) {
      for (std::size_t i = 1; i < collect_scratch_.size(); ++i) {
        TimedEntry key = collect_scratch_[i];
        std::size_t j = i;
        while (j > 0 && collect_scratch_[j - 1].sequence > key.sequence) {
          collect_scratch_[j] = collect_scratch_[j - 1];
          --j;
        }
        collect_scratch_[j] = key;
      }
    } else {
      std::sort(collect_scratch_.begin(), collect_scratch_.end(),
                [](const TimedEntry& a, const TimedEntry& b) {
                  return a.sequence < b.sequence;
                });
    }
  }
  for (const TimedEntry& entry : collect_scratch_) runnable_.push_back(entry.process);
}

void Kernel::run_process(ProcessId process) {
  if (recorder_ != nullptr) record_event(process);
  processes_[process]();
}

void Kernel::record_event(ProcessId process) {
  recorder_->on_event(now_.picoseconds(), process, *this);
}

void Kernel::begin_delta() {
  runnable_.swap(next_runnable_);
  next_runnable_.clear();
  for (SimEvent* event : pending_delta_events_) event->delta_pending_ = false;
  pending_delta_events_.clear();
}

void Kernel::clear_delta_state() {
  runnable_.clear();
  next_runnable_.clear();
  current_.clear();
  batch_remaining_ = 0;
  update_requests_.clear();
  for (SimEvent* event : pending_delta_events_) event->delta_pending_ = false;
  pending_delta_events_.clear();
}

void Kernel::run_delta_loop() {
  std::uint64_t deltas_here = 0;
  while (!runnable_.empty()) {
    if (++deltas_here > kMaxDeltasPerInstant) {
      stats_.max_deltas_per_instant = deltas_here;
      clear_delta_state();
      throw std::runtime_error("sim: delta limit exceeded at " + now_.str() +
                               " (combinational loop?)");
    }
    ++delta_count_;
    // EVALUATE.
    if (runnable_.size() == 1) {
      const ProcessId process = runnable_.front();
      runnable_.clear();
      // Counted before the body, matching the event recorder: a checkpoint
      // captured from inside the running process then includes its own
      // activation in both the counter and the recorded stream.
      ++events_processed_;
      run_process(process);
    } else {
      current_.clear();
      current_.swap(runnable_);
      for (std::size_t i = 0; i < current_.size(); ++i) {
        // Published so capture_checkpoint can refuse from inside a batch
        // member that has co-members still to run.
        batch_remaining_ = current_.size() - i - 1;
        ++events_processed_;
        run_process(current_[i]);
      }
      batch_remaining_ = 0;
    }
    // UPDATE.
    if (!update_requests_.empty()) {
      if (update_requests_.size() == 1) {
        Updatable* target = update_requests_.front();
        update_requests_.clear();
        target->update();
      } else {
        update_scratch_.clear();
        update_scratch_.swap(update_requests_);
        for (Updatable* target : update_scratch_) target->update();
      }
    }
    // Notifications raised during evaluate/update become the next delta.
    // If nothing was raised there is no next delta: notify() always pairs a
    // pending event with at least one next_runnable_ push, so an empty
    // next_runnable_ implies an empty pending list too.
    if (next_runnable_.empty()) break;
    begin_delta();
  }
  if (deltas_here > stats_.max_deltas_per_instant) {
    stats_.max_deltas_per_instant = deltas_here;
  }
}

// --- Checkpoint / restore ----------------------------------------------------

bool Kernel::capture_checkpoint(Checkpoint& out, support::DiagnosticSink& sink) const {
  const std::string subject = "sim.kernel";
  if (!runnable_.empty() || !next_runnable_.empty() || !update_requests_.empty() ||
      batch_remaining_ != 0) {
    sink.error(subject, "cannot checkpoint mid-delta: runnable processes, unfinished "
                        "evaluate-batch members or pending signal updates exist "
                        "(checkpoint between run() calls, or from a process that is "
                        "alone in its batch)");
    return false;
  }
  out = Checkpoint{};
  out.now_ps = now_.picoseconds();
  out.sequence = sequence_;
  out.delta_count = delta_count_;
  out.events_processed = events_processed_;
  out.process_count = processes_.size();

  out.timed.reserve(timed_size_);
  auto add_entry = [&](const TimedEntry& entry) {
    out.timed.push_back(Checkpoint::PendingTimed{entry.at_ps, entry.sequence, entry.process});
  };
  // Only occupied buckets: the summary word marks occupancy words, each
  // occupancy bit one non-empty bucket.
  for (std::uint64_t words = occupancy_summary_; words != 0; words &= words - 1) {
    const auto word = static_cast<std::uint32_t>(std::countr_zero(words));
    for (std::uint64_t bits = occupancy_[word]; bits != 0; bits &= bits - 1) {
      const std::uint32_t slot = (word << 6) + static_cast<std::uint32_t>(std::countr_zero(bits));
      for (std::int32_t index = wheel_heads_[slot]; index != -1;
           index = pool_[static_cast<std::size_t>(index)].next) {
        add_entry(pool_[static_cast<std::size_t>(index)]);
      }
    }
  }
  for (const TimedEntry& entry : heap_) add_entry(entry);
  std::sort(out.timed.begin(), out.timed.end(),
            [](const Checkpoint::PendingTimed& a, const Checkpoint::PendingTimed& b) {
              if (a.at_ps != b.at_ps) return a.at_ps < b.at_ps;
              return a.sequence < b.sequence;
            });

  out.expectations.reserve(expectations_.size());
  for (const Expectation& expectation : expectations_) {
    out.expectations.push_back(
        Checkpoint::ExpectationEntry{expectation.label, expectation.outstanding});
  }
  return true;
}

bool Kernel::restore_checkpoint(const Checkpoint& checkpoint, support::DiagnosticSink& sink) {
  const std::string subject = "sim.kernel";
  // Validate fully before mutating.
  for (const Checkpoint::PendingTimed& entry : checkpoint.timed) {
    if (entry.process >= processes_.size() || processes_[entry.process] == nullptr) {
      sink.error(subject, "snapshot schedules unknown process id " +
                              std::to_string(entry.process) + " (this kernel registered " +
                              std::to_string(processes_.size()) +
                              " processes; was the setup reconstructed identically?)");
      return false;
    }
    if (entry.at_ps < checkpoint.now_ps) {
      sink.error(subject, "snapshot timed event at " + SimTime(entry.at_ps).str() +
                              " lies before the snapshot time " +
                              SimTime(checkpoint.now_ps).str());
      return false;
    }
    if (entry.sequence > checkpoint.sequence) {
      sink.error(subject, "snapshot timed event sequence " + std::to_string(entry.sequence) +
                              " exceeds the snapshot sequence counter " +
                              std::to_string(checkpoint.sequence));
      return false;
    }
  }
  if (checkpoint.expectations.size() > expectations_.size()) {
    sink.error(subject, "snapshot lists " + std::to_string(checkpoint.expectations.size()) +
                            " expectation classes but this kernel registered only " +
                            std::to_string(expectations_.size()));
    return false;
  }
  for (std::size_t i = 0; i < checkpoint.expectations.size(); ++i) {
    if (checkpoint.expectations[i].label != expectations_[i].label) {
      sink.error(subject, "expectation " + std::to_string(i) + " label mismatch: snapshot '" +
                              checkpoint.expectations[i].label + "' vs registered '" +
                              expectations_[i].label + "'");
      return false;
    }
  }
  if (checkpoint.process_count != processes_.size()) {
    sink.warning(subject, "snapshot was captured with " +
                              std::to_string(checkpoint.process_count) +
                              " registered processes, this kernel has " +
                              std::to_string(processes_.size()) +
                              "; restore proceeds, but determinism requires identical "
                              "construction order");
  }

  // Wipe pending work: the snapshot supersedes construction-time scheduling.
  clear_delta_state();
  std::fill(wheel_heads_.begin(), wheel_heads_.end(), -1);
  pool_.clear();
  free_pool_.clear();
  std::fill(std::begin(occupancy_), std::end(occupancy_), 0);
  occupancy_summary_ = 0;
  heap_.clear();
  wheel_count_ = 0;
  timed_size_ = 0;
  peeked_slot_ = -1;
  solo_slot_ = -1;

  now_ = SimTime(checkpoint.now_ps);
  wheel_base_quantum_ = checkpoint.now_ps >> kWheelShift;
  delta_count_ = checkpoint.delta_count;
  events_processed_ = checkpoint.events_processed;
  for (const Checkpoint::PendingTimed& pending : checkpoint.timed) {
    // Re-insert with the captured sequence so same-time FIFO order (and the
    // event-recorder stream) is preserved exactly.
    const TimedEntry entry{pending.at_ps, pending.sequence, pending.process, -1};
    const std::uint64_t quantum = pending.at_ps >> kWheelShift;
    if (quantum - wheel_base_quantum_ < kWheelBuckets) {
      push_wheel(entry);
      solo_slot_ = timed_size_ == 0
                       ? static_cast<int>(static_cast<std::uint32_t>(quantum) & kWheelMask)
                       : -1;
    } else {
      heap_.push_back(entry);
      std::push_heap(heap_.begin(), heap_.end(), heap_later);
      solo_slot_ = -1;
    }
    ++timed_size_;
  }
  sequence_ = checkpoint.sequence;

  outstanding_total_ = 0;
  for (Expectation& expectation : expectations_) expectation.outstanding = 0;
  for (std::size_t i = 0; i < checkpoint.expectations.size(); ++i) {
    expectations_[i].outstanding = checkpoint.expectations[i].outstanding;
    outstanding_total_ += checkpoint.expectations[i].outstanding;
  }
  return true;
}

std::uint64_t Kernel::run(SimTime end) {
  const std::uint64_t processed_before = events_processed_;

  // Immediate notifications issued before run() seed the first delta.
  begin_delta();
  run_delta_loop();

  while (timed_size_ != 0) {
    if (timed_size_ > stats_.timed_peak) stats_.timed_peak = timed_size_;
    if (timed_size_ == 1 && solo_slot_ >= 0) {
      // Sparse fast path: the lone pending event's wheel slot is known from
      // its push, so skip the bitmap scan, bucket min-walk, and collect
      // partitioning entirely. The heap is necessarily empty here.
      const auto slot = static_cast<std::uint32_t>(solo_slot_);
      const std::int32_t head = wheel_heads_[slot];
      const std::uint64_t next_ps = pool_[static_cast<std::size_t>(head)].at_ps;
      if (next_ps > end.picoseconds()) break;
      const ProcessId process = pool_[static_cast<std::size_t>(head)].process;
      now_ = SimTime(next_ps);
      wheel_base_quantum_ = next_ps >> kWheelShift;
      wheel_heads_[slot] = -1;
      free_pool_.push_back(head);
      occupancy_[slot >> 6] &= ~(1ULL << (slot & 63));
      if (occupancy_[slot >> 6] == 0) occupancy_summary_ &= ~(1ULL << (slot >> 6));
      --wheel_count_;
      --timed_size_;
      solo_slot_ = -1;
      // Fused first delta: run the process directly; only fall into the full
      // delta machinery if it wrote a signal or raised a notification.
      ++delta_count_;
      ++events_processed_;
      run_process(process);
      if (!update_requests_.empty() || !next_runnable_.empty()) {
        if (update_requests_.size() == 1) {
          Updatable* target = update_requests_.front();
          update_requests_.clear();
          target->update();
        } else if (!update_requests_.empty()) {
          update_scratch_.clear();
          update_scratch_.swap(update_requests_);
          for (Updatable* target : update_scratch_) target->update();
        }
        begin_delta();
        run_delta_loop();
      }
      continue;
    }
    const std::uint64_t next_ps = peek_next_timed();
    if (next_ps > end.picoseconds()) break;
    now_ = SimTime(next_ps);
    const std::uint64_t quantum = next_ps >> kWheelShift;
    if (quantum != wheel_base_quantum_) {
      wheel_base_quantum_ = quantum;
      // Cascaded entries are at/after the old horizon, i.e. strictly after
      // next_ps, so the peeked slot stays valid for collection.
      if (!heap_.empty()) cascade_heap();
    }
    collect_runnable_at(next_ps);
    run_delta_loop();
  }
  // Fused solo deltas bypass the per-instant counter; if any event ran at
  // all, at least one instant had one delta.
  if (events_processed_ != processed_before && stats_.max_deltas_per_instant == 0) {
    stats_.max_deltas_per_instant = 1;
  }
  // Quiescence diagnosis: queues drained with expectations outstanding is a
  // deadlock signature (a master waits for a response that cannot arrive).
  // The clean path only clears and sets PODs — no allocation.
  report_.outstanding.clear();
  report_.drained = idle();
  report_.outstanding_total = outstanding_total_;
  if (report_.deadlocked()) {
    for (const Expectation& expectation : expectations_) {
      if (expectation.outstanding != 0) {
        report_.outstanding.push_back(
            QuiescenceReport::Outstanding{expectation.label, expectation.outstanding});
      }
    }
  }
  return events_processed_ - processed_before;
}

}  // namespace umlsoc::sim
