#include "sim/bus.hpp"

#include <stdexcept>

#include "sim/fault.hpp"

namespace umlsoc::sim {

MemoryMappedBus::MemoryMappedBus(Kernel& kernel, std::string name, SimTime latency)
    : kernel_(kernel), name_(std::move(name)), latency_(latency) {
  completion_ = kernel_.register_process([this] { complete_front(); },
                                         "bus." + name_ + ".completion");
}

void MemoryMappedBus::map_device(std::string device_name, std::uint64_t base,
                                 std::uint64_t size, ReadHandler read, WriteHandler write) {
  if (size == 0) {
    throw std::invalid_argument("bus " + name_ + ": device '" + device_name +
                                "' has a zero-size window");
  }
  for (const Window& window : windows_) {
    // [base, base+size) intersects [window.base, window.base+window.size)?
    if (base < window.base + window.size && window.base < base + size) {
      throw std::invalid_argument("bus " + name_ + ": window of '" + device_name +
                                  "' overlaps '" + window.device_name + "'");
    }
  }
  windows_.push_back(Window{std::move(device_name), base, size, std::move(read),
                            std::move(write)});
}

const MemoryMappedBus::Window* MemoryMappedBus::find_window(std::uint64_t address) const {
  for (const Window& window : windows_) {
    if (address >= window.base && address - window.base < window.size) return &window;
  }
  return nullptr;
}

void MemoryMappedBus::issue(Pending txn) {
  if (txn.window == nullptr) {
    txn.status = BusStatus::kError;
    ++stats_.errors;
  } else if (fault_plan_ != nullptr) {
    const FaultDecision decision =
        fault_plan_->consult(txn.is_read ? FaultSite::kBusRead : FaultSite::kBusWrite);
    switch (decision.kind) {
      case FaultKind::kError:
        txn.status = BusStatus::kError;
        txn.window = nullptr;  // Data phase skipped, like a decode error.
        ++stats_.errors;
        break;
      case FaultKind::kDropResponse:
        txn.dropped = true;
        break;
      case FaultKind::kBitFlip:
        txn.flip_mask = decision.flip_mask;
        break;
      case FaultKind::kNone:
        break;
    }
  }
  pending_.push_back(std::move(txn));
  kernel_.schedule(latency_, completion_);
}

void MemoryMappedBus::complete_front() {
  Pending txn = std::move(pending_.front());
  pending_.pop_front();
  ++stats_.completions;
  if (txn.dropped) {
    // Hung device: no data phase, and the master's callback never fires.
    // Timeout supervision (BusMasterPort) is the only way out.
    ++stats_.dropped_completions;
    return;
  }
  if (txn.is_read) {
    std::uint64_t value = kBusError;
    if (txn.status == BusStatus::kOk) value = txn.window->read(txn.address) ^ txn.flip_mask;
    if (txn.read_done != nullptr) txn.read_done(txn.status, value);
  } else {
    if (txn.status == BusStatus::kOk) txn.window->write(txn.address, txn.value ^ txn.flip_mask);
    if (txn.write_done != nullptr) txn.write_done(txn.status);
  }
}

void MemoryMappedBus::read(std::uint64_t address, ReadCompletion done) {
  ++stats_.reads;
  const Window* window = find_window(address);
  if (window != nullptr && window->read == nullptr) window = nullptr;
  issue(Pending{window, BusStatus::kOk, true, false, address, 0, 0, std::move(done), nullptr});
}

void MemoryMappedBus::write(std::uint64_t address, std::uint64_t value, WriteCompletion done) {
  ++stats_.writes;
  const Window* window = find_window(address);
  if (window != nullptr && window->write == nullptr) window = nullptr;
  issue(Pending{window, BusStatus::kOk, false, false, address, value, 0, nullptr,
                std::move(done)});
}

// --- BusMasterPort ----------------------------------------------------------

BusMasterPort::BusMasterPort(Kernel& kernel, MemoryMappedBus& bus, std::string name,
                             RetryPolicy policy)
    : kernel_(kernel), bus_(bus), name_(std::move(name)), policy_(policy) {
  inflight_ = kernel_.register_expectation(bus_.name() + "." + name_ + " in-flight");
  timeout_process_ = kernel_.register_process([this] { check_timeouts(); },
                                              "port." + bus_.name() + "." + name_ + ".timeout");
}

SimTime BusMasterPort::deadline_for(int attempt) const {
  std::uint64_t deadline_ps = policy_.timeout.picoseconds();
  for (int i = 0; i < attempt; ++i) {
    const std::uint64_t scaled = deadline_ps * policy_.backoff_multiplier;
    if (policy_.backoff_multiplier != 0 && scaled / policy_.backoff_multiplier != deadline_ps) {
      return SimTime::max();  // Saturate instead of wrapping.
    }
    deadline_ps = scaled;
  }
  return SimTime(deadline_ps);
}

void BusMasterPort::notify(Notice::Kind kind, const Txn& txn, BusStatus status) const {
  if (listener_ == nullptr) return;
  listener_(Notice{kind, status, txn.is_read, txn.address, txn.attempt});
}

void BusMasterPort::read(std::uint64_t address, MemoryMappedBus::ReadCompletion done) {
  ++stats_.transactions;
  kernel_.expect(inflight_);
  auto txn = std::make_shared<Txn>();
  txn->is_read = true;
  txn->address = address;
  txn->read_done = std::move(done);
  start_attempt(txn);
}

void BusMasterPort::write(std::uint64_t address, std::uint64_t value,
                          MemoryMappedBus::WriteCompletion done) {
  ++stats_.transactions;
  kernel_.expect(inflight_);
  auto txn = std::make_shared<Txn>();
  txn->is_read = false;
  txn->address = address;
  txn->value = value;
  txn->write_done = std::move(done);
  start_attempt(txn);
}

void BusMasterPort::finish(const std::shared_ptr<Txn>& txn, BusStatus status,
                           std::uint64_t value) {
  txn->completed = true;
  kernel_.fulfill(inflight_);
  if (status == BusStatus::kOk && txn->attempt > 0) ++stats_.recovered;
  notify(status == BusStatus::kTimeout ? Notice::Kind::kExhausted : Notice::Kind::kCompleted,
         *txn, status);
  if (txn->is_read) {
    if (txn->read_done != nullptr) txn->read_done(status, value);
  } else {
    if (txn->write_done != nullptr) txn->write_done(status);
  }
}

bool BusMasterPort::try_retry(const std::shared_ptr<Txn>& txn) {
  if (txn->attempt + 1 >= policy_.max_attempts) return false;
  ++txn->attempt;
  ++stats_.retries;
  notify(Notice::Kind::kRetry, *txn, BusStatus::kOk);
  start_attempt(txn);
  return true;
}

void BusMasterPort::start_attempt(const std::shared_ptr<Txn>& txn) {
  // Each attempt is guarded by its generation: a response (or timeout)
  // belonging to a superseded attempt is ignored, so a slow completion that
  // arrives after its retry was issued cannot complete the transaction
  // twice or out of order.
  const int attempt = txn->attempt;
  if (txn->is_read) {
    bus_.read(txn->address, [this, txn, attempt](BusStatus status, std::uint64_t value) {
      if (txn->completed || txn->attempt != attempt) {
        ++stats_.late_completions;
        return;
      }
      finish(txn, status, value);
    });
  } else {
    bus_.write(txn->address, txn->value, [this, txn, attempt](BusStatus status) {
      if (txn->completed || txn->attempt != attempt) {
        ++stats_.late_completions;
        return;
      }
      finish(txn, status, MemoryMappedBus::kBusError);
    });
  }
  if (policy_.timeout.picoseconds() == 0) return;
  const SimTime deadline = deadline_for(attempt);
  supervision_.push_back(
      Supervision{(kernel_.now() + deadline).picoseconds(), attempt, txn});
  kernel_.schedule(deadline, timeout_process_);
}

void BusMasterPort::check_timeouts() {
  // Drain every entry that is due. Extra wakeups (several entries due at
  // one instant drained by the first) find nothing and fall through.
  const std::uint64_t now_ps = kernel_.now().picoseconds();
  due_scratch_.clear();
  std::size_t kept = 0;
  for (Supervision& entry : supervision_) {
    if (entry.due_ps <= now_ps) {
      due_scratch_.push_back(std::move(entry));
    } else {
      supervision_[kept++] = std::move(entry);
    }
  }
  supervision_.resize(kept);
  for (const Supervision& due : due_scratch_) handle_timeout(due.txn, due.attempt);
  due_scratch_.clear();
}

void BusMasterPort::handle_timeout(const std::shared_ptr<Txn>& txn, int attempt) {
  if (txn->completed || txn->attempt != attempt) return;  // Attempt resolved.
  ++stats_.timeouts;
  notify(Notice::Kind::kTimeout, *txn, BusStatus::kTimeout);
  if (try_retry(txn)) return;
  ++stats_.exhausted;
  finish(txn, BusStatus::kTimeout, MemoryMappedBus::kBusError);
}

}  // namespace umlsoc::sim
