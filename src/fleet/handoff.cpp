#include "fleet/handoff.hpp"

#include <algorithm>

#include "support/bytes.hpp"

namespace umlsoc::fleet {

namespace {

constexpr std::uint32_t kFrameMagic = 0x55465031;  // "UFP1"
constexpr std::size_t kHeaderSize = 4 + 1 + 4;
constexpr std::uint32_t kMaxPayload = 16u << 20;  // Desync guard, not a real limit.
constexpr std::uint32_t kResultVersion = 2;

using support::ByteReader;
using support::ByteWriter;

template <typename Io>
void transfer(Io& io, Grant& grant) {
  io.field(grant.index);
  io.field(grant.seed);
  io.field(grant.attempt);
  io.field(grant.fault_template);
}

/// Every RigOutcome field in wire order; the three counter records in
/// their counters() order.
template <typename Io>
void transfer(Io& io, RigOutcome& outcome) {
  io.field(outcome.seed);
  io.field(outcome.ok);
  io.field(outcome.failure);
  io.field(outcome.sim_time_ps);
  io.field(outcome.events_processed);
  const auto counter = [&io](const char*, sim::Counter, std::uint64_t& field) {
    io.field(field);
  };
  SloCounters::counters(counter, outcome.slo);
  HealthRollup::counters(counter, outcome.health);
  sim::Kernel::Stats::counters(counter, outcome.kernel);
  io.field(outcome.fault_template);
  io.field(outcome.wall_ns);
  io.field(outcome.attempts);
  io.field(outcome.resumed_from_seq);
}

/// A payload of plain fields, in argument order.
template <typename... Fields>
std::string encode_fields(const Fields&... fields) {
  ByteWriter out;
  (out.field(fields), ...);
  return out.take();
}

template <typename... Fields>
bool decode_fields(std::string_view payload, Fields&... fields) {
  ByteReader in(payload);
  (in.field(fields), ...);
  return in.exhausted();
}

}  // namespace

std::string encode_frame(FrameType type, std::string_view payload) {
  ByteWriter out;
  out.u32(kFrameMagic);
  out.u8(static_cast<std::uint8_t>(type));
  out.u32(static_cast<std::uint32_t>(payload.size()));
  out.bytes(payload);
  return out.take();
}

void FrameReader::feed(const char* data, std::size_t size) {
  if (corrupt_) return;
  // Compact lazily: only when the consumed prefix dominates the buffer.
  if (consumed_ > 4096 && consumed_ * 2 > buffer_.size()) {
    buffer_.erase(0, consumed_);
    consumed_ = 0;
  }
  buffer_.append(data, size);
}

bool FrameReader::next(Frame& out) {
  if (corrupt_) return false;
  if (buffer_.size() - consumed_ < kHeaderSize) return false;
  ByteReader in(std::string_view(buffer_).substr(consumed_, kHeaderSize));
  const std::uint32_t magic = in.u32();
  const std::uint8_t type = in.u8();
  const std::uint32_t length = in.u32();
  if (magic != kFrameMagic || length > kMaxPayload ||
      type < static_cast<std::uint8_t>(FrameType::kHello) ||
      type > static_cast<std::uint8_t>(FrameType::kShutdown)) {
    corrupt_ = true;
    return false;
  }
  if (buffer_.size() - consumed_ < kHeaderSize + length) return false;
  out.type = static_cast<FrameType>(type);
  out.payload.assign(buffer_, consumed_ + kHeaderSize, length);
  consumed_ += kHeaderSize + length;
  return true;
}

std::string encode_hello(std::uint64_t pid) { return encode_fields(pid); }

std::string encode_start_seed(std::uint64_t index, std::uint32_t attempt) {
  return encode_fields(index, attempt);
}

bool decode_start_seed(std::string_view payload, std::uint64_t& index,
                       std::uint32_t& attempt) {
  return decode_fields(payload, index, attempt);
}

std::string encode_assign(const std::vector<Grant>& grants) {
  ByteWriter out;
  // The writer only reads the grants.
  out.sequence(const_cast<std::vector<Grant>&>(grants),
               [&out](Grant& grant) { transfer(out, grant); });
  return out.take();
}

bool decode_assign(std::string_view payload, std::vector<Grant>& grants) {
  ByteReader in(payload);
  grants.clear();
  in.sequence(grants, [&in](Grant& grant) { transfer(in, grant); });
  return in.exhausted();
}

std::string encode_result(std::uint64_t index, const RigOutcome& outcome) {
  ByteWriter out;
  out.u32(kResultVersion);
  out.u64(index);
  transfer(out, const_cast<RigOutcome&>(outcome));  // The writer only reads it.
  return out.take();
}

bool decode_result(std::string_view payload, std::uint64_t& index, RigOutcome& outcome) {
  ByteReader in(payload);
  if (in.u32() != kResultVersion) return false;
  index = in.u64();
  outcome = RigOutcome{};
  transfer(in, outcome);
  return in.exhausted();
}

// --- HandoffLedger ------------------------------------------------------------

HandoffLedger::HandoffLedger(std::uint64_t total, std::uint32_t quarantine_threshold)
    : seeds_(total), quarantine_threshold_(std::max<std::uint32_t>(1, quarantine_threshold)) {}

std::vector<std::uint64_t> HandoffLedger::claim(unsigned worker, std::uint64_t max) {
  std::vector<std::uint64_t> granted;
  while (granted.size() < max && !requeue_.empty()) {
    const std::uint64_t index = requeue_.front();
    requeue_.erase(requeue_.begin());
    SeedRecord& record = seeds_[index];
    record.state = SeedState::kAssigned;
    record.owner = worker;
    granted.push_back(index);
    ++redispatches_;
  }
  while (granted.size() < max && cursor_ < seeds_.size()) {
    const std::uint64_t index = cursor_++;
    SeedRecord& record = seeds_[index];
    record.state = SeedState::kAssigned;
    record.owner = worker;
    granted.push_back(index);
  }
  return granted;
}

bool HandoffLedger::start(unsigned worker, std::uint64_t index) {
  if (index >= seeds_.size()) return false;
  SeedRecord& record = seeds_[index];
  if (record.state != SeedState::kAssigned || record.owner != worker) return false;
  record.state = SeedState::kInFlight;
  return true;
}

bool HandoffLedger::accept(unsigned worker, std::uint64_t index) {
  if (index >= seeds_.size()) return false;
  SeedRecord& record = seeds_[index];
  if (record.state != SeedState::kAssigned && record.state != SeedState::kInFlight) {
    return false;  // Duplicate or never granted: drop.
  }
  if (record.owner != worker) return false;
  record.state = SeedState::kDone;
  ++record.attempt;
  ++done_;
  return true;
}

HandoffLedger::DeathReport HandoffLedger::on_worker_death(unsigned worker) {
  DeathReport report;
  for (std::uint64_t index = 0; index < seeds_.size(); ++index) {
    SeedRecord& record = seeds_[index];
    if (record.owner != worker) continue;
    if (record.state == SeedState::kInFlight) {
      // The seed the worker was executing when it died gets the blame.
      ++record.kills;
      ++record.attempt;
      if (record.kills >= quarantine_threshold_) {
        record.state = SeedState::kPoisoned;
        ++poisoned_;
        report.poisoned.push_back(index);
        continue;
      }
      record.state = SeedState::kPending;
      requeue_.push_back(index);
      report.requeued.push_back(index);
    } else if (record.state == SeedState::kAssigned) {
      // Granted but never started: re-dispatch without blame.
      record.state = SeedState::kPending;
      requeue_.push_back(index);
      report.requeued.push_back(index);
    }
  }
  return report;
}

}  // namespace umlsoc::fleet
