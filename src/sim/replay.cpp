#include "sim/replay.hpp"

#include <algorithm>

namespace umlsoc::sim {

namespace {

std::string describe(const RecordedEvent& event, const std::string& label) {
  std::string out = "process " + std::to_string(event.process);
  if (!label.empty()) out += " '" + label + "'";
  out += " at " + SimTime(event.at_ps).str();
  return out;
}

}  // namespace

std::string EventRecorder::Divergence::str() const {
  std::string out = "diverged at event #" + std::to_string(index) + ": ";
  if (extra_event) {
    out += "expected end of log, got " + describe(actual, actual_label);
  } else if (actual.process == kInvalidProcess) {
    out += "expected " + describe(expected, expected_label) + ", got end of run";
  } else {
    out += "expected " + describe(expected, expected_label) + ", got " +
           describe(actual, actual_label);
  }
  return out;
}

EventRecorder::EventRecorder(std::size_t ring_capacity) : ring_capacity_(ring_capacity) {
  if (ring_capacity_ != 0) events_.reserve(ring_capacity_);
}

std::vector<RecordedEvent> EventRecorder::log() const {
  if (ring_capacity_ == 0 || events_.size() < ring_capacity_) return events_;
  std::vector<RecordedEvent> out;
  out.reserve(events_.size());
  out.insert(out.end(), events_.begin() + static_cast<std::ptrdiff_t>(ring_head_),
             events_.end());
  out.insert(out.end(), events_.begin(),
             events_.begin() + static_cast<std::ptrdiff_t>(ring_head_));
  return out;
}

void EventRecorder::restore_log(const std::vector<RecordedEvent>& events,
                                std::uint64_t total) {
  // A ring keeps only the newest ring_capacity_ events.
  const std::size_t kept = ring_capacity_ == 0 ? events.size()
                                               : std::min(events.size(), ring_capacity_);
  events_.assign(events.end() - static_cast<std::ptrdiff_t>(kept), events.end());
  ring_head_ = 0;
  total_ = total;
  divergence_.reset();
}

void EventRecorder::begin_verify(std::vector<RecordedEvent> expected,
                                 std::uint64_t start_index) {
  begin_verify(std::make_shared<const std::vector<RecordedEvent>>(std::move(expected)),
               start_index);
}

void EventRecorder::begin_verify(SharedEventLog expected, std::uint64_t start_index) {
  mode_ = Mode::kVerify;
  expected_ = std::move(expected);
  total_ = start_index;
  divergence_.reset();
}

void EventRecorder::end_verify() {
  if (mode_ != Mode::kVerify) return;
  mode_ = Mode::kRecord;
  expected_.reset();
}

std::optional<EventRecorder::Divergence> EventRecorder::missing_events() const {
  if (divergence_.has_value()) return divergence_;
  if (mode_ != Mode::kVerify || total_ >= expected_->size()) return std::nullopt;
  Divergence divergence;
  divergence.index = total_;
  divergence.expected = (*expected_)[total_];
  divergence.actual = RecordedEvent{};  // process == kInvalidProcess: end of run.
  return divergence;
}

void EventRecorder::on_event_slow(std::uint64_t at_ps, ProcessId process,
                                  const Kernel& kernel) {
  const RecordedEvent event{at_ps, process};
  const std::uint64_t index = total_++;

  if (mode_ == Mode::kVerify && !divergence_.has_value()) {
    const std::vector<RecordedEvent>& expected = *expected_;
    if (index >= expected.size()) {
      Divergence divergence;
      divergence.index = index;
      divergence.extra_event = true;
      divergence.actual = event;
      divergence.actual_label = kernel.process_label(process);
      divergence_ = std::move(divergence);
    } else if (expected[index] != event) {
      Divergence divergence;
      divergence.index = index;
      divergence.expected = expected[index];
      divergence.actual = event;
      if (divergence.expected.process < kernel.process_count()) {
        divergence.expected_label = kernel.process_label(divergence.expected.process);
      }
      divergence.actual_label = kernel.process_label(process);
      divergence_ = std::move(divergence);
    }
  }

  if (ring_capacity_ == 0) {
    events_.push_back(event);
    return;
  }
  if (events_.size() < ring_capacity_) {
    events_.push_back(event);
    return;
  }
  events_[ring_head_] = event;
  ring_head_ = (ring_head_ + 1) % ring_capacity_;
}

std::optional<EventRecorder::Divergence> first_divergence(
    const std::vector<RecordedEvent>& expected, const std::vector<RecordedEvent>& actual,
    const Kernel* kernel) {
  const std::size_t common = std::min(expected.size(), actual.size());
  auto label_of = [&](ProcessId process) -> std::string {
    if (kernel == nullptr || process >= kernel->process_count()) return {};
    return kernel->process_label(process);
  };
  for (std::size_t i = 0; i < common; ++i) {
    if (expected[i] == actual[i]) continue;
    EventRecorder::Divergence divergence;
    divergence.index = i;
    divergence.expected = expected[i];
    divergence.actual = actual[i];
    divergence.expected_label = label_of(expected[i].process);
    divergence.actual_label = label_of(actual[i].process);
    return divergence;
  }
  if (expected.size() == actual.size()) return std::nullopt;
  EventRecorder::Divergence divergence;
  divergence.index = common;
  if (actual.size() > expected.size()) {
    divergence.extra_event = true;
    divergence.actual = actual[common];
    divergence.actual_label = label_of(actual[common].process);
  } else {
    divergence.expected = expected[common];
    divergence.actual = RecordedEvent{};
    divergence.expected_label = label_of(expected[common].process);
  }
  return divergence;
}

}  // namespace umlsoc::sim
