#include "sim/replay.hpp"

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

void EventRecorder::restore_log(const std::vector<RecordedEvent>& events,
                                std::uint64_t total) {
  events_.assign(events.begin(), events.end());
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

  events_.push_back(event);
}

}  // namespace umlsoc::sim
