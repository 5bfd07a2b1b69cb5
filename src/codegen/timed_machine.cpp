#include "codegen/timed_machine.hpp"

#include <cctype>
#include <cstdlib>
#include <stdexcept>

namespace umlsoc::codegen {

bool looks_like_after_trigger(const std::string& text) {
  return text.rfind("after(", 0) == 0 && !text.empty() && text.back() == ')';
}

std::optional<sim::SimTime> parse_after_trigger(const std::string& text) {
  if (!looks_like_after_trigger(text)) return std::nullopt;
  const std::string inner = text.substr(6, text.size() - 7);
  char* end = nullptr;
  const unsigned long long value = std::strtoull(inner.c_str(), &end, 10);
  if (end == inner.c_str()) return std::nullopt;
  const std::string unit(end);
  if (unit == "ps") return sim::SimTime::ps(value);
  if (unit == "ns") return sim::SimTime::ns(value);
  if (unit == "us") return sim::SimTime::us(value);
  return std::nullopt;
}

TimedStateMachine::TimedStateMachine(const statechart::StateMachine& machine,
                                     sim::Kernel& kernel)
    : kernel_(kernel) {
  support::DiagnosticSink compile_sink;
  engine_ = statechart::compile(machine, compile_sink);
  if (engine_ == nullptr) throw std::invalid_argument(compile_sink.str());
  engine_->set_state_listener(
      [this](const statechart::State& state, bool entered) { on_state(state, entered); });
}

void TimedStateMachine::after(const std::string& state_name, sim::SimTime delay,
                              std::string event_name) {
  timeouts_.emplace(state_name, Timeout{delay, std::move(event_name), sim::kInvalidProcess, {}});
}

std::size_t TimedStateMachine::bind_after_triggers(support::DiagnosticSink& sink) {
  std::size_t bound = 0;
  for (const statechart::Transition* transition : engine_->machine().all_transitions()) {
    const std::string& trigger = transition->trigger();
    if (!looks_like_after_trigger(trigger)) continue;
    std::optional<sim::SimTime> delay = parse_after_trigger(trigger);
    if (!delay.has_value()) {
      sink.error(transition->source().qualified_name(),
                 "unparsable time trigger '" + trigger + "' (use after(<n><ps|ns|us>))");
      continue;
    }
    const auto* source = dynamic_cast<const statechart::State*>(&transition->source());
    if (source == nullptr) {
      sink.error(transition->source().qualified_name(),
                 "time trigger on a pseudostate is not supported");
      continue;
    }
    after(source->name(), *delay, trigger);
    ++bound;
  }
  return bound;
}

void TimedStateMachine::on_state(const statechart::State& state, bool entered) {
  // Every entry/exit bumps the epoch; a timer armed for epoch E only fires
  // if the state's epoch is still E at expiry (i.e. no exit in between).
  std::uint64_t epoch = ++epochs_[&state];
  if (!entered) return;

  auto [begin, end] = timeouts_.equal_range(state.name());
  for (auto it = begin; it != end; ++it) {
    Timeout& timeout = it->second;
    if (timeout.process == sim::kInvalidProcess) {
      // First arm: register the expiry process once. Multimap values and
      // State objects are address-stable, so the captures stay valid.
      const statechart::State* target = &state;
      Timeout* slot = &timeout;
      timeout.process =
          kernel_.register_process([this, target, slot] { on_timeout(*target, *slot); });
    }
    timeout.armed_epochs.push_back(epoch);
    kernel_.schedule(timeout.delay, timeout.process);
  }
}

void TimedStateMachine::on_timeout(const statechart::State& state, Timeout& timeout) {
  // Arms of this timeout all use the same delay, so expiries arrive in arm
  // order: the front epoch belongs to the arm that just fired.
  const std::uint64_t armed_epoch = timeout.armed_epochs.front();
  timeout.armed_epochs.pop_front();
  if (epochs_[&state] != armed_epoch) {
    ++timeouts_cancelled_;  // State was left (or re-entered) meanwhile.
    return;
  }
  ++timeouts_fired_;
  engine_->dispatch(statechart::Event{timeout.event});
}

}  // namespace umlsoc::codegen
