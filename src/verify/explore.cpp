#include "verify/explore.hpp"

#include <stdexcept>

namespace umlsoc::verify {

// --- Network -------------------------------------------------------------------

std::size_t Network::add_instance(std::string name,
                                  statechart::Engine& instance) {
  entries_.push_back(InstanceEntry{std::move(name), &instance});
  return entries_.size() - 1;
}

void Network::add_choice(std::string_view instance_name, statechart::Event event,
                         bool is_error) {
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    if (entries_[i].name == instance_name) {
      alphabet_.push_back(EventChoice{i, std::move(event), is_error});
      return;
    }
  }
  throw std::invalid_argument("verify::Network: no instance named '" +
                              std::string(instance_name) + "'");
}

statechart::Engine* Network::find(std::string_view name) const {
  for (const InstanceEntry& entry : entries_) {
    if (entry.name == name) return entry.instance;
  }
  return nullptr;
}

std::string Network::label(const EventChoice& choice) const {
  std::string out = choice.is_error ? "fault->" : "env->";
  out += entries_[choice.instance].name;
  out += ':';
  out += choice.event.name;
  return out;
}

std::vector<StepDelta> Network::deliver(const EventChoice& choice) {
  std::vector<StepDelta> deltas;
  deliver(choice, deltas, nullptr);
  return deltas;
}

void Network::deliver(const EventChoice& choice, std::vector<StepDelta>& deltas,
                      std::vector<std::uint8_t>* touched) {
  // Record the before-counters in the deltas themselves; subtracted below.
  deltas.resize(entries_.size());
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    const statechart::Engine& instance = *entries_[i].instance;
    deltas[i] = StepDelta{instance.transitions_fired(), instance.errors_raised(),
                          instance.errors_unhandled()};
  }
  if (touched != nullptr) {
    touched->assign(entries_.size(), 0);
    (*touched)[choice.instance] = 1;
    pending_before_.resize(entries_.size());
    for (std::size_t i = 0; i < entries_.size(); ++i) {
      pending_before_[i] = entries_[i].instance->pending_events();
    }
  }

  statechart::Engine& target = *entries_[choice.instance].instance;
  if (choice.is_error) {
    target.dispatch_error(choice.event);
  } else {
    target.dispatch(choice.event);
  }

  // Drain cross-posted events until every queue is empty: one exploration
  // step is one network-wide run-to-completion round.
  for (int round = 0;; ++round) {
    if (round > kMaxDrainRounds) {
      throw std::runtime_error("verify::Network: cross-posting livelock (more than " +
                               std::to_string(kMaxDrainRounds) + " drain rounds)");
    }
    bool progressed = false;
    for (std::size_t i = 0; i < entries_.size(); ++i) {
      statechart::Engine& instance = *entries_[i].instance;
      if (!instance.is_terminated() && instance.pending_events() > 0) {
        instance.run_to_quiescence();
        if (touched != nullptr) (*touched)[i] = 1;
        progressed = true;
      }
    }
    if (!progressed) break;
  }

  for (std::size_t i = 0; i < entries_.size(); ++i) {
    const statechart::Engine& instance = *entries_[i].instance;
    deltas[i].transitions_fired = instance.transitions_fired() - deltas[i].transitions_fired;
    deltas[i].errors_raised = instance.errors_raised() - deltas[i].errors_raised;
    deltas[i].errors_unhandled = instance.errors_unhandled() - deltas[i].errors_unhandled;
    if (touched != nullptr && pending_before_[i] != instance.pending_events()) {
      (*touched)[i] = 1;  // E.g. a cross-post parked in a terminated queue.
    }
  }
}

std::vector<statechart::InstanceSnapshot> Network::capture() const {
  std::vector<statechart::InstanceSnapshot> snapshots;
  snapshots.reserve(entries_.size());
  for (const InstanceEntry& entry : entries_) snapshots.push_back(entry.instance->capture());
  return snapshots;
}

bool Network::restore(const std::vector<statechart::InstanceSnapshot>& snapshots,
                      support::DiagnosticSink& sink) {
  if (snapshots.size() != entries_.size()) {
    sink.error("verify::Network", "snapshot tuple holds " + std::to_string(snapshots.size()) +
                                      " instances, network has " +
                                      std::to_string(entries_.size()));
    return false;
  }
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    if (!entries_[i].instance->restore(snapshots[i], sink)) return false;
  }
  return true;
}

bool Network::restore_one(std::size_t index, const statechart::InstanceSnapshot& snapshot,
                          support::DiagnosticSink& sink) {
  return entries_[index].instance->restore(snapshot, sink);
}

// --- Exploration ---------------------------------------------------------------

std::string ExploreStats::str() const {
  std::string out = std::to_string(states) + " states, " + std::to_string(transitions) +
                    " transitions (" + std::to_string(revisits) + " revisits), peak frontier " +
                    std::to_string(peak_frontier) + ", depth " +
                    std::to_string(max_depth_seen) + ", " +
                    std::to_string(bytes_used / 1024) + " KiB";
  if (fingerprint_collisions != 0) {
    out += ", " + std::to_string(fingerprint_collisions) + " fingerprint collisions";
  }
  return out;
}

std::string_view to_string(ExploreResult::Termination termination) {
  switch (termination) {
    case ExploreResult::Termination::kExhausted: return "exhausted";
    case ExploreResult::Termination::kViolation: return "violation";
    case ExploreResult::Termination::kStateBound: return "state-bound";
    case ExploreResult::Termination::kMemoryBound: return "memory-bound";
    case ExploreResult::Termination::kError: return "error";
  }
  return "?";
}

namespace {

/// Shared expansion machinery for the BFS and DFS drivers.
class Explorer {
 public:
  Explorer(Network& network, const std::vector<Property>& properties,
           const ExploreOptions& options, support::DiagnosticSink& sink)
      : network_(network),
        properties_(properties),
        options_(options),
        sink_(sink),
        store_(StateStore::Config{options.memory_budget_bytes, options.hash_override}) {}

  ExploreResult run() {
    ExploreResult result;
    for (std::size_t i = 0; i < network_.size(); ++i) {
      if (!network_.instance(i).started()) {
        sink_.error("verify::explore",
                    "instance '" + network_.name(i) + "' is not started");
        result.termination = ExploreResult::Termination::kError;
        return result;
      }
    }

    result.initial = network_.capture();
    const StateStore::InsertResult seed = store_.insert(encode_network(result.initial));
    if (seed.status == StateStore::Status::kOutOfMemory) {
      result.termination = ExploreResult::Termination::kMemoryBound;
      finish(result);
      return result;
    }

    // Properties hold at the initial state too.
    if (check_state_properties(nullptr, {}, false, seed.id, result)) {
      result.termination = ExploreResult::Termination::kViolation;
      finish(result);
      return result;
    }

    frontier_.push_back(seed.id);
    bool depth_pruned = false;
    bool state_capped = false;

    while (frontier_head_ < frontier_.size()) {
      stats_.peak_frontier = std::max<std::uint64_t>(stats_.peak_frontier,
                                                     frontier_.size() - frontier_head_);
      std::uint32_t id;
      if (options_.strategy == ExploreOptions::Strategy::kBfs) {
        id = frontier_[frontier_head_++];
        // Reclaim the consumed prefix once it dominates the vector, so BFS
        // memory tracks the live frontier, not every id ever queued.
        if (frontier_head_ >= 4096 && frontier_head_ * 2 >= frontier_.size()) {
          frontier_.erase(frontier_.begin(),
                          frontier_.begin() + static_cast<std::ptrdiff_t>(frontier_head_));
          frontier_head_ = 0;
        }
      } else {
        id = frontier_.back();
        frontier_.pop_back();
      }

      if (store_.depth(id) >= options_.max_depth) {
        depth_pruned = true;
        continue;
      }

      switch (expand(id, result)) {
        case Expand::kContinue:
          break;
        case Expand::kStop:
          finish(result);
          return result;
        case Expand::kStateCap:
          state_capped = true;
          break;
      }
      if (state_capped) break;
    }

    result.termination = (depth_pruned || state_capped)
                             ? ExploreResult::Termination::kStateBound
                             : ExploreResult::Termination::kExhausted;
    finish(result);
    return result;
  }

 private:
  enum class Expand : std::uint8_t { kContinue, kStop, kStateCap };

  /// Expands one stored state: delivers every alphabet entry from it,
  /// checks properties on each successor, and enqueues the new ones.
  ///
  /// Hot-path shape: the base state is decoded once and split into
  /// per-instance encoding segments; before each delivery only the
  /// instances the *previous* step touched are restored, and the successor
  /// encoding splices freshly captured segments for touched instances with
  /// the cached base segments for the rest. A step that touches 2 of N
  /// instances therefore costs O(2), not O(N).
  Expand expand(std::uint32_t id, ExploreResult& result) {
    const std::string_view base = store_.encoding(id);
    if (!decode_network(base, scratch_, &segment_spans_)) {
      sink_.error("verify::explore", "stored state encoding is corrupt");
      result.termination = ExploreResult::Termination::kError;
      return Expand::kStop;
    }
    header_.assign(base.data(), 4);  // The instance-count prefix.
    // Per-instance encoding segments are byte slices of `base` (copied:
    // the arena may reallocate while successors are inserted below).
    segments_.resize(scratch_.size());
    for (std::size_t i = 0; i < scratch_.size(); ++i) {
      segments_[i].assign(base.data() + segment_spans_[i].first, segment_spans_[i].second);
    }
    // The live network is seated on whatever state was expanded last, so
    // every instance starts stale.
    stale_.assign(scratch_.size(), 1);

    bool any_choice_fired = false;
    const auto& alphabet = network_.alphabet();
    for (std::uint32_t action = 0; action < alphabet.size(); ++action) {
      for (std::size_t i = 0; i < scratch_.size(); ++i) {
        if (stale_[i] != 0) {
          if (!network_.restore_one(i, scratch_[i], sink_)) {
            result.termination = ExploreResult::Termination::kError;
            return Expand::kStop;
          }
          stale_[i] = 0;  // Seated on the base state again.
        }
      }
      const EventChoice& choice = alphabet[action];
      // Plan-table pruning: a compiled engine proves in O(1) that this
      // event cannot fire, defer, or drain anything here, so the edge is a
      // self-loop — count it without delivering. The error channel is never
      // pruned (an unhandled error is an observable delta), and engines
      // without plan tables answer the conservative `true`.
      if (!choice.is_error && !network_.instance(choice.instance).can_react(choice.event)) {
        ++stats_.transitions;
        store_.note_revisit();
        continue;
      }
      network_.deliver(choice, deltas_, &touched_);
      ++stats_.transitions;
      bool fired = false;
      for (const StepDelta& delta : deltas_) fired |= delta.transitions_fired != 0;
      any_choice_fired |= fired;

      if (check_state_properties(&choice, deltas_, fired, id, result)) {
        result.termination = ExploreResult::Termination::kViolation;
        return Expand::kStop;
      }

      // A touched instance whose fresh segment still matches the base is
      // not stale: its execution state (modulo the monotonic counters,
      // which the encoding deliberately excludes) is unchanged, so the
      // restore before the next delivery can be skipped. If no instance
      // changed, the successor IS the expanded state — count the revisit
      // without re-hashing the encoding.
      successor_.assign(header_);
      bool any_segment_changed = false;
      for (std::size_t i = 0; i < scratch_.size(); ++i) {
        if (touched_[i] != 0) {
          segment_.clear();
          network_.instance(i).capture_into(capture_scratch_);
          encode_snapshot(capture_scratch_, segment_);
          const bool segment_changed = segment_ != segments_[i];
          stale_[i] = segment_changed ? 1 : 0;
          any_segment_changed |= segment_changed;
          successor_.append(segment_);
        } else {
          stale_[i] = 0;
          successor_.append(segments_[i]);
        }
      }
      if (!any_segment_changed) {
        store_.note_revisit();
        continue;
      }
      const StateStore::InsertResult inserted = store_.insert(successor_, id, action);
      switch (inserted.status) {
        case StateStore::Status::kOutOfMemory:
          result.termination = ExploreResult::Termination::kMemoryBound;
          return Expand::kStop;
        case StateStore::Status::kVisited:
          break;
        case StateStore::Status::kNew:
          stats_.max_depth_seen =
              std::max(stats_.max_depth_seen, store_.depth(inserted.id));
          if (store_.size() >= options_.max_states) return Expand::kStateCap;
          frontier_.push_back(inserted.id);
          break;
      }
    }

    // No alphabet entry fires anything from this state: a quiescent state.
    // Deadlock properties judge it (re-seated so checks see the state, not
    // its last failed successor attempt).
    if (!any_choice_fired && has_deadlock_properties()) {
      if (!network_.restore(scratch_, sink_)) {
        result.termination = ExploreResult::Termination::kError;
        return Expand::kStop;
      }
      if (check_deadlock_properties(id, result)) {
        result.termination = ExploreResult::Termination::kViolation;
        return Expand::kStop;
      }
    }
    return Expand::kContinue;
  }

  /// Runs every state property and records a violation for each one that
  /// fails. Returns true when any was recorded.
  bool check_state_properties(const EventChoice* step, std::span<const StepDelta> deltas,
                              bool fired, std::uint32_t state_id, ExploreResult& result) {
    if (!has_state_properties()) return false;
    PropertyContext context{network_, step, deltas, fired};
    bool recorded = false;
    for (const Property& property : properties_) {
      if (property.kind() != Property::Kind::kState) continue;
      if (std::optional<std::string> message = property.check(context)) {
        record_violation(property.name(), *message, state_id, step, result);
        recorded = true;
      }
    }
    return recorded;
  }

  bool check_deadlock_properties(std::uint32_t state_id, ExploreResult& result) {
    PropertyContext context{network_, nullptr, {}, false};
    bool recorded = false;
    for (const Property& property : properties_) {
      if (property.kind() != Property::Kind::kDeadlock) continue;
      if (std::optional<std::string> message = property.check(context)) {
        record_violation(property.name(), *message, state_id, nullptr, result);
        recorded = true;
      }
    }
    return recorded;
  }

  [[nodiscard]] bool has_deadlock_properties() const {
    for (const Property& property : properties_) {
      if (property.kind() == Property::Kind::kDeadlock) return true;
    }
    return false;
  }

  [[nodiscard]] bool has_state_properties() const {
    for (const Property& property : properties_) {
      if (property.kind() == Property::Kind::kState) return true;
    }
    return false;
  }

  /// Counterexample = discovery path of `state_id` plus the violating step.
  void record_violation(const std::string& property, std::string message,
                        std::uint32_t state_id, const EventChoice* step,
                        ExploreResult& result) {
    Violation violation;
    violation.property = property;
    violation.message = std::move(message);
    for (std::uint32_t action : store_.path_actions(state_id)) {
      violation.path.push_back(network_.alphabet()[action]);
    }
    if (step != nullptr) violation.path.push_back(*step);
    result.violations.push_back(std::move(violation));
  }

  void finish(ExploreResult& result) {
    stats_.states = store_.size();
    stats_.revisits = store_.revisits();
    stats_.fingerprint_collisions = store_.fingerprint_collisions();
    stats_.bytes_used = store_.bytes_used();
    result.stats = stats_;
  }

  Network& network_;
  const std::vector<Property>& properties_;
  const ExploreOptions& options_;
  support::DiagnosticSink& sink_;
  StateStore store_;
  /// BFS consumes from frontier_head_ and compacts lazily; DFS pops the
  /// back. A vector beats std::deque here: no per-explore chunk allocation.
  std::vector<std::uint32_t> frontier_;
  std::size_t frontier_head_ = 0;
  // Reused expansion scratch: decoded base state, its per-instance encoding
  // segments, per-step touched/stale masks and encoding buffers. Kept as
  // members so steady-state expansion does not allocate.
  std::vector<statechart::InstanceSnapshot> scratch_;
  std::vector<std::string> segments_;
  std::vector<std::pair<std::size_t, std::size_t>> segment_spans_;
  std::vector<std::uint8_t> touched_;
  std::vector<std::uint8_t> stale_;
  std::vector<StepDelta> deltas_;
  statechart::InstanceSnapshot capture_scratch_;
  std::string header_;
  std::string successor_;
  std::string segment_;
  ExploreStats stats_;
};

}  // namespace

ExploreResult explore(Network& network, const std::vector<Property>& properties,
                      const ExploreOptions& options, support::DiagnosticSink* sink) {
  support::DiagnosticSink local;
  Explorer explorer(network, properties, options, sink != nullptr ? *sink : local);
  return explorer.run();
}

}  // namespace umlsoc::verify
