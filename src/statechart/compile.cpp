#include "statechart/compile.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>

namespace umlsoc::statechart {

namespace {

constexpr std::uint32_t kNoConfig = 0xffffffffu;
/// No vertex / no transition row (a route that resolves nowhere).
constexpr std::uint32_t kNoIndex = 0xffffffffu;

/// AOT seeding caps: the breadth-first closure stops here and leaves the
/// remainder to lazy run-time extension (see walk_guards_open_closure).
constexpr std::size_t kSeedMaxConfigs = 1024;
constexpr std::size_t kSeedMaxPlans = 16384;

/// Segment bound of a choice/junction route, matching the interpreter's
/// resolve_path (a longer chain is reported as a cycle).
constexpr int kMaxRouteHops = 64;

std::uint64_t hash_words(const std::uint64_t* words, std::uint32_t count) {
  std::uint64_t hash = 1469598103934665603ull;  // FNV-1a offset basis.
  for (std::uint32_t w = 0; w < count; ++w) {
    hash ^= words[w];
    hash *= 1099511628211ull;
  }
  return hash;
}

bool bit_raw(const std::uint64_t* bits, std::uint32_t index) {
  return (bits[index >> 6] >> (index & 63)) & 1u;
}

InstanceSnapshot::EventRecord record_event(const Event& event) {
  return InstanceSnapshot::EventRecord{event.name, event.data, event.tag};
}

Event make_event(const InstanceSnapshot::EventRecord& record) {
  return Event{record.name, record.data, record.tag};
}

}  // namespace

CompiledMachine::CompiledMachine(const StateMachine& machine) : machine_(&machine) {
  build_static_tables();
}

// --- Static tables ----------------------------------------------------------------

void CompiledMachine::build_static_tables() {
  vertex_list_ = machine_->all_vertices();
  region_list_ = machine_->all_regions();
  words_ = static_cast<std::uint32_t>((vertex_list_.size() + 63) / 64);
  if (words_ == 0) words_ = 1;

  std::unordered_map<const Vertex*, std::uint32_t> vertex_index;
  std::unordered_map<const Region*, std::uint32_t> region_index;
  vertex_index.reserve(vertex_list_.size());
  region_index.reserve(region_list_.size());
  for (std::size_t i = 0; i < vertex_list_.size(); ++i) {
    vertex_index.emplace(vertex_list_[i], static_cast<std::uint32_t>(i));
  }
  for (std::size_t i = 0; i < region_list_.size(); ++i) {
    region_index.emplace(region_list_[i], static_cast<std::uint32_t>(i));
  }

  vinfo_.resize(vertex_list_.size());
  for (std::size_t i = 0; i < vertex_list_.size(); ++i) {
    const Vertex* vertex = vertex_list_[i];
    VertexInfo& info = vinfo_[i];
    info.kind = vertex->vertex_kind();
    info.container = region_index.at(vertex->container());
    const State* parent = vertex->containing_state();
    info.parent_state = parent == nullptr ? -1 : static_cast<std::int32_t>(vertex_index.at(parent));
    info.depth = static_cast<std::uint16_t>(vertex->depth());
    info.state = dynamic_cast<const State*>(vertex);
    if (info.state != nullptr) {
      for (const auto& region : info.state->regions()) {
        info.regions.push_back(region_index.at(region.get()));
      }
    }
  }

  rinfo_.resize(region_list_.size());
  for (std::size_t i = 0; i < region_list_.size(); ++i) {
    const Region* region = region_list_[i];
    RegionInfo& info = rinfo_[i];
    info.region = region;
    info.owner = region->owner_state() == nullptr
                     ? -1
                     : static_cast<std::int32_t>(vertex_index.at(region->owner_state()));
    const Pseudostate* initial = region->initial();
    info.initial = (initial != nullptr && !initial->outgoing().empty())
                       ? initial->outgoing().front()
                       : nullptr;
    for (const auto& vertex : region->vertices()) {
      const std::uint32_t index = vertex_index.at(vertex.get());
      if (vertex->vertex_kind() == VertexKind::kState) info.child_states.push_back(index);
      if (vertex->vertex_kind() == VertexKind::kFinal) info.finals.push_back(index);
    }
  }

  const std::vector<const Transition*> transitions = machine_->all_transitions();
  tinfo_.reserve(transitions.size());
  transition_index_.reserve(transitions.size());
  for (const Transition* transition : transitions) {
    TransitionRow row;
    row.origin = transition;
    row.source = vertex_index.at(&transition->source());
    row.target = vertex_index.at(&transition->target());
    row.internal = transition->is_internal();
    row.completion = transition->is_completion();
    row.domain = domain_of(row.source, row.target);
    transition_index_.emplace(transition, static_cast<std::uint32_t>(tinfo_.size()));
    tinfo_.push_back(row);
  }
  for (std::size_t i = 0; i < vertex_list_.size(); ++i) {
    for (const Transition* transition : vertex_list_[i]->outgoing()) {
      vinfo_[i].outgoing.push_back(transition_index_.at(transition));
    }
  }

  event_names_.push_back("");  // Id 0 is the completion pseudo-event.
  event_ids_.emplace("", 0u);

  bits_.assign(words_, 0);
  claimed_scratch_.assign(words_, 0);
  shallow_slot_.assign(region_list_.size(), -1);
  deep_set_.assign(region_list_.size(), 0);
  deep_slot_.resize(region_list_.size());
  config_id_ = intern_config(bits_.data());
}

bool CompiledMachine::check_supported(support::DiagnosticSink& sink) const {
  bool ok = true;
  for (const TransitionRow& row : tinfo_) {
    if (vinfo_[row.target].kind == VertexKind::kInitial) {
      sink.error(row.origin->str(), "compile: transition targets an initial pseudostate");
      ok = false;
    }
  }
  return ok;
}

// --- Structural queries ------------------------------------------------------------

bool CompiledMachine::vertex_within_region(std::uint32_t vertex, std::uint32_t region) const {
  std::uint32_t current = vinfo_[vertex].container;
  for (;;) {
    if (current == region) return true;
    const std::int32_t owner = rinfo_[current].owner;
    if (owner < 0) return false;
    current = vinfo_[owner].container;
  }
}

std::uint32_t CompiledMachine::domain_of(std::uint32_t source, std::uint32_t target) const {
  std::uint32_t current = vinfo_[source].container;
  for (;;) {
    if (vertex_within_region(target, current)) return current;
    const std::int32_t owner = rinfo_[current].owner;
    if (owner < 0) return 0;  // Top region (pre-order index 0) contains everything.
    current = vinfo_[owner].container;
  }
}

// --- Configuration interning --------------------------------------------------------

std::uint32_t CompiledMachine::intern_config(const std::uint64_t* bits) {
  if (config_slots_.empty()) config_slots_.assign(64, kNoConfig);
  const std::uint64_t hash = hash_words(bits, words_);
  std::uint32_t mask = static_cast<std::uint32_t>(config_slots_.size() - 1);
  std::uint32_t slot = static_cast<std::uint32_t>(hash) & mask;
  while (config_slots_[slot] != kNoConfig) {
    const std::uint32_t id = config_slots_[slot];
    const std::uint64_t* stored = &config_bits_pool_[configs_[id].bits_offset];
    if (std::equal(stored, stored + words_, bits)) return id;
    slot = (slot + 1) & mask;
  }

  // New configuration: copy the bitset and materialize the member lists
  // (states ascending, then finals ascending) used by plan building and
  // capture.
  ConfigRec rec;
  rec.bits_offset = static_cast<std::uint32_t>(config_bits_pool_.size());
  config_bits_pool_.insert(config_bits_pool_.end(), bits, bits + words_);
  rec.members_offset = static_cast<std::uint32_t>(config_member_pool_.size());
  for (std::uint32_t w = 0; w < words_; ++w) {
    std::uint64_t word = bits[w];
    while (word != 0) {
      const std::uint32_t index = w * 64 + static_cast<std::uint32_t>(std::countr_zero(word));
      word &= word - 1;
      if (vinfo_[index].kind == VertexKind::kState) {
        config_member_pool_.push_back(index);
        ++rec.state_count;
      }
    }
  }
  for (std::uint32_t w = 0; w < words_; ++w) {
    std::uint64_t word = bits[w];
    while (word != 0) {
      const std::uint32_t index = w * 64 + static_cast<std::uint32_t>(std::countr_zero(word));
      word &= word - 1;
      if (vinfo_[index].kind == VertexKind::kFinal) {
        config_member_pool_.push_back(index);
        ++rec.final_count;
      }
    }
  }
  const std::uint32_t id = static_cast<std::uint32_t>(configs_.size());
  configs_.push_back(rec);

  if ((configs_.size() + 1) * 4 > config_slots_.size() * 3) {
    std::vector<std::uint32_t> grown(config_slots_.size() * 2, kNoConfig);
    const std::uint32_t grown_mask = static_cast<std::uint32_t>(grown.size() - 1);
    for (std::uint32_t existing = 0; existing < configs_.size(); ++existing) {
      const std::uint64_t* stored = &config_bits_pool_[configs_[existing].bits_offset];
      std::uint32_t probe = static_cast<std::uint32_t>(hash_words(stored, words_)) & grown_mask;
      while (grown[probe] != kNoConfig) probe = (probe + 1) & grown_mask;
      grown[probe] = existing;
    }
    config_slots_ = std::move(grown);
  } else {
    config_slots_[slot] = id;
  }
  return id;
}

std::vector<std::uint32_t> CompiledMachine::configuration_members(std::uint32_t config) const {
  const ConfigRec& rec = configs_[config];
  const auto begin = config_member_pool_.begin() + rec.members_offset;
  return std::vector<std::uint32_t>(begin, begin + rec.state_count + rec.final_count);
}

std::uint32_t CompiledMachine::intern_event(const std::string& name) {
  auto it = event_ids_.find(name);
  if (it != event_ids_.end()) return it->second;
  const std::uint32_t id = static_cast<std::uint32_t>(event_names_.size());
  event_names_.push_back(name);
  event_ids_.emplace(name, id);
  return id;
}

// --- Entry-phase linearization (compile-time symbolic execution) -------------------
// These mirror the interpreter's enter_target/enter_single/
// default_enter_region and its pending-composite sweep exactly, emitting
// steps instead of running behaviors, so the linearized op order equals
// the interpreter's behavior/listener call order.

bool CompiledMachine::sim_region_active(const EntrySim& sim, std::uint32_t region) const {
  for (const std::uint32_t final_index : rinfo_[region].finals) {
    if (bit_raw(sim.bits.data(), final_index)) return true;
  }
  for (const std::uint32_t child : rinfo_[region].child_states) {
    if (bit_raw(sim.bits.data(), child)) return true;
  }
  return false;
}

void CompiledMachine::sim_enter_single(EntrySim& sim, std::uint32_t state) {
  if (bit_raw(sim.bits.data(), state)) return;
  set_bit(sim.bits, state);
  sim.out->push_back(Step{Op::kEnterState, state, 0});
  if (!vinfo_[state].regions.empty()) sim.pending.push_back(state);
}

void CompiledMachine::sim_default_enter(EntrySim& sim, std::uint32_t region) {
  const Transition* transition = rinfo_[region].initial;
  if (transition == nullptr) return;  // Interpreter warns and enters nothing.
  const std::uint32_t row = transition_index_.at(transition);
  const VertexKind target_kind = vinfo_[tinfo_[row].target].kind;
  if (target_kind == VertexKind::kChoice || target_kind == VertexKind::kJunction) {
    // The branch taken depends on guards at entry time: generic walk.
    sim.dynamic = true;
    return;
  }
  if (!transition->effect().empty()) sim.out->push_back(Step{Op::kEffect, row, 0});
  sim_enter_target(sim, tinfo_[row].target, region);
}

void CompiledMachine::sim_enter_target(EntrySim& sim, std::uint32_t vertex, std::uint32_t scope) {
  if (sim.dynamic) return;
  ++sim.depth;
  if (vinfo_[vertex].container != scope) {
    std::uint32_t chain[64];
    std::size_t chain_length = 0;
    for (std::int32_t ancestor = vinfo_[vertex].parent_state; ancestor >= 0;
         ancestor = vinfo_[ancestor].parent_state) {
      chain[chain_length++] = static_cast<std::uint32_t>(ancestor);
      if (vinfo_[ancestor].container == scope || chain_length == 64) break;
    }
    for (std::size_t i = chain_length; i-- > 0;) sim_enter_single(sim, chain[i]);
  }

  switch (vinfo_[vertex].kind) {
    case VertexKind::kState:
      sim_enter_single(sim, vertex);
      break;
    case VertexKind::kFinal:
      set_bit(sim.bits, vertex);
      sim.out->push_back(Step{Op::kEnterFinal, vertex, 0});
      break;
    case VertexKind::kShallowHistory:
    case VertexKind::kDeepHistory:
      // The restored configuration depends on run-time history memory; this
      // entry phase executes the generic walk instead of a static program.
      sim.dynamic = true;
      break;
    case VertexKind::kTerminate:
      std::fill(sim.bits.begin(), sim.bits.end(), 0);
      sim.out->push_back(Step{Op::kTerminate, 0, 0});
      break;
    case VertexKind::kInitial:
    case VertexKind::kChoice:
    case VertexKind::kJunction:
      // Never a final target: check_supported rejects transitions into an
      // initial pseudostate and routes resolve through choice/junction.
      break;
  }

  --sim.depth;
  if (sim.depth != 0) return;
  while (!sim.pending.empty() && !sim.dynamic) {
    const std::uint32_t composite = sim.pending.front();
    sim.pending.pop_front();
    for (const std::uint32_t region : vinfo_[composite].regions) {
      if (!sim_region_active(sim, region)) sim_default_enter(sim, region);
    }
  }
}

// --- Plan building ------------------------------------------------------------------

void CompiledMachine::build_fire_program(std::uint32_t config, std::uint32_t source,
                                         std::uint32_t target,
                                         std::span<const std::uint32_t> segments,
                                         Candidate& candidate) {
  const std::uint32_t domain = domain_of(source, target);
  const ConfigRec rec = configs_[config];
  const std::uint64_t* config_bits = &config_bits_pool_[rec.bits_offset];
  candidate.first_step = static_cast<std::uint32_t>(steps_.size());

  // Exit set: active states inside the domain, innermost-first (depth
  // descending, document order ascending — members are pre-order ascending,
  // so a stable sort by depth preserves the tie-break).
  std::vector<std::uint32_t> exits;
  for (std::uint32_t i = 0; i < rec.state_count; ++i) {
    const std::uint32_t state = config_member_pool_[rec.members_offset + i];
    if (vertex_within_region(state, domain)) exits.push_back(state);
  }
  std::stable_sort(exits.begin(), exits.end(), [this](std::uint32_t a, std::uint32_t b) {
    return vinfo_[a].depth > vinfo_[b].depth;
  });

  // History records first: children are still in the configuration.
  for (const std::uint32_t exiting : exits) {
    if (vinfo_[exiting].regions.empty()) continue;
    for (const std::uint32_t region : vinfo_[exiting].regions) {
      // Shallow: the active direct child (last in declaration order wins,
      // matching the interpreter's overwrite loop).
      std::int32_t direct_child = -1;
      for (const std::uint32_t child : rinfo_[region].child_states) {
        if (bit_raw(config_bits, child)) direct_child = static_cast<std::int32_t>(child);
      }
      if (direct_child >= 0) {
        steps_.push_back(Step{Op::kRecordShallow, region, static_cast<std::uint32_t>(direct_child)});
      }
      // Deep: active leaves inside the region, document order.
      std::vector<std::uint32_t> in_region;
      for (std::uint32_t i = 0; i < rec.state_count; ++i) {
        const std::uint32_t state = config_member_pool_[rec.members_offset + i];
        if (vertex_within_region(state, region)) in_region.push_back(state);
      }
      std::vector<std::uint32_t> leaves;
      for (const std::uint32_t state : in_region) {
        bool has_active_child = false;
        for (const std::uint32_t other : in_region) {
          if (other == state) continue;
          for (std::int32_t parent = vinfo_[other].parent_state; parent >= 0;
               parent = vinfo_[parent].parent_state) {
            if (static_cast<std::uint32_t>(parent) == state) {
              has_active_child = true;
              break;
            }
          }
          if (has_active_child) break;
        }
        if (!has_active_child) leaves.push_back(state);
      }
      if (!leaves.empty()) {
        const std::uint32_t offset = static_cast<std::uint32_t>(leaf_pool_.size());
        leaf_pool_.push_back(static_cast<std::uint32_t>(leaves.size()));
        leaf_pool_.insert(leaf_pool_.end(), leaves.begin(), leaves.end());
        steps_.push_back(Step{Op::kRecordDeep, region, offset});
      }
    }
  }

  for (const std::uint32_t exiting : exits) steps_.push_back(Step{Op::kExitState, exiting, 0});

  // Clear final flags inside the domain: the region is being re-entered.
  std::vector<std::uint32_t> cleared_finals;
  for (std::uint32_t i = 0; i < rec.final_count; ++i) {
    const std::uint32_t final_index =
        config_member_pool_[rec.members_offset + rec.state_count + i];
    if (vertex_within_region(final_index, domain)) {
      cleared_finals.push_back(final_index);
      steps_.push_back(Step{Op::kClearFinal, final_index, 0});
    }
  }

  for (const std::uint32_t segment : segments) {
    if (!tinfo_[segment].origin->effect().empty()) steps_.push_back(Step{Op::kEffect, segment, 0});
  }

  // Entry phase, linearized against the post-exit configuration.
  EntrySim sim;
  sim.bits.assign(config_bits, config_bits + words_);
  for (const std::uint32_t exiting : exits) clear_bit(sim.bits, exiting);
  for (const std::uint32_t final_index : cleared_finals) clear_bit(sim.bits, final_index);
  sim.out = &steps_;
  const std::size_t exit_end = steps_.size();
  sim_enter_target(sim, target, domain);
  if (sim.dynamic) {
    steps_.resize(exit_end);
    candidate.dynamic_entry = true;
    candidate.entry_target = target;
    candidate.entry_scope = domain;
  }
  candidate.step_count = static_cast<std::uint32_t>(steps_.size()) - candidate.first_step;
}

bool CompiledMachine::config_state_completed(std::uint32_t config, std::uint32_t state) const {
  const ConfigRec& rec = configs_[config];
  const std::uint64_t* config_bits = &config_bits_pool_[rec.bits_offset];
  for (const std::uint32_t region : vinfo_[state].regions) {
    bool in_final = false;
    for (const std::uint32_t final_index : rinfo_[region].finals) {
      if (bit_raw(config_bits, final_index)) {
        in_final = true;
        break;
      }
    }
    if (!in_final) return false;
  }
  return true;
}

std::uint32_t CompiledMachine::build_plan(std::uint32_t config, std::uint32_t event_id) {
  const std::string& name = event_names_[event_id];
  const ConfigRec rec = configs_[config];

  // Selection priority: depth descending, document order ascending (member
  // list is pre-order ascending; stable sort keeps the tie-break).
  std::vector<std::uint32_t> active(
      config_member_pool_.begin() + rec.members_offset,
      config_member_pool_.begin() + rec.members_offset + rec.state_count);
  std::stable_sort(active.begin(), active.end(), [this](std::uint32_t a, std::uint32_t b) {
    return vinfo_[a].depth > vinfo_[b].depth;
  });

  const std::uint32_t first_candidate = static_cast<std::uint32_t>(candidates_.size());
  for (const std::uint32_t state : active) {
    for (const std::uint32_t transition : vinfo_[state].outgoing) {
      const TransitionRow& row = tinfo_[transition];
      if (event_id != 0) {
        if (row.origin->trigger() != name) continue;
      } else {
        if (!row.completion) continue;
        if (!config_state_completed(config, state)) continue;
      }
      Candidate candidate;
      candidate.transition = transition;
      candidate.internal = row.internal;
      candidate.has_guard = row.origin->guard().fn != nullptr;
      // Conflict claim: the states this firing would exit (the active part
      // of the domain for external transitions, just the source for
      // internal ones).
      candidate.claim_offset = static_cast<std::uint32_t>(claim_pool_.size());
      claim_pool_.insert(claim_pool_.end(), words_, 0);
      {
        std::uint64_t* claim = &claim_pool_[candidate.claim_offset];
        if (row.internal) {
          claim[state >> 6] |= std::uint64_t{1} << (state & 63);
        } else {
          for (std::uint32_t i = 0; i < rec.state_count; ++i) {
            const std::uint32_t member = config_member_pool_[rec.members_offset + i];
            if (vertex_within_region(member, row.domain)) {
              claim[member >> 6] |= std::uint64_t{1} << (member & 63);
            }
          }
          claim[state >> 6] |= std::uint64_t{1} << (state & 63);
        }
      }
      const VertexKind target_kind = vinfo_[row.target].kind;
      if (target_kind == VertexKind::kChoice || target_kind == VertexKind::kJunction) {
        candidate.routed = true;  // Program built per resolved path at run time.
      } else if (!row.internal) {
        build_fire_program(config, row.source, row.target, {&transition, 1}, candidate);
      }
      candidates_.push_back(candidate);
    }
  }

  bool defer = false;
  if (event_id != 0) {
    for (std::uint32_t i = 0; i < rec.state_count && !defer; ++i) {
      const std::uint32_t state = config_member_pool_[rec.members_offset + i];
      if (vinfo_[state].state->defers(name)) defer = true;
    }
  }

  const std::uint32_t plan_index = static_cast<std::uint32_t>(plans_.size());
  plans_.push_back(Plan{config, event_id, first_candidate,
                        static_cast<std::uint32_t>(candidates_.size()) - first_candidate, defer});
  plan_ids_.emplace((static_cast<std::uint64_t>(config) << 32) | event_id, plan_index);
  return plan_index;
}

std::uint32_t CompiledMachine::plan_for(std::uint32_t config, std::uint32_t event_id) {
  const std::uint64_t key = (static_cast<std::uint64_t>(config) << 32) | event_id;
  auto it = plan_ids_.find(key);
  if (it != plan_ids_.end()) return it->second;
  return build_plan(config, event_id);
}

// --- AOT seeding --------------------------------------------------------------------

void CompiledMachine::build_start_program() {
  EntrySim sim;
  sim.bits.assign(words_, 0);
  sim.out = &steps_;
  start_first_step_ = static_cast<std::uint32_t>(steps_.size());
  sim_default_enter(sim, 0);
  if (sim.dynamic) {
    steps_.resize(start_first_step_);
    start_dynamic_ = true;
  }
  start_step_count_ = static_cast<std::uint32_t>(steps_.size()) - start_first_step_;
}

namespace {

void apply_steps_to_bits(const std::vector<CompiledMachine::Step>& steps, std::uint32_t first,
                         std::uint32_t count, std::vector<std::uint64_t>& bits) {
  using Op = CompiledMachine::Op;
  for (std::uint32_t i = first; i < first + count; ++i) {
    const CompiledMachine::Step& step = steps[i];
    switch (step.op) {
      case Op::kExitState:
      case Op::kClearFinal:
        bits[step.a >> 6] &= ~(std::uint64_t{1} << (step.a & 63));
        break;
      case Op::kEnterState:
      case Op::kEnterFinal:
        bits[step.a >> 6] |= std::uint64_t{1} << (step.a & 63);
        break;
      case Op::kTerminate:
        std::fill(bits.begin(), bits.end(), 0);
        break;
      case Op::kRecordShallow:
      case Op::kRecordDeep:
      case Op::kEffect:
        break;
    }
  }
}

}  // namespace

std::uint32_t CompiledMachine::guards_open_successor(std::uint32_t config, std::uint32_t event_id,
                                                     std::vector<std::uint32_t>& fired,
                                                     std::vector<std::uint64_t>& scratch) {
  const Plan plan = plans_[plan_for(config, event_id)];
  // Greedy selection as at run time with every guard open: `scratch`
  // holds the claimed states.
  fired.clear();
  std::fill(scratch.begin(), scratch.end(), 0);
  bool dynamic = false;
  for (std::uint32_t i = 0; i < plan.candidate_count; ++i) {
    const Candidate& candidate = candidates_[plan.first_candidate + i];
    const std::uint64_t* claim = &claim_pool_[candidate.claim_offset];
    bool conflict = false;
    for (std::uint32_t w = 0; w < words_ && !conflict; ++w) conflict = (claim[w] & scratch[w]) != 0;
    if (conflict) continue;
    for (std::uint32_t w = 0; w < words_; ++w) scratch[w] |= claim[w];
    fired.push_back(plan.first_candidate + i);
    dynamic = dynamic || candidate.dynamic_entry || candidate.routed;
  }
  if (fired.empty()) return kNoConfig;
  if (dynamic) return kDynamicConfig;
  // Conflict-free candidates touch disjoint states, so their programs
  // apply one after another to the step-start configuration.
  const std::uint64_t* config_bits = &config_bits_pool_[configs_[config].bits_offset];
  std::copy(config_bits, config_bits + words_, scratch.begin());
  for (const std::uint32_t index : fired) {
    const Candidate& candidate = candidates_[index];
    if (!candidate.internal) {
      apply_steps_to_bits(steps_, candidate.first_step, candidate.step_count, scratch);
    }
  }
  return intern_config(scratch.data());
}

bool CompiledMachine::walk_guards_open_closure(
    std::vector<std::uint32_t>& configs, const std::function<void(const ClosureEdge&)>& visit) {
  if (start_dynamic_) return false;

  // Intern every trigger up front; the alphabet is then every known event
  // id (0 is completion).
  for (const TransitionRow& row : tinfo_) {
    if (!row.completion) (void)intern_event(row.origin->trigger());
  }
  const std::uint32_t alphabet_size = static_cast<std::uint32_t>(event_names_.size());

  std::vector<std::uint64_t> scratch(words_, 0);
  apply_steps_to_bits(steps_, start_first_step_, start_step_count_, scratch);
  const std::size_t first = configs.size();
  configs.push_back(intern_config(scratch.data()));
  std::vector<std::uint8_t> seen(configs_.size(), 0);
  seen[configs.back()] = 1;
  std::vector<std::uint32_t> fired;

  for (std::size_t head = first; head < configs.size(); ++head) {
    const std::uint32_t config = configs[head];
    for (std::uint32_t event_id = 0; event_id < alphabet_size; ++event_id) {
      if (plans_.size() >= kSeedMaxPlans || configs_.size() >= kSeedMaxConfigs) return false;
      const std::uint32_t next = guards_open_successor(config, event_id, fired, scratch);
      if (fired.empty()) continue;
      if (visit) visit(ClosureEdge{config, event_id, next, &fired});
      if (next == kDynamicConfig) continue;
      if (next >= seen.size()) seen.resize(configs_.size(), 0);
      if (seen[next] == 0) {
        seen[next] = 1;
        configs.push_back(next);
      }
    }
  }
  return true;
}

std::unique_ptr<CompiledMachine> compile(const StateMachine& machine,
                                         support::DiagnosticSink& sink) {
  std::unique_ptr<CompiledMachine> compiled(new CompiledMachine(machine));
  if (!compiled->check_supported(sink)) return nullptr;
  compiled->build_start_program();
  std::vector<std::uint32_t> seeded;
  (void)compiled->walk_guards_open_closure(seeded, nullptr);
  return compiled;
}

// --- Runtime: lifecycle -------------------------------------------------------------

std::uint32_t CompiledMachine::current_config() {
  config_id_ = intern_config(bits_.data());
  return config_id_;
}

void CompiledMachine::start() {
  if (started_) return;
  started_ = true;
  ActionContext context{*this, nullptr};
  if (start_dynamic_) {
    rt_default_enter(0, context);
  } else {
    execute_steps(start_first_step_, start_step_count_, context);
  }
  run_completions();
  run_to_quiescence();
}

void CompiledMachine::post(Event event) { queue_.push_back(std::move(event)); }

bool CompiledMachine::dispatch(Event event) {
  if (terminated_) return false;
  const std::uint64_t fired_before = transitions_fired_;
  post(std::move(event));
  if (started_) run_to_quiescence();
  return transitions_fired_ != fired_before;
}

bool CompiledMachine::dispatch_error(Event event) {
  if (terminated_) return false;
  const std::uint64_t fired_before = transitions_fired_;
  ++errors_raised_;
  queue_.push_front(std::move(event));
  if (started_) run_to_quiescence();
  const bool handled = transitions_fired_ != fired_before;
  if (!handled) ++errors_unhandled_;
  return handled;
}

bool CompiledMachine::can_react(const Event& event) {
  if (!started_ || terminated_) return false;
  if (!queue_.empty()) return true;  // Queued work runs regardless of `event`.
  // The plan is built lazily if this (configuration, event) pair was never
  // dispatched — exactly the work dispatch() would do — then cached, so
  // repeated queries are a hash probe. Guards are deliberately ignored:
  // a guarded candidate means "might react", which is the conservative
  // answer this query is allowed to give.
  const std::uint32_t plan_index = plan_for(current_config(), intern_event(event.name));
  const Plan& plan = plans_[plan_index];
  return plan.candidate_count != 0 || plan.defer_if_unfired;
}

void CompiledMachine::run_to_quiescence() {
  while (!queue_.empty()) {
    Event event = std::move(queue_.front());
    queue_.pop_front();
    ++events_processed_;
    const std::size_t fired = rtc_step(event);
    // A configuration change recalls deferred events ahead of newer queue
    // entries (UML deferral semantics, matching the interpreter).
    if (fired > 0 && !deferred_pool_.empty()) {
      for (auto it = deferred_pool_.rbegin(); it != deferred_pool_.rend(); ++it) {
        queue_.push_front(std::move(*it));
      }
      deferred_pool_.clear();
    }
  }
}

// --- Runtime: plan execution --------------------------------------------------------

std::size_t CompiledMachine::select_and_fire(std::uint32_t plan_index, ActionContext& context) {
  const Plan plan = plans_[plan_index];
  selected_scratch_.clear();
  std::fill(claimed_scratch_.begin(), claimed_scratch_.end(), 0);
  for (std::uint32_t i = 0; i < plan.candidate_count; ++i) {
    const std::uint32_t index = plan.first_candidate + i;
    const Candidate& candidate = candidates_[index];
    if (candidate.has_guard) {
      const Guard& guard = tinfo_[candidate.transition].origin->guard();
      if (guard.fn != nullptr && !guard.fn(context)) continue;
    }
    const std::uint64_t* claim = &claim_pool_[candidate.claim_offset];
    bool conflict = false;
    for (std::uint32_t w = 0; w < words_ && !conflict; ++w) {
      if (claim[w] & claimed_scratch_[w]) conflict = true;
    }
    if (conflict) continue;
    for (std::uint32_t w = 0; w < words_; ++w) claimed_scratch_[w] |= claim[w];
    selected_scratch_.push_back(index);
  }
  if (selected_scratch_.empty()) return 0;

  std::size_t fired = 0;
  for (std::size_t i = 0; i < selected_scratch_.size(); ++i) {
    const Candidate candidate = candidates_[selected_scratch_[i]];
    // An earlier firing in the same step may have exited this source.
    const std::uint32_t source = tinfo_[candidate.transition].source;
    if (vinfo_[source].kind == VertexKind::kState && !bit(bits_, source)) continue;
    execute_candidate(candidate, context);
    ++fired;
  }
  return fired;
}

std::size_t CompiledMachine::rtc_step(const Event& event) {
  const std::uint32_t event_id = intern_event(event.name);
  const std::uint32_t plan_index = plan_for(current_config(), event_id);
  ActionContext context{*this, &event};

  // Mirror the interpreter's control flow: deferral applies only when the
  // selection (not the firing) is empty.
  const std::size_t fired = select_and_fire(plan_index, context);
  if (selected_scratch_.empty()) {
    if (plans_[plan_index].defer_if_unfired) deferred_pool_.push_back(event);
    return 0;
  }
  run_completions();
  return fired;
}

void CompiledMachine::run_completions() {
  ActionContext context{*this, nullptr};
  for (int microsteps = 0;; ++microsteps) {
    if (microsteps > kMaxMicrosteps) {
      throw std::runtime_error("state machine '" + machine_->name() +
                               "': completion livelock (more than " +
                               std::to_string(kMaxMicrosteps) + " microsteps)");
    }
    const std::uint32_t plan_index = plan_for(current_config(), 0);
    (void)select_and_fire(plan_index, context);
    if (selected_scratch_.empty()) return;
  }
}

void CompiledMachine::execute_candidate(const Candidate& candidate, ActionContext& context) {
  if (candidate.internal) {
    const Behavior& effect = tinfo_[candidate.transition].origin->effect();
    if (effect.fn != nullptr) effect.fn(context);
    ++transitions_fired_;
    return;
  }
  if (candidate.routed) {
    fire_route(candidate.transition, context);
    return;
  }
  run_program(candidate, context);
}

void CompiledMachine::run_program(const Candidate& program, ActionContext& context) {
  execute_steps(program.first_step, program.step_count, context);
  if (program.dynamic_entry) rt_enter_target(program.entry_target, program.entry_scope, context);
  ++transitions_fired_;
}

void CompiledMachine::fire_route(std::uint32_t transition, ActionContext& context) {
  // Keyed by the live configuration: an earlier firing in this step may
  // have changed it, and the resolved target may leave the region whose
  // claim selected this candidate.
  route_scratch_.assign(1, current_config());
  const std::uint32_t target = resolve_route(transition, context);
  // Dead end or cycle: nothing changes and no transition counts as fired;
  // the caller still counts the selection for deferral recall, as the
  // interpreter does.
  if (target == kNoIndex) return;
  auto it = route_programs_.find(route_scratch_);
  if (it == route_programs_.end()) {
    Candidate program;
    program.transition = transition;
    build_fire_program(route_scratch_[0], tinfo_[transition].source, target,
                       std::span<const std::uint32_t>(route_scratch_).subspan(1), program);
    it = route_programs_.emplace(route_scratch_, program).first;
  }
  const Candidate program = it->second;
  run_program(program, context);
}

std::uint32_t CompiledMachine::resolve_route(std::uint32_t transition, ActionContext& context) {
  std::uint32_t current = transition;
  for (int hops = 0; hops < kMaxRouteHops; ++hops) {
    route_scratch_.push_back(current);
    const std::uint32_t target = tinfo_[current].target;
    const VertexKind kind = vinfo_[target].kind;
    if (kind != VertexKind::kChoice && kind != VertexKind::kJunction) return target;
    // First open guard in declaration order wins; "else" is the fallback.
    // No segment effect has run yet, so guards see the pre-firing state.
    std::uint32_t chosen = kNoIndex;
    std::uint32_t else_branch = kNoIndex;
    for (const std::uint32_t branch : vinfo_[target].outgoing) {
      const Guard& guard = tinfo_[branch].origin->guard();
      if (guard.is_else()) {
        if (else_branch == kNoIndex) else_branch = branch;
        continue;
      }
      if (guard.fn == nullptr || guard.fn(context)) {
        chosen = branch;
        break;
      }
    }
    if (chosen == kNoIndex) chosen = else_branch;
    if (chosen == kNoIndex) return kNoIndex;
    current = chosen;
  }
  return kNoIndex;
}

void CompiledMachine::do_terminate() {
  // UML terminate: the machine ceases immediately; no exit actions run.
  terminated_ = true;
  queue_.clear();
  std::fill(bits_.begin(), bits_.end(), 0);
}

void CompiledMachine::execute_steps(std::uint32_t first, std::uint32_t count,
                                    ActionContext& context) {
  for (std::uint32_t i = first; i < first + count; ++i) {
    const Step step = steps_[i];
    switch (step.op) {
      case Op::kRecordShallow:
        shallow_slot_[step.a] = static_cast<std::int32_t>(step.b);
        break;
      case Op::kRecordDeep: {
        deep_set_[step.a] = 1;
        const std::uint32_t count_leaves = leaf_pool_[step.b];
        deep_slot_[step.a].assign(leaf_pool_.begin() + step.b + 1,
                                  leaf_pool_.begin() + step.b + 1 + count_leaves);
        break;
      }
      case Op::kExitState: {
        const State* state = vinfo_[step.a].state;
        const Behavior& exit = state->exit_behavior();
        if (!exit.empty() && exit.fn != nullptr) exit.fn(context);
        clear_bit(bits_, step.a);
        if (listener_ != nullptr) listener_(*state, false);
        break;
      }
      case Op::kClearFinal:
        clear_bit(bits_, step.a);
        break;
      case Op::kEffect: {
        const Behavior& effect = tinfo_[step.a].origin->effect();
        if (effect.fn != nullptr) effect.fn(context);
        break;
      }
      case Op::kEnterState: {
        if (bit(bits_, step.a)) break;
        set_bit(bits_, step.a);
        const State* state = vinfo_[step.a].state;
        const Behavior& entry = state->entry();
        if (!entry.empty() && entry.fn != nullptr) entry.fn(context);
        const Behavior& activity = state->do_activity();
        if (!activity.empty() && activity.fn != nullptr) activity.fn(context);
        if (listener_ != nullptr) listener_(*state, true);
        break;
      }
      case Op::kEnterFinal:
        set_bit(bits_, step.a);
        break;
      case Op::kTerminate:
        do_terminate();
        break;
    }
  }
}

// --- Runtime: generic (history) entry walk ------------------------------------------

bool CompiledMachine::rt_region_active(std::uint32_t region) const {
  for (const std::uint32_t final_index : rinfo_[region].finals) {
    if (bit(bits_, final_index)) return true;
  }
  for (const std::uint32_t child : rinfo_[region].child_states) {
    if (bit(bits_, child)) return true;
  }
  return false;
}

void CompiledMachine::rt_enter_single(std::uint32_t state, ActionContext& context) {
  if (bit(bits_, state)) return;
  set_bit(bits_, state);
  const State* model_state = vinfo_[state].state;
  const Behavior& entry = model_state->entry();
  if (!entry.empty() && entry.fn != nullptr) entry.fn(context);
  const Behavior& activity = model_state->do_activity();
  if (!activity.empty() && activity.fn != nullptr) activity.fn(context);
  if (!vinfo_[state].regions.empty()) pending_composites_.push_back(state);
  if (listener_ != nullptr) listener_(*model_state, true);
}

void CompiledMachine::rt_default_enter(std::uint32_t region, ActionContext& context) {
  const Transition* transition = rinfo_[region].initial;
  if (transition == nullptr) return;
  route_scratch_.clear();
  const std::uint32_t target = resolve_route(transition_index_.at(transition), context);
  if (target == kNoIndex) return;  // Unresolved initial route: enters nothing.
  for (const std::uint32_t segment : route_scratch_) {
    const Behavior& effect = tinfo_[segment].origin->effect();
    if (effect.fn != nullptr) effect.fn(context);
  }
  rt_enter_target(target, region, context);
}

void CompiledMachine::rt_enter_target(std::uint32_t vertex, std::uint32_t scope,
                                      ActionContext& context) {
  ++entry_depth_;
  if (vinfo_[vertex].container != scope) {
    std::uint32_t chain[64];
    std::size_t chain_length = 0;
    for (std::int32_t ancestor = vinfo_[vertex].parent_state; ancestor >= 0;
         ancestor = vinfo_[ancestor].parent_state) {
      chain[chain_length++] = static_cast<std::uint32_t>(ancestor);
      if (vinfo_[ancestor].container == scope || chain_length == 64) break;
    }
    for (std::size_t i = chain_length; i-- > 0;) rt_enter_single(chain[i], context);
  }

  switch (vinfo_[vertex].kind) {
    case VertexKind::kState:
      rt_enter_single(vertex, context);
      break;
    case VertexKind::kFinal:
      set_bit(bits_, vertex);
      break;
    case VertexKind::kShallowHistory: {
      const std::uint32_t region = vinfo_[vertex].container;
      if (shallow_slot_[region] >= 0) {
        rt_enter_target(static_cast<std::uint32_t>(shallow_slot_[region]), region, context);
      } else if (!vertex_list_[vertex]->outgoing().empty()) {
        const Transition& fallback = *vertex_list_[vertex]->outgoing().front();
        if (fallback.effect().fn != nullptr) fallback.effect().fn(context);
        rt_enter_target(tinfo_[transition_index_.at(&fallback)].target, region, context);
      } else {
        rt_default_enter(region, context);
      }
      break;
    }
    case VertexKind::kDeepHistory: {
      const std::uint32_t region = vinfo_[vertex].container;
      if (deep_set_[region]) {
        // The slot is only written by exit-phase records, never by entry,
        // so iterating it while entering is safe.
        for (const std::uint32_t leaf : deep_slot_[region]) {
          rt_enter_target(leaf, region, context);
        }
      } else if (!vertex_list_[vertex]->outgoing().empty()) {
        const Transition& fallback = *vertex_list_[vertex]->outgoing().front();
        if (fallback.effect().fn != nullptr) fallback.effect().fn(context);
        rt_enter_target(tinfo_[transition_index_.at(&fallback)].target, region, context);
      } else {
        rt_default_enter(region, context);
      }
      break;
    }
    case VertexKind::kTerminate:
      do_terminate();
      break;
    case VertexKind::kInitial:
    case VertexKind::kChoice:
    case VertexKind::kJunction:
      break;  // Only a history default can target these; the interpreter enters nothing.
  }

  --entry_depth_;
  if (entry_depth_ != 0) return;
  // Sweep (outermost call only): default-enter regions of entered
  // composites that are still empty, FIFO like the interpreter.
  while (!pending_composites_.empty()) {
    const std::uint32_t composite = pending_composites_.front();
    pending_composites_.pop_front();
    for (const std::uint32_t region : vinfo_[composite].regions) {
      if (!rt_region_active(region)) rt_default_enter(region, context);
    }
  }
}

// --- Introspection ------------------------------------------------------------------

bool CompiledMachine::is_in(std::string_view state_name) const {
  for (std::uint32_t w = 0; w < words_; ++w) {
    std::uint64_t word = bits_[w];
    while (word != 0) {
      const std::uint32_t index = w * 64 + static_cast<std::uint32_t>(std::countr_zero(word));
      word &= word - 1;
      if (vinfo_[index].kind == VertexKind::kState &&
          vertex_list_[index]->name() == state_name) {
        return true;
      }
    }
  }
  return false;
}

std::vector<std::string> CompiledMachine::active_leaf_names() const {
  std::vector<std::uint32_t> active;
  for (std::uint32_t w = 0; w < words_; ++w) {
    std::uint64_t word = bits_[w];
    while (word != 0) {
      const std::uint32_t index = w * 64 + static_cast<std::uint32_t>(std::countr_zero(word));
      word &= word - 1;
      if (vinfo_[index].kind == VertexKind::kState) active.push_back(index);
    }
  }
  std::vector<std::uint8_t> has_active_descendant(vinfo_.size(), 0);
  for (const std::uint32_t state : active) {
    for (std::int32_t parent = vinfo_[state].parent_state; parent >= 0;
         parent = vinfo_[parent].parent_state) {
      has_active_descendant[static_cast<std::uint32_t>(parent)] = 1;
    }
  }
  std::vector<std::string> names;
  for (const std::uint32_t state : active) {
    if (!has_active_descendant[state]) names.push_back(vertex_list_[state]->name());
  }
  std::sort(names.begin(), names.end());
  return names;
}

bool CompiledMachine::is_in_final_state() const {
  for (const std::uint32_t final_index : rinfo_[0].finals) {
    if (bit(bits_, final_index)) return true;
  }
  return false;
}

std::int64_t CompiledMachine::variable(const std::string& name) const {
  auto it = variables_.find(name);
  return it == variables_.end() ? 0 : it->second;
}

void CompiledMachine::set_variable(const std::string& name, std::int64_t value) {
  variables_[name] = value;
}

std::size_t CompiledMachine::table_bytes() const {
  return steps_.size() * sizeof(Step) + candidates_.size() * sizeof(Candidate) +
         plans_.size() * sizeof(Plan) + tinfo_.size() * sizeof(TransitionRow) +
         claim_pool_.size() * sizeof(std::uint64_t) +
         leaf_pool_.size() * sizeof(std::uint32_t) +
         config_bits_pool_.size() * sizeof(std::uint64_t) +
         config_member_pool_.size() * sizeof(std::uint32_t) +
         config_slots_.size() * sizeof(std::uint32_t) + configs_.size() * sizeof(ConfigRec) +
         plan_ids_.size() * (sizeof(std::uint64_t) + sizeof(std::uint32_t)) +
         route_programs_.size() * sizeof(Candidate);
}

std::size_t CompiledMachine::RouteHash::operator()(
    const std::vector<std::uint32_t>& key) const noexcept {
  std::uint64_t hash = 1469598103934665603ull;  // FNV-1a offset basis.
  for (const std::uint32_t word : key) {
    hash ^= word;
    hash *= 1099511628211ull;
  }
  return static_cast<std::size_t>(hash);
}

// --- Checkpoint / restore -----------------------------------------------------------

InstanceSnapshot CompiledMachine::capture() const {
  InstanceSnapshot snapshot;
  capture_into(snapshot);
  return snapshot;
}

void CompiledMachine::capture_into(InstanceSnapshot& snapshot) const {
  snapshot.started = started_;
  snapshot.terminated = terminated_;
  snapshot.active_states.clear();
  snapshot.active_finals.clear();
  snapshot.shallow_history.clear();
  snapshot.deep_history.clear();
  snapshot.queue.clear();
  snapshot.deferred.clear();

  for (std::uint32_t w = 0; w < words_; ++w) {
    std::uint64_t word = bits_[w];
    while (word != 0) {
      const std::uint32_t index = w * 64 + static_cast<std::uint32_t>(std::countr_zero(word));
      word &= word - 1;
      if (vinfo_[index].kind == VertexKind::kState) {
        snapshot.active_states.push_back(index);
      } else {
        snapshot.active_finals.push_back(index);
      }
    }
  }

  for (std::uint32_t region = 0; region < shallow_slot_.size(); ++region) {
    if (shallow_slot_[region] >= 0) {
      snapshot.shallow_history.emplace_back(region,
                                            static_cast<std::uint32_t>(shallow_slot_[region]));
    }
  }
  for (std::uint32_t region = 0; region < deep_set_.size(); ++region) {
    if (deep_set_[region]) snapshot.deep_history.emplace_back(region, deep_slot_[region]);
  }

  snapshot.variables.assign(variables_.begin(), variables_.end());
  std::sort(snapshot.variables.begin(), snapshot.variables.end());

  for (const Event& event : queue_) snapshot.queue.push_back(record_event(event));
  for (const Event& event : deferred_pool_) snapshot.deferred.push_back(record_event(event));

  snapshot.events_processed = events_processed_;
  snapshot.transitions_fired = transitions_fired_;
  snapshot.errors_raised = errors_raised_;
  snapshot.errors_unhandled = errors_unhandled_;
}

bool CompiledMachine::restore(const InstanceSnapshot& snapshot, support::DiagnosticSink& sink) {
  auto subject = [this] { return "statechart " + machine_->name(); };
  auto is_state = [this](std::uint32_t index) {
    return index < vinfo_.size() && vinfo_[index].kind == VertexKind::kState;
  };

  // Validate everything before touching execution state.
  for (const std::uint32_t index : snapshot.active_states) {
    if (!is_state(index)) {
      sink.error(subject(), "snapshot active-state index " + std::to_string(index) +
                                " does not name a state in this machine");
      return false;
    }
  }
  for (const std::uint32_t index : snapshot.active_finals) {
    if (index >= vinfo_.size() || vinfo_[index].kind != VertexKind::kFinal) {
      sink.error(subject(), "snapshot final-state index " + std::to_string(index) +
                                " does not name a final state in this machine");
      return false;
    }
  }
  for (const auto& [region, state] : snapshot.shallow_history) {
    if (region >= rinfo_.size() || !is_state(state)) {
      sink.error(subject(), "snapshot shallow-history entry (" + std::to_string(region) + ", " +
                                std::to_string(state) + ") is out of range");
      return false;
    }
  }
  for (const auto& [region, leaves] : snapshot.deep_history) {
    if (region >= rinfo_.size()) {
      sink.error(subject(), "snapshot deep-history region index " + std::to_string(region) +
                                " is out of range");
      return false;
    }
    for (const std::uint32_t leaf : leaves) {
      if (!is_state(leaf)) {
        sink.error(subject(), "snapshot deep-history leaf index " + std::to_string(leaf) +
                                  " does not name a state in this machine");
        return false;
      }
    }
  }
  if (snapshot.terminated && !snapshot.active_states.empty()) {
    sink.error(subject(), "snapshot is terminated but lists active states");
    return false;
  }

  // Apply.
  started_ = snapshot.started;
  terminated_ = snapshot.terminated;
  std::fill(bits_.begin(), bits_.end(), 0);
  for (const std::uint32_t index : snapshot.active_states) set_bit(bits_, index);
  for (const std::uint32_t index : snapshot.active_finals) set_bit(bits_, index);
  std::fill(shallow_slot_.begin(), shallow_slot_.end(), -1);
  for (const auto& [region, state] : snapshot.shallow_history) {
    shallow_slot_[region] = static_cast<std::int32_t>(state);
  }
  std::fill(deep_set_.begin(), deep_set_.end(), 0);
  for (auto& slot : deep_slot_) slot.clear();
  for (const auto& [region, leaves] : snapshot.deep_history) {
    deep_set_[region] = 1;
    deep_slot_[region] = leaves;
  }
  variables_.clear();
  variables_.insert(snapshot.variables.begin(), snapshot.variables.end());
  queue_.clear();
  for (const auto& record : snapshot.queue) queue_.push_back(make_event(record));
  deferred_pool_.clear();
  for (const auto& record : snapshot.deferred) deferred_pool_.push_back(make_event(record));
  pending_composites_.clear();
  entry_depth_ = 0;
  events_processed_ = snapshot.events_processed;
  transitions_fired_ = snapshot.transitions_fired;
  errors_raised_ = snapshot.errors_raised;
  errors_unhandled_ = snapshot.errors_unhandled;
  config_id_ = intern_config(bits_.data());
  return true;
}

}  // namespace umlsoc::statechart
