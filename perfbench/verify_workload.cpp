// verify: exhaustive BFS over seeded statechart networks. Chosen because
// the statechart engine and the verifier's state store do almost all the
// work here, and the kernel, snapshots and disk do none.
//
// Each network pairs a poster machine with a receiver machine. The
// generator mixes hierarchy, shallow and deep history, orthogonal regions,
// deferral, guarded counters, error-channel handlers and a bounded
// cross-post (the poster sends at most one event to the receiver, which
// defers it in one state). Some posters route through a choice or
// junction pseudostate, which statechart::compile() does not lower yet, so
// those machines run on the reference interpreter.
#include "rig.hpp"
#include "support/rng.hpp"
#include "verify/explore.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using statechart::ActionContext;
using statechart::Region;
using statechart::State;
using statechart::StateMachine;
using statechart::Transition;
using statechart::VertexKind;

constexpr std::uint64_t kShapes = 48;   ///< Every Shape combination.
constexpr std::uint64_t kPool = 100;    ///< Networks per block.
constexpr std::uint64_t kSmall = 1500;  ///< BFS state count up to which DFS must agree.
constexpr std::int64_t kMaxPosts = 1;
/// Visited-store budget. The store's first growth jumps to a table sized
/// from the budget; at the 64 MiB default that is an 8 MiB table per
/// search, whose page faults and cache misses made unit times swing by a
/// third with other tenants' memory traffic. 4 MiB holds every network of
/// the pool; a search that hit it would fail its unit's oracle.
constexpr std::size_t kStoreBudget = std::size_t{4} << 20;

struct Box {
  StateMachine poster{"Poster"};
  StateMachine receiver{"Receiver"};
  std::unique_ptr<statechart::Engine> poster_engine;
  std::unique_ptr<statechart::Engine> receiver_engine;
  verify::Network network;
  std::vector<verify::Property> properties;
  std::vector<statechart::InstanceSnapshot> initial;
  /// The receiver engine the poster's effects post into; set once the
  /// engine exists (effects are built before engines).
  statechart::Engine* peer = nullptr;
  std::uint64_t fallbacks = 0;
};

std::function<void(ActionContext&)> bump(const char* variable, std::int64_t modulo) {
  return [variable, modulo](ActionContext& context) {
    context.instance.set_variable(variable,
                                  (context.instance.variable(variable) + 1) % modulo);
  };
}

/// Structural features of network `index` of the pool. They depend on the
/// index alone, so every seed's pool holds the same networks and with them
/// the same state-space sizes and unit costs; a seed that changed them
/// would move unit_ms_p50 by whole networks crossing the median. The seed
/// decides where in the block each network runs and its alphabet order.
struct Shape {
  bool deep = false;           ///< Receiver: deep history over a nested level.
  bool reenter = false;        ///< Poster: the cross-post re-enters Work instead of staying.
  bool orthogonal = false;     ///< Poster: an orthogonal state.
  std::int64_t modulo = 2;     ///< Poster: counter range.
  std::int64_t threshold = 0;  ///< Poster: counter value that guards e1.
  bool back_on_e1 = false;     ///< Poster: the orthogonal L1 -> L0 edge fires on e1, not e0.
  int routing = 0;             ///< Poster: 0/1 guarded transition, 2 choice, 3 junction.

  static Shape of(std::uint64_t index) {
    const std::uint64_t combination = index % kShapes;
    const std::uint64_t repeat = index / kShapes;
    Shape shape;
    // Deep history and the orthogonal state are not combined: together they
    // multiply into 9k-15k states, ten times the rest of the family.
    shape.deep = (combination & 1) != 0 && (combination & 4) == 0;
    shape.reenter = (combination & 2) != 0;
    shape.orthogonal = (combination & 4) != 0;
    shape.modulo = (combination & 8) != 0 ? 3 : 2;
    shape.routing = static_cast<int>((combination / 16) % 3);
    if (shape.routing == 2 && (combination & 1) != 0) shape.routing = 3;
    shape.threshold = static_cast<std::int64_t>(repeat) % shape.modulo;
    shape.back_on_e1 = ((repeat + combination / 8) & 1) != 0;
    return shape;
  }
};

/// Builds one machine of the family. `post_to` non-null builds the poster
/// (guarded counter, optional orthogonal state and choice/junction routing,
/// bounded cross-post); null builds the receiver (deep or shallow history,
/// deferral of the posted event).
void build_machine(StateMachine& machine, const Shape& shape, statechart::Engine** post_to) {
  const bool poster = post_to != nullptr;
  const std::int64_t modulo = poster ? shape.modulo : 1;
  const std::int64_t threshold = poster ? shape.threshold : 0;
  Region& top = machine.top();
  State& idle = top.add_state("Idle");
  State& work = top.add_state("Work");
  top.add_transition(top.add_initial(), idle);

  // Composite with history: a cycle of inner states on e0.
  Region& inner = work.add_region("inner");
  const bool deep = !poster && shape.deep;
  statechart::Pseudostate& history =
      inner.add_pseudostate(deep ? VertexKind::kDeepHistory : VertexKind::kShallowHistory, "H");
  const std::size_t inner_count = 2;
  std::vector<State*> steps;
  for (std::size_t i = 0; i < inner_count; ++i) {
    steps.push_back(&inner.add_state("Step" + std::to_string(i)));
  }
  inner.add_transition(inner.add_initial(), *steps[0]);
  for (std::size_t i = 0; i < inner_count; ++i) {
    inner.add_transition(*steps[i], *steps[(i + 1) % inner_count]).set_trigger("e0");
  }
  if (deep) {
    // A nested level, so deep and shallow history remember different things.
    Region& nested = steps[1]->add_region("nested");
    State& low = nested.add_state("Low");
    State& high = nested.add_state("High");
    nested.add_transition(nested.add_initial(), low);
    nested.add_transition(low, high).set_trigger("e0");  // High leaves on Step1's e0.
  }
  top.add_transition(idle, work).set_trigger("e0").set_effect("c := (c + 1) % m",
                                                              bump("c", modulo));
  top.add_transition(work, idle).set_trigger("e2");
  top.add_transition(idle, history).set_trigger("e2");

  std::vector<State*> top_states{&idle, &work};
  if (poster && shape.orthogonal) {
    State& both = top.add_state("Both");
    Region& left = both.add_region("left");
    Region& right = both.add_region("right");
    State& l0 = left.add_state("L0");
    State& l1 = left.add_state("L1");
    State& r0 = right.add_state("R0");
    left.add_transition(left.add_initial(), l0);
    right.add_transition(right.add_initial(), r0);
    left.add_transition(l0, l1).set_trigger("e0");
    left.add_transition(l1, l0).set_trigger(shape.back_on_e1 ? "e1" : "e0");
    right.add_transition(r0, r0).set_trigger("e0").set_internal(true);
    top.add_transition(both, idle).set_trigger("e2");
    top_states.push_back(&both);
  }
  State& target = *top_states.back();

  const auto c_at_threshold = [threshold](const ActionContext& context) {
    return context.instance.variable("c") == threshold;
  };
  if (poster && shape.routing >= 2) {
    // Choice/junction routing: the interpreter executes these machines.
    statechart::Pseudostate& branch = top.add_pseudostate(
        shape.routing == 2 ? VertexKind::kChoice : VertexKind::kJunction, "route");
    top.add_transition(idle, branch).set_trigger("e1");
    top.add_transition(branch, target).set_guard("c == k", c_at_threshold);
    top.add_transition(branch, work).set_guard(statechart::Guard{"else", nullptr});
  } else {
    State& destination = poster && shape.routing == 1 ? work : target;
    top.add_transition(idle, destination).set_trigger("e1").set_guard("c == k", c_at_threshold);
  }

  if (poster) {
    // Bounded cross-post: at most kMaxPosts "x" events ever reach the peer.
    top.add_transition(work, work)
        .set_trigger("e1")
        .set_internal(!shape.reenter)
        .set_guard("sent < 1",
                   [](const ActionContext& context) {
                     return context.instance.variable("sent") < kMaxPosts;
                   })
        .set_effect("sent := sent + 1; peer.post(x)", [post_to](ActionContext& context) {
          context.instance.set_variable("sent", context.instance.variable("sent") + 1);
          (*post_to)->post(statechart::Event("x"));
        });
  } else {
    idle.add_deferred("x");
    top.add_transition(work, idle).set_trigger("x");
  }
  // Error channel: every top-level state absorbs "fault" and resets c.
  for (State* state : top_states) {
    top.add_transition(*state, *state)
        .set_trigger("fault")
        .set_internal(true)
        .set_effect("c := 0",
                    [](ActionContext& context) { context.instance.set_variable("c", 0); });
  }
}

class VerifyWorkload final : public Workload {
 public:
  explicit VerifyWorkload(const WorkloadOptions& options) : options_(options) {}

  const char* work_name() const override { return "states"; }

  bool set_up(std::string& problem) override {
    pool_.clear();
    std::vector<std::uint64_t> order(kPool);
    for (std::uint64_t i = 0; i < kPool; ++i) order[i] = i;
    support::Rng shuffler(mix(options_.seed, kPool));
    shuffler.shuffle(order);
    for (const std::uint64_t i : order) {
      auto box = std::make_unique<Box>();
      support::Rng rng(mix(options_.seed, i));
      const Shape shape = Shape::of(i);
      build_machine(box->receiver, shape, nullptr);
      build_machine(box->poster, shape, &box->peer);
      bool fell_back = false;
      box->receiver_engine = make_engine(box->receiver, &fell_back);
      box->fallbacks += fell_back ? 1 : 0;
      fell_back = false;
      box->poster_engine = make_engine(box->poster, &fell_back);
      box->fallbacks += fell_back ? 1 : 0;
      box->peer = box->receiver_engine.get();
      for (statechart::Engine* engine : {box->poster_engine.get(), box->receiver_engine.get()}) {
        engine->set_trace_enabled(false);
        engine->start();
      }
      verify::Network& network = box->network;
      network.add_instance("Poster", *box->poster_engine);
      network.add_instance("Receiver", *box->receiver_engine);
      std::vector<verify::EventChoice> alphabet;
      for (std::size_t instance : {std::size_t{0}, std::size_t{1}}) {
        for (const char* event : {"e0", "e1", "e2"}) {
          alphabet.push_back({instance, statechart::Event(event), false});
        }
        alphabet.push_back({instance, statechart::Event("fault"), true});
      }
      rng.shuffle(alphabet);
      for (const verify::EventChoice& choice : alphabet) {
        network.add_choice(network.name(choice.instance), choice.event, choice.is_error);
      }
      box->properties.push_back(verify::Property::invariant(
          "posts-bounded", [](const verify::PropertyContext& context) {
            const std::int64_t sent = context.network.find("Poster")->variable("sent");
            return sent >= 0 && sent <= kMaxPosts;
          }));
      box->properties.push_back(verify::Property::invariant(
          "counters-bounded", [](const verify::PropertyContext& context) {
            for (const char* name : {"Poster", "Receiver"}) {
              const std::int64_t c = context.network.find(name)->variable("c");
              if (c < 0 || c > 2) return false;
            }
            return true;
          }));
      box->properties.push_back(verify::Property::no_unhandled_errors());
      box->properties.push_back(verify::Property::deadlock_free(
          [](const verify::PropertyContext&) { return false; }));
      box->initial = network.capture();
      pool_.push_back(std::move(box));
    }
    (void)problem;
    return true;
  }

  bool run_block(std::vector<UnitSample>& out, std::string& problem) override {
    verify::ExploreStats total;
    for (std::uint64_t k = 0; k < kPool; ++k) {
      trace_unit(k);
      const std::uint64_t start = now_ns();
      verify::ExploreStats stats;
      std::string unit_problem;
      const bool ok = explore_unit(k, stats, unit_problem);
      if (!ok && first_failure.empty()) first_failure = unit_problem;
      out.push_back(UnitSample{now_ns() - start, ok, static_cast<double>(stats.states)});
      total.states += stats.states;
      total.transitions += stats.transitions;
      total.revisits += stats.revisits;
      total.bytes_used += stats.bytes_used;
      total.peak_frontier += stats.peak_frontier;
    }
    if (counts.empty()) {
      double fallbacks = 0;
      for (const auto& box : pool_) fallbacks += static_cast<double>(box->fallbacks);
      const double n = static_cast<double>(kPool);
      counts["verify.states"] = static_cast<double>(total.states) / n;
      counts["verify.transitions"] = static_cast<double>(total.transitions) / n;
      counts["verify.revisit_ratio"] =
          total.transitions == 0 ? 0.0
                                 : static_cast<double>(total.revisits) /
                                       static_cast<double>(total.transitions);
      counts["verify.bytes_used"] = static_cast<double>(total.bytes_used) / n;
      counts["verify.peak_frontier"] = static_cast<double>(total.peak_frontier) / n;
      counts["statechart.fallback_machines"] = fallbacks / n;
    }
    (void)problem;
    return true;
  }

 private:
  bool explore_unit(std::uint64_t k, verify::ExploreStats& stats, std::string& problem) {
    Box& box = *pool_[k % kPool];
    const auto run = [&](verify::ExploreOptions::Strategy strategy) {
      support::DiagnosticSink sink;
      if (!box.network.restore(box.initial, sink)) {
        problem = "network restore failed: " + sink.str();
        return verify::ExploreResult{};
      }
      verify::ExploreOptions options;
      options.strategy = strategy;
      options.max_states = 200'000;
      options.memory_budget_bytes = kStoreBudget;
      Span span("verify.explore");
      return verify::explore(box.network, box.properties, options, &sink);
    };
    const verify::ExploreResult bfs = run(verify::ExploreOptions::Strategy::kBfs);
    stats = bfs.stats;
    if (!bfs.verified()) {
      problem = "network " + std::to_string(k % kPool) + ": " +
                std::string(verify::to_string(bfs.termination)) +
                (bfs.violations.empty() ? "" : " (" + bfs.violations.front().property + ": " +
                                                   bfs.violations.front().message + ")");
      return false;
    }
    if (bfs.stats.states <= kSmall) {
      const verify::ExploreResult dfs = run(verify::ExploreOptions::Strategy::kDfs);
      if (!dfs.verified() || dfs.stats.states != bfs.stats.states) {
        problem = "network " + std::to_string(k % kPool) + ": DFS found " +
                  std::to_string(dfs.stats.states) + " states, BFS " +
                  std::to_string(bfs.stats.states);
        return false;
      }
    }
    return true;
  }

  WorkloadOptions options_;
  std::vector<std::unique_ptr<Box>> pool_;
};

}  // namespace

std::unique_ptr<Workload> make_verify(const WorkloadOptions& options) {
  return std::make_unique<VerifyWorkload>(options);
}

}  // namespace perfbench
