// Explicit-state verification engine tests: canonical encoding round-trips,
// the hashed visited store (forced fingerprint collisions, memory-budget
// exhaustion, exact revisit accounting), BFS/DFS exploration, safety
// properties (invariants, never-in, unhandled-error freedom, deadlock
// freedom), and the counterexample contract — kernel-replayed schedules and
// sequence-diagram rendering.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "codegen/plantuml.hpp"
#include "interaction/trace.hpp"
#include "statechart/compile.hpp"
#include "statechart/interpreter.hpp"
#include "statechart/model.hpp"
#include "support/checksum.hpp"
#include "verify/counterexample.hpp"
#include "verify/explore.hpp"
#include "verify/property.hpp"
#include "verify/statespace.hpp"

namespace umlsoc::verify {
namespace {

using statechart::Event;
using statechart::StateMachine;
using statechart::StateMachineInstance;

// --- Machines -----------------------------------------------------------------

/// Diamond: A -a-> B, A -b-> C, B -go-> D, C -go-> D. With alphabet
/// {a, b, go} the reachable graph has exactly 4 states and 12 edges
/// (3 choices from each state; unfired choices are self-loops).
std::unique_ptr<StateMachine> make_diamond() {
  auto machine = std::make_unique<StateMachine>("Diamond");
  statechart::Region& top = machine->top();
  statechart::State& a = top.add_state("A");
  statechart::State& b = top.add_state("B");
  statechart::State& c = top.add_state("C");
  statechart::State& d = top.add_state("D");
  top.add_transition(top.add_initial(), a);
  top.add_transition(a, b).set_trigger("a");
  top.add_transition(a, c).set_trigger("b");
  top.add_transition(b, d).set_trigger("go");
  top.add_transition(c, d).set_trigger("go");
  return machine;
}

/// Linear counter 0..limit via "inc"; "reset" returns to 0 from anywhere.
std::unique_ptr<StateMachine> make_counter(int limit) {
  auto machine = std::make_unique<StateMachine>("Counter");
  statechart::Region& top = machine->top();
  statechart::State& run = top.add_state("Run");
  top.add_transition(top.add_initial(), run)
      .set_effect("n := 0", [](statechart::ActionContext& context) {
        context.instance.set_variable("n", 0);
      });
  top.add_transition(run, run)
      .set_trigger("inc")
      .set_internal(true)
      .set_guard("n < limit",
                 [limit](const statechart::ActionContext& context) {
                   return context.instance.variable("n") < limit;
                 })
      .set_effect("n := n + 1", [](statechart::ActionContext& context) {
        context.instance.set_variable("n", context.instance.variable("n") + 1);
      });
  top.add_transition(run, run)
      .set_trigger("reset")
      .set_internal(true)
      .set_effect("n := 0", [](statechart::ActionContext& context) {
        context.instance.set_variable("n", 0);
      });
  return machine;
}

/// Handshake: Idle -req-> Wait -ack-> Done -reset-> Idle.
std::unique_ptr<StateMachine> make_handshake() {
  auto machine = std::make_unique<StateMachine>("Handshake");
  statechart::Region& top = machine->top();
  statechart::State& idle = top.add_state("Idle");
  statechart::State& wait = top.add_state("Wait");
  statechart::State& done = top.add_state("Done");
  top.add_transition(top.add_initial(), idle);
  top.add_transition(idle, wait).set_trigger("req");
  top.add_transition(wait, done).set_trigger("ack");
  top.add_transition(done, idle).set_trigger("reset");
  return machine;
}

struct SingleRig {
  std::unique_ptr<StateMachine> machine;
  std::unique_ptr<StateMachineInstance> instance;
  Network network;

  explicit SingleRig(std::unique_ptr<StateMachine> m, const char* name = "M")
      : machine(std::move(m)),
        instance(std::make_unique<StateMachineInstance>(*machine)) {
    instance->set_trace_enabled(false);
    instance->start();
    network.add_instance(name, *instance);
  }
};

// --- Encoding -----------------------------------------------------------------

TEST(VerifyEncoding, RoundTripsFullInstanceState) {
  auto machine = make_diamond();
  StateMachineInstance instance(*machine);
  instance.start();
  instance.set_variable("x", -7);
  instance.set_variable("y", 1234567890123LL);
  instance.post(Event("queued", 42, "tag"));
  instance.post(Event("second"));

  const std::vector<statechart::InstanceSnapshot> snapshots = {instance.capture()};
  const std::string encoding = encode_network(snapshots);

  std::vector<statechart::InstanceSnapshot> decoded;
  ASSERT_TRUE(decode_network(encoding, decoded));
  ASSERT_EQ(decoded.size(), 1u);
  EXPECT_EQ(decoded[0].started, snapshots[0].started);
  EXPECT_EQ(decoded[0].terminated, snapshots[0].terminated);
  EXPECT_EQ(decoded[0].active_states, snapshots[0].active_states);
  EXPECT_EQ(decoded[0].active_finals, snapshots[0].active_finals);
  EXPECT_EQ(decoded[0].variables, snapshots[0].variables);
  ASSERT_EQ(decoded[0].queue.size(), 2u);
  EXPECT_EQ(decoded[0].queue[0].name, "queued");
  EXPECT_EQ(decoded[0].queue[0].data, 42);
  EXPECT_EQ(decoded[0].queue[0].tag, "tag");
  // Re-encoding the decoded snapshots is byte-identical: canonical.
  EXPECT_EQ(encode_network(decoded), encoding);
}

TEST(VerifyEncoding, ExcludesMonotonicCounters) {
  auto machine = make_diamond();
  StateMachineInstance one(*machine);
  StateMachineInstance two(*machine);
  one.start();
  two.start();
  // Drive `two` around the diamond and back is impossible (D is a sink), so
  // compare A-configurations with different history: deliver a no-match
  // event that only bumps events_processed.
  two.dispatch(Event("nonexistent"));
  EXPECT_NE(one.events_processed(), two.events_processed());
  EXPECT_EQ(encode_network({one.capture()}), encode_network({two.capture()}));
}

/// A snapshot with every encoded field set, and nonzero counters that the
/// encoding must leave out.
statechart::InstanceSnapshot full_snapshot() {
  statechart::InstanceSnapshot snapshot;
  snapshot.started = true;
  snapshot.active_states = {0, 2, 5};
  snapshot.active_finals = {6};
  snapshot.shallow_history = {{1, 2}, {3, 5}};
  snapshot.deep_history = {{2, {5, 7}}, {4, {}}};
  snapshot.variables = {{"retries", 3}, {"x", -7}};
  snapshot.queue = {{"tick", 0, ""}, {"rx", 42, "uart0"}};
  snapshot.deferred = {{"flush", 0, ""}};
  snapshot.events_processed = 11;
  snapshot.transitions_fired = 7;
  snapshot.errors_raised = 2;
  snapshot.errors_unhandled = 1;
  return snapshot;
}

/// A started and terminated snapshot with one active state.
statechart::InstanceSnapshot terminated_snapshot() {
  statechart::InstanceSnapshot snapshot;
  snapshot.started = true;
  snapshot.terminated = true;
  snapshot.active_states = {3};
  return snapshot;
}

TEST(VerifyEncoding, EncodingIsPinned) {
  // The state store keys on these bytes and the explorer splices them, so a
  // change that moves the encoder and decoder together still fails here.
  const statechart::InstanceSnapshot a = full_snapshot();
  const statechart::InstanceSnapshot b = terminated_snapshot();
  const std::string both = encode_network({a, b});
  const std::string one = encode_network({b});
  EXPECT_EQ(both.size(), 224u);
  EXPECT_EQ(support::xxh64(both), 0xa051c6dfee1f8bccULL);
  EXPECT_EQ(one.size(), 40u);
  EXPECT_EQ(support::xxh64(one), 0x98c0be7d7dbfbc6eULL);

  statechart::InstanceSnapshot uncounted = a;
  uncounted.events_processed = 0;
  uncounted.transitions_fired = 0;
  uncounted.errors_raised = 0;
  uncounted.errors_unhandled = 0;
  EXPECT_EQ(encode_network({uncounted, b}), both);

  std::vector<statechart::InstanceSnapshot> decoded;
  ASSERT_TRUE(decode_network(both, decoded));
  EXPECT_EQ(decoded, (std::vector<statechart::InstanceSnapshot>{uncounted, b}));
  EXPECT_EQ(encode_network(decoded), both);
  ASSERT_TRUE(decode_network(one, decoded));
  EXPECT_EQ(encode_network(decoded), one);
}

TEST(VerifyEncoding, RejectsMalformedEncodings) {
  auto machine = make_diamond();
  StateMachineInstance instance(*machine);
  instance.start();
  const std::string encoding = encode_network({instance.capture()});

  std::vector<statechart::InstanceSnapshot> decoded;
  EXPECT_FALSE(decode_network(encoding.substr(0, encoding.size() - 1), decoded));
  EXPECT_FALSE(decode_network(encoding + "x", decoded));
  EXPECT_FALSE(decode_network("", decoded));
  std::string corrupt = encoding;
  corrupt[0] = static_cast<char>(0xff);  // Instance count far beyond payload.
  EXPECT_FALSE(decode_network(corrupt, decoded));

  const std::string full = encode_network({full_snapshot(), terminated_snapshot()});
  for (std::size_t length = 0; length < full.size(); ++length) {
    EXPECT_FALSE(decode_network(full.substr(0, length), decoded)) << "length " << length;
  }
  std::string flags = full;
  flags[4] = static_cast<char>(flags[4] | 0x04);  // The first instance's flags word.
  EXPECT_FALSE(decode_network(flags, decoded));
}

TEST(VerifyEncoding, ReusedScratchDecodesLikeFresh) {
  // The explorer decodes every expanded state into the same scratch
  // snapshots; a decode must not keep anything of the previous one.
  const std::string encoding = encode_network({terminated_snapshot()});
  std::vector<statechart::InstanceSnapshot> scratch = {full_snapshot()};
  std::vector<statechart::InstanceSnapshot> fresh;
  ASSERT_TRUE(decode_network(encoding, scratch));
  ASSERT_TRUE(decode_network(encoding, fresh));
  EXPECT_EQ(scratch, fresh);
  EXPECT_EQ(fresh, std::vector<statechart::InstanceSnapshot>{terminated_snapshot()});
}

// --- StateStore ---------------------------------------------------------------

TEST(VerifyStateStore, AssignsDenseIdsAndCountsRevisits) {
  StateStore store;
  EXPECT_EQ(store.insert("alpha").status, StateStore::Status::kNew);
  EXPECT_EQ(store.insert("beta", 0, 1).id, 1u);
  EXPECT_EQ(store.insert("alpha").status, StateStore::Status::kVisited);
  EXPECT_EQ(store.insert("alpha").id, 0u);
  EXPECT_EQ(store.size(), 2u);
  EXPECT_EQ(store.revisits(), 2u);
  EXPECT_EQ(store.depth(1), 1u);
  EXPECT_EQ(store.parent(1), 0u);
  EXPECT_EQ(store.action(1), 1u);
}

std::uint64_t constant_hash(std::string_view) { return 0x1234u; }

TEST(VerifyStateStore, CollidingFingerprintsKeepStatesDistinct) {
  StateStore::Config config;
  config.hash = &constant_hash;  // Every state collides with every other.
  StateStore store(config);

  std::vector<std::string> states;
  for (int i = 0; i < 50; ++i) states.push_back("state-" + std::to_string(i));
  for (std::size_t i = 0; i < states.size(); ++i) {
    EXPECT_EQ(store.insert(states[i]).id, static_cast<std::uint32_t>(i));
  }
  EXPECT_EQ(store.size(), states.size());
  EXPECT_GT(store.fingerprint_collisions(), 0u);
  // Every state is found again as itself, never conflated with a collider.
  for (std::size_t i = 0; i < states.size(); ++i) {
    const StateStore::InsertResult result = store.insert(states[i]);
    EXPECT_EQ(result.status, StateStore::Status::kVisited);
    EXPECT_EQ(result.id, static_cast<std::uint32_t>(i));
  }
}

TEST(VerifyStateStore, BudgetExhaustionIsStructuredNotFatal) {
  StateStore::Config config;
  config.memory_budget_bytes = 8 * 1024;
  StateStore store(config);

  const std::string filler(512, 'x');
  StateStore::InsertResult result{};
  int stored = 0;
  for (int i = 0; i < 1000; ++i) {
    result = store.insert(filler + std::to_string(i));
    if (result.status != StateStore::Status::kNew) break;
    ++stored;
  }
  EXPECT_EQ(result.status, StateStore::Status::kOutOfMemory);
  EXPECT_GT(stored, 0);
  // The store stays queryable after refusing the insert.
  EXPECT_EQ(store.size(), static_cast<std::size_t>(stored));
  EXPECT_EQ(store.insert(filler + "0").status, StateStore::Status::kVisited);
  EXPECT_LE(store.bytes_used(), config.memory_budget_bytes);
}

TEST(VerifyStateStore, PathActionsWalkDiscoveryParents) {
  StateStore store;
  (void)store.insert("s0");
  (void)store.insert("s1", 0, 7);
  (void)store.insert("s2", 1, 3);
  (void)store.insert("s3", 2, 9);
  EXPECT_TRUE(store.path_actions(0).empty());
  EXPECT_EQ(store.path_actions(3), (std::vector<std::uint32_t>{7, 3, 9}));
}

// --- Exploration --------------------------------------------------------------

TEST(VerifyExplore, DiamondHasExactStateAndRevisitCounts) {
  SingleRig rig(make_diamond());
  rig.network.add_choice("M", Event("a"));
  rig.network.add_choice("M", Event("b"));
  rig.network.add_choice("M", Event("go"));

  const ExploreResult result = explore(rig.network, {});
  EXPECT_EQ(result.termination, ExploreResult::Termination::kExhausted);
  EXPECT_TRUE(result.verified());
  EXPECT_EQ(result.stats.states, 4u);
  EXPECT_EQ(result.stats.transitions, 12u);
  EXPECT_EQ(result.stats.revisits, 9u);
  EXPECT_EQ(result.stats.max_depth_seen, 2u);
}

TEST(VerifyExplore, BfsAndDfsCoverTheSameSpace) {
  SingleRig bfs_rig(make_counter(5));
  bfs_rig.network.add_choice("M", Event("inc"));
  bfs_rig.network.add_choice("M", Event("reset"));
  const ExploreResult bfs = explore(bfs_rig.network, {});

  SingleRig dfs_rig(make_counter(5));
  dfs_rig.network.add_choice("M", Event("inc"));
  dfs_rig.network.add_choice("M", Event("reset"));
  ExploreOptions options;
  options.strategy = ExploreOptions::Strategy::kDfs;
  const ExploreResult dfs = explore(dfs_rig.network, {}, options);

  EXPECT_EQ(bfs.termination, ExploreResult::Termination::kExhausted);
  EXPECT_EQ(dfs.termination, ExploreResult::Termination::kExhausted);
  EXPECT_EQ(bfs.stats.states, 6u);  // n = 0..5.
  EXPECT_EQ(dfs.stats.states, bfs.stats.states);
  EXPECT_EQ(dfs.stats.transitions, bfs.stats.transitions);
}

TEST(VerifyExplore, StateCapTerminatesWithStateBound) {
  SingleRig rig(make_counter(1000));
  rig.network.add_choice("M", Event("inc"));
  ExploreOptions options;
  options.max_states = 10;
  const ExploreResult result = explore(rig.network, {}, options);
  EXPECT_EQ(result.termination, ExploreResult::Termination::kStateBound);
  EXPECT_LE(result.stats.states, 10u);
}

TEST(VerifyExplore, DepthCapTerminatesWithStateBound) {
  SingleRig rig(make_counter(1000));
  rig.network.add_choice("M", Event("inc"));
  ExploreOptions options;
  options.max_depth = 3;
  const ExploreResult result = explore(rig.network, {}, options);
  EXPECT_EQ(result.termination, ExploreResult::Termination::kStateBound);
  EXPECT_EQ(result.stats.max_depth_seen, 3u);  // Depth-3 states stored, not expanded.
}

TEST(VerifyExplore, MemoryBudgetTerminatesWithMemoryBound) {
  SingleRig rig(make_counter(100000));
  rig.network.add_choice("M", Event("inc"));
  ExploreOptions options;
  options.memory_budget_bytes = 16 * 1024;
  const ExploreResult result = explore(rig.network, {}, options);
  EXPECT_EQ(result.termination, ExploreResult::Termination::kMemoryBound);
  EXPECT_GT(result.stats.states, 0u);
  EXPECT_LE(result.stats.bytes_used, options.memory_budget_bytes);
}

TEST(VerifyExplore, UnstartedInstanceIsASetupError) {
  auto machine = make_diamond();
  StateMachineInstance instance(*machine);  // Never started.
  Network network;
  network.add_instance("M", instance);
  support::DiagnosticSink sink;
  const ExploreResult result = explore(network, {}, {}, &sink);
  EXPECT_EQ(result.termination, ExploreResult::Termination::kError);
  EXPECT_TRUE(sink.has_errors());
}

TEST(VerifyExplore, CrossInstancePostingBuildsProductSpace) {
  // Two handshakes; the first's "ack" effect posts "req" into the second,
  // so the second's protocol is driven (partly) by the first.
  auto leader_machine = std::make_unique<StateMachine>("Leader");
  StateMachineInstance* follower_slot = nullptr;
  {
    statechart::Region& top = leader_machine->top();
    statechart::State& idle = top.add_state("Idle");
    statechart::State& done = top.add_state("Done");
    top.add_transition(top.add_initial(), idle);
    top.add_transition(idle, done)
        .set_trigger("go")
        .set_effect("post req to follower", [&follower_slot](statechart::ActionContext&) {
          if (follower_slot != nullptr) follower_slot->post(Event("req"));
        });
    top.add_transition(done, idle).set_trigger("reset");
  }
  auto follower_machine = make_handshake();
  StateMachineInstance leader(*leader_machine);
  StateMachineInstance follower(*follower_machine);
  follower_slot = &follower;
  leader.set_trace_enabled(false);
  follower.set_trace_enabled(false);
  leader.start();
  follower.start();

  Network network;
  network.add_instance("Leader", leader);
  network.add_instance("Follower", follower);
  network.add_choice("Leader", Event("go"));
  network.add_choice("Leader", Event("reset"));
  network.add_choice("Follower", Event("ack"));
  network.add_choice("Follower", Event("reset"));

  const ExploreResult result = explore(network, {});
  EXPECT_EQ(result.termination, ExploreResult::Termination::kExhausted);
  // Leader has 2 local states, follower 3: the cross-post makes most of the
  // product reachable — strictly more than either machine alone.
  EXPECT_GT(result.stats.states, 3u);
  EXPECT_LE(result.stats.states, 6u);
}

/// Poster/receiver pair whose poster routes "e1" through a choice: into
/// Work when c == 1, else straight into Work's second step. Work keeps
/// shallow history and posts one "x" to the receiver, which defers it
/// while idle. `peer` is where the poster's effect posts.
void build_routed_pair(StateMachine& poster, StateMachine& receiver,
                       statechart::Engine** peer) {
  {
    statechart::Region& top = poster.top();
    statechart::State& idle = top.add_state("Idle");
    statechart::State& work = top.add_state("Work");
    top.add_transition(top.add_initial(), idle);
    statechart::Region& inner = work.add_region("inner");
    statechart::State& step0 = inner.add_state("Step0");
    statechart::State& step1 = inner.add_state("Step1");
    statechart::Pseudostate& history =
        inner.add_pseudostate(statechart::VertexKind::kShallowHistory, "H");
    inner.add_transition(inner.add_initial(), step0);
    inner.add_transition(step0, step1).set_trigger("e0");
    inner.add_transition(step1, step0).set_trigger("e0");
    top.add_transition(idle, work).set_trigger("e0").set_effect(
        "c := (c + 1) % 3", [](statechart::ActionContext& context) {
          context.instance.set_variable("c", (context.instance.variable("c") + 1) % 3);
        });
    top.add_transition(work, idle).set_trigger("e2");
    top.add_transition(idle, history).set_trigger("e2");
    statechart::Pseudostate& route = top.add_pseudostate(statechart::VertexKind::kChoice, "route");
    top.add_transition(idle, route).set_trigger("e1");
    top.add_transition(route, work).set_guard(
        "c == 1", [](const statechart::ActionContext& context) {
          return context.instance.variable("c") == 1;
        });
    top.add_transition(route, step1).set_guard(statechart::Guard{"else", nullptr});
    top.add_transition(work, work)
        .set_trigger("e1")
        .set_internal(true)
        .set_guard("sent < 1",
                   [](const statechart::ActionContext& context) {
                     return context.instance.variable("sent") < 1;
                   })
        .set_effect("sent := sent + 1; peer.post(x)", [peer](statechart::ActionContext& context) {
          context.instance.set_variable("sent", context.instance.variable("sent") + 1);
          (*peer)->post(Event("x"));
        });
  }
  statechart::Region& top = receiver.top();
  statechart::State& idle = top.add_state("Idle");
  statechart::State& work = top.add_state("Work");
  top.add_transition(top.add_initial(), idle);
  idle.add_deferred("x");
  top.add_transition(idle, work).set_trigger("e0");
  top.add_transition(work, idle).set_trigger("x");
  top.add_transition(work, idle).set_trigger("e1");
}

TEST(VerifyExplore, ChoiceRoutedNetworkHasTheSameSpaceOnBothEngines) {
  const auto explore_pair = [](bool compiled) {
    StateMachine poster("Poster");
    StateMachine receiver("Receiver");
    statechart::Engine* peer = nullptr;
    build_routed_pair(poster, receiver, &peer);
    std::unique_ptr<statechart::Engine> poster_engine;
    std::unique_ptr<statechart::Engine> receiver_engine;
    if (compiled) {
      support::DiagnosticSink sink;
      poster_engine = statechart::compile(poster, sink);
      receiver_engine = statechart::compile(receiver, sink);
      EXPECT_FALSE(sink.has_errors()) << sink.str();
    } else {
      poster_engine = std::make_unique<StateMachineInstance>(poster);
      receiver_engine = std::make_unique<StateMachineInstance>(receiver);
    }
    if (poster_engine == nullptr || receiver_engine == nullptr) return ExploreResult{};
    peer = receiver_engine.get();
    Network network;
    for (statechart::Engine* engine : {poster_engine.get(), receiver_engine.get()}) {
      engine->set_trace_enabled(false);
      engine->start();
    }
    network.add_instance("Poster", *poster_engine);
    network.add_instance("Receiver", *receiver_engine);
    for (const char* name : {"Poster", "Receiver"}) {
      for (const char* event : {"e0", "e1", "e2"}) network.add_choice(name, Event(event));
    }
    return explore(network, {});
  };
  const ExploreResult reference = explore_pair(false);
  const ExploreResult compiled = explore_pair(true);
  EXPECT_EQ(reference.termination, ExploreResult::Termination::kExhausted);
  EXPECT_EQ(compiled.termination, ExploreResult::Termination::kExhausted);
  EXPECT_GT(reference.stats.states, 10u);
  EXPECT_EQ(compiled.stats.states, reference.stats.states);
  EXPECT_EQ(compiled.stats.transitions, reference.stats.transitions);
}

TEST(VerifyExplore, ForcedCollisionHashStillConverges) {
  SingleRig rig(make_counter(5));
  rig.network.add_choice("M", Event("inc"));
  rig.network.add_choice("M", Event("reset"));
  ExploreOptions options;
  options.hash_override = &constant_hash;
  const ExploreResult result = explore(rig.network, {}, options);
  EXPECT_EQ(result.termination, ExploreResult::Termination::kExhausted);
  EXPECT_EQ(result.stats.states, 6u);
  EXPECT_GT(result.stats.fingerprint_collisions, 0u);
}

// --- Properties ---------------------------------------------------------------

TEST(VerifyProperties, NeverInYieldsShortestBfsCounterexample) {
  SingleRig rig(make_diamond());
  rig.network.add_choice("M", Event("a"));
  rig.network.add_choice("M", Event("b"));
  rig.network.add_choice("M", Event("go"));

  std::vector<Property> properties;
  properties.push_back(Property::never_in("M", "D"));
  const ExploreResult result = explore(rig.network, properties);
  ASSERT_EQ(result.termination, ExploreResult::Termination::kViolation);
  ASSERT_EQ(result.violations.size(), 1u);
  EXPECT_EQ(result.violations[0].property, "never-in:M.D");
  // BFS: D is two steps away; no counterexample can be shorter.
  EXPECT_EQ(result.violations[0].path.size(), 2u);
  EXPECT_EQ(result.violations[0].path[1].event.name, "go");
}

TEST(VerifyProperties, InvariantViolationCarriesPath) {
  SingleRig rig(make_counter(5));
  rig.network.add_choice("M", Event("inc"));
  rig.network.add_choice("M", Event("reset"));
  std::vector<Property> properties;
  properties.push_back(Property::invariant("n-below-3", [](const PropertyContext& context) {
    return context.network.find("M")->variable("n") < 3;
  }));
  const ExploreResult result = explore(rig.network, properties);
  ASSERT_EQ(result.termination, ExploreResult::Termination::kViolation);
  ASSERT_EQ(result.violations.size(), 1u);
  EXPECT_EQ(result.violations[0].path.size(), 3u);  // inc, inc, inc.
}

TEST(VerifyProperties, UnhandledErrorFreedomCatchesMissingHandler) {
  // Handshake handles no error-channel events at all: the first fault
  // delivery is an unhandled error.
  SingleRig rig(make_handshake());
  rig.network.add_choice("M", Event("req"));
  rig.network.add_choice("M", Event("bus_fault"), /*is_error=*/true);
  std::vector<Property> properties;
  properties.push_back(Property::no_unhandled_errors());
  const ExploreResult result = explore(rig.network, properties);
  ASSERT_EQ(result.termination, ExploreResult::Termination::kViolation);
  ASSERT_EQ(result.violations.size(), 1u);
  EXPECT_EQ(result.violations[0].path.size(), 1u);
  EXPECT_TRUE(result.violations[0].path[0].is_error);
}

TEST(VerifyProperties, DeadlockFreedomFlagsStuckNonFinalState) {
  // Trap: Idle -go-> Stuck, and nothing is enabled in Stuck.
  auto machine = std::make_unique<StateMachine>("Trap");
  statechart::Region& top = machine->top();
  statechart::State& idle = top.add_state("Idle");
  statechart::State& stuck = top.add_state("Stuck");
  top.add_transition(top.add_initial(), idle);
  top.add_transition(idle, stuck).set_trigger("go");
  SingleRig rig(std::move(machine));
  rig.network.add_choice("M", Event("go"));

  std::vector<Property> properties;
  properties.push_back(Property::deadlock_free());
  const ExploreResult result = explore(rig.network, properties);
  ASSERT_EQ(result.termination, ExploreResult::Termination::kViolation);
  ASSERT_EQ(result.violations.size(), 1u);
  EXPECT_EQ(result.violations[0].property, "deadlock-freedom");
  EXPECT_EQ(result.violations[0].path.size(), 1u);
}

TEST(VerifyProperties, DeadlockFreedomAcceptsFinalStates) {
  // Same shape, but the sink is a FinalState: quiescence there is
  // acceptance, not deadlock.
  auto machine = std::make_unique<StateMachine>("Finishes");
  statechart::Region& top = machine->top();
  statechart::State& idle = top.add_state("Idle");
  statechart::FinalState& fin = top.add_final();
  top.add_transition(top.add_initial(), idle);
  top.add_transition(idle, fin).set_trigger("go");
  SingleRig rig(std::move(machine));
  rig.network.add_choice("M", Event("go"));

  std::vector<Property> properties;
  properties.push_back(Property::deadlock_free());
  const ExploreResult result = explore(rig.network, properties);
  EXPECT_EQ(result.termination, ExploreResult::Termination::kExhausted);
  EXPECT_TRUE(result.verified());
}

// --- Counterexamples ----------------------------------------------------------

TEST(VerifyCounterexample, ReplaysThroughKernelWithVerifiedSchedule) {
  SingleRig rig(make_diamond());
  rig.network.add_choice("M", Event("a"));
  rig.network.add_choice("M", Event("b"));
  rig.network.add_choice("M", Event("go"));
  std::vector<Property> properties;
  properties.push_back(Property::never_in("M", "D"));
  const ExploreResult result = explore(rig.network, properties);
  ASSERT_EQ(result.violations.size(), 1u);

  support::DiagnosticSink sink;
  const ReplayReport report = replay_counterexample(rig.network, result.initial,
                                                    result.violations[0], properties, sink);
  EXPECT_TRUE(report.reproduced) << report.str();
  EXPECT_TRUE(report.schedule_verified) << report.str();
  EXPECT_TRUE(report.ok());
  EXPECT_EQ(report.scheduled_steps, 2u);
}

TEST(VerifyCounterexample, DeadlockViolationReplays) {
  auto machine = std::make_unique<StateMachine>("Trap");
  statechart::Region& top = machine->top();
  statechart::State& idle = top.add_state("Idle");
  statechart::State& stuck = top.add_state("Stuck");
  top.add_transition(top.add_initial(), idle);
  top.add_transition(idle, stuck).set_trigger("go");
  SingleRig rig(std::move(machine));
  rig.network.add_choice("M", Event("go"));
  std::vector<Property> properties;
  properties.push_back(Property::deadlock_free());
  const ExploreResult result = explore(rig.network, properties);
  ASSERT_EQ(result.violations.size(), 1u);

  support::DiagnosticSink sink;
  const ReplayReport report = replay_counterexample(rig.network, result.initial,
                                                    result.violations[0], properties, sink);
  EXPECT_TRUE(report.ok()) << report.str();
}

TEST(VerifyCounterexample, RendersAsConformingSequenceDiagram) {
  SingleRig rig(make_diamond(), "Device");
  rig.network.add_choice("Device", Event("a"));
  rig.network.add_choice("Device", Event("go"), /*is_error=*/true);
  std::vector<Property> properties;
  properties.push_back(Property::never_in("Device", "D"));
  const ExploreResult result = explore(rig.network, properties);
  ASSERT_EQ(result.violations.size(), 1u);
  const Violation& violation = result.violations[0];

  const interaction::Trace trace = counterexample_trace(rig.network, violation);
  ASSERT_EQ(trace.size(), 2u);
  EXPECT_EQ(trace[0], "env->Device:a");
  EXPECT_EQ(trace[1], "fault->Device:go");

  std::unique_ptr<interaction::Interaction> scenario =
      counterexample_interaction(rig.network, violation);
  ASSERT_NE(scenario, nullptr);
  EXPECT_TRUE(interaction::ConformanceChecker(*scenario).conforms(trace));

  const std::string diagram = codegen::to_plantuml_sequence(*scenario);
  EXPECT_NE(diagram.find("@startuml"), std::string::npos);
  EXPECT_NE(diagram.find("participant env"), std::string::npos);
  EXPECT_NE(diagram.find("participant fault"), std::string::npos);
  EXPECT_NE(diagram.find("participant Device"), std::string::npos);
  EXPECT_NE(diagram.find("go"), std::string::npos);
}

}  // namespace
}  // namespace umlsoc::verify
