// Simulation kernel tests: scheduling order, delta cycles, signals, clocks,
// fifos, the memory-mapped bus, and tracing.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <stdexcept>

#include "sim/bus.hpp"
#include "sim/replay.hpp"
#include "sim/signal.hpp"
#include "sim/trace.hpp"

// Counting global allocator: lets tests assert that the kernel's steady-state
// hot path performs zero heap allocations. GCC inlines the malloc/free bodies
// into new/delete call sites and then reports a mismatched pairing; the
// replacement below is the standard conformant pattern, so silence the false
// positive for this TU.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif
namespace {
std::atomic<std::uint64_t> g_heap_allocations{0};
}  // namespace

void* operator new(std::size_t size) {
  g_heap_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace umlsoc::sim {
namespace {

// Handle-based one-shot stimulus: registers the body as an ordinary process
// and schedules the handle. Replaces the deprecated transient
// schedule(delay, callback) shim in test setup code.
template <typename F>
void once(Kernel& kernel, SimTime delay, F&& body) {
  kernel.schedule(delay, kernel.register_process(std::forward<F>(body)));
}

TEST(SimTime, UnitsAndFormat) {
  EXPECT_EQ(SimTime::ns(3).picoseconds(), 3000u);
  EXPECT_EQ(SimTime::us(2).picoseconds(), 2000000u);
  EXPECT_EQ(SimTime::ps(1500).str(), "1500ps");
  EXPECT_EQ(SimTime::ns(5).str(), "5ns");
  EXPECT_EQ(SimTime::us(7).str(), "7us");
  EXPECT_LT(SimTime::ns(1), SimTime::ns(2));
}

TEST(SimTime, AdditionSaturatesInsteadOfWrapping) {
  EXPECT_EQ(SimTime::ns(1) + SimTime::ns(2), SimTime::ns(3));
  EXPECT_EQ(SimTime::max() + SimTime::ns(1), SimTime::max());
  EXPECT_EQ(SimTime::ns(1) + SimTime::max(), SimTime::max());
  const SimTime near_max = SimTime::ps(std::numeric_limits<std::uint64_t>::max() - 5);
  EXPECT_EQ(near_max + SimTime::ps(5), SimTime::max());
  EXPECT_EQ(near_max + SimTime::ps(6), SimTime::max());  // Would wrap to 0.
  EXPECT_EQ(near_max + SimTime::ps(2),
            SimTime::ps(std::numeric_limits<std::uint64_t>::max() - 3));
}

TEST(Kernel, EventsRunInTimeOrder) {
  Kernel kernel;
  std::vector<int> order;
  once(kernel, SimTime::ns(30), [&] { order.push_back(3); });
  once(kernel, SimTime::ns(10), [&] { order.push_back(1); });
  once(kernel, SimTime::ns(20), [&] { order.push_back(2); });
  kernel.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(kernel.now(), SimTime::ns(30));
}

TEST(Kernel, SameTimeEventsRunInScheduleOrder) {
  Kernel kernel;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    once(kernel, SimTime::ns(1), [&order, i] { order.push_back(i); });
  }
  kernel.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Kernel, NestedSchedulingFromCallbacks) {
  Kernel kernel;
  std::vector<std::uint64_t> times;
  once(kernel, SimTime::ns(1), [&] {
    times.push_back(kernel.now().picoseconds());
    once(kernel, SimTime::ns(2), [&] { times.push_back(kernel.now().picoseconds()); });
  });
  kernel.run();
  EXPECT_EQ(times, (std::vector<std::uint64_t>{1000, 3000}));
}

TEST(Kernel, RunUntilStopsEarly) {
  Kernel kernel;
  int fired = 0;
  once(kernel, SimTime::ns(1), [&] { ++fired; });
  once(kernel, SimTime::ns(100), [&] { ++fired; });
  kernel.run(SimTime::ns(50));
  EXPECT_EQ(fired, 1);
  EXPECT_FALSE(kernel.idle());
  kernel.run();
  EXPECT_EQ(fired, 2);
  EXPECT_TRUE(kernel.idle());
}

TEST(Kernel, ZeroDelayIsSameTimeLaterBatch) {
  Kernel kernel;
  std::vector<int> order;
  once(kernel, SimTime::ns(1), [&] {
    order.push_back(1);
    once(kernel, SimTime(), [&] { order.push_back(2); });
    order.push_back(3);
  });
  kernel.run();
  EXPECT_EQ(order, (std::vector<int>{1, 3, 2}));
  EXPECT_EQ(kernel.now(), SimTime::ns(1));
}

TEST(Signal, WriteVisibleOnlyAfterUpdatePhase) {
  Kernel kernel;
  Signal<int> signal(kernel, "s", 0);
  int seen_during_write_delta = -1;
  once(kernel, SimTime::ns(1), [&] {
    signal.write(42);
    seen_during_write_delta = signal.read();  // Old value still visible.
  });
  kernel.run();
  EXPECT_EQ(seen_during_write_delta, 0);
  EXPECT_EQ(signal.read(), 42);
  EXPECT_EQ(signal.change_count(), 1u);
}

TEST(Signal, NoNotificationWithoutValueChange) {
  Kernel kernel;
  Signal<int> signal(kernel, "s", 7);
  int notifications = 0;
  signal.value_changed().subscribe([&] { ++notifications; });
  once(kernel, SimTime::ns(1), [&] { signal.write(7); });  // Same value.
  once(kernel, SimTime::ns(2), [&] { signal.write(8); });
  kernel.run();
  EXPECT_EQ(notifications, 1);
  EXPECT_EQ(signal.change_count(), 1u);
}

TEST(Signal, LastWriteInDeltaWins) {
  Kernel kernel;
  Signal<int> signal(kernel, "s", 0);
  once(kernel, SimTime::ns(1), [&] {
    signal.write(1);
    signal.write(2);
  });
  kernel.run();
  EXPECT_EQ(signal.read(), 2);
  EXPECT_EQ(signal.change_count(), 1u);  // One committed change.
}

TEST(Signal, ChainedSensitivityPropagatesOverDeltas) {
  Kernel kernel;
  Signal<int> a(kernel, "a", 0);
  Signal<int> b(kernel, "b", 0);
  // b follows a + 1 (combinational process sensitive to a).
  a.value_changed().subscribe([&] { b.write(a.read() + 1); });
  once(kernel, SimTime::ns(1), [&] { a.write(10); });
  kernel.run();
  EXPECT_EQ(b.read(), 11);
  EXPECT_GE(kernel.delta_count(), 2u);  // a-change delta, then b-change delta.
}

TEST(Signal, CombinationalLoopHitsDeltaLimit) {
  Kernel kernel;
  Signal<int> a(kernel, "a", 0);
  // a := a + 1 whenever a changes: classic delta livelock.
  a.value_changed().subscribe([&] { a.write(a.read() + 1); });
  once(kernel, SimTime::ns(1), [&] { a.write(1); });
  EXPECT_THROW(kernel.run(), std::runtime_error);
}

TEST(Clock, TogglesAtHalfPeriod) {
  Kernel kernel;
  Clock clock(kernel, "clk", SimTime::ns(10));
  std::vector<std::pair<std::uint64_t, bool>> edges;
  clock.signal().value_changed().subscribe(
      [&] { edges.emplace_back(kernel.now().picoseconds(), clock.high()); });
  kernel.run(SimTime::ns(25));
  // Edges at 5ns(1), 10ns(0), 15ns(1), 20ns(0), 25ns(1).
  ASSERT_GE(edges.size(), 4u);
  EXPECT_EQ(edges[0], (std::pair<std::uint64_t, bool>{5000, true}));
  EXPECT_EQ(edges[1], (std::pair<std::uint64_t, bool>{10000, false}));
  EXPECT_EQ(edges[2], (std::pair<std::uint64_t, bool>{15000, true}));
}

TEST(Fifo, WriteReadAndCapacity) {
  Kernel kernel;
  Fifo<int> fifo(kernel, "f", 2);
  EXPECT_TRUE(fifo.nb_write(1));
  EXPECT_TRUE(fifo.nb_write(2));
  EXPECT_TRUE(fifo.full());
  EXPECT_FALSE(fifo.nb_write(3));
  int out = 0;
  EXPECT_TRUE(fifo.nb_read(out));
  EXPECT_EQ(out, 1);
  EXPECT_TRUE(fifo.nb_read(out));
  EXPECT_EQ(out, 2);
  EXPECT_FALSE(fifo.nb_read(out));
  EXPECT_EQ(fifo.writes(), 2u);
  EXPECT_EQ(fifo.reads(), 2u);
}

TEST(Fifo, ProducerConsumerViaEvents) {
  Kernel kernel;
  Fifo<int> fifo(kernel, "f", 4);
  std::vector<int> consumed;

  // Consumer: drain whenever data shows up.
  fifo.data_available().subscribe([&] {
    int value = 0;
    while (fifo.nb_read(value)) consumed.push_back(value);
  });
  // Producer: one item per 10ns.
  for (int i = 0; i < 5; ++i) {
    once(kernel, SimTime::ns(10 * (i + 1)), [&fifo, i] { fifo.nb_write(i); });
  }
  kernel.run();
  EXPECT_EQ(consumed, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Bus, ReadWriteThroughDeviceWindow) {
  Kernel kernel;
  MemoryMappedBus bus(kernel, "axi", SimTime::ns(5));
  std::uint64_t reg = 0;
  bus.map_device(
      "uart", 0x1000, 0x10, [&](std::uint64_t) { return reg; },
      [&](std::uint64_t, std::uint64_t value) { reg = value; });

  std::uint64_t read_result = 0;
  std::uint64_t read_time = 0;
  BusStatus read_status = BusStatus::kError;
  bus.write(0x1004, 99, MemoryMappedBus::WriteCompletion(nullptr));
  bus.read(0x1008, [&](BusStatus status, std::uint64_t value) {
    read_status = status;
    read_result = value;
    read_time = kernel.now().picoseconds();
  });
  kernel.run();
  EXPECT_EQ(read_status, BusStatus::kOk);
  EXPECT_EQ(reg, 99u);
  EXPECT_EQ(read_result, 99u);
  EXPECT_EQ(read_time, 5000u);
  EXPECT_EQ(bus.reads(), 1u);
  EXPECT_EQ(bus.writes(), 1u);
  EXPECT_EQ(bus.errors(), 0u);
}

TEST(Bus, WriteCompletionCallback) {
  Kernel kernel;
  MemoryMappedBus bus(kernel, "axi", SimTime::ns(3));
  std::uint64_t mem = 0;
  bus.map_device(
      "ram", 0, 0x100, [&](std::uint64_t) { return mem; },
      [&](std::uint64_t, std::uint64_t value) { mem = value; });
  bool done = false;
  bus.write(0x10, 5, [&](BusStatus status) { done = (status == BusStatus::kOk && mem == 5); });
  kernel.run();
  EXPECT_TRUE(done);
}

TEST(Bus, OverlappingWindowsAreRejectedAtRegistration) {
  Kernel kernel;
  MemoryMappedBus bus(kernel, "axi", SimTime::ns(1));
  auto read = [](std::uint64_t) { return std::uint64_t{0}; };
  auto write = [](std::uint64_t, std::uint64_t) {};
  bus.map_device("uart", 0x1000, 0x10, read, write);

  EXPECT_THROW(bus.map_device("dup", 0x1000, 0x10, read, write), std::invalid_argument);
  EXPECT_THROW(bus.map_device("tail", 0x100f, 0x10, read, write), std::invalid_argument);
  EXPECT_THROW(bus.map_device("head", 0x0ff8, 0x10, read, write), std::invalid_argument);
  EXPECT_THROW(bus.map_device("span", 0x0800, 0x1000, read, write), std::invalid_argument);
  EXPECT_THROW(bus.map_device("empty", 0x2000, 0, read, write), std::invalid_argument);
  // Adjacent windows are fine.
  EXPECT_NO_THROW(bus.map_device("next", 0x1010, 0x10, read, write));
  EXPECT_NO_THROW(bus.map_device("prev", 0x0ff0, 0x10, read, write));
}

TEST(Bus, AllOnesValueIsNotReportedAsError) {
  // Regression: a device may legitimately return the kBusError bit pattern;
  // only the status distinguishes it from a decode error.
  Kernel kernel;
  MemoryMappedBus bus(kernel, "axi", SimTime::ns(1));
  bus.map_device(
      "ones", 0, 0x10, [](std::uint64_t) { return ~0ULL; },
      [](std::uint64_t, std::uint64_t) {});
  BusStatus status = BusStatus::kError;
  std::uint64_t value = 0;
  bus.read(0x0, [&](BusStatus s, std::uint64_t v) {
    status = s;
    value = v;
  });
  kernel.run();
  EXPECT_EQ(status, BusStatus::kOk);
  EXPECT_EQ(value, ~0ULL);
  EXPECT_EQ(bus.errors(), 0u);
}

TEST(Bus, UnmappedAddressCompletesWithErrorStatus) {
  Kernel kernel;
  MemoryMappedBus bus(kernel, "axi", SimTime::ns(1));
  BusStatus read_status = BusStatus::kOk;
  BusStatus write_status = BusStatus::kOk;
  bus.read(0xdead, [&](BusStatus s, std::uint64_t) { read_status = s; });
  bus.write(0xbeef, 1, [&](BusStatus s) { write_status = s; });
  kernel.run();
  EXPECT_EQ(read_status, BusStatus::kError);
  EXPECT_EQ(write_status, BusStatus::kError);
  EXPECT_EQ(bus.errors(), 2u);
}

TEST(Tracer, RecordsChangesWithTimestamps) {
  Kernel kernel;
  Signal<int> signal(kernel, "data", 0);
  Tracer tracer(kernel);
  tracer.trace(signal);
  once(kernel, SimTime::ns(1), [&] { signal.write(5); });
  once(kernel, SimTime::ns(2), [&] { signal.write(6); });
  kernel.run();
  ASSERT_EQ(tracer.change_count(), 3u);  // Initial + 2 changes.
  EXPECT_EQ(tracer.records()[0].value, "0");
  EXPECT_EQ(tracer.records()[1].time_ps, 1000u);
  EXPECT_EQ(tracer.records()[2].value, "6");
  std::string dump = tracer.dump();
  EXPECT_NE(dump.find("2000 data=6"), std::string::npos);
}

TEST(Tracer, DestructionBeforeSignalIsSafe) {
  Kernel kernel;
  Signal<int> signal(kernel, "data", 0);
  {
    Tracer tracer(kernel);
    tracer.trace(signal);
    once(kernel, SimTime::ns(1), [&] { signal.write(5); });
    kernel.run();
    EXPECT_EQ(tracer.change_count(), 2u);
  }
  // SimEvent has no unsubscribe, so the trace callback outlives the tracer;
  // it must degrade to a no-op instead of writing through a dangling
  // record buffer.
  once(kernel, SimTime::ns(2), [&] { signal.write(6); });
  kernel.run();
  EXPECT_EQ(signal.read(), 6);
}

TEST(Kernel, CountersAdvance) {
  Kernel kernel;
  Clock clock(kernel, "clk", SimTime::ns(2));
  (void)clock;
  kernel.run(SimTime::ns(20));
  EXPECT_GT(kernel.events_processed(), 10u);
  EXPECT_GT(kernel.delta_count(), 10u);
}

TEST(Kernel, FifoOrderAcrossInterleavedHandles) {
  // Same-time events run in schedule order, including when registrations and
  // schedules interleave — schedule order, not registration order, decides.
  Kernel kernel;
  std::vector<int> order;
  const ProcessId first = kernel.register_process([&] { order.push_back(0); });
  const ProcessId third = kernel.register_process([&] { order.push_back(2); });
  const ProcessId second = kernel.register_process([&] { order.push_back(1); });
  const ProcessId fourth = kernel.register_process([&] { order.push_back(3); });
  kernel.schedule(SimTime::ns(5), first);
  kernel.schedule(SimTime::ns(5), second);
  kernel.schedule(SimTime::ns(5), third);
  kernel.schedule(SimTime::ns(5), fourth);
  kernel.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
}

TEST(Kernel, LargeSameTimeBatchKeepsFifoOrder) {
  // >32 events at one instant exercises the sort (not insertion-sort) path
  // of the wheel-bucket collection.
  Kernel kernel;
  std::vector<int> order;
  std::vector<ProcessId> ids;
  for (int i = 0; i < 40; ++i) {
    ids.push_back(kernel.register_process([&order, i] { order.push_back(i); }));
    kernel.schedule(SimTime::ns(7), ids.back());
  }
  kernel.run();
  ASSERT_EQ(order.size(), 40u);
  for (int i = 0; i < 40; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(Kernel, SameBucketDifferentTimesStaySeparate) {
  // Two events land in the same wheel bucket (within one ~1ns quantum) but
  // at different picosecond timestamps: the later one must not fire early.
  Kernel kernel;
  std::vector<std::uint64_t> fired;
  once(kernel, SimTime::ps(600), [&] { fired.push_back(kernel.now().picoseconds()); });
  once(kernel, SimTime::ps(100), [&] { fired.push_back(kernel.now().picoseconds()); });
  kernel.run();
  EXPECT_EQ(fired, (std::vector<std::uint64_t>{100, 600}));
}

TEST(SimEvent, DeltaNotificationsCollapse) {
  // Multiple notify() calls before the delta boundary deliver exactly once
  // (SystemC immediate-notification semantics), and the collapse is counted.
  Kernel kernel;
  SimEvent event(kernel, "e");
  int runs = 0;
  event.subscribe([&] { ++runs; });
  once(kernel, SimTime::ns(1), [&] {
    event.notify();
    event.notify();
    event.notify();
  });
  kernel.run();
  EXPECT_EQ(runs, 1);
  EXPECT_EQ(kernel.stats().collapsed_notifications, 2u);
  // Once delivered, a fresh notification in a later instant fires again.
  once(kernel, SimTime::ns(1), [&] { event.notify(); });
  kernel.run();
  EXPECT_EQ(runs, 2);
}

TEST(Kernel, WheelHeapBoundaryPreservesOrder) {
  // Events beyond the wheel horizon overflow to the heap and cascade back
  // into the wheel as time advances; time order and same-time FIFO order
  // hold across the boundary.
  Kernel kernel;
  constexpr std::uint64_t horizon_ps = static_cast<std::uint64_t>(Kernel::kWheelBuckets)
                                       << Kernel::kWheelShift;
  std::vector<int> order;
  // Two same-time far-future events (heap), scheduled before the near ones.
  once(kernel, SimTime::ps(horizon_ps + 5), [&] { order.push_back(3); });
  once(kernel, SimTime::ps(horizon_ps + 5), [&] { order.push_back(4); });
  once(kernel, SimTime::ps(horizon_ps - 1), [&] { order.push_back(2); });  // Last wheel slot.
  once(kernel, SimTime::ps(3), [&] { order.push_back(1); });
  EXPECT_EQ(kernel.stats().heap_hits, 2u);
  EXPECT_EQ(kernel.stats().wheel_hits, 2u);
  kernel.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4}));
  EXPECT_GE(kernel.stats().cascades, 2u);
  EXPECT_EQ(kernel.now(), SimTime::ps(horizon_ps + 5));
}

TEST(Kernel, CheckpointListsTimedEntriesInTimeOrder) {
  // Capture visits only the occupied wheel buckets and the overflow heap;
  // its output is sorted by (at_ps, sequence) whether an entry sits past
  // the wheel cursor, in a bucket the wheel wrapped around to, or in the
  // heap beyond the horizon.
  Kernel kernel;
  constexpr std::uint64_t quantum_ps = 1ULL << Kernel::kWheelShift;
  constexpr std::uint64_t horizon_ps = Kernel::kWheelBuckets * quantum_ps;
  std::vector<ProcessId> ids;
  for (int i = 0; i < 6; ++i) ids.push_back(kernel.register_process([] {}));
  // Park the cursor mid-wheel.
  once(kernel, SimTime::ps(horizon_ps / 2 + 7), [] {});
  kernel.run();
  const std::uint64_t now_ps = kernel.now().picoseconds();
  // Latest first, so schedule order is not time order.
  kernel.schedule(SimTime::ps(3 * horizon_ps), ids[0]);      // Heap.
  kernel.schedule(SimTime::ps(3 * horizon_ps), ids[1]);      // Heap, same time.
  kernel.schedule(SimTime::ps(3 * horizon_ps / 4), ids[2]);  // Wrapped below the cursor.
  kernel.schedule(SimTime::ps(10 * quantum_ps + 1), ids[3]); // Past the cursor.
  kernel.schedule(SimTime::ps(10 * quantum_ps), ids[4]);     // Same bucket, earlier.
  kernel.schedule(SimTime::ps(10 * quantum_ps), ids[5]);     // Same time, FIFO.
  EXPECT_EQ(kernel.stats().heap_hits, 2u);

  Kernel::Checkpoint checkpoint;
  support::DiagnosticSink sink;
  ASSERT_TRUE(kernel.capture_checkpoint(checkpoint, sink)) << sink.str();
  std::vector<std::pair<std::uint64_t, ProcessId>> captured;
  for (const auto& entry : checkpoint.timed) captured.emplace_back(entry.at_ps, entry.process);
  const std::vector<std::pair<std::uint64_t, ProcessId>> expected = {
      {now_ps + 10 * quantum_ps, ids[4]},    {now_ps + 10 * quantum_ps, ids[5]},
      {now_ps + 10 * quantum_ps + 1, ids[3]}, {now_ps + 3 * horizon_ps / 4, ids[2]},
      {now_ps + 3 * horizon_ps, ids[0]},     {now_ps + 3 * horizon_ps, ids[1]}};
  EXPECT_EQ(captured, expected);
}

TEST(Kernel, UsableAfterDeltaLimitThrow) {
  Kernel kernel;
  Signal<int> a(kernel, "a", 0);
  a.value_changed().subscribe([&] { a.write(a.read() + 1); });
  int later = 0;
  once(kernel, SimTime::ns(5), [&] { ++later; });
  once(kernel, SimTime::ns(1), [&] { a.write(1); });
  EXPECT_THROW(kernel.run(), std::runtime_error);
  EXPECT_EQ(kernel.stats().max_deltas_per_instant, Kernel::kMaxDeltasPerInstant + 1);
  // The delta state was cleared; pending timed events survive and run.
  kernel.run();
  EXPECT_EQ(later, 1);
  int after = 0;
  once(kernel, SimTime::ns(1), [&] { ++after; });
  kernel.run();
  EXPECT_EQ(after, 1);
  EXPECT_TRUE(kernel.idle());
}

TEST(Kernel, SteadyStateSchedulingIsAllocationFree) {
  // The registered-handle hot path (self-rescheduling process) must not
  // touch the heap once scratch buffers have warmed up: POD queue entries,
  // pooled wheel nodes, no std::function construction per event.
  Kernel kernel;
  int remaining = 20000;
  ProcessId id = kInvalidProcess;
  id = kernel.register_process([&] {
    if (--remaining > 0) kernel.schedule(SimTime::ns(1), id);
  });
  kernel.schedule(SimTime::ns(1), id);
  kernel.run(SimTime::ns(100));  // Warm-up: buffers reach steady capacity.
  const std::uint64_t allocations_before = g_heap_allocations.load();
  const std::uint64_t events_before = kernel.events_processed();
  kernel.run(SimTime::ns(15000));
  EXPECT_GT(kernel.events_processed() - events_before, 10000u);
  EXPECT_EQ(g_heap_allocations.load(), allocations_before);
}

TEST(Kernel, SteadyStateSignalTrafficIsAllocationFree) {
  // Clock + subscribed process: the notify/update/delta machinery also runs
  // allocation-free once warm.
  Kernel kernel;
  Clock clock(kernel, "clk", SimTime::ns(10));
  long edges = 0;
  clock.signal().value_changed().subscribe([&] { ++edges; });
  kernel.run(SimTime::ns(200));  // Warm-up.
  const std::uint64_t allocations_before = g_heap_allocations.load();
  kernel.run(SimTime::us(20));
  EXPECT_GT(edges, 1000L);
  EXPECT_EQ(g_heap_allocations.load(), allocations_before);
}

TEST(EventRecorder, RestoreLogCopiesIntoTheBufferItHolds) {
  // A snapshot restore replaces the log with a shorter one; the recorder
  // keeps its buffer, so neither the restore nor recording back up to the
  // old length allocates.
  Kernel kernel;
  EventRecorder recorder;
  for (std::uint64_t i = 0; i < 1000; ++i) recorder.on_event(i, 0, kernel);
  const std::vector<RecordedEvent> full = recorder.log();
  const std::vector<RecordedEvent> prefix(full.begin(), full.begin() + 400);
  const std::uint64_t allocations_before = g_heap_allocations.load();
  recorder.restore_log(prefix, prefix.size());
  EXPECT_EQ(recorder.total_events(), 400u);
  for (std::uint64_t i = 400; i < 1000; ++i) recorder.on_event(i, 0, kernel);
  EXPECT_EQ(g_heap_allocations.load(), allocations_before);
  EXPECT_EQ(recorder.log(), full);
  EXPECT_EQ(recorder.total_events(), 1000u);
}

// Property: N producers and one consumer over a fifo — every produced item
// is consumed exactly once, in FIFO order per producer.
class FifoProperty : public ::testing::TestWithParam<int> {};

TEST_P(FifoProperty, NoLossNoDuplication) {
  const int producers = GetParam();
  Kernel kernel;
  Fifo<int> fifo(kernel, "f", 3);
  std::vector<int> consumed;
  fifo.data_available().subscribe([&] {
    int value = 0;
    while (fifo.nb_read(value)) consumed.push_back(value);
  });

  int expected_total = 0;
  for (int p = 0; p < producers; ++p) {
    for (int i = 0; i < 10; ++i) {
      int value = p * 100 + i;
      ++expected_total;
      // Retry writes until space: a self-rescheduling registered process per
      // item, first attempt at a staggered time.
      auto writer = std::make_shared<ProcessId>(kInvalidProcess);
      *writer = kernel.register_process([&fifo, value, &kernel, writer] {
        if (!fifo.nb_write(value)) kernel.schedule(SimTime::ns(1), *writer);
      });
      kernel.schedule(SimTime::ns(static_cast<std::uint64_t>(1 + i * producers + p)), *writer);
    }
  }
  kernel.run();
  EXPECT_EQ(static_cast<int>(consumed.size()), expected_total);
  // Per-producer FIFO order.
  for (int p = 0; p < producers; ++p) {
    int last = -1;
    for (int value : consumed) {
      if (value / 100 == p) {
        EXPECT_GT(value, last);
        last = value;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Producers, FifoProperty, ::testing::Values(1, 2, 4));

}  // namespace
}  // namespace umlsoc::sim
