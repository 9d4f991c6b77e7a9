// The allocation-free event engine's ordering and storage contracts:
//
//  * EventQueue executes in exactly the (time, schedule-order) sequence of
//    the old std::priority_queue representation — checked property-style
//    against a reference heap over adversarial time distributions that
//    exercise every wheel level and the cascade paths.
//  * The node pool recycles: steady-state traffic never grows
//    nodes_allocated once warmed.
//  * SmallFn stores small captures inline, falls back to the heap above
//    kInlineBytes, and destroys the target exactly once on every path —
//    including invoke_consume() with a throwing callable.
//  * Simulator::run_until does NOT reset the step-hook cadence counter, so
//    chunked runs sample at the same executed-counts as one run().
#include "sim/event_queue.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <queue>
#include <random>
#include <stdexcept>
#include <utility>
#include <vector>

#include "sim/simulator.hpp"
#include "sim/small_fn.hpp"

namespace pcieb::sim {
namespace {

// ---------------------------------------------------------------------------
// EventQueue vs a reference (time, seq) min-heap.

/// Reference ordering: ascending time, ties broken by schedule order.
class ReferenceQueue {
 public:
  void push(Picos t, int id) { heap_.push({t, seq_++, id}); }
  bool empty() const { return heap_.empty(); }
  Picos next_time() const { return std::get<0>(heap_.top()); }
  int pop() {
    const int id = std::get<2>(heap_.top());
    heap_.pop();
    return id;
  }

 private:
  using Entry = std::tuple<Picos, std::uint64_t, int>;
  std::priority_queue<Entry, std::vector<Entry>, std::greater<>> heap_;
  std::uint64_t seq_ = 0;
};

/// Time deltas drawn from every wheel regime: same-slot (0), sub-slot
/// (< 4096 ps), level-0 (< 1 us), and each coarser level up to deltas
/// that land seven levels up — plus heavy duplication to stress ties.
Picos random_delta(std::mt19937_64& rng) {
  switch (rng() % 8) {
    case 0: return 0;                                     // exact ties
    case 1: return static_cast<Picos>(rng() % 16);        // same sub-slot
    case 2: return static_cast<Picos>(rng() % 4096);      // bottom slot
    case 3: return static_cast<Picos>(rng() % (1 << 20)); // level 0/1
    case 4: return static_cast<Picos>(rng() % (1ull << 28));
    case 5: return static_cast<Picos>(rng() % (1ull << 36));
    case 6: return static_cast<Picos>(rng() % (1ull << 44));
    default: return static_cast<Picos>(rng() % (1ull << 52));
  }
}

void drain_one(EventQueue& q, std::vector<int>& order) {
  EventQueue::EventNode* node = q.pop();
  ASSERT_NE(node, nullptr);
  node->fn.invoke_consume();
  q.recycle(node);
  ASSERT_FALSE(order.empty());
}

TEST(EventQueue, MatchesReferenceOrderOnBulkDrain) {
  std::mt19937_64 rng(0x5eed);
  for (int round = 0; round < 10; ++round) {
    EventQueue q;
    ReferenceQueue ref;
    std::vector<int> order;
    for (int id = 0; id < 2000; ++id) {
      const Picos t = random_delta(rng);
      q.push(t, [&order, id] { order.push_back(id); });
      ref.push(t, id);
    }
    while (!q.empty()) {
      EXPECT_EQ(q.next_time(), ref.next_time());
      drain_one(q, order);
      EXPECT_EQ(order.back(), ref.pop());
    }
    EXPECT_TRUE(ref.empty());
    EXPECT_EQ(order.size(), 2000u);
  }
}

TEST(EventQueue, MatchesReferenceUnderInterleavedPushPop) {
  std::mt19937_64 rng(0xfeed);
  EventQueue q;
  ReferenceQueue ref;
  std::vector<int> order;
  Picos now = 0;  // time of the most recently popped event
  int next_id = 0;
  for (int step = 0; step < 30000; ++step) {
    if (q.empty() || rng() % 3 != 0) {
      // Pushes must be >= the last popped time (Simulator enforces
      // >= now()); deltas span every wheel level.
      const Picos t = now + random_delta(rng);
      const int id = next_id++;
      q.push(t, [&order, id] { order.push_back(id); });
      ref.push(t, id);
    } else {
      ASSERT_EQ(q.next_time(), ref.next_time());
      now = q.next_time();
      drain_one(q, order);
      ASSERT_EQ(order.back(), ref.pop());
    }
  }
  while (!q.empty()) {
    ASSERT_EQ(q.next_time(), ref.next_time());
    drain_one(q, order);
    ASSERT_EQ(order.back(), ref.pop());
  }
  EXPECT_TRUE(ref.empty());
  EXPECT_EQ(static_cast<int>(order.size()), next_id);
}

TEST(EventQueue, FarFutureEventsCascadeWithoutReordering) {
  // One event per reachable wheel level (positive Picos caps out in level
  // 6's bit range), pushed in reverse time order, plus ties at each
  // timestamp to check cascades preserve schedule order.
  EventQueue q;
  std::vector<int> order;
  std::vector<Picos> times;
  for (unsigned level = 0; level < 7; ++level) {
    times.push_back(Picos{1} << (12 + 8 * level));
  }
  int id = 0;
  for (auto it = times.rbegin(); it != times.rend(); ++it) {
    const Picos t = *it;
    for (int k = 0; k < 3; ++k) {
      q.push(t, [&order, id] { order.push_back(id); });
      ++id;
    }
  }
  std::vector<int> expect;
  // Ascending time; within a time, ascending push order.
  for (int lev = 6; lev >= 0; --lev) {
    for (int k = 0; k < 3; ++k) expect.push_back(3 * lev + k);
  }
  while (!q.empty()) drain_one(q, order);
  EXPECT_EQ(order, expect);
}

TEST(EventQueue, ClearDestroysPendingCallables) {
  int live = 0;
  struct Probe {
    int* live;
    explicit Probe(int* l) : live(l) { ++*live; }
    Probe(const Probe& o) : live(o.live) { ++*live; }
    Probe(Probe&& o) noexcept : live(o.live) { ++*live; }
    ~Probe() { --*live; }
    void operator()() {}
  };
  {
    EventQueue q;
    for (int i = 0; i < 100; ++i) q.push(i, Probe(&live));
    EXPECT_GT(live, 0);
    q.clear();
    EXPECT_EQ(live, 0);
    EXPECT_TRUE(q.empty());
    // The queue is reusable after clear().
    std::vector<int> order;
    q.push(5, [&order] { order.push_back(1); });
    while (!q.empty()) drain_one(q, order);
    EXPECT_EQ(order, std::vector<int>{1});
  }
  EXPECT_EQ(live, 0);
}

// Nodes spread over five levels, some cascaded by a partial drain and
// some in upper slots never touched, are all reclaimed when the queue is
// destroyed, and the partial drain runs in the same order as a full one.
TEST(EventQueue, DestructorReclaimsEveryLevel) {
  struct Recorder {
    std::vector<int>* order;
    int id;
    int* live;
    Recorder(std::vector<int>* o, int i, int* l) : order(o), id(i), live(l) {
      ++*live;
    }
    Recorder(Recorder&& r) noexcept : order(r.order), id(r.id), live(r.live) {
      ++*live;
    }
    ~Recorder() { --*live; }
    void operator()() { order->push_back(id); }
  };
  std::vector<Picos> times;
  for (int i = 0; i < 128; ++i) {
    const unsigned level = static_cast<unsigned>(i % 5);
    const Picos k = i / 10 + 1;  // each (level, k) twice: same-time ties
    times.push_back((Picos{1} << (12 + 8 * level)) * k + 17 * k);
  }
  int live = 0;
  const auto fill = [&](EventQueue& q, std::vector<int>& order) {
    for (std::size_t i = 0; i < times.size(); ++i) {
      q.push(times[i], Recorder(&order, static_cast<int>(i), &live));
    }
  };

  std::vector<int> full_order;
  {
    EventQueue full;
    fill(full, full_order);
    while (!full.empty()) drain_one(full, full_order);
  }

  std::vector<int> order;
  {
    EventQueue q;
    fill(q, order);
    for (int i = 0; i < 30; ++i) drain_one(q, order);  // cascades level 1
    EXPECT_EQ(live, 128 - 30);
  }
  EXPECT_EQ(live, 0);
  EXPECT_EQ(order,
            std::vector<int>(full_order.begin(), full_order.begin() + 30));
}

TEST(EventQueue, NextTimeOnEmptyQueueThrows) {
  EventQueue q;
  EXPECT_THROW(q.next_time(), std::logic_error);
  // Drained after a cascade from an upper level: still empty, still throws.
  std::vector<int> order;
  q.push(Picos{1} << 30, [&order] { order.push_back(0); });
  EXPECT_EQ(q.next_time(), Picos{1} << 30);
  drain_one(q, order);
  EXPECT_THROW(q.next_time(), std::logic_error);
  EXPECT_EQ(q.pop(), nullptr);
}

// ---------------------------------------------------------------------------
// Node pool reuse.

TEST(EventQueue, SteadyStateTrafficRecyclesNodes) {
  Simulator sim;
  // A self-limiting chain holding at most 4 events in flight — the shape
  // of real simulator traffic (each completion schedules successors).
  int remaining = 50000;
  std::function<void()> tick = [&] {
    if (remaining-- > 0) sim.after(100, tick);
  };
  for (int i = 0; i < 4; ++i) sim.after(i, tick);
  for (int i = 0; i < 1000; ++i) sim.step();
  const std::size_t warmed = sim.event_nodes_allocated();
  sim.run();
  // Every node after warmup came from the free list.
  EXPECT_EQ(sim.event_nodes_allocated(), warmed);
  EXPECT_GE(warmed, 4u);
}

TEST(EventQueue, PoolGrowsOnlyWithConcurrentPending) {
  EventQueue q;
  for (int i = 0; i < 300; ++i) q.push(i, [] {});
  const std::size_t high = q.nodes_allocated();
  EXPECT_GE(high, 300u);
  while (!q.empty()) {
    EventQueue::EventNode* node = q.pop();
    node->fn.invoke_consume();
    q.recycle(node);
  }
  // Re-filling to the same depth reuses every recycled cell.
  for (int i = 0; i < 300; ++i) q.push(i, [] {});
  EXPECT_EQ(q.nodes_allocated(), high);
}

// ---------------------------------------------------------------------------
// SmallFn storage and destruction contracts.

struct LifeCounter {
  static int live;
  static int invoked;
};
int LifeCounter::live = 0;
int LifeCounter::invoked = 0;

template <std::size_t Pad>
struct Tracked {
  unsigned char pad[Pad] = {};
  Tracked() { ++LifeCounter::live; }
  Tracked(const Tracked&) { ++LifeCounter::live; }
  Tracked(Tracked&&) noexcept { ++LifeCounter::live; }
  ~Tracked() { --LifeCounter::live; }
  void operator()() { ++LifeCounter::invoked; }
};

template <std::size_t Pad>
struct ThrowingTracked : Tracked<Pad> {
  void operator()() { throw std::runtime_error("boom"); }
};

using SmallTracked = Tracked<8>;
using BigTracked = Tracked<128>;

static_assert(SmallFn::stored_inline<SmallTracked>(),
              "8 B captures must be inline");
static_assert(!SmallFn::stored_inline<BigTracked>(),
              "128 B captures must spill to the heap");

class SmallFnLifetime : public ::testing::Test {
 protected:
  void SetUp() override { LifeCounter::live = LifeCounter::invoked = 0; }
  void TearDown() override { EXPECT_EQ(LifeCounter::live, 0); }
};

TEST_F(SmallFnLifetime, InlineInvokeConsumeDestroysOnce) {
  SmallFn fn;
  fn.emplace(SmallTracked{});
  EXPECT_TRUE(static_cast<bool>(fn));
  EXPECT_EQ(LifeCounter::live, 1);
  fn.invoke_consume();
  EXPECT_EQ(LifeCounter::invoked, 1);
  EXPECT_EQ(LifeCounter::live, 0);
  EXPECT_FALSE(static_cast<bool>(fn));
  fn.reset();  // reset on an empty fn is a no-op (the pop path does this)
  EXPECT_EQ(LifeCounter::live, 0);
}

TEST_F(SmallFnLifetime, HeapFallbackInvokeConsumeDestroysOnce) {
  SmallFn fn;
  fn.emplace(BigTracked{});
  EXPECT_EQ(LifeCounter::live, 1);
  fn.invoke_consume();
  EXPECT_EQ(LifeCounter::invoked, 1);
  EXPECT_EQ(LifeCounter::live, 0);
  EXPECT_FALSE(static_cast<bool>(fn));
}

TEST_F(SmallFnLifetime, ThrowingInlineCallableStillDestroyedExactlyOnce) {
  SmallFn fn;
  fn.emplace(ThrowingTracked<8>{});
  EXPECT_EQ(LifeCounter::live, 1);
  EXPECT_THROW(fn.invoke_consume(), std::runtime_error);
  EXPECT_EQ(LifeCounter::live, 0);
  EXPECT_FALSE(static_cast<bool>(fn));
}

TEST_F(SmallFnLifetime, ThrowingHeapCallableStillDestroyedExactlyOnce) {
  SmallFn fn;
  fn.emplace(ThrowingTracked<128>{});
  EXPECT_EQ(LifeCounter::live, 1);
  EXPECT_THROW(fn.invoke_consume(), std::runtime_error);
  EXPECT_EQ(LifeCounter::live, 0);
  EXPECT_FALSE(static_cast<bool>(fn));
}

TEST_F(SmallFnLifetime, MoveTransfersOwnershipBothStorages) {
  SmallFn a;
  a.emplace(SmallTracked{});
  SmallFn b = std::move(a);
  EXPECT_FALSE(static_cast<bool>(a));
  EXPECT_TRUE(static_cast<bool>(b));
  b();
  EXPECT_EQ(LifeCounter::invoked, 1);
  b.reset();
  EXPECT_EQ(LifeCounter::live, 0);

  SmallFn c;
  c.emplace(BigTracked{});
  SmallFn d;
  d = std::move(c);
  EXPECT_FALSE(static_cast<bool>(c));
  d();
  EXPECT_EQ(LifeCounter::invoked, 2);
}

TEST_F(SmallFnLifetime, OversizedEventRoundTripsThroughQueue) {
  // A >48 B capture scheduled through the queue runs and is destroyed
  // exactly once by the pop path's invoke_consume.
  EventQueue q;
  q.push(10, BigTracked{});
  EXPECT_EQ(LifeCounter::live, 1);
  EventQueue::EventNode* node = q.pop();
  ASSERT_NE(node, nullptr);
  node->fn.invoke_consume();
  q.recycle(node);
  EXPECT_EQ(LifeCounter::invoked, 1);
  EXPECT_EQ(LifeCounter::live, 0);
}

// ---------------------------------------------------------------------------
// run_until must not reset the step-hook cadence (watchdog sampling).

TEST(SimulatorHook, StepHookCadenceSurvivesRunUntilBoundaries) {
  const auto schedule = [](Simulator& sim) {
    for (int i = 1; i <= 10; ++i) sim.at(i, [] {});
  };

  Simulator whole;
  schedule(whole);
  std::vector<std::size_t> whole_samples;
  whole.set_step_hook(
      [&](Picos, std::size_t executed) { whole_samples.push_back(executed); },
      4);
  whole.run();

  Simulator chunked;
  schedule(chunked);
  std::vector<std::size_t> chunked_samples;
  chunked.set_step_hook(
      [&](Picos, std::size_t executed) { chunked_samples.push_back(executed); },
      4);
  // Chunk boundaries deliberately misaligned with the every-4 cadence: a
  // counter reset at the boundary would sample at {4, 7} instead.
  chunked.run_until(3);
  chunked.run_until(5);
  chunked.run_until(10);

  EXPECT_EQ(whole_samples, (std::vector<std::size_t>{4, 8}));
  EXPECT_EQ(chunked_samples, whole_samples);
}

}  // namespace
}  // namespace pcieb::sim
