// Unit tests for the discrete-event simulation engine.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <functional>
#include <limits>
#include <memory>
#include <new>
#include <random>
#include <stdexcept>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

// Counting allocator: every global operator-new in this binary bumps a
// counter, so tests can assert that steady-state engine paths allocate
// nothing.  Each test file links into its own executable, so the
// replacement affects only sim_test.
namespace {
std::atomic<std::uint64_t> g_alloc_count{0};
}  // namespace

// gcc pairs the malloc inside the replaced operator new with free calls at
// delete sites and warns; the pairing is exactly what we intend.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
[[gnu::noinline]] void* operator new(std::size_t n) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc{};
}
[[gnu::noinline]] void* operator new[](std::size_t n) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc{};
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
#pragma GCC diagnostic pop

#include "sim/channel.hpp"
#include "sim/event_queue.hpp"
#include "sim/join.hpp"
#include "sim/kv.hpp"
#include "sim/random.hpp"
#include "sim/resource.hpp"
#include "sim/stats.hpp"
#include "sim/sync.hpp"
#include "sim/task.hpp"
#include "sim/time.hpp"

namespace raidx::sim {
namespace {

TEST(ForEachKv, SplitsInOrderSkipsEmptyItemsAndHandsBackItemsWithoutEquals) {
  std::vector<std::string> seen;
  sim::for_each_kv(
      ",a=1,,b=,c,d=x=y,",
      [&](const std::string& k, const std::string& v) {
        seen.push_back(k + ":" + v);
      },
      [&](const std::string& item) { seen.push_back("bad " + item); });
  EXPECT_EQ(seen, (std::vector<std::string>{"a:1", "b:", "bad c", "d:x=y"}));
}

TEST(Time, Conversions) {
  EXPECT_EQ(seconds(1.0), 1'000'000'000);
  EXPECT_EQ(milliseconds(1.5), 1'500'000);
  EXPECT_EQ(microseconds(2.0), 2'000);
  EXPECT_DOUBLE_EQ(to_seconds(seconds(3.25)), 3.25);
}

TEST(Time, TransferTime) {
  // 1 MB at 10 MB/s = 0.1 s.
  EXPECT_EQ(transfer_time(1'000'000, 10.0), seconds(0.1));
  EXPECT_DOUBLE_EQ(bandwidth_mbs(1'000'000, seconds(0.1)), 10.0);
  EXPECT_DOUBLE_EQ(bandwidth_mbs(123, 0), 0.0);
}

Task<> simple_delayer(Simulation& sim, Time d, int* out) {
  co_await sim.delay(d);
  *out = 42;
}

TEST(Simulation, DelayAdvancesClock) {
  Simulation sim;
  int result = 0;
  sim.spawn(simple_delayer(sim, milliseconds(5), &result));
  sim.run();
  EXPECT_EQ(result, 42);
  EXPECT_EQ(sim.now(), milliseconds(5));
}

TEST(Simulation, CallbacksFireInTimeOrder) {
  Simulation sim;
  std::vector<int> order;
  sim.schedule(milliseconds(3), [&] { order.push_back(3); });
  sim.schedule(milliseconds(1), [&] { order.push_back(1); });
  sim.schedule(milliseconds(2), [&] { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Simulation, EqualTimestampsFireInInsertionOrder) {
  Simulation sim;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sim.schedule(milliseconds(1), [&order, i] { order.push_back(i); });
  }
  sim.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(Simulation, RunUntilStopsAtDeadline) {
  Simulation sim;
  int fired = 0;
  sim.schedule(milliseconds(1), [&] { ++fired; });
  sim.schedule(milliseconds(10), [&] { ++fired; });
  EXPECT_FALSE(sim.run_until(milliseconds(5)));
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.now(), milliseconds(5));
  EXPECT_TRUE(sim.run_until(milliseconds(100)));
  EXPECT_EQ(fired, 2);
}

Task<int> answer() { co_return 7; }

Task<> chain(int* out) {
  int v = co_await answer();
  *out = v * 6;
}

TEST(Task, ValueTasksCompose) {
  Simulation sim;
  int result = 0;
  sim.spawn(chain(&result));
  sim.run();
  EXPECT_EQ(result, 42);
}

Task<> thrower() {
  throw std::runtime_error("boom");
  co_return;
}

Task<> catcher(bool* caught) {
  try {
    co_await thrower();
  } catch (const std::runtime_error&) {
    *caught = true;
  }
}

TEST(Task, ExceptionsPropagateAcrossAwait) {
  Simulation sim;
  bool caught = false;
  sim.spawn(catcher(&caught));
  sim.run();
  EXPECT_TRUE(caught);
}

TEST(Task, TopLevelExceptionSurfacesFromRun) {
  Simulation sim;
  sim.spawn(thrower());
  EXPECT_THROW(sim.run(), std::runtime_error);
}

Task<> hold_resource(Simulation& sim, Resource& r, Time hold,
                     std::vector<int>* order, int id) {
  auto guard = co_await r.acquire();
  order->push_back(id);
  co_await sim.delay(hold);
}

TEST(Resource, SerializesAtCapacityOne) {
  Simulation sim;
  Resource r(sim, 1);
  std::vector<int> order;
  for (int i = 0; i < 4; ++i) {
    sim.spawn(hold_resource(sim, r, milliseconds(2), &order, i));
  }
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
  // 4 holders x 2 ms, serialized.
  EXPECT_EQ(sim.now(), milliseconds(8));
}

TEST(Resource, CapacityTwoOverlaps) {
  Simulation sim;
  Resource r(sim, 2);
  std::vector<int> order;
  for (int i = 0; i < 4; ++i) {
    sim.spawn(hold_resource(sim, r, milliseconds(2), &order, i));
  }
  sim.run();
  EXPECT_EQ(sim.now(), milliseconds(4));
}

Task<> hold_with_priority(Simulation& sim, Resource& r, int prio,
                          std::vector<int>* order, int id) {
  auto guard = co_await r.acquire(prio);
  order->push_back(id);
  co_await sim.delay(milliseconds(1));
}

Task<> priority_scenario(Simulation& sim, Resource& r,
                         std::vector<int>* order) {
  // Occupy the resource, then queue a background and a foreground waiter;
  // the foreground waiter must be served first despite arriving second.
  auto guard = co_await r.acquire();
  sim.spawn(hold_with_priority(sim, r, 1, order, 100));  // background
  co_await sim.delay(milliseconds(1));
  sim.spawn(hold_with_priority(sim, r, 0, order, 200));  // foreground
  co_await sim.delay(milliseconds(1));
}

TEST(Resource, ForegroundOvertakesBackground) {
  Simulation sim;
  Resource r(sim, 1, /*priority_levels=*/2);
  std::vector<int> order;
  sim.spawn(priority_scenario(sim, r, &order));
  sim.run();
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0], 200);
  EXPECT_EQ(order[1], 100);
}

TEST(Resource, BusyTimeTracksUtilization) {
  Simulation sim;
  Resource r(sim, 1);
  std::vector<int> order;
  sim.spawn(hold_resource(sim, r, milliseconds(3), &order, 0));
  sim.run();
  EXPECT_EQ(r.busy_time(), milliseconds(3));
}

// One contender for a shared Resource: arrives at `arrive`, takes a slot at
// class `prio`, holds it for `hold`.
struct Contender {
  Time arrive;
  int prio;
  Time hold;
};
using GrantLog = std::vector<std::tuple<int, char, Time>>;  // id, g/r, when

Task<> coroutine_contender(Simulation& sim, Resource& r, int id, Contender c,
                           GrantLog* log) {
  co_await sim.delay(c.arrive);
  auto guard = co_await r.acquire(c.prio);
  log->emplace_back(id, 'g', sim.now());
  co_await sim.delay(c.hold);
  log->emplace_back(id, 'r', sim.now());
}

// The same contender as a frameless state machine: a callback waiter that
// holds through Simulation::delay_inline, as the frameless awaitables do.
struct CallbackContender : Resource::Waiter {
  Simulation* sim;
  Resource* r;
  int id;
  Contender c;
  GrantLog* log;

  void start() {
    if (r->try_acquire()) {
      hold();
      return;
    }
    granted = [](Resource::Waiter& w) {
      static_cast<CallbackContender&>(w).hold();
    };
    r->enqueue(c.prio, this);
  }
  void hold() {
    log->emplace_back(id, 'g', sim->now());
    if (sim->delay_inline(c.hold)) {
      finish();
    } else {
      sim->schedule(c.hold, [this] { finish(); });
    }
  }
  void finish() {
    log->emplace_back(id, 'r', sim->now());
    r->release();
  }
};

Task<> start_callback_contender(Simulation& sim, CallbackContender* m) {
  co_await sim.delay(m->c.arrive);
  m->start();
}

TEST(Resource, CallbackWaitersKeepCoroutineOrderAndInstants) {
  // Two classes, simultaneous arrivals, a queue several deep, and a late
  // arrival that finds the resource idle.
  const std::vector<Contender> contenders = {
      {0, 1, 4}, {0, 0, 3}, {1, 1, 2}, {1, 0, 2}, {1, 1, 1},
      {2, 0, 5}, {6, 1, 1}, {6, 0, 2}, {40, 1, 3}, {40, 0, 1}};
  auto run = [&](bool mixed, std::uint64_t* events) {
    Simulation sim;
    Resource r(sim, 1, 2);
    GrantLog log;
    std::vector<std::unique_ptr<CallbackContender>> machines;
    for (int id = 0; id < static_cast<int>(contenders.size()); ++id) {
      const Contender& c = contenders[static_cast<std::size_t>(id)];
      if (mixed && id % 2 == 1) {
        machines.push_back(std::make_unique<CallbackContender>());
        CallbackContender& m = *machines.back();
        m.sim = &sim;
        m.r = &r;
        m.id = id;
        m.c = c;
        m.log = &log;
        sim.spawn(start_callback_contender(sim, &m));
      } else {
        sim.spawn(coroutine_contender(sim, r, id, c, &log));
      }
    }
    sim.run();
    EXPECT_EQ(r.in_use(), 0);
    *events = sim.events_processed();
    return log;
  };
  std::uint64_t reference_events = 0;
  std::uint64_t mixed_events = 0;
  const GrantLog reference = run(false, &reference_events);
  const GrantLog mixed = run(true, &mixed_events);
  ASSERT_EQ(reference.size(), 2 * contenders.size());
  EXPECT_EQ(mixed, reference);
  EXPECT_EQ(mixed_events, reference_events);
  // Class 0 overtakes the queued class-1 contenders at the first release.
  EXPECT_EQ(reference[1], std::make_tuple(0, 'r', Time{4}));
  EXPECT_EQ(reference[2], std::make_tuple(1, 'g', Time{4}));
}

Task<> hold_for(Simulation& sim, Resource& r, Time t) {
  auto guard = co_await r.acquire();
  co_await sim.delay(t);
}

TEST(Resource, ParkedCallbackWaiterNeverFiresAfterShutdown) {
  Simulation sim;
  Resource r(sim, 1);
  sim.spawn(hold_for(sim, r, milliseconds(1)));
  ASSERT_FALSE(sim.run_until(10));
  struct Probe : Resource::Waiter {
    std::vector<int> payload = std::vector<int>(64, 7);  // LSan witness
    bool fired = false;
  };
  auto probe = std::make_unique<Probe>();
  probe->granted = [](Resource::Waiter& w) {
    static_cast<Probe&>(w).fired = true;
  };
  ASSERT_FALSE(r.try_acquire());
  r.enqueue(0, probe.get());
  EXPECT_EQ(r.queued(), 1u);
  // The holder's frame dies here and releases into a dying world: the
  // slot goes back to the pool instead of to the parked callback.
  sim.shutdown();
  EXPECT_FALSE(probe->fired);
  EXPECT_EQ(sim.pending_events(), 0u);
  EXPECT_TRUE(sim.run_until(milliseconds(5)));
  EXPECT_FALSE(probe->fired);
}

Task<> oneshot_waiter(Oneshot<int>& os, int* got) { *got = co_await os.wait(); }

Task<> oneshot_setter(Simulation& sim, Oneshot<int>& os) {
  co_await sim.delay(milliseconds(2));
  os.set(99);
}

TEST(Oneshot, DeliversValue) {
  Simulation sim;
  Oneshot<int> os(sim);
  int got = 0;
  sim.spawn(oneshot_waiter(os, &got));
  sim.spawn(oneshot_setter(sim, os));
  sim.run();
  EXPECT_EQ(got, 99);
  EXPECT_EQ(sim.now(), milliseconds(2));
}

Task<> barrier_party(Simulation& sim, Barrier& b, Time arrive_at,
                     std::vector<Time>* release_times) {
  co_await sim.delay(arrive_at);
  co_await b.arrive_and_wait();
  release_times->push_back(sim.now());
}

TEST(Barrier, ReleasesAllAtLastArrival) {
  Simulation sim;
  Barrier b(sim, 3);
  std::vector<Time> releases;
  sim.spawn(barrier_party(sim, b, milliseconds(1), &releases));
  sim.spawn(barrier_party(sim, b, milliseconds(5), &releases));
  sim.spawn(barrier_party(sim, b, milliseconds(3), &releases));
  sim.run();
  ASSERT_EQ(releases.size(), 3u);
  for (Time t : releases) EXPECT_EQ(t, milliseconds(5));
}

TEST(Barrier, IsReusableAcrossGenerations) {
  Simulation sim;
  Barrier b(sim, 2);
  std::vector<Time> releases;
  // Generation 1.
  sim.spawn(barrier_party(sim, b, milliseconds(1), &releases));
  sim.spawn(barrier_party(sim, b, milliseconds(2), &releases));
  sim.run();
  // Generation 2.
  sim.spawn(barrier_party(sim, b, milliseconds(1), &releases));
  sim.spawn(barrier_party(sim, b, milliseconds(4), &releases));
  sim.run();
  ASSERT_EQ(releases.size(), 4u);
  EXPECT_EQ(releases[2], milliseconds(2) + milliseconds(4));
}

Task<> joiner_child(Simulation& sim, Time d, int* count) {
  co_await sim.delay(d);
  ++*count;
}

Task<> joiner_parent(Simulation& sim, int* count, Time* done_at) {
  Joiner join(sim);
  join.spawn(joiner_child(sim, milliseconds(1), count));
  join.spawn(joiner_child(sim, milliseconds(7), count));
  join.spawn(joiner_child(sim, milliseconds(3), count));
  co_await join.wait();
  *done_at = sim.now();
}

TEST(Joiner, WaitsForSlowestChild) {
  Simulation sim;
  int count = 0;
  Time done_at = 0;
  sim.spawn(joiner_parent(sim, &count, &done_at));
  sim.run();
  EXPECT_EQ(count, 3);
  EXPECT_EQ(done_at, milliseconds(7));
}

Task<> failing_child() {
  throw std::logic_error("child failed");
  co_return;
}

Task<> joiner_child_noop(Simulation& sim, Time d) { co_await sim.delay(d); }

Task<> joiner_failure_parent(Simulation& sim, bool* caught) {
  Joiner join(sim);
  join.spawn(failing_child());
  join.spawn(joiner_child_noop(sim, milliseconds(2)));
  try {
    co_await join.wait();
  } catch (const std::logic_error&) {
    *caught = true;
  }
}

TEST(Joiner, PropagatesChildException) {
  Simulation sim;
  bool caught = false;
  sim.spawn(joiner_failure_parent(sim, &caught));
  sim.run();
  EXPECT_TRUE(caught);
}

TEST(LatencyRecorder, SummarizesSamples) {
  LatencyRecorder rec;
  for (int i = 1; i <= 100; ++i) rec.add(milliseconds(i));
  EXPECT_EQ(rec.count(), 100u);
  EXPECT_EQ(rec.min(), milliseconds(1));
  EXPECT_EQ(rec.max(), milliseconds(100));
  EXPECT_DOUBLE_EQ(rec.mean(), static_cast<double>(milliseconds(50.5)));
  // Nearest-rank: index round(0.5 * 99) = 50 -> the 51 ms sample.
  EXPECT_EQ(rec.percentile(0.5), milliseconds(51));
  EXPECT_EQ(rec.percentile(1.0), milliseconds(100));
}

TEST(Throughput, AggregatesOverSpan) {
  Throughput t;
  t.record(seconds(0.0), seconds(1.0), 5'000'000);
  t.record(seconds(0.5), seconds(2.0), 5'000'000);
  EXPECT_EQ(t.bytes(), 10'000'000u);
  EXPECT_EQ(t.operations(), 2u);
  // 10 MB over [0, 2] s = 5 MB/s.
  EXPECT_DOUBLE_EQ(t.mb_per_s(), 5.0);
}

TEST(Rng, IsDeterministicPerSeed) {
  Rng a(12345), b(12345);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.uniform(0, 1'000'000), b.uniform(0, 1'000'000));
  }
}

TEST(Rng, ForkDiverges) {
  Rng a(1);
  Rng c = a.fork();
  bool any_diff = false;
  Rng b(1);
  Rng d = b.fork();
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(c.uniform(0, 1000), d.uniform(0, 1000));  // forks deterministic
  }
  Rng e(2);
  Rng f = e.fork();
  Rng g(1);
  Rng h = g.fork();
  for (int i = 0; i < 10; ++i) {
    if (f.uniform(0, 1'000'000) != h.uniform(0, 1'000'000)) any_diff = true;
  }
  EXPECT_TRUE(any_diff);
}

TEST(JsonWriter, EscapesStringsPerRfc8259) {
  JsonWriter w;
  w.add("quote", "a\"b");
  w.add("backslash", "a\\b");
  w.add("controls", std::string("\b\f\n\r\t"));
  w.add("low", std::string("\x01\x1f"));
  const std::string out = w.str();
  EXPECT_NE(out.find("\"a\\\"b\""), std::string::npos);
  EXPECT_NE(out.find("\"a\\\\b\""), std::string::npos);
  EXPECT_NE(out.find("\\b\\f\\n\\r\\t"), std::string::npos);
  EXPECT_NE(out.find("\\u0001\\u001f"), std::string::npos);
  // No raw control bytes survive into the rendered JSON.
  for (char c : out) {
    EXPECT_GE(static_cast<unsigned char>(c), 0x20);
  }
}

TEST(JsonWriter, NonFiniteDoublesRenderAsNull) {
  JsonWriter w;
  w.add("nan", std::nan(""));
  w.add("inf", std::numeric_limits<double>::infinity());
  w.add("ninf", -std::numeric_limits<double>::infinity());
  w.add("ok", 1.5);
  const std::string out = w.str();
  EXPECT_NE(out.find("\"nan\": null"), std::string::npos);
  EXPECT_NE(out.find("\"inf\": null"), std::string::npos);
  EXPECT_NE(out.find("\"ninf\": null"), std::string::npos);
  // The bare tokens `nan`/`inf` (unquoted, non-null) never appear.
  EXPECT_EQ(out.find(": nan"), std::string::npos);
  EXPECT_EQ(out.find(": inf"), std::string::npos);
  EXPECT_EQ(out.find(": -"), std::string::npos);
}

TEST(JsonWriter, AddRawEmbedsVerbatim) {
  JsonWriter w;
  w.add("n", 1);
  w.add_raw("nested", "{\"a\":[1,2]}");
  EXPECT_EQ(w.str(), "{\"n\": 1, \"nested\": {\"a\":[1,2]}}");
}

Task<int> value_of(int v) { co_return v; }
Task<> no_op() { co_return; }

TEST(Task, ReleaseTransfersOwnershipOfValueTask) {
  Task<int> t = value_of(7);
  Task<int>::Handle h = t.release();
  ASSERT_TRUE(h);
  EXPECT_FALSE(t.valid());
  // A second release yields null: ownership moved out exactly once.
  EXPECT_FALSE(t.release());
  h.resume();  // lazy start; runs to completion, parks at final_suspend
  EXPECT_TRUE(h.done());
  EXPECT_EQ(h.promise().value, 7);
  h.destroy();
}

Task<> await_empty_tasks(int* out) {
  Task<int> a = value_of(5);
  Task<int> b = std::move(a);  // a is now empty
  const int from_empty = co_await std::move(a);
  const int from_real = co_await std::move(b);
  Task<> v = no_op();
  Task<> w = std::move(v);  // v is now empty
  co_await std::move(v);
  co_await std::move(w);
  *out = from_empty * 100 + from_real;
}

TEST(Task, AwaitingMovedFromTaskIsSafe) {
  // Null-handle guards: awaiting an empty Task<T> yields T{} instead of
  // dereferencing a dead handle; an empty Task<void> await is a no-op.
  Simulation sim;
  int out = -1;
  sim.spawn(await_empty_tasks(&out));
  sim.run();
  EXPECT_EQ(out, 5);
}

Task<> one_hop(Simulation& sim, Time d, std::vector<int>* order, int id) {
  co_await sim.delay(d);
  order->push_back(id);
}

Task<> collide_driver(Simulation& sim, Time d, std::vector<int>* order) {
  co_await sim.delay(100);  // move off t=0 so spawn-start events are behind us
  // All four events land on the same future timestamp now()+d.  Enqueue
  // order: callback 1, the child's start event, callback 2, our own resume;
  // the child's delay is enqueued only once its start event dispatches
  // (still at the current instant, after we suspend), so its resume carries
  // the largest sequence number and fires last.
  sim.schedule(d, [order] { order->push_back(1); });
  sim.spawn(one_hop(sim, d, order, 3));
  sim.schedule(d, [order] { order->push_back(2); });
  co_await sim.delay(d);
  order->push_back(4);
}

TEST(Simulation, CollidingCallbacksAndResumesFireInEnqueueOrder) {
  // Equal-timestamp ordering must hold at every wheel distance: same
  // level-0 slot, the first two cascade boundaries, a mid-wheel level, and
  // past the 2^48 ns horizon where events detour through the overflow heap.
  const Time deltas[] = {1, 64, 4096, Time{1} << 30,
                         (Time{1} << 48) + 12345};
  for (Time d : deltas) {
    Simulation sim;
    std::vector<int> order;
    sim.spawn(collide_driver(sim, d, &order));
    sim.run();
    ASSERT_EQ(order.size(), 4u) << "delta " << d;
    EXPECT_EQ(order, (std::vector<int>{1, 2, 4, 3})) << "delta " << d;
  }
}

// Randomized scheduler stress: a self-expanding cascade of callbacks whose
// delays are drawn (deterministically per event id) from a mix that hits
// same-instant appends, wheel-cascade boundaries, every wheel level, and the
// far-future overflow horizon.  The exact firing sequence is checked against
// a naive sorted-vector oracle that pops the minimum (at, seq) pair.
Time stress_delay(int id) {
  std::mt19937_64 r(0x9E3779B97F4A7C15ull ^
                    (static_cast<std::uint64_t>(id) * 0xBF58476D1CE4E5B9ull));
  auto pick = [&](std::uint64_t lo, std::uint64_t hi) {
    return lo + r() % (hi - lo + 1);
  };
  switch (r() % 5) {
    case 0:  // heavy collisions, including zero-delay same-instant appends
      return static_cast<Time>(r() % 4);
    case 1: {  // one off either side of a level-0 bitmap word edge (64)
               // or a wheel level edge (4096, 2^18, 2^24, 2^30)
      static constexpr std::uint64_t kBoundary[] = {64, 4096, 262144,
                                                    16777216, 1073741824};
      return static_cast<Time>(kBoundary[r() % 5] +
                               static_cast<std::int64_t>(r() % 3) - 1);
    }
    case 2:  // short delays, lower wheel levels
      return static_cast<Time>(pick(1, 1'000'000));
    case 3:  // long delays, upper wheel levels
      return static_cast<Time>(pick(1, std::uint64_t{1} << 40));
    default:  // beyond the 2^48 prefix window: overflow heap + migration
      return static_cast<Time>((std::uint64_t{1} << 48) +
                               pick(0, std::uint64_t{1} << 49));
  }
}

TEST(Simulation, RandomizedScheduleMatchesSortedVectorOracle) {
  constexpr int kSeeds = 48;
  constexpr int kTotal = 1500;

  // Real engine: every fired event schedules up to two children until the
  // id budget runs out.
  struct Harness {
    Simulation sim;
    std::vector<int> fired;
    int next_id = 0;
    void fire(int id) {
      fired.push_back(id);
      for (int c = 0; c < 2 && next_id < kTotal; ++c) {
        const int cid = next_id++;
        sim.schedule(stress_delay(cid), [this, cid] { fire(cid); });
      }
    }
  };
  Harness h;
  for (int i = 0; i < kSeeds; ++i) {
    const int id = h.next_id++;
    h.sim.schedule(stress_delay(id), [&h, id] { h.fire(id); });
  }
  h.sim.run();

  // Oracle: unordered vector popped by minimum (at, seq); ties on `at`
  // resolve to the earliest-enqueued event, exactly the engine's contract.
  struct Entry {
    Time at;
    std::uint64_t seq;
    int id;
  };
  std::vector<Entry> queue;
  std::vector<int> expected;
  std::uint64_t next_seq = 0;
  Time now = 0;
  int next_id = 0;
  for (int i = 0; i < kSeeds; ++i) {
    const int id = next_id++;
    queue.push_back({now + stress_delay(id), next_seq++, id});
  }
  while (!queue.empty()) {
    std::size_t best = 0;
    for (std::size_t i = 1; i < queue.size(); ++i) {
      if (queue[i].at < queue[best].at ||
          (queue[i].at == queue[best].at && queue[i].seq < queue[best].seq)) {
        best = i;
      }
    }
    const Entry e = queue[best];
    queue.erase(queue.begin() + static_cast<std::ptrdiff_t>(best));
    now = e.at;
    expected.push_back(e.id);
    for (int c = 0; c < 2 && next_id < kTotal; ++c) {
      const int cid = next_id++;
      queue.push_back({now + stress_delay(cid), next_seq++, cid});
    }
  }

  ASSERT_EQ(h.fired.size(), static_cast<std::size_t>(kTotal));
  EXPECT_EQ(h.fired, expected);
  // The delay mix must actually have exercised the interesting machinery.
  EXPECT_GT(h.sim.queue_stats().overflow_inserts, 0u);
  EXPECT_GT(h.sim.queue_stats().cascaded_events, 0u);
}

// Level 0 spans 4096 one-nanosecond slots tracked by 64 bitmap words and a
// summary word.  Equal timestamps must keep insertion order on both sides
// of a word edge (63/64/65) and of the level-0/level-1 edge (4095/4096/
// 4097), including events that reach the same instant from different
// levels: some are scheduled from the window start (the 4096+ ones land on
// level 1 and cascade), others mid-window by callbacks.
TEST(Simulation, EqualTimestampsKeepOrderAtLevel0WordEdges) {
  constexpr Time kWindow = 4096;
  const Time offsets[] = {4097, 63, 4096, 65, 64, 4095};
  Simulation sim;
  sim.schedule(3 * kWindow, [] {});
  sim.run();
  ASSERT_EQ(sim.now(), 3 * kWindow);
  const Time base = sim.now();

  // (offset, id) in firing order; ids are handed out in schedule order, so
  // a correct engine fires them sorted lexicographically.
  std::vector<std::pair<Time, int>> fired;
  int next_id = 0;
  std::function<void(Time)> add = [&](Time at) {
    const int id = next_id++;
    sim.schedule(base + at - sim.now(), [&, id] {
      fired.emplace_back(sim.now() - base, id);
      // The first arrival at each edge slot schedules a late twin for the
      // next edge instant from inside the window.
      if (id < 6 && sim.now() - base != 4097) add(sim.now() - base + 1);
    });
  };
  for (int rep = 0; rep < 3; ++rep) {
    for (Time o : offsets) add(o);
  }
  sim.run();
  ASSERT_EQ(fired.size(), 18u + 5u);
  EXPECT_TRUE(std::is_sorted(fired.begin(), fired.end()));
  EXPECT_GT(sim.queue_stats().cascaded_events, 0u);
}

// The level-0 scan must find the next occupied slot through the summary
// word when the clock's own bitmap word is empty above it, skipping every
// empty word in between, and a bounded probe must stop short of it.
TEST(Simulation, Level0ScanSkipsEmptyBitmapWords) {
  Simulation sim;
  sim.schedule(2 * 4096 + 70, [] {});  // clock to slot 70 (word 1)
  sim.run();
  const Time base = sim.now();
  std::vector<Time> fired;
  // Slots 4095 (word 63), 73 (word 1), 4000 (word 62), 71 (word 1).
  for (Time o : {Time{4025}, Time{3}, Time{3930}, Time{1}}) {
    sim.schedule(o, [&] { fired.push_back(sim.now() - base); });
  }
  EXPECT_EQ(sim.next_event_time(), base + 1);
  ASSERT_FALSE(sim.run_until(base + 3));
  EXPECT_EQ(fired, (std::vector<Time>{1, 3}));
  // Words 2..61 are empty: a probe below slot 4000 sees nothing and leaves
  // the clock where it was, an unbounded one finds word 62.
  EXPECT_EQ(sim.next_event_time(base + 3929), Simulation::kNoEvent);
  EXPECT_EQ(sim.now(), base + 3);
  EXPECT_EQ(sim.next_event_time(), base + 3930);
  sim.run();
  EXPECT_EQ(fired, (std::vector<Time>{1, 3, 3930, 4025}));
}

// run_until() drags the clock to its deadline with events still pending,
// here across a 4096 ns window boundary; later inserts at the pending
// events' instants must still fire after them, and an insert at the new
// clock instant must fire first.
TEST(Simulation, RunUntilJumpAcrossWindowKeepsSameInstantOrder) {
  Simulation sim;
  std::vector<char> order;
  sim.schedule(10000, [&] { order.push_back('A'); });
  sim.schedule(9000, [&] { order.push_back('B'); });
  ASSERT_FALSE(sim.run_until(5000));
  EXPECT_EQ(sim.now(), 5000);
  sim.schedule(5000, [&] { order.push_back('C'); });  // at 10000, after A
  sim.schedule(4000, [&] { order.push_back('D'); });  // at 9000, after B
  sim.schedule(0, [&] { order.push_back('E'); });     // at 5000
  ASSERT_FALSE(sim.run_until(9500));
  EXPECT_EQ(sim.now(), 9500);
  sim.schedule(500, [&] { order.push_back('F'); });  // at 10000, after C
  sim.run();
  EXPECT_EQ(order, (std::vector<char>{'E', 'B', 'D', 'A', 'C', 'F'}));
}

// A callback that throws escapes run(); the events it shared an instant
// with stay queued and fire on the next run(), in order.
TEST(Simulation, ThrowMidDrainLeavesRestOfInstantDispatchable) {
  Simulation sim;
  std::vector<int> order;
  sim.schedule(100, [&] { order.push_back(1); });
  sim.schedule(100, [] { throw std::runtime_error("boom"); });
  sim.schedule(100, [&] { order.push_back(3); });
  sim.schedule(100, [&] { order.push_back(4); });
  sim.schedule(200, [&] { order.push_back(5); });
  EXPECT_THROW(sim.run(), std::runtime_error);
  EXPECT_EQ(order, (std::vector<int>{1}));
  EXPECT_EQ(sim.pending_events(), 3u);
  sim.schedule(0, [&] { order.push_back(6); });  // same instant, after 4
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 3, 4, 6, 5}));
}

// Heap-stored callbacks still queued when the simulation dies -- in level
// 0, in an upper level, in the overflow heap, and in slab nodes recycled
// after a drain -- are destroyed with it, captures and all.
TEST(Simulation, DestructionFreesPendingHeapCallbacks) {
  auto token = std::make_shared<int>(0);
  {
    Simulation sim;
    // shared_ptr captures are not trivially copyable: kHeap events.
    for (Time d : {Time{5}, Time{10}, Time{100}, Time{1} << 30,
                   (Time{1} << 48) + 7}) {
      sim.schedule(d, [token] { ++*token; });
    }
    ASSERT_FALSE(sim.run_until(50));
    EXPECT_EQ(*token, 2);
    sim.schedule(1, [token] { ++*token; });  // reuses a freed node
    EXPECT_EQ(sim.queue_stats().heap_callbacks, 6u);
    EXPECT_EQ(token.use_count(), 5);
  }
  EXPECT_EQ(token.use_count(), 1);
  EXPECT_EQ(*token, 2);
}

// Teardown of suspended process trees: a parent owning a window Resource
// spawns children that acquire it (one holds the slot, one waits).  The
// children must die before the parent, or the holder's guard releases into
// the parent's freed window; and the release must not hand the slot to the
// waiter, whose frame is already gone.  Witness makes every frame here
// larger than the frame pool's biggest class, so frames live on the heap
// and ASan sees either use after free.
struct Witness {
  std::vector<std::string>* log;
  const char* name;
  std::array<std::byte, 2 * FramePool::kMaxPooled> pad{};
  ~Witness() { log->push_back(name); }
};

Task<> windowed_child(Simulation& sim, Resource& window,
                      std::vector<std::string>* log, const char* name) {
  Witness w{log, name};
  auto slot = co_await window.acquire();
  co_await sim.delay(1'000'000);
}

Task<> window_parent(Simulation& sim, std::vector<std::string>* log) {
  Witness w{log, "parent"};
  Resource window(sim, 1);
  sim.spawn(windowed_child(sim, window, log, "holder"));
  sim.spawn(windowed_child(sim, window, log, "waiter"));
  co_await sim.delay(2'000'000);
}

TEST(Simulation, TeardownDestroysChildrenBeforeParents) {
  std::vector<std::string> log;
  {
    Simulation sim;
    sim.spawn(window_parent(sim, &log));
    ASSERT_FALSE(sim.run_until(10));
    EXPECT_EQ(sim.pending_events(), 2u);  // parent and holder delays
    EXPECT_TRUE(log.empty());
  }
  EXPECT_EQ(log, (std::vector<std::string>{"waiter", "holder", "parent"}));

  // shutdown() does the same for an owner that must tear down before its
  // world objects die, and leaves an empty simulation behind.
  log.clear();
  Simulation sim;
  sim.spawn(window_parent(sim, &log));
  ASSERT_FALSE(sim.run_until(10));
  sim.shutdown();
  EXPECT_EQ(log, (std::vector<std::string>{"waiter", "holder", "parent"}));
  EXPECT_EQ(sim.pending_events(), 0u);
  EXPECT_EQ(sim.foreground_pending(), 0u);
  EXPECT_TRUE(sim.run_until(100));
}

Task<> steady_hopper(Simulation& sim, int hops) {
  for (int i = 0; i < hops; ++i) co_await sim.delay(1);
}

Task<> steady_contender(Simulation& sim, Resource& r, int rounds) {
  for (int i = 0; i < rounds; ++i) {
    auto g = co_await r.acquire();
    co_await sim.delay(1);
  }
}

struct Rescheduler {
  Simulation* sim;
  int left;
  void operator()() const {
    if (left > 0) sim->schedule(1, Rescheduler{sim, left - 1});
  }
};

TEST(Simulation, SteadyStateSchedulingDoesNotAllocate) {
  Simulation sim;
  Resource res(sim, 1);
  // Two hoppers keep the queue non-empty, so every resume takes the full
  // schedule/dispatch path rather than the symmetric-transfer shortcut; the
  // rescheduling callback covers the inline-SBO schedule() path and the
  // contenders churn the intrusive resource wait list.
  sim.spawn(steady_hopper(sim, 14000));
  sim.spawn(steady_hopper(sim, 14000));
  sim.spawn(steady_contender(sim, res, 7000));
  sim.spawn(steady_contender(sim, res, 7000));
  sim.schedule(0, Rescheduler{&sim, 14000});
  // Warm up past a full level-1 rotation (4096 ns) so every wheel slot the
  // measured window can touch already has capacity, then measure a window
  // that stays clear of the next level-2 boundary at 3 * 4096 = 12288.
  ASSERT_FALSE(sim.run_until(9000));
  const std::uint64_t before = g_alloc_count.load(std::memory_order_relaxed);
  const auto pool_before = sim.frame_pool_stats();
  ASSERT_FALSE(sim.run_until(12200));
  const std::uint64_t after = g_alloc_count.load(std::memory_order_relaxed);
  const auto pool_after = sim.frame_pool_stats();
  EXPECT_EQ(after - before, 0u);
  // No coroutine frames were created or destroyed mid-flight either.
  EXPECT_EQ(pool_after.allocations, pool_before.allocations);
  EXPECT_EQ(pool_after.live, pool_before.live);
  sim.run();  // drain to completion outside the measured window
}

TEST(TablePrinter, FmtNormalizesNonFinite) {
  EXPECT_EQ(TablePrinter::fmt(std::nan("")), "nan");
  EXPECT_EQ(TablePrinter::fmt(-std::nan("")), "nan");
  EXPECT_EQ(TablePrinter::fmt(std::numeric_limits<double>::infinity()),
            "inf");
  EXPECT_EQ(TablePrinter::fmt(-std::numeric_limits<double>::infinity()),
            "-inf");
  EXPECT_EQ(TablePrinter::fmt(1.2345, 2), "1.23");
}

}  // namespace
}  // namespace raidx::sim
