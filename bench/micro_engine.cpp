// Google-benchmark micro benchmarks of the simulator substrate itself:
// event-queue throughput, coroutine scheduling, resource contention, and
// layout address arithmetic.  These bound how big a cluster experiment the
// harness can run per wall-clock second.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <cstdlib>
#include <functional>
#include <vector>

#include "block/sios.hpp"
#include "cdd/cdd.hpp"
#include "cluster/cluster.hpp"
#include "raid/raid0.hpp"
#include "raid/raid10.hpp"
#include "raid/raid5.hpp"
#include "raid/raidx.hpp"
#include "sim/event_queue.hpp"
#include "sim/random.hpp"
#include "sim/resource.hpp"
#include "sim/shard.hpp"
#include "sim/task.hpp"
#include "sim/time.hpp"

namespace {

using namespace raidx;

void BM_EventQueueScheduleDispatch(benchmark::State& state) {
  for (auto _ : state) {
    sim::Simulation sim;
    int sink = 0;
    for (int i = 0; i < 1024; ++i) {
      sim.schedule(i, [&sink] { ++sink; });
    }
    sim.run();
    benchmark::DoNotOptimize(sink);
  }
  state.SetItemsProcessed(state.iterations() * 1024);
}
BENCHMARK(BM_EventQueueScheduleDispatch);

sim::Task<> hop(sim::Simulation& sim, int hops) {
  for (int i = 0; i < hops; ++i) co_await sim.delay(1);
}

void BM_CoroutineDelayHops(benchmark::State& state) {
  for (auto _ : state) {
    sim::Simulation sim;
    sim.spawn(hop(sim, 1024));
    sim.run();
  }
  state.SetItemsProcessed(state.iterations() * 1024);
}
BENCHMARK(BM_CoroutineDelayHops);

sim::Task<> contender(sim::Simulation& sim, sim::Resource& r, int rounds) {
  for (int i = 0; i < rounds; ++i) {
    auto g = co_await r.acquire();
    co_await sim.delay(1);
  }
}

void BM_ResourceContention(benchmark::State& state) {
  for (auto _ : state) {
    sim::Simulation sim;
    sim::Resource r(sim, 1);
    for (int c = 0; c < 8; ++c) sim.spawn(contender(sim, r, 64));
    sim.run();
  }
  state.SetItemsProcessed(state.iterations() * 8 * 64);
}
BENCHMARK(BM_ResourceContention);

// Timers beyond the wheel's 2^48 ns prefix window detour through the
// overflow heap and migrate back in when the clock reaches their window.
void BM_FarFutureInsert(benchmark::State& state) {
  constexpr std::int64_t kHorizon = std::int64_t{1} << 48;
  for (auto _ : state) {
    sim::Simulation sim;
    int sink = 0;
    for (int i = 0; i < 1024; ++i) {
      sim.schedule(kHorizon + (std::int64_t{1} << (i % 20)),
                   [&sink] { ++sink; });
    }
    sim.run();
    benchmark::DoNotOptimize(sink);
  }
  state.SetItemsProcessed(state.iterations() * 1024);
}
BENCHMARK(BM_FarFutureInsert);

// Every event lands on one timestamp: a single level-0 slot absorbs the
// whole burst and must drain it in exact insertion order.
void BM_EqualTimestampBurst(benchmark::State& state) {
  for (auto _ : state) {
    sim::Simulation sim;
    int sink = 0;
    for (int i = 0; i < 1024; ++i) {
      sim.schedule(1000, [&sink] { ++sink; });
    }
    sim.run();
    benchmark::DoNotOptimize(sink);
  }
  state.SetItemsProcessed(state.iterations() * 1024);
}
BENCHMARK(BM_EqualTimestampBurst);

// Deep wait lists: 64 processes pile onto one resource, so every release
// pops a waiter and every acquire parks one (intrusive list churn).
void BM_WaiterChurn(benchmark::State& state) {
  for (auto _ : state) {
    sim::Simulation sim;
    sim::Resource r(sim, 1);
    for (int c = 0; c < 64; ++c) sim.spawn(contender(sim, r, 16));
    sim.run();
  }
  state.SetItemsProcessed(state.iterations() * 64 * 16);
}
BENCHMARK(BM_WaiterChurn);

// Microsecond-scale timers, the shape of the simulated I/O path: 256
// processes each hold one shared capacity-1 resource for 200 ns, then
// sleep 10-200 us.  The rows above keep every delay inside one level-0
// window; here every sleep lands on an upper wheel level and cascades
// before it fires, which is what the wheel's geometry trades against.
// Sleeps come from a table drawn once, so the frames stay small and the
// row prices the engine rather than a random-number generator.
sim::Task<> us_sleeper(sim::Simulation& sim, sim::Resource& r,
                       const std::vector<sim::Time>& sleeps, std::size_t at,
                       int rounds) {
  for (int i = 0; i < rounds; ++i) {
    {
      auto g = co_await r.acquire();
      co_await sim.delay(200);
    }
    co_await sim.delay(sleeps[(at + static_cast<std::size_t>(i)) %
                              sleeps.size()]);
  }
}

void BM_MicrosecondTimers(benchmark::State& state) {
  constexpr int kProcs = 256;
  constexpr int kRounds = 16;
  std::vector<sim::Time> sleeps(kProcs * kRounds);
  sim::Rng rng(42);
  for (sim::Time& t : sleeps) {
    t = sim::microseconds(static_cast<double>(rng.uniform_u64(10, 200)));
  }
  std::uint64_t cascaded = 0;
  std::uint64_t events = 0;
  for (auto _ : state) {
    sim::Simulation sim;
    sim::Resource r(sim, 1);
    for (int p = 0; p < kProcs; ++p) {
      sim.spawn(us_sleeper(sim, r, sleeps,
                           static_cast<std::size_t>(p) * kRounds, kRounds));
    }
    sim.run();
    cascaded += sim.queue_stats().cascaded_events;
    events += sim.events_processed();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(events));
  state.counters["cascades_per_event"] =
      static_cast<double>(cascaded) / static_cast<double>(events);
}
BENCHMARK(BM_MicrosecondTimers);

sim::Task<> shard_load(sim::Simulation& s, int events) {
  for (int i = 0; i < events; ++i) co_await s.delay(100);
}

// Windowed multi-shard dispatch: 4 shards x 1024 events at a 100 ns
// cadence under a 10 us lookahead (~100 events per shard per window), so
// the row prices window setup + census + parallel drain, not just the
// per-event dispatch the single-queue rows above already cover.  Arg is
// the worker count; Arg(1) isolates the synchronizer overhead itself.
void BM_ShardedDispatch(benchmark::State& state) {
  const int threads = static_cast<int>(state.range(0));
  for (auto _ : state) {
    sim::ShardGroup group(4, sim::microseconds(10));
    for (int s = 0; s < 4; ++s) {
      auto scope = group.frame_scope(s);
      group.sim(s).spawn(shard_load(group.sim(s), 1024));
    }
    group.run(threads);
  }
  state.SetItemsProcessed(state.iterations() * 4 * 1024);
}
BENCHMARK(BM_ShardedDispatch)->Arg(1)->Arg(2)->Arg(4);

// Cross-shard mailbox round trips: one message in flight ping-ponging
// between two shards, every hop paying a full window (census, barrier,
// mailbox merge, delivery).  This is the per-hop latency floor a remote
// I/O pays on top of the simulated network time.
void BM_CrossShardHop(benchmark::State& state) {
  constexpr int kHops = 1024;
  const sim::Time lookahead = sim::microseconds(1);
  for (auto _ : state) {
    sim::ShardGroup group(2, lookahead);
    int hops = 0;
    std::function<void(int)> bounce = [&](int self) {
      if (++hops >= kHops) return;
      const int peer = 1 - self;
      group.post(self, peer, group.sim(self).now() + lookahead,
                 [&bounce, peer] { bounce(peer); });
    };
    {
      auto scope = group.frame_scope(0);
      group.sim(0).schedule_at(0, [&bounce] { bounce(0); });
    }
    group.run(2);
    benchmark::DoNotOptimize(hops);
  }
  state.SetItemsProcessed(state.iterations() * kHops);
}
BENCHMARK(BM_CrossShardHop);

// The CDD lock-state broadcast, the O(N) host cost of every lock grant
// and release: on the paper's 16-node cluster a client on node 0 locks
// and unlocks group 0 (homed on node 0, so the RPCs stay local) over and
// over, and each grant and release goes out as 15 one-way sync messages
// with their TX, switch, RX and receive-CPU events.  The per_sync_msg
// counter is host time per sync message.
sim::Task<> lock_cycles(cdd::CddFabric& fabric, int cycles) {
  const std::vector<std::uint64_t> group = {0};
  for (int i = 0; i < cycles; ++i) {
    co_await fabric.lock_groups(0, group, 1);
    co_await fabric.unlock_groups(0, group, 1);
  }
}

void BM_LockSyncFanout(benchmark::State& state) {
  constexpr int kNodes = 16;
  constexpr int kCycles = 64;
  auto params = cluster::ClusterParams::trojans();
  params.geometry.nodes = kNodes;
  params.geometry.disks_per_node = 1;
  params.geometry.blocks_per_disk = 1024;
  params.disk.store_data = false;
  sim::Simulation sim;
  cluster::Cluster cluster(sim, params);
  cdd::CddFabric fabric(cluster);
  for (auto _ : state) {
    sim.spawn(lock_cycles(fabric, kCycles));
    sim.run();
    benchmark::DoNotOptimize(sim.events_processed());
  }
  const auto msgs = static_cast<double>(state.iterations()) * kCycles * 2 *
                    (kNodes - 1);
  state.SetItemsProcessed(static_cast<std::int64_t>(msgs));
  state.counters["per_sync_msg"] = benchmark::Counter(
      msgs, benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}
BENCHMARK(BM_LockSyncFanout);

block::ArrayGeometry bench_geo() {
  block::ArrayGeometry g;
  g.nodes = 16;
  g.disks_per_node = 1;
  g.blocks_per_disk = 327'680;
  return g;
}

void BM_Raid0Mapping(benchmark::State& state) {
  raid::Raid0Layout layout(bench_geo());
  std::uint64_t lba = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(layout.data_location(lba));
    lba = (lba + 97) % layout.logical_blocks();
  }
}
BENCHMARK(BM_Raid0Mapping);

void BM_Raid5MappingWithParity(benchmark::State& state) {
  raid::Raid5Layout layout(bench_geo());
  std::uint64_t lba = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(layout.data_location(lba));
    benchmark::DoNotOptimize(layout.parity_location(layout.stripe_of(lba)));
    lba = (lba + 97) % layout.logical_blocks();
  }
}
BENCHMARK(BM_Raid5MappingWithParity);

void BM_RaidxMappingWithImage(benchmark::State& state) {
  raid::RaidxLayout layout(bench_geo());
  std::uint64_t lba = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(layout.data_location(lba));
    benchmark::DoNotOptimize(layout.mirror_locations(lba));
    lba = (lba + 97) % layout.logical_blocks();
  }
}
BENCHMARK(BM_RaidxMappingWithImage);

void BM_RaidxStripeImages(benchmark::State& state) {
  raid::RaidxLayout layout(bench_geo());
  std::uint64_t stripe = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(layout.stripe_images(stripe));
    stripe = (stripe + 13) % (layout.logical_blocks() / 16);
  }
}
BENCHMARK(BM_RaidxStripeImages);

}  // namespace

// Like BENCHMARK_MAIN(), but under RAIDX_BENCH_SMOKE each benchmark runs
// for a fraction of the default wall time: CI only needs to prove the
// paths execute, not to produce stable throughput numbers.
int main(int argc, char** argv) {
  std::vector<char*> args(argv, argv + argc);
  char smoke_flag[] = "--benchmark_min_time=0.01";
  if (std::getenv("RAIDX_BENCH_SMOKE") != nullptr) {
    args.push_back(smoke_flag);
  }
  int args_count = static_cast<int>(args.size());
  benchmark::Initialize(&args_count, args.data());
  if (benchmark::ReportUnrecognizedArguments(args_count, args.data())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
