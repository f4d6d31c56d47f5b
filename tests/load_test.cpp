// Open-loop traffic tier tests: Zipf sampler statistics (chi-square) and
// determinism, interpolated histogram quantiles against known
// distributions, token-bucket admission control under each policy (with
// tenant isolation), and arrival-trace + end-to-end determinism of the
// open-loop runner.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "load/open_loop.hpp"
#include "load/qos.hpp"
#include "obs/metrics.hpp"
#include "raid/controller.hpp"
#include "sim/random.hpp"
#include "test_util.hpp"

namespace raidx {
namespace {

using test::Rig;
using test::small_cluster;

// ---------------------------------------------------------------------------
// dist::Zipf.

// Chi-square goodness of fit of the alias sampler against the exact Zipf
// pmf.  With n=64 ranks (63 degrees of freedom) the 99.9% critical value
// is ~103; a correct sampler at 200k draws sits far below it, while an
// off-by-one in the alias construction blows far past.
TEST(Zipf, ChiSquareMatchesExactPmf) {
  const double alpha = 1.0;
  const std::uint64_t n = 64;
  sim::dist::Zipf zipf(alpha, n);
  sim::Rng rng(12345);

  const int draws = 200000;
  std::vector<std::uint64_t> counts(n, 0);
  for (int i = 0; i < draws; ++i) ++counts[zipf.sample(rng)];

  double chi2 = 0.0;
  for (std::uint64_t k = 0; k < n; ++k) {
    const double expected =
        zipf.probability(k, alpha) * static_cast<double>(draws);
    ASSERT_GT(expected, 5.0) << "chi-square needs expected counts >= 5";
    const double d = static_cast<double>(counts[k]) - expected;
    chi2 += d * d / expected;
  }
  EXPECT_LT(chi2, 103.0) << "sampler does not match the Zipf pmf";

  // Rank 0 must be the hottest, and dramatically so at alpha = 1.
  EXPECT_GT(counts[0], counts[1]);
  EXPECT_GT(counts[0], 10 * counts[n - 1]);
}

TEST(Zipf, AlphaZeroIsUniform) {
  sim::dist::Zipf zipf(0.0, 16);
  sim::Rng rng(7);
  std::vector<std::uint64_t> counts(16, 0);
  const int draws = 160000;
  for (int i = 0; i < draws; ++i) ++counts[zipf.sample(rng)];
  for (std::uint64_t c : counts) {
    EXPECT_NEAR(static_cast<double>(c), draws / 16.0, draws / 16.0 * 0.1);
  }
}

TEST(Zipf, DeterministicAcrossInstances) {
  sim::dist::Zipf a(0.8, 1000), b(0.8, 1000);
  sim::Rng ra(99), rb(99);
  for (int i = 0; i < 10000; ++i) {
    ASSERT_EQ(a.sample(ra), b.sample(rb));
  }
}

// ---------------------------------------------------------------------------
// Histogram interpolated quantiles.

// Values below kSubBuckets land in exact width-1 buckets, so the
// interpolated quantile must reproduce the classic midpoint median.
TEST(HistogramQuantile, ExactBucketsGiveExactQuantiles) {
  obs::Histogram h;
  for (std::uint64_t v : {0u, 1u, 2u, 3u}) h.observe(v);
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 1.5);   // rank 2 -> bucket [1,2)
  EXPECT_DOUBLE_EQ(h.quantile(0.25), 0.5);  // rank 1 -> bucket [0,1)
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 3.0);   // clamped to max
  EXPECT_DOUBLE_EQ(h.quantile(0.0), 0.5);   // rank floor = 1
}

// Against a known uniform distribution the interpolated quantile must stay
// within one sub-bucket (25% relative) of the true quantile -- and beat
// percentile()'s full-bucket truncation, which is the reason it exists.
TEST(HistogramQuantile, UniformDistributionWithinBucketError) {
  obs::Histogram h;
  const std::uint64_t kN = 10000;
  for (std::uint64_t v = 1; v <= kN; ++v) h.observe(v);
  for (double q : {0.50, 0.90, 0.99, 0.999}) {
    const double truth = q * static_cast<double>(kN);
    const double interp = h.quantile(q);
    EXPECT_NEAR(interp, truth, truth * 0.25 + 1.0)
        << "q=" << q << " outside one sub-bucket of the true quantile";
    // Interpolation may never leave the observed range.
    EXPECT_GE(interp, 1.0);
    EXPECT_LE(interp, static_cast<double>(kN));
  }
  // p999 specifically: nearest-rank truncates to the bucket lower bound;
  // interpolation must land at least as close to the truth.
  const double truth = 0.999 * static_cast<double>(kN);
  const double trunc = static_cast<double>(h.percentile(0.999));
  EXPECT_LE(std::abs(h.quantile(0.999) - truth),
            std::abs(trunc - truth) + 1.0);
}

TEST(HistogramQuantile, SingleSampleAndEmpty) {
  obs::Histogram h;
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 0.0);  // empty -> 0
  h.observe(777);
  for (double q : {0.0, 0.5, 0.999, 1.0}) {
    EXPECT_DOUBLE_EQ(h.quantile(q), 777.0);  // clamped to min == max
  }
}

TEST(HistogramMerge, MergeEqualsUnion) {
  obs::Histogram a, b, u;
  sim::Rng rng(31337);
  for (int i = 0; i < 5000; ++i) {
    const auto v = static_cast<std::uint64_t>(rng.uniform(0, 1 << 20));
    (i % 2 == 0 ? a : b).observe(v);
    u.observe(v);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), u.count());
  EXPECT_EQ(a.sum(), u.sum());
  EXPECT_EQ(a.min(), u.min());
  EXPECT_EQ(a.max(), u.max());
  for (double q : {0.5, 0.99, 0.999}) {
    EXPECT_DOUBLE_EQ(a.quantile(q), u.quantile(q));
  }
}

// ---------------------------------------------------------------------------
// QosGate admission policies.

struct AdmitProbe {
  int admitted = 0;
  int denied = 0;
};

sim::Task<> try_admit(load::QosGate& gate, int client, std::uint64_t bytes,
                      AdmitProbe& probe) {
  try {
    co_await gate.admit(client, false, bytes);
    ++probe.admitted;
  } catch (const raid::AdmissionError&) {
    ++probe.denied;
  }
}

// A tenant at its token-bucket limit is shed (or rejected, per policy)
// while an idle tenant's requests pass untouched.
TEST(QosGate, BusyTenantShedIdleTenantPasses) {
  for (const load::AdmitPolicy policy :
       {load::AdmitPolicy::kShed, load::AdmitPolicy::kReject}) {
    sim::Simulation sim;
    load::TenantQos limited;
    limited.rate_mbs = 1.0;   // 1 MB/s
    limited.burst_mb = 0.01;  // 10 KB of headroom
    limited.policy = policy;
    load::TenantQos idle;  // rate 0 = unlimited
    load::QosGate gate(sim, {limited, idle});
    gate.bind_client(0, 0);
    gate.bind_client(1, 1);

    AdmitProbe busy, quiet;
    auto driver = [](sim::Simulation* s, load::QosGate* g, AdmitProbe* b,
                     AdmitProbe* q) -> sim::Task<> {
      // 5 x 4 KB back to back: the first two fit the 10 KB burst, the rest
      // find the bucket empty (no simulated time passes between calls).
      for (int i = 0; i < 5; ++i) co_await try_admit(*g, 0, 4096, *b);
      // The idle tenant sails through regardless.
      for (int i = 0; i < 5; ++i) co_await try_admit(*g, 1, 4096, *q);
      // An unbound client (control traffic) is never gated.
      co_await g->admit(7, true, 1 << 20);
      // After a second the bucket has refilled 1 MB: admits again.
      co_await s->delay(sim::seconds(1));
      co_await try_admit(*g, 0, 4096, *b);
    };
    sim.spawn(driver(&sim, &gate, &busy, &quiet));
    sim.run();

    EXPECT_EQ(busy.admitted, 3);  // 2 burst + 1 after refill
    EXPECT_EQ(busy.denied, 3);
    EXPECT_EQ(quiet.admitted, 5);
    EXPECT_EQ(quiet.denied, 0);
    const load::TenantQosStats& s0 = gate.stats(0);
    if (policy == load::AdmitPolicy::kShed) {
      EXPECT_EQ(s0.shed, 3u);
      EXPECT_EQ(s0.rejected, 0u);
    } else {
      EXPECT_EQ(s0.rejected, 3u);
      EXPECT_EQ(s0.shed, 0u);
    }
    EXPECT_EQ(gate.stats(1).admitted, 5u);
  }
}

// kQueue: over-rate requests wait exactly until their tokens accrue, in
// FIFO (spawn) order, and waiters beyond max_queue are shed.
TEST(QosGate, QueuePolicyDelaysToTheTokenRate) {
  sim::Simulation sim;
  load::TenantQos q;
  q.rate_mbs = 1.0;  // 1 byte per microsecond
  q.burst_mb = 0.001;
  q.policy = load::AdmitPolicy::kQueue;
  q.max_queue = 2;
  load::QosGate gate(sim, {q});
  gate.bind_client(0, 0);

  std::vector<sim::Time> admitted_at;
  AdmitProbe probe;
  auto prober = [](sim::Simulation* s, load::QosGate* g,
                   std::vector<sim::Time>* out,
                   AdmitProbe* p) -> sim::Task<> {
    try {
      co_await g->admit(0, false, 1000);  // 1 KB = 1 ms of tokens
      out->push_back(s->now());
      ++p->admitted;
    } catch (const raid::AdmissionError&) {
      ++p->denied;
    }
  };
  auto driver = [prober](sim::Simulation* s, load::QosGate* g,
                         std::vector<sim::Time>* out,
                         AdmitProbe* p) -> sim::Task<> {
    // Drain the 1 KB initial burst so arithmetic starts from empty.
    co_await g->admit(0, false, 1000);
    // Four concurrent requests against max_queue = 2: the first two wait
    // their turn, the last two find the queue full and are shed.
    for (int i = 0; i < 4; ++i) s->spawn(prober(s, g, out, p));
  };
  sim.spawn(driver(&sim, &gate, &admitted_at, &probe));
  sim.run();

  EXPECT_EQ(probe.admitted, 2);
  EXPECT_EQ(probe.denied, 2);
  ASSERT_EQ(admitted_at.size(), 2u);
  // Tokens accrue at 1 KB/ms: waiter 1 admitted at ~1 ms, waiter 2 ~2 ms.
  EXPECT_GT(admitted_at[0], sim::microseconds(900));
  EXPECT_LT(admitted_at[0], sim::milliseconds(1.5));
  EXPECT_GT(admitted_at[1], sim::microseconds(1900));
  EXPECT_LT(admitted_at[1], sim::milliseconds(2.5));
  const load::TenantQosStats& s0 = gate.stats(0);
  EXPECT_EQ(s0.admitted, 3u);  // driver fast path + 2 queued
  EXPECT_EQ(s0.shed, 2u);
  EXPECT_EQ(s0.queued, 2u);
  EXPECT_GE(s0.peak_queue, 2u);
  EXPECT_GT(s0.queue_wait_ns, 0);
}

// ---------------------------------------------------------------------------
// Open-loop runner: determinism, isolation, controller hook.

load::OpenLoopConfig small_open_loop(std::uint64_t seed) {
  load::TenantLoad t0;
  t0.rate_ops = 400.0;
  t0.zipf_alpha = 0.9;
  t0.working_set_blocks = 128;
  t0.sessions = 64;
  t0.write_fraction = 0.3;
  load::TenantLoad t1 = t0;
  t1.dist = load::ArrivalDist::kBurst;
  t1.burst_on_s = 0.02;
  t1.burst_off_s = 0.05;
  load::OpenLoopConfig cfg;
  cfg.tenants = {t0, t1};
  cfg.duration = sim::milliseconds(200);
  cfg.seed = seed;
  cfg.record_arrivals = 100000;
  return cfg;
}

load::OpenLoopResult run_once(std::uint64_t seed) {
  Rig rig(small_cluster(4));
  raid::RaidxController engine(rig.fabric);
  return load::run_open_loop(engine, small_open_loop(seed));
}

// Same seed -> identical arrival trace AND identical simulated results;
// different seed -> a different trace (the generator is actually random).
TEST(OpenLoop, SameSeedSameTraceAndResults) {
  const load::OpenLoopResult a = run_once(42);
  const load::OpenLoopResult b = run_once(42);
  const load::OpenLoopResult c = run_once(43);
  ASSERT_FALSE(a.arrivals.empty());
  EXPECT_EQ(a.arrivals, b.arrivals);
  EXPECT_EQ(a.offered, b.offered);
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.bytes_completed, b.bytes_completed);
  EXPECT_EQ(a.drained_at, b.drained_at);
  EXPECT_EQ(a.latency.sum(), b.latency.sum());
  EXPECT_EQ(a.latency.max(), b.latency.max());
  EXPECT_NE(a.arrivals, c.arrivals);

  // Everything offered is accounted for, nothing lost.
  EXPECT_EQ(a.offered,
            a.completed + a.rejected + a.shed + a.failed + a.cap_dropped);
  EXPECT_GT(a.completed, 0u);
  EXPECT_EQ(a.failed, 0u);
}

// Arrivals respect the configured window and tenants stay inside their own
// working-set regions (carved back to back from LBA 0).
TEST(OpenLoop, ArrivalsRespectWindowAndRegions) {
  const load::OpenLoopResult r = run_once(7);
  const load::OpenLoopConfig cfg = small_open_loop(7);
  const std::uint64_t t0_blocks = cfg.tenants[0].working_set_blocks;
  for (const load::Arrival& a : r.arrivals) {
    EXPECT_GE(a.at, 0);
    EXPECT_LT(a.at, cfg.duration);
    if (a.tenant == 0) {
      EXPECT_LT(a.lba, t0_blocks);
    } else {
      EXPECT_GE(a.lba, t0_blocks);
    }
  }
}

// End-to-end QoS isolation at test scale: an aggressive tenant gated by a
// shed-policy bucket loses traffic; the protected tenant is never shed and
// its tail latency beats the ungated run.
TEST(OpenLoop, GateShedsTheAggressorNotTheVictim) {
  load::TenantLoad victim;
  victim.rate_ops = 200.0;
  victim.working_set_blocks = 128;
  victim.sessions = 32;
  load::TenantLoad aggressor = victim;
  aggressor.rate_ops = 4000.0;  // far past a 4-node array's capacity
  load::OpenLoopConfig cfg;
  cfg.tenants = {victim, aggressor};
  cfg.duration = sim::milliseconds(300);
  cfg.seed = 5;

  auto run = [&](bool gated) {
    Rig rig(small_cluster(4));
    raid::RaidxController engine(rig.fabric);
    std::unique_ptr<load::QosGate> gate;
    if (gated) {
      load::TenantQos none;  // victim: unlimited
      load::TenantQos cap;   // aggressor: held near the victim's rate
      cap.rate_mbs = 0.1;
      cap.burst_mb = 0.01;
      cap.policy = load::AdmitPolicy::kShed;
      gate = std::make_unique<load::QosGate>(
          rig.sim, std::vector<load::TenantQos>{none, cap});
    }
    return load::run_open_loop(engine, cfg, gate.get());
  };
  const load::OpenLoopResult open = run(false);
  const load::OpenLoopResult gated = run(true);

  EXPECT_EQ(open.tenants[1].shed, 0u);
  EXPECT_GT(gated.tenants[1].shed, 0u);
  EXPECT_EQ(gated.tenants[0].shed, 0u);
  EXPECT_EQ(gated.tenants[0].rejected, 0u);
  // The victim's tail with the gate must beat its tail under open slamming.
  EXPECT_LT(gated.tenants[0].latency.quantile(0.99),
            open.tenants[0].latency.quantile(0.99));
}

// The admission hook composes with the engine entry points directly: an
// attached gate turns over-budget ArrayController::read() calls into
// AdmissionError before any disk sees the request.
TEST(OpenLoop, AdmissionHookAtTheControllerEntry) {
  Rig rig(small_cluster(4));
  raid::RaidxController engine(rig.fabric);
  load::TenantQos q;
  q.rate_mbs = 1.0;
  q.burst_mb = 0.001;  // 1 KB of tokens: one 512 B block fits, three do not
  q.policy = load::AdmitPolicy::kReject;
  load::QosGate gate(rig.sim, {q});
  gate.bind_client(0, 0);
  engine.set_admission(&gate);
  EXPECT_EQ(engine.admission(), &gate);

  AdmitProbe probe;
  auto driver = [](raid::ArrayController* eng, AdmitProbe* p) -> sim::Task<> {
    std::vector<std::byte> buf(3 * 512);
    try {
      co_await eng->read(0, 0, 1, std::span<std::byte>(buf.data(), 512));
      ++p->admitted;
    } catch (const raid::AdmissionError&) {
      ++p->denied;
    }
    try {
      co_await eng->read(0, 0, 3, buf);
      ++p->admitted;
    } catch (const raid::AdmissionError&) {
      ++p->denied;
    }
  };
  rig.run(driver(&engine, &probe));
  EXPECT_EQ(probe.admitted, 1);
  EXPECT_EQ(probe.denied, 1);
  // Only the admitted single-block read reached a disk; the denied request
  // issued no I/O at all.
  std::uint64_t total_reads = 0;
  for (int d = 0; d < rig.cluster.total_disks(); ++d) {
    total_reads += rig.cluster.disk(d).reads();
  }
  EXPECT_EQ(total_reads, 1u);
}

// ---------------------------------------------------------------------------
// accumulate_groups: federation totals.

TEST(AccumulateGroups, SumsCountsAndRatesAndKeepsTheSlowestDrain) {
  load::OpenLoopResult a;
  a.offered = 10;
  a.completed = 9;
  a.failed = 1;
  a.remote_ops = 2;
  a.peak_in_flight = 3;
  a.bytes_completed = 100;
  a.offered_mbs = 1.5;
  a.goodput_mbs = 1.25;
  a.drained_at = 80;
  a.latency.observe(1000);
  load::OpenLoopResult b;
  b.offered = 5;
  b.completed = 4;
  b.shed = 1;
  b.cap_dropped = 2;
  b.peak_in_flight = 4;
  b.bytes_completed = 50;
  b.offered_mbs = 0.5;
  b.goodput_mbs = 0.25;
  b.drained_at = 50;
  b.latency.observe(2000);
  b.latency.observe(3000);

  const load::ShardedLoadResult r = load::accumulate_groups({a, b});
  EXPECT_EQ(r.offered, 15u);
  EXPECT_EQ(r.completed, 13u);
  EXPECT_EQ(r.failed, 1u);
  EXPECT_EQ(r.shed, 1u);
  EXPECT_EQ(r.cap_dropped, 2u);
  EXPECT_EQ(r.remote_ops, 2u);
  EXPECT_EQ(r.peak_in_flight, 7u);
  EXPECT_EQ(r.bytes_completed, 150u);
  EXPECT_DOUBLE_EQ(r.offered_mbs, 2.0);
  EXPECT_DOUBLE_EQ(r.goodput_mbs, 1.5);
  EXPECT_EQ(r.drained_at, 80);
  EXPECT_EQ(r.latency.count(), 3u);
  EXPECT_EQ(r.latency.max(), 3000u);
  ASSERT_EQ(r.per_shard.size(), 2u);
  EXPECT_EQ(r.per_shard[1].offered, 5u);

  // One group is its own total.
  const load::ShardedLoadResult one = load::accumulate_groups({b});
  EXPECT_EQ(one.offered, b.offered);
  EXPECT_EQ(one.drained_at, b.drained_at);
  EXPECT_DOUBLE_EQ(one.latency.quantile(0.99), b.latency.quantile(0.99));
}

}  // namespace
}  // namespace raidx
