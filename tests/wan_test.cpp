// WAN federation tier: the long-fat link cost model, the cross-site
// mirror pipeline, and the site-level cache hierarchy.
//
// The link tests pin the Kukol/Gray flow law to exact simulated
// nanoseconds: throughput = W / max(RTT, W/bw) = min(bw, W/RTT), so a
// window below the bandwidth-delay product caps the flow at W/RTT no
// matter how fat the pipe is.  The federation tests exercise the XRootD
// hierarchy (site cache -> WAN origin with redirection -> geo-mirror
// degraded fallback) and the replication invariants: mirror bytes
// converge to the primary's, stale mirror service is accounted, the
// catch-up throttle bounds drain rate, and a same-seed replay is
// bit-identical.
#include <gtest/gtest.h>

#include <cstdint>
#include <tuple>
#include <vector>

#include "ha/fault_plan.hpp"
#include "sim/event_queue.hpp"
#include "sim/task.hpp"
#include "sim/time.hpp"
#include "test_util.hpp"
#include "wan/federation.hpp"
#include "wan/link.hpp"
#include "wan/replication.hpp"

namespace raidx {
namespace {

using test::pattern_run;

constexpr std::uint64_t kWindow = std::uint64_t{1} << 20;

wan::LinkParams fast_link(sim::Time rtt) {
  wan::LinkParams p;
  p.bandwidth_mbs = 100.0;
  p.rtt = rtt;
  p.window_bytes = kWindow;
  p.header_bytes = 512;
  return p;
}

sim::Task<> transfer_into(sim::Simulation& sim, wan::Link& link, int from,
                          std::uint64_t bytes, bool* ok, sim::Time* done) {
  *ok = co_await link.transfer(from, bytes);
  *done = sim.now();
}

// Window-limited regime: RTT > W/bw, so each window waits for its ack and
// the flow runs at W/RTT.  Three exact windows of payload+header finish at
// 2*RTT (two ack round trips) + one serialization + RTT/2 (last-byte
// propagation).
TEST(WanLink, WindowLimitedTransferTimeIsExact) {
  sim::Simulation sim;
  wan::Link link(sim, 0, 0, 1, fast_link(sim::milliseconds(40)));
  ASSERT_GT(link.params().rtt,
            static_cast<sim::Time>(kWindow / 100e6 * 1e9));
  ASSERT_LT(kWindow, link.params().bdp_bytes());  // below BDP: capped

  bool ok = false;
  sim::Time done = 0;
  sim.spawn(transfer_into(sim, link, 0, 3 * kWindow - 512, &ok, &done));
  sim.run();

  const sim::Time ser = 10485760;  // 1 MiB at 100 MB/s
  EXPECT_TRUE(ok);
  EXPECT_EQ(done, 2 * sim::milliseconds(40) + ser + sim::milliseconds(20));
  EXPECT_EQ(link.dir_stats(0).windows, 3u);
  EXPECT_EQ(link.dir_stats(0).transfers, 1u);
  EXPECT_EQ(link.dir_stats(0).bytes, 3 * kWindow);
  EXPECT_EQ(link.dir_stats(0).busy, 3 * ser);
  EXPECT_EQ(link.dir_stats(1).transfers, 0u);  // full duplex: other side idle
}

// Bandwidth-limited regime: RTT < W/bw, so acks return before the pipe
// frees and windows serialize back to back at the pipe rate.
TEST(WanLink, BandwidthLimitedTransferTimeIsExact) {
  sim::Simulation sim;
  wan::Link link(sim, 0, 0, 1, fast_link(sim::milliseconds(5)));
  ASSERT_GT(kWindow, link.params().bdp_bytes());  // above BDP: pipe-bound

  bool ok = false;
  sim::Time done = 0;
  sim.spawn(transfer_into(sim, link, 0, 3 * kWindow - 512, &ok, &done));
  sim.run();

  const sim::Time ser = 10485760;
  EXPECT_TRUE(ok);
  EXPECT_EQ(done, 3 * ser + sim::milliseconds(5) / 2);
  EXPECT_EQ(link.dir_stats(0).windows, 3u);
}

// Brownout mid-flight: chunks already granted the pipe keep their rate
// (event costs are fixed once scheduled); only later chunks slow down.
// The capacity-1 per-direction pipe keeps delivery FIFO throughout, and
// nothing is dropped -- a brownout degrades, a partition loses.
TEST(WanLink, BrownoutSlowsButDeliversInOrder) {
  sim::Simulation sim;
  wan::Link link(sim, 0, 0, 1, fast_link(sim::milliseconds(40)));

  bool ok_a = false, ok_b = false;
  sim::Time done_a = 0, done_b = 0;
  sim.spawn(transfer_into(sim, link, 0, 3 * kWindow - 512, &ok_a, &done_a));
  sim.spawn(transfer_into(sim, link, 0, kWindow - 512, &ok_b, &done_b));
  sim.spawn([](sim::Simulation& s, wan::Link& l) -> sim::Task<> {
    co_await s.delay(sim::milliseconds(15));
    l.set_brownout(10.0);
  }(sim, link));
  sim.run();

  EXPECT_TRUE(ok_a);
  EXPECT_TRUE(ok_b);
  EXPECT_TRUE(link.browned_out());
  EXPECT_EQ(link.brownouts(), 1u);
  EXPECT_EQ(link.drops(), 0u);
  EXPECT_EQ(link.dir_stats(0).windows, 4u);  // 3 full + final short chunk
  EXPECT_EQ(link.dir_stats(0).bytes, 4 * kWindow);
  // The shorter flow clears the shared pipe first.
  EXPECT_LT(done_b, done_a);

  link.set_brownout(0.0);
  EXPECT_FALSE(link.browned_out());
  EXPECT_DOUBLE_EQ(link.current_mbs(), 100.0);
}

// Partition mid-serialization loses the frames: the transfer resolves
// false, the drop is counted, and wait_up() parks exactly until heal.
TEST(WanLink, PartitionDropsInFlightAndWaitUpParksUntilHeal) {
  sim::Simulation sim;
  wan::Link link(sim, 0, 0, 1, fast_link(sim::milliseconds(40)));

  bool ok = true;
  sim::Time done = 0;
  sim::Time resumed = 0;
  sim.spawn(transfer_into(sim, link, 0, kWindow - 512, &ok, &done));
  sim.spawn([](sim::Simulation& s, wan::Link& l) -> sim::Task<> {
    co_await s.delay(sim::milliseconds(5));
    l.set_up(false);
    co_await s.delay(sim::milliseconds(45));
    l.set_up(true);
  }(sim, link));
  sim.spawn([](sim::Simulation& s, wan::Link& l,
               sim::Time* at) -> sim::Task<> {
    co_await s.delay(sim::milliseconds(6));  // after the partition lands
    co_await l.wait_up();
    *at = s.now();
  }(sim, link, &resumed));
  sim.run();

  EXPECT_FALSE(ok);
  EXPECT_EQ(link.drops(), 1u);
  EXPECT_EQ(link.dir_stats(0).transfers, 0u);
  EXPECT_EQ(link.partitions(), 1u);
  EXPECT_EQ(resumed, sim::milliseconds(50));
  EXPECT_TRUE(link.up());
}

TEST(WanFaultPlan, ParsesWanClausesAndValidatesAtParseTime) {
  const ha::FaultPlan plan = ha::FaultPlan::parse(
      "partition:site=1@5s;heal:site=1@15s;brownout:link=0,bw=5@3s;"
      "heal:link=0@9s",
      8, 0, /*sites=*/2, /*links=*/1);
  ASSERT_EQ(plan.events().size(), 4u);
  EXPECT_TRUE(plan.has_wan());
  EXPECT_EQ(plan.events()[0].kind, ha::FaultEvent::Kind::kPartitionSite);
  EXPECT_EQ(plan.events()[0].target, 1);
  EXPECT_EQ(plan.events()[2].kind, ha::FaultEvent::Kind::kBrownoutLink);
  EXPECT_DOUBLE_EQ(plan.events()[2].mbs, 5.0);

  // Every bad spec names the offending clause and dies at parse time.
  EXPECT_THROW(ha::FaultPlan::parse("partition:site=2@1s", 8, 0, 2, 1),
               std::invalid_argument);  // site out of range
  EXPECT_THROW(
      ha::FaultPlan::parse("brownout:link=1,bw=5@1s", 8, 0, 2, 1),
      std::invalid_argument);  // link out of range
  EXPECT_THROW(ha::FaultPlan::parse(
                   "partition:site=0@1s;partition:site=0@2s", 8, 0, 2, 1),
               std::invalid_argument);  // duplicate partition
  EXPECT_THROW(ha::FaultPlan::parse("heal:site=0@1s", 8, 0, 2, 1),
               std::invalid_argument);  // heal of a healthy site
  EXPECT_THROW(ha::FaultPlan::parse("partition:site=0@1s", 8),
               std::invalid_argument);  // no federation to aim it at

  // A WAN plan must be armed against a Federation, never a bare Cluster.
  test::Rig rig(test::small_cluster());
  ha::FaultPlan wan_plan =
      ha::FaultPlan::parse("partition:site=0@1s;heal:site=0@2s", 8, 0, 2, 1);
  EXPECT_THROW(wan_plan.arm(rig.cluster), std::invalid_argument);
}

wan::FederationParams small_federation(int sites, bool geo_rep) {
  wan::FederationParams fp;
  fp.sites = sites;
  fp.geo_rep = geo_rep;
  fp.cluster = test::small_cluster();
  fp.link.bandwidth_mbs = 100.0;
  fp.link.rtt = sim::milliseconds(10);
  return fp;
}

TEST(WanFederation, RegionNamespaceIsSymmetric) {
  sim::Simulation sim;
  wan::Federation fed(sim, small_federation(3, false));

  EXPECT_EQ(wan::Federation::mesh_links(3), 3);
  EXPECT_EQ(fed.num_links(), 3);
  // Link ids enumerate pairs (0,1), (0,2), (1,2).
  EXPECT_EQ(fed.link_between(0, 1).id(), 0);
  EXPECT_EQ(fed.link_between(2, 0).id(), 1);
  EXPECT_EQ(fed.link_between(1, 2).id(), 2);

  ASSERT_GT(fed.region_blocks(), 0u);
  EXPECT_EQ(fed.region_base(0), 0u);
  EXPECT_EQ(fed.region_base(2), 2 * fed.region_blocks());
  EXPECT_EQ(fed.home_of(0), 0);
  EXPECT_EQ(fed.home_of(fed.region_base(1)), 1);
  EXPECT_EQ(fed.home_of(fed.region_base(2) + fed.region_blocks() - 1), 2);
  // The remainder tail (logical % sites) folds into the last region.
  EXPECT_EQ(fed.home_of(3 * fed.region_blocks() + 1), 2);
}

sim::Task<> remote_read_twice(wan::Federation& fed, int src,
                              std::uint64_t lba, bool* first, bool* second) {
  *first = co_await fed.remote_read(src, lba, 2);
  *second = co_await fed.remote_read(src, lba, 2);
}

// The XRootD hierarchy, happy path: the first remote read crosses the WAN
// to the origin and installs the blocks in the local site cache; the
// second is a LAN hit that never touches a link.
TEST(WanFederation, RemoteReadFillsSiteCacheThenHitsIt) {
  sim::Simulation sim;
  wan::FederationParams fp = small_federation(2, false);
  fp.cache.capacity_blocks = 256;
  wan::Federation fed(sim, fp);

  bool first = false, second = false;
  sim.spawn(remote_read_twice(fed, 1, fed.region_base(0) + 5, &first,
                              &second));
  sim.run();

  EXPECT_TRUE(first);
  EXPECT_TRUE(second);
  EXPECT_EQ(fed.stats().remote_reads, 2u);
  EXPECT_EQ(fed.stats().origin_reads, 1u);
  EXPECT_EQ(fed.stats().cache_fills, 1u);
  EXPECT_EQ(fed.stats().cache_hits, 1u);
  EXPECT_EQ(fed.stats().redirects, 0u);
  const std::uint64_t wan_bytes = fed.link_between(0, 1).bytes_carried();
  EXPECT_GT(wan_bytes, 2u * fed.block_bytes());  // payload crossed once
  EXPECT_EQ(fed.remote_read_latency().count(), 2u);
}

sim::Task<> one_remote_read(wan::Federation& fed, int src, std::uint64_t lba,
                            bool* ok) {
  *ok = co_await fed.remote_read(src, lba, 1);
}

// Origin redirection: with the direct link down but the two-hop path up,
// the read detours through the intermediate site instead of failing.
TEST(WanFederation, RemoteReadRedirectsAroundADownLink) {
  sim::Simulation sim;
  wan::Federation fed(sim, small_federation(3, false));
  fed.link_between(0, 1).set_up(false);

  bool ok = false;
  sim.spawn(one_remote_read(fed, 1, fed.region_base(0) + 3, &ok));
  sim.run();

  EXPECT_TRUE(ok);
  EXPECT_EQ(fed.stats().origin_reads, 1u);
  EXPECT_EQ(fed.stats().redirects, 1u);
  EXPECT_EQ(fed.stats().unreachable, 0u);
  // Both legs of the detour carried traffic; the direct link carried none.
  EXPECT_GT(fed.link_between(1, 2).bytes_carried(), 0u);
  EXPECT_GT(fed.link_between(2, 0).bytes_carried(), 0u);
  EXPECT_EQ(fed.link_between(0, 1).bytes_carried(), 0u);
}

// `bytes` is taken by value: callers spawn this with a temporary, which a
// reference parameter would leave dangling once the coroutine suspends.
sim::Task<> write_pattern(wan::Federation& fed, int site, std::uint64_t lba,
                          std::vector<std::byte> bytes) {
  co_await fed.engine(site).write(fed.gateway(lba), lba,
                                  block::Payload::copy(bytes));
}

sim::Task<> read_back(wan::Federation& fed, int site, std::uint64_t lba,
                      std::uint32_t nblocks, std::vector<std::byte>* out) {
  out->assign(static_cast<std::size_t>(nblocks) * fed.block_bytes(),
              std::byte{0});
  co_await fed.engine(site).read(fed.gateway(lba), lba, nblocks, *out);
}

// Geo-replication end to end: a committed write inside site 0's primary
// region ships asynchronously and lands byte-exact in site 1's mirror
// region at the SAME global LBA (region symmetry), with its lag recorded
// and no staleness violation under an idle WAN.
TEST(WanFederation, GeoRepConvergesMirrorBytes) {
  sim::Simulation sim;
  wan::Federation fed(sim, small_federation(2, true));
  const std::uint64_t lba = fed.region_base(0) + 9;
  const auto pattern = pattern_run(lba, 4, fed.block_bytes(), /*salt=*/3);

  sim.spawn(write_pattern(fed, 0, lba, pattern));
  sim.run();  // drains the write AND the replication pipeline

  const wan::StreamStats& st = fed.replicator()->stream(0, 1);
  EXPECT_EQ(st.appended, 1u);
  EXPECT_EQ(st.shipped, 1u);
  EXPECT_EQ(st.backlog, 0u);
  EXPECT_EQ(st.failed_ships, 0u);
  EXPECT_GT(fed.replicator()->max_lag(), 0);
  EXPECT_EQ(fed.replicator()->staleness_violations(), 0u);
  EXPECT_GT(fed.replicator()->last_converged(), 0);
  EXPECT_EQ(fed.replicator()->lag().count(), 1u);

  std::vector<std::byte> got;
  sim.spawn(read_back(fed, 1, lba, 4, &got));
  sim.run();
  EXPECT_EQ(got, pattern);
}

// Partition the origin before its mirror ships: reads at the surviving
// site degrade to the local geo-mirror and are counted as STALE while the
// origin->local stream still has a backlog; healing drains it.
TEST(WanFederation, PartitionedOriginServesStaleMirrorThenHeals) {
  sim::Simulation sim;
  wan::Federation fed(sim, small_federation(2, true));
  fed.set_site_up(0, false);  // shipper parks on wait_up before t=0
  const std::uint64_t lba = fed.region_base(0) + 2;

  sim.spawn(write_pattern(fed, 0, lba,
                          pattern_run(lba, 1, fed.block_bytes())));
  sim.run();
  EXPECT_EQ(fed.replicator()->stream(0, 1).backlog, 1u);

  bool ok = false;
  sim.spawn(one_remote_read(fed, 1, lba, &ok));
  sim.run();
  EXPECT_TRUE(ok);
  EXPECT_EQ(fed.stats().mirror_reads, 1u);
  EXPECT_EQ(fed.stats().stale_served, 1u);
  EXPECT_EQ(fed.stats().origin_reads, 0u);

  fed.set_site_up(0, true);
  sim.run();  // the parked shipper wakes and catches up
  EXPECT_EQ(fed.replicator()->stream(0, 1).backlog, 0u);
  EXPECT_EQ(fed.replicator()->stream(0, 1).shipped, 1u);

  // Converged: the mirror read is no longer stale.
  bool again = false;
  sim.spawn(one_remote_read(fed, 1, lba, &again));
  sim.run();
  EXPECT_TRUE(again);
  EXPECT_EQ(fed.stats().stale_served, 1u);  // unchanged: backlog is gone
}

sim::Task<> write_many(wan::Federation& fed, int site, std::uint64_t base,
                       int count, std::uint32_t nblocks) {
  for (int i = 0; i < count; ++i) {
    const std::uint64_t lba = base + static_cast<std::uint64_t>(i) * nblocks;
    co_await fed.engine(site).write(fed.gateway(lba), lba,
                                    block::Payload::zeros(
                                        nblocks * fed.block_bytes()));
  }
}

// The catch-up throttle is a real rate cap: the same backlog drains
// strictly later with a 1 MB/s token bucket than uncapped, and no slower
// than the bucket's sustained rate allows.
TEST(WanFederation, CatchUpThrottleBoundsDrainRate) {
  const auto drain_time = [](double ship_mbs) {
    sim::Simulation sim;
    wan::FederationParams fp = small_federation(2, true);
    // Deep enough that 64 x 8-block writes fit one region AND outweigh
    // the bucket's 100 KB burst credit.
    fp.cluster.geometry.blocks_per_disk = 6000;
    fp.repl.ship_mbs = ship_mbs;
    wan::Federation fed(sim, fp);
    sim.spawn(write_many(fed, 0, fed.region_base(0), 64, 8));
    sim.run();
    EXPECT_EQ(fed.replicator()->total_backlog(), 0u);
    EXPECT_EQ(fed.replicator()->stream(0, 1).shipped, 64u);
    return fed.replicator()->last_converged();
  };

  const sim::Time uncapped = drain_time(0.0);
  const sim::Time throttled = drain_time(0.02);
  EXPECT_GT(throttled, uncapped);
  // 64 * 8 blocks * 512 B = 256 KiB of payload behind a 20 KB/s bucket
  // with a one-batch (32 KiB) burst: at least (256K - 32K) / 20 KB/s of
  // pure token waiting, far past the disk-bound uncapped drain.
  const std::uint64_t payload = 64ull * 8 * 512;
  const auto floor_ns = static_cast<sim::Time>(
      (static_cast<double>(payload) - 64.0 * 512) / 2e4 * 1e9);
  EXPECT_GT(throttled, floor_ns);
}

struct ReplayFingerprint {
  sim::Time finished = 0;
  std::uint64_t wan_reads = 0, wan_writes = 0, cache_hits = 0, origin = 0,
                mirror = 0, link_bytes = 0, shipped01 = 0, shipped10 = 0;
  sim::Time max_lag = 0;

  bool operator==(const ReplayFingerprint&) const = default;
};

sim::Task<> scripted_mix(wan::Federation& fed) {
  for (int i = 0; i < 40; ++i) {
    const int src = i % 2;
    (void)co_await fed.remote_io(src, static_cast<std::uint64_t>(i) * 11 + 3,
                                 1 + i % 3, i % 3 == 0);
    if (i % 4 == 1) {
      const std::uint64_t lba =
          fed.region_base(src) + static_cast<std::uint64_t>(i);
      co_await fed.engine(src).write(fed.gateway(lba), lba,
                                     block::Payload::zeros(fed.block_bytes()));
    }
  }
}

ReplayFingerprint replay_once() {
  sim::Simulation sim;
  wan::FederationParams fp = small_federation(2, true);
  fp.cache.capacity_blocks = 128;
  wan::Federation fed(sim, fp);
  sim.spawn(scripted_mix(fed));
  sim.run();
  ReplayFingerprint f;
  f.finished = sim.now();
  f.wan_reads = fed.stats().remote_reads;
  f.wan_writes = fed.stats().remote_writes;
  f.cache_hits = fed.stats().cache_hits;
  f.origin = fed.stats().origin_reads;
  f.mirror = fed.stats().mirror_reads;
  f.link_bytes = fed.link_between(0, 1).bytes_carried();
  f.shipped01 = fed.replicator()->stream(0, 1).shipped;
  f.shipped10 = fed.replicator()->stream(1, 0).shipped;
  f.max_lag = fed.replicator()->max_lag();
  return f;
}

// The federation inherits the simulator's core contract: two identically
// seeded runs -- caches, replication, WAN scheduling and all -- replay to
// the exact same nanosecond and the exact same counters.
TEST(WanFederation, SameSeedReplayIsBitIdentical) {
  const ReplayFingerprint a = replay_once();
  const ReplayFingerprint b = replay_once();
  EXPECT_GT(a.wan_reads, 0u);
  EXPECT_GT(a.wan_writes, 0u);
  EXPECT_GT(a.shipped01 + a.shipped10, 0u);
  EXPECT_EQ(a, b);
}

}  // namespace
}  // namespace raidx
