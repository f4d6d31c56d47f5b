// Cluster and geometry tests: disk naming, parameter propagation, CPU
// serialization, and the sharded federation.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "cluster/cluster.hpp"
#include "cluster/sharded.hpp"
#include "load/open_loop.hpp"
#include "load/qos.hpp"
#include "obs/collect.hpp"
#include "test_util.hpp"

namespace raidx::cluster {
namespace {

TEST(Geometry, DiskIdRoundTrips) {
  for (int n : {2, 4, 7, 16}) {
    for (int k : {1, 2, 3, 5}) {
      block::ArrayGeometry g;
      g.nodes = n;
      g.disks_per_node = k;
      for (int row = 0; row < k; ++row) {
        for (int node = 0; node < n; ++node) {
          const int id = g.disk_id(row, node);
          EXPECT_EQ(g.node_of(id), node);
          EXPECT_EQ(g.row_of(id), row);
          EXPECT_LT(id, g.total_disks());
        }
      }
    }
  }
}

TEST(Geometry, PaperNamingConvention) {
  // D(g*n + j) is the g-th disk of node j; Fig. 3's 4x3 example.
  block::ArrayGeometry g;
  g.nodes = 4;
  g.disks_per_node = 3;
  EXPECT_EQ(g.disk_id(0, 0), 0);   // D0 = row 0, node 0
  EXPECT_EQ(g.disk_id(0, 3), 3);   // D3 = row 0, node 3
  EXPECT_EQ(g.disk_id(1, 0), 4);   // D4 = row 1, node 0
  EXPECT_EQ(g.disk_id(2, 3), 11);  // D11 = row 2, node 3
}

TEST(Geometry, CapacityArithmetic) {
  block::ArrayGeometry g;
  g.nodes = 16;
  g.disks_per_node = 2;
  g.blocks_per_disk = 1000;
  g.block_bytes = 4096;
  EXPECT_EQ(g.total_disks(), 32);
  EXPECT_EQ(g.total_blocks(), 32'000u);
  EXPECT_EQ(g.bytes_per_disk(), 4'096'000u);
}

TEST(Geometry, ValidityChecks) {
  block::ArrayGeometry g;
  EXPECT_TRUE(g.valid());
  g.nodes = 1;
  EXPECT_FALSE(g.valid());
  g.nodes = 4;
  g.disks_per_node = 0;
  EXPECT_FALSE(g.valid());
}

TEST(Cluster, RejectsInvalidGeometry) {
  sim::Simulation sim;
  ClusterParams p = ClusterParams::trojans();
  p.geometry.nodes = 1;
  EXPECT_THROW(Cluster(sim, p), std::invalid_argument);
}

TEST(Cluster, WiresEveryDiskToItsNode) {
  sim::Simulation sim;
  Cluster cluster(sim, ClusterParams::trojans_4x3());
  EXPECT_EQ(cluster.num_nodes(), 4);
  EXPECT_EQ(cluster.total_disks(), 12);
  for (int d = 0; d < 12; ++d) {
    // Each global disk resolves to a live disk object.
    EXPECT_FALSE(cluster.disk(d).failed());
  }
  // The same physical disk is reachable via its node's local index.
  auto& via_global = cluster.disk(cluster.geometry().disk_id(2, 1));
  auto& via_node = cluster.node(1).local_disk(2);
  EXPECT_EQ(&via_global, &via_node);
}

TEST(Cluster, ForcesDiskModelToMatchGeometry) {
  sim::Simulation sim;
  ClusterParams p = ClusterParams::trojans();
  p.geometry.block_bytes = 8192;
  p.geometry.blocks_per_disk = 1234;
  p.disk.block_bytes = 512;       // inconsistent on purpose
  p.disk.total_blocks = 999'999;
  Cluster cluster(sim, p);
  EXPECT_EQ(cluster.disk(0).block_bytes(), 8192u);
  EXPECT_EQ(cluster.disk(0).total_blocks(), 1234u);
}

sim::Task<> burn(Node& node, int times, std::uint64_t bytes) {
  for (int i = 0; i < times; ++i) co_await node.cpu_work(bytes);
}

TEST(Node, CpuSerializesWork) {
  sim::Simulation sim;
  Cluster cluster(sim, test::small_cluster());
  auto& node = cluster.node(0);
  sim.spawn(burn(node, 4, 1000));
  sim.spawn(burn(node, 4, 1000));
  sim.run();
  // 8 ops of (150 us + 60 us) strictly serialized.
  const sim::Time per_op = sim::microseconds(150) +
                           sim::nanoseconds(60 * 1000);
  EXPECT_EQ(sim.now(), 8 * per_op);
  EXPECT_EQ(node.cpu_busy(), sim.now());
}

TEST(Node, ComputeChargesRawTime) {
  sim::Simulation sim;
  Cluster cluster(sim, test::small_cluster());
  auto task = [](Node& n) -> sim::Task<> {
    co_await n.compute(sim::milliseconds(7));
  };
  sim.spawn(task(cluster.node(2)));
  sim.run();
  EXPECT_EQ(sim.now(), sim::milliseconds(7));
}

TEST(ClusterParams, TrojansDefaultsMatchThePaper) {
  const auto p = ClusterParams::trojans();
  EXPECT_EQ(p.geometry.nodes, 16);
  EXPECT_EQ(p.geometry.disks_per_node, 1);
  EXPECT_EQ(p.geometry.block_bytes, 32'768u);  // the 32 KB stripe unit
  // 16 x 10 GB disks.
  EXPECT_NEAR(static_cast<double>(p.geometry.total_blocks()) *
                  p.geometry.block_bytes,
              16 * 10.74e9, 0.5e9);
  EXPECT_DOUBLE_EQ(p.net.link_mbs, 12.5);  // 100 Mbps Fast Ethernet
}

// --- Sharded federation (src/cluster/sharded) -------------------------------

// The same deterministic burst engine_test's round trips use: disjoint
// writes then reads through the controller, all on one shard's sub-world.
sim::Task<> local_burst(sim::Simulation* sim, raid::ArrayController* eng,
                        int ops) {
  const std::uint32_t bs = eng->block_bytes();
  std::vector<std::byte> got;
  for (int i = 0; i < ops; ++i) {
    const std::uint64_t lba = static_cast<std::uint64_t>(i) * 8;
    co_await eng->write(i % 4, lba, test::pattern_run(lba, 8, bs));
    got.assign(8 * bs, std::byte{0});
    co_await eng->read((i + 1) % 4, lba, 8, got);
    co_await sim->delay(sim::microseconds(50));
  }
}

sim::Task<> remote_burst(ShardedCluster* world, int src, int dst, int ops) {
  for (int i = 0; i < ops; ++i) {
    const raid::IoOutcome outcome = co_await world->remote_io(
        src, dst, (i % 2) == 0, static_cast<std::uint64_t>(i) * 4, 2);
    EXPECT_EQ(outcome, raid::IoOutcome::kServed);
  }
}

TEST(ShardedCluster, SingleShardMatchesPlainWorld) {
  const ClusterParams params = test::small_cluster();
  // The plain world, constructed member-for-member like a Shard.
  obs::Hub plain_hub;
  sim::Simulation plain_sim;
  Cluster plain_cluster(plain_sim, params);
  cdd::CddFabric plain_fabric(plain_cluster, {});
  cache::CacheFabric plain_cache(plain_cluster, {});
  auto plain_engine =
      workload::make_engine(workload::Arch::kRaidX, plain_fabric, {});
  plain_engine->attach_cache(&plain_cache);
  plain_sim.set_hub(&plain_hub);
  plain_sim.spawn(local_burst(&plain_sim, plain_engine.get(), 16));
  plain_sim.run();
  obs::collect_cluster(plain_hub.registry(), plain_cluster, &plain_fabric,
                       &plain_cache);

  ShardedParams sp;
  sp.shards = 1;
  ShardedCluster world(params, sp);
  {
    auto scope = world.group().frame_scope(0);
    world.sim(0).spawn(local_burst(&world.sim(0), &world.engine(0), 16));
  }
  world.run(1);
  ShardedCluster::Shard& sh = world.shard(0);
  obs::collect_cluster(sh.hub.registry(), *sh.cluster, sh.fabric.get(),
                       sh.cache.get());

  // Byte-for-byte: same events, same clocks, same counters.
  EXPECT_EQ(plain_sim.now(), world.sim(0).now());
  EXPECT_EQ(plain_hub.registry().snapshot_json(),
            sh.hub.registry().snapshot_json());
}

std::string run_federation(int threads) {
  ShardedParams sp;
  sp.shards = 2;
  ShardedCluster world(test::small_cluster(), sp);
  for (int s = 0; s < 2; ++s) {
    auto scope = world.group().frame_scope(s);
    world.sim(s).spawn(local_burst(&world.sim(s), &world.engine(s), 12));
    world.sim(s).spawn(remote_burst(&world, s, 1 - s, 6));
  }
  world.run(threads);
  return world.merged_snapshot_json();
}

TEST(ShardedCluster, MergedSnapshotDeterministicAndThreadInvariant) {
  const std::string serial = run_federation(1);
  const std::string repeat = run_federation(1);
  const std::string parallel = run_federation(2);
  EXPECT_EQ(serial, repeat);
  EXPECT_EQ(serial, parallel);
  // The merge actually carried both shards and the federation counters.
  EXPECT_NE(serial.find("shard.000."), std::string::npos);
  EXPECT_NE(serial.find("shard.001."), std::string::npos);
  EXPECT_NE(serial.find("\"remote.sent\":12"), std::string::npos);
  EXPECT_NE(serial.find("\"remote.served\":12"), std::string::npos);
  EXPECT_NE(serial.find("sim.shard.windows"), std::string::npos);
}

TEST(ShardedCluster, FaultPlanPartitionsAcrossGroups) {
  ShardedParams sp;
  sp.shards = 2;
  ShardedCluster world(test::small_cluster(4, 1, /*blocks_per_disk=*/240),
                       sp);
  // One failure per group, in federation-global disk ids: disk 1 lands in
  // group 0, disk (dps + 2) in group 1.
  ha::FaultPlan plan;
  plan.add({ha::FaultEvent::Kind::kFailDisk, 1, 0, sim::milliseconds(5)});
  plan.add({ha::FaultEvent::Kind::kFailDisk, world.disks_per_shard() + 2, 0,
            sim::milliseconds(8)});
  ha::HaParams hp;
  hp.probe_interval = sim::milliseconds(5);
  hp.probe_timeout = sim::milliseconds(2);
  hp.spare_swap_time = sim::milliseconds(10);
  hp.global_spares = 1;
  world.arm_faults(plan, &hp);
  for (int s = 0; s < 2; ++s) {
    auto scope = world.group().frame_scope(s);
    world.sim(s).spawn(local_burst(&world.sim(s), &world.engine(s), 24));
  }
  world.run(2);
  // Each group's orchestrator saw exactly its own slice of the plan and
  // carried the full lifecycle: detect, fail over, rebuild.
  for (int s = 0; s < 2; ++s) {
    const ha::HaStats& st = world.shard(s).orchestrator->stats();
    EXPECT_EQ(st.detections, 1u) << "shard " << s;
    EXPECT_EQ(st.rebuilds_failed, 0u) << "shard " << s;
  }
}

sim::Task<> remote_ops(ShardedCluster* world, int src, int dst, int ops,
                       std::map<raid::IoOutcome, int>* outcomes) {
  for (int i = 0; i < ops; ++i) {
    ++(*outcomes)[co_await world->remote_io(
        src, dst, /*write=*/true, static_cast<std::uint64_t>(i) * 4, 2)];
  }
}

// Puts group 1's array behind `gate`, bound to every node of the group.
void gate_group_one(ShardedCluster& world, load::QosGate& gate) {
  for (int n = 0; n < world.nodes_per_shard(); ++n) gate.bind_client(n, 0);
  world.engine(1).set_admission(&gate);
}

// A bucket that holds one 1 KB request and refills far slower than any
// burst below arrives: the first request is admitted, every later one is
// turned away.
load::TenantQos one_request_bucket() {
  load::TenantQos q;
  q.rate_mbs = 1e-6;
  q.burst_mb = 0.0015;
  q.policy = load::AdmitPolicy::kReject;
  return q;
}

TEST(ShardedCluster, RemoteTurnAwaysCountAsRejectedNotFailed) {
  ShardedParams sp;
  sp.shards = 2;
  ShardedCluster world(test::small_cluster(), sp);
  load::QosGate gate(world.sim(1), {one_request_bucket()});
  gate_group_one(world, gate);
  std::map<raid::IoOutcome, int> outcomes;
  {
    auto scope = world.group().frame_scope(0);
    world.sim(0).spawn(remote_ops(&world, 0, 1, 6, &outcomes));
  }
  world.run(1);
  const ShardedCluster::Shard& target = world.shard(1);
  EXPECT_EQ(outcomes[raid::IoOutcome::kServed], 1);
  EXPECT_EQ(outcomes[raid::IoOutcome::kRejected], 5);
  EXPECT_EQ(outcomes[raid::IoOutcome::kFailed], 0);
  EXPECT_EQ(target.remote_served, 1u);
  EXPECT_EQ(target.remote_rejected, 5u);
  EXPECT_EQ(target.remote_failed, 0u);
  EXPECT_EQ(gate.stats(0).rejected, 5u);
  const std::string snap = world.merged_snapshot_json();
  EXPECT_NE(snap.find("\"remote.rejected\":5"), std::string::npos);
  EXPECT_NE(snap.find("\"remote.failed\":0"), std::string::npos);

  // The source side of the same turn-aways: an open-loop tenant on group 0
  // that sends every arrival across the spine books each one the target
  // turned away as rejected, never as failed.  Group 1's own arrivals all
  // land on the ungated group 0 and are served.
  ShardedCluster world2(test::small_cluster(), sp);
  load::QosGate gate2(world2.sim(1), {one_request_bucket()});
  gate_group_one(world2, gate2);
  load::TenantLoad t;
  t.rate_ops = 200.0;
  t.working_set_blocks = 64;
  t.blocks_per_op = 2;
  t.write_fraction = 1.0;
  t.sessions = 4;
  load::OpenLoopConfig cfg;
  cfg.tenants = {t};
  cfg.duration = sim::milliseconds(50);
  const load::ShardedLoadResult res =
      load::run_open_loop_sharded(world2, cfg, /*remote_fraction=*/1.0, 1);
  const load::TenantResult& src = res.per_shard[0].tenants[0];
  const ShardedCluster::Shard& target2 = world2.shard(1);
  EXPECT_GT(target2.remote_rejected, 0u);
  EXPECT_EQ(src.rejected, target2.remote_rejected);
  EXPECT_EQ(src.failed, 0u);
  EXPECT_EQ(src.completed, target2.remote_served);
  EXPECT_EQ(res.per_shard[1].tenants[0].rejected, 0u);
  EXPECT_EQ(res.failed, 0u);
}

TEST(ShardedCluster, RejectsFaultOutsideFederation) {
  ShardedParams sp;
  sp.shards = 2;
  ShardedCluster world(test::small_cluster(), sp);
  ha::FaultPlan plan;
  plan.add({ha::FaultEvent::Kind::kFailDisk, world.total_disks() + 3, 0,
            sim::milliseconds(1)});
  EXPECT_THROW(world.arm_faults(plan, nullptr), std::invalid_argument);
}

}  // namespace
}  // namespace raidx::cluster
