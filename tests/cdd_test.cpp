// Tests for the cooperative disk drivers: request routing, device
// masquerading, failure replies, and the distributed lock-group table.
#include <gtest/gtest.h>

#include "cdd/cdd.hpp"
#include "cdd/lock_table.hpp"
#include "test_util.hpp"

namespace raidx::cdd {
namespace {

using test::Rig;

sim::Task<> roundtrip(CddFabric& fabric, int client, int disk,
                      std::uint64_t offset, std::vector<std::byte> data,
                      std::vector<std::byte>* back) {
  const auto n = static_cast<std::uint32_t>(
      data.size() / fabric.cluster().geometry().block_bytes);
  Reply w = co_await fabric.write(client, disk, offset,
                                  block::Payload(std::move(data)));
  EXPECT_TRUE(w.ok);
  Reply r = co_await fabric.read(client, disk, offset, n);
  EXPECT_TRUE(r.ok);
  *back = r.data.to_vector();
}

TEST(CddFabric, LocalRequestsBypassTheNetwork) {
  Rig rig(test::small_cluster());
  const std::uint32_t bs = rig.cluster.geometry().block_bytes;
  std::vector<std::byte> back;
  // Disk 1 is attached to node 1: a node-1 client is local.
  rig.run(roundtrip(rig.fabric, 1, 1, 5, test::pattern_run(0, 2, bs),
                    &back));
  EXPECT_EQ(back, test::pattern_run(0, 2, bs));
  EXPECT_EQ(rig.fabric.remote_requests(), 0u);
  EXPECT_EQ(rig.fabric.local_requests(), 2u);
  EXPECT_EQ(rig.cluster.network().bytes_sent(1), 0u);
}

TEST(CddFabric, RemoteRequestsCrossTheNetworkAndMasquerade) {
  Rig rig(test::small_cluster());
  const std::uint32_t bs = rig.cluster.geometry().block_bytes;
  std::vector<std::byte> back;
  // Node 0 addresses disk 3 exactly like a local disk.
  rig.run(roundtrip(rig.fabric, 0, 3, 9, test::pattern_run(3, 1, bs),
                    &back));
  EXPECT_EQ(back, test::pattern_run(3, 1, bs));
  EXPECT_EQ(rig.fabric.remote_requests(), 2u);
  EXPECT_GT(rig.cluster.network().bytes_sent(0), 0u);
  EXPECT_GT(rig.cluster.network().bytes_sent(3), 0u);  // reply path
}

TEST(CddFabric, RemoteIsSlowerThanLocalButComparable) {
  // Paper requirement (iii): remote and local disk I/O with comparable
  // latency -- same order of magnitude, not a syscall-storm apart.
  const std::uint32_t bs = 32'768;
  auto params = test::small_cluster(4, 1, 600, bs);

  Rig local_rig(params);
  sim::Time local_done = 0;
  auto timed = [](CddFabric& f, int client, int disk,
                  sim::Time* done) -> sim::Task<> {
    co_await f.read(client, disk, 0, 1);
    *done = f.cluster().sim().now();
  };
  local_rig.run(timed(local_rig.fabric, 1, 1, &local_done));

  Rig remote_rig(params);
  sim::Time remote_done = 0;
  remote_rig.run(timed(remote_rig.fabric, 0, 1, &remote_done));

  EXPECT_LT(local_done, remote_done);
  // "Comparable": a handful of milliseconds of protocol and wire time,
  // not the orders of magnitude a cross-space syscall chain would add.
  EXPECT_LT(remote_done, 6 * local_done);
}

TEST(CddFabric, FailedDiskRepliesNotOk) {
  Rig rig(test::small_cluster());
  rig.cluster.disk(2).fail();
  auto probe = [](CddFabric& f, bool* read_ok, bool* write_ok)
      -> sim::Task<> {
    Reply r = co_await f.read(0, 2, 0, 1);
    *read_ok = r.ok;
    Reply w = co_await f.write(
        0, 2, 0, block::Payload::zeros(f.cluster().geometry().block_bytes));
    *write_ok = w.ok;
  };
  bool read_ok = true, write_ok = true;
  rig.run(probe(rig.fabric, &read_ok, &write_ok));
  EXPECT_FALSE(read_ok);
  EXPECT_FALSE(write_ok);
}

TEST(CddFabric, RebuildWatermarkGatesReads) {
  // During a rebuild sweep, blocks above the watermark are not readable
  // (they would return stale/blank data); blocks below are.  Writes pass
  // regardless -- they carry current data.
  Rig rig(test::small_cluster());
  auto& d = rig.cluster.disk(2);
  d.begin_rebuild();
  d.advance_rebuild(10);
  auto probe = [](CddFabric& f, std::uint64_t off, bool* ok) -> sim::Task<> {
    Reply r = co_await f.read(0, 2, off, 1);
    *ok = r.ok;
  };
  bool below = false, above = true, write_ok = false;
  rig.run(probe(rig.fabric, 5, &below));
  rig.run(probe(rig.fabric, 15, &above));
  auto wprobe = [](CddFabric& f, bool* ok) -> sim::Task<> {
    Reply r = co_await f.write(
        0, 2, 15,
        block::Payload::zeros(f.cluster().geometry().block_bytes));
    *ok = r.ok;
  };
  rig.run(wprobe(rig.fabric, &write_ok));
  EXPECT_TRUE(below);
  EXPECT_FALSE(above);
  EXPECT_TRUE(write_ok);
  d.finish_rebuild();
  bool after = false;
  rig.run(probe(rig.fabric, 15, &after));
  EXPECT_TRUE(after);
}

TEST(CddFabric, ServesConcurrentClientsOnAllNodes) {
  Rig rig(test::small_cluster());
  const std::uint32_t bs = rig.cluster.geometry().block_bytes;
  std::vector<std::vector<std::byte>> got(4);
  for (int c = 0; c < 4; ++c) {
    rig.sim.spawn(roundtrip(rig.fabric, c, (c + 2) % 4,
                            static_cast<std::uint64_t>(10 + c),
                            test::pattern_run(static_cast<std::uint64_t>(c),
                                              1, bs,
                                              static_cast<std::uint8_t>(c)),
                            &got[static_cast<std::size_t>(c)]));
  }
  rig.sim.run();
  for (int c = 0; c < 4; ++c) {
    EXPECT_EQ(got[static_cast<std::size_t>(c)],
              test::pattern_run(static_cast<std::uint64_t>(c), 1, bs,
                                static_cast<std::uint8_t>(c)));
  }
  for (int n = 0; n < 4; ++n) {
    EXPECT_GT(rig.fabric.service(n).requests_served(), 0u);
  }
}

// ---- lock-group table -------------------------------------------------------

TEST(LockTable, GrantsAndReleases) {
  sim::Simulation sim;
  LockGroupTable t(sim);
  auto acquire = [](LockGroupTable& tbl, std::uint64_t g,
                    std::uint64_t owner) -> sim::Task<> {
    co_await tbl.acquire(g, owner);
  };
  sim.spawn(acquire(t, 7, 1));
  sim.run();
  EXPECT_TRUE(t.held(7));
  EXPECT_EQ(t.owner(7), 1u);
  t.release(7, 1);
  EXPECT_FALSE(t.held(7));
  EXPECT_EQ(t.records(), 0u);
}

TEST(LockTable, WaitersServedFifo) {
  sim::Simulation sim;
  LockGroupTable t(sim);
  std::vector<std::uint64_t> grant_order;
  auto contend = [](LockGroupTable& tbl, std::uint64_t owner,
                    std::vector<std::uint64_t>* order,
                    sim::Simulation& s) -> sim::Task<> {
    co_await tbl.acquire(42, owner);
    order->push_back(owner);
    co_await s.delay(sim::milliseconds(1));
    tbl.release(42, owner);
  };
  for (std::uint64_t o = 1; o <= 4; ++o) {
    sim.spawn(contend(t, o, &grant_order, sim));
  }
  sim.run();
  EXPECT_EQ(grant_order, (std::vector<std::uint64_t>{1, 2, 3, 4}));
}

TEST(LockTable, TracksWaiterCount) {
  sim::Simulation sim;
  LockGroupTable t(sim);
  auto hold = [](LockGroupTable& tbl, std::uint64_t owner,
                 sim::Simulation& s) -> sim::Task<> {
    co_await tbl.acquire(1, owner);
    co_await s.delay(sim::milliseconds(10));
    tbl.release(1, owner);
  };
  sim.spawn(hold(t, 1, sim));
  sim.spawn(hold(t, 2, sim));
  sim.spawn(hold(t, 3, sim));
  sim.run_until(sim::milliseconds(5));
  EXPECT_EQ(t.owner(1), 1u);
  EXPECT_EQ(t.waiters(1), 2u);
  sim.run();
  EXPECT_FALSE(t.held(1));
}

// ---- distributed locking through the fabric --------------------------------

sim::Task<> lock_unlock(CddFabric& f, int client,
                        std::vector<std::uint64_t> groups,
                        std::uint64_t owner, std::vector<int>* order,
                        int id, sim::Simulation& sim) {
  co_await f.lock_groups(client, groups, owner);
  order->push_back(id);
  co_await sim.delay(sim::milliseconds(2));
  co_await f.unlock_groups(client, std::move(groups), owner);
}

TEST(DistributedLocks, OverlappingRangesSerialize) {
  Rig rig(test::small_cluster());
  std::vector<int> order;
  rig.sim.spawn(lock_unlock(rig.fabric, 0, {1, 2, 3}, 100, &order, 0,
                            rig.sim));
  rig.sim.spawn(lock_unlock(rig.fabric, 1, {3, 4, 5}, 200, &order, 1,
                            rig.sim));
  rig.sim.run();
  ASSERT_EQ(order.size(), 2u);  // both eventually granted: no deadlock
}

TEST(DistributedLocks, InterleavedRangesDoNotDeadlock) {
  // The classic deadlock shape: A wants {1, 18}, B wants {2, 17} -- homes
  // interleave (group % 4).  The global (home, group) order prevents it.
  Rig rig(test::small_cluster());
  std::vector<int> order;
  rig.sim.spawn(lock_unlock(rig.fabric, 0, {1, 18}, 100, &order, 0,
                            rig.sim));
  rig.sim.spawn(lock_unlock(rig.fabric, 1, {2, 17}, 200, &order, 1,
                            rig.sim));
  rig.sim.spawn(lock_unlock(rig.fabric, 2, {1, 2, 17, 18}, 300, &order, 2,
                            rig.sim));
  rig.sim.run();
  EXPECT_EQ(order.size(), 3u);
}

TEST(DistributedLocks, SameNodeWritersExcludeEachOther) {
  // Two logical writers on ONE node must still serialize: lock owners are
  // requester tokens, not node ids.
  Rig rig(test::small_cluster());
  std::vector<int> order;
  rig.sim.spawn(lock_unlock(rig.fabric, 0, {5}, 100, &order, 0, rig.sim));
  rig.sim.spawn(lock_unlock(rig.fabric, 0, {5}, 200, &order, 1, rig.sim));
  rig.sim.run();
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0], 0);
  EXPECT_EQ(order[1], 1);
}

TEST(DistributedLocks, GrantAndReleaseBroadcastToEveryPeer) {
  // Group 8's home is node 0 (8 % 4) and the client is node 0 too, so the
  // lock RPCs themselves never touch the network: every message node 0
  // sends is lock-state broadcast, one header per peer per grant/release.
  Rig rig(test::small_cluster());
  auto cycle = [](CddFabric& f) -> sim::Task<> {
    std::vector<std::uint64_t> groups = {8};
    co_await f.lock_groups(0, groups, 77);
    co_await f.unlock_groups(0, std::move(groups), 77);
  };
  rig.run(cycle(rig.fabric));
  const int home = rig.fabric.lock_home(8);
  ASSERT_EQ(home, 0);
  const int peers = rig.cluster.num_nodes() - 1;
  auto& net = rig.cluster.network();
  EXPECT_EQ(net.messages_sent(home), 2u * static_cast<unsigned>(peers));
  EXPECT_EQ(net.bytes_sent(home),
            2u * static_cast<unsigned>(peers) * kHeaderBytes);
  // Each peer takes both messages through its CDD and pays receive CPU
  // for them, and nothing else: the broadcast is one-way.
  const cluster::NodeParams& np = rig.cluster.params().node;
  const sim::Time per_msg =
      np.cpu_op_overhead +
      static_cast<sim::Time>(np.cpu_ns_per_byte *
                             static_cast<double>(kHeaderBytes));
  for (int n = 0; n < rig.cluster.num_nodes(); ++n) {
    if (n == home) continue;
    EXPECT_EQ(net.messages_sent(n), 0u) << "node " << n;
    EXPECT_EQ(rig.fabric.service(n).requests_served(), 2u) << "node " << n;
    EXPECT_EQ(rig.cluster.node(n).cpu_busy(), 2 * per_msg) << "node " << n;
  }
  EXPECT_FALSE(rig.fabric.service(home).lock_table().held(8));
}

TEST(DistributedLocks, LockTrafficCanBeDisabledForAblation) {
  cdd::CddParams p;
  p.replicate_lock_table = false;
  Rig rig(test::small_cluster(), p);
  auto cycle = [](CddFabric& f) -> sim::Task<> {
    std::vector<std::uint64_t> groups = {3};
    co_await f.lock_groups(1, groups, 9);
    co_await f.unlock_groups(1, std::move(groups), 9);
  };
  rig.run(cycle(rig.fabric));
  // Only the two RPCs and their two replies cross the wire: the home
  // (node 3) sends its replies and no lock-sync message at all.
  auto& net = rig.cluster.network();
  EXPECT_EQ(net.messages_sent(1), 2u);
  EXPECT_EQ(net.messages_sent(3), 2u);
  EXPECT_EQ(net.messages_sent(0), 0u);
  EXPECT_EQ(net.messages_sent(2), 0u);
  EXPECT_EQ(rig.fabric.service(0).requests_served(), 0u);
  EXPECT_EQ(rig.fabric.service(2).requests_served(), 0u);
}

TEST(DistributedLocks, GroupsGoOutAsOneRpcPerHomeInAscendingHomeOrder) {
  // {1,5} live on node 1, {2,6} on node 2 and {7,11} on node 3.  A
  // blocker on node 2 holds 6, so the batch stops at home 2: home 1's
  // record is already granted and home 3 has not been asked yet.
  cdd::CddParams p;
  p.replicate_lock_table = false;  // requests_served() counts RPCs only
  Rig rig(test::small_cluster(), p);
  auto blocker = [](CddFabric& f, sim::Simulation& s) -> sim::Task<> {
    std::vector<std::uint64_t> groups = {6};
    co_await f.lock_groups(2, groups, 100);
    co_await s.delay(sim::milliseconds(20));
    co_await f.unlock_groups(2, std::move(groups), 100);
  };
  rig.sim.spawn(blocker(rig.fabric, rig.sim));
  rig.sim.run_until(sim::milliseconds(1));
  std::vector<int> order;
  rig.sim.spawn(lock_unlock(rig.fabric, 0, {1, 2, 5, 6, 7, 11}, 200, &order,
                            0, rig.sim));
  rig.sim.run_until(sim::milliseconds(10));
  LockGroupTable& h1 = rig.fabric.service(1).lock_table();
  LockGroupTable& h2 = rig.fabric.service(2).lock_table();
  LockGroupTable& h3 = rig.fabric.service(3).lock_table();
  EXPECT_TRUE(order.empty());
  EXPECT_EQ(h1.owner(1), 200u);
  EXPECT_EQ(h1.owner(5), 200u);
  EXPECT_EQ(h2.owner(2), 200u);  // granted in order, up to the blocker
  EXPECT_EQ(h2.owner(6), 100u);
  EXPECT_EQ(h2.waiters(6), 1u);
  EXPECT_FALSE(h3.held(7));
  EXPECT_FALSE(h3.held(11));
  EXPECT_EQ(rig.fabric.service(3).requests_served(), 0u);
  rig.sim.run();
  EXPECT_EQ(order, std::vector<int>{0});
  // One lock and one unlock RPC per home; node 0 is no home here.
  EXPECT_EQ(rig.fabric.service(0).requests_served(), 0u);
  EXPECT_EQ(rig.fabric.service(1).requests_served(), 2u);
  EXPECT_EQ(rig.fabric.service(2).requests_served(), 4u);  // + blocker's
  EXPECT_EQ(rig.fabric.service(3).requests_served(), 2u);
}

TEST(DistributedLocks, RecordOfRGroupsSyncsEachPeerOncePerGroup) {
  // Groups {0, 6, 12, 18, 24} all live on node 0 of a 6-node cluster, and
  // the client is node 0, so the lock RPC is local and every message on
  // the wire is lock-state sync: R * (N - 1) of them for one grant.
  constexpr int kNodes = 6;
  constexpr unsigned kGroups = 5;
  constexpr unsigned kPeers = kNodes - 1;
  Rig rig(test::small_cluster(kNodes));
  std::vector<std::uint64_t> record;
  for (unsigned g = 0; g < kGroups; ++g) record.push_back(g * kNodes);
  auto lock = [](CddFabric& f, std::vector<std::uint64_t> groups,
                 bool release) -> sim::Task<> {
    if (release) {
      co_await f.unlock_groups(0, std::move(groups), 7);
    } else {
      co_await f.lock_groups(0, std::move(groups), 7);
    }
  };
  const cluster::NodeParams& np = rig.cluster.params().node;
  const sim::Time per_msg =
      np.cpu_op_overhead +
      static_cast<sim::Time>(np.cpu_ns_per_byte *
                             static_cast<double>(kHeaderBytes));
  auto& net = rig.cluster.network();
  for (unsigned round = 1; round <= 2; ++round) {
    rig.run(lock(rig.fabric, record, /*release=*/round == 2));
    EXPECT_EQ(net.messages_sent(0), round * kGroups * kPeers);
    EXPECT_EQ(net.bytes_sent(0), round * kGroups * kPeers * kHeaderBytes);
    for (int n = 1; n < kNodes; ++n) {
      EXPECT_EQ(rig.fabric.service(n).requests_served(), round * kGroups)
          << "node " << n;
      EXPECT_EQ(rig.cluster.node(n).cpu_busy(),
                static_cast<sim::Time>(round * kGroups) * per_msg)
          << "node " << n;
    }
    EXPECT_EQ(rig.fabric.service(0).broadcasts_in_flight(), 0u);
  }
  EXPECT_EQ(net.messages_dropped(), 0u);
}

TEST(DistributedLocks, SyncToAPartitionedPeerIsDroppedAfterItsTx) {
  constexpr int kNodes = 5;
  constexpr unsigned kGroups = 3;
  constexpr int kCut = 2;
  Rig rig(test::small_cluster(kNodes));
  auto& net = rig.cluster.network();
  net.set_node_up(kCut, false);
  auto lock = [](CddFabric& f) -> sim::Task<> {
    std::vector<std::uint64_t> groups = {0, 5, 10};  // all homed on node 0
    co_await f.lock_groups(0, std::move(groups), 7);
  };
  rig.run(lock(rig.fabric));
  // The home still transmits to every peer, the cut one included: its
  // NIC pays TX for all of them, and the switch drops the cut peer's.
  const auto params = net.params();
  const sim::Time tx_each =
      params.per_message_overhead +
      sim::transfer_time(kHeaderBytes, params.effective_mbs());
  EXPECT_EQ(net.messages_sent(0), kGroups * (kNodes - 1));
  EXPECT_EQ(net.tx_busy(0),
            static_cast<sim::Time>(kGroups * (kNodes - 1)) * tx_each);
  EXPECT_EQ(net.messages_dropped(), kGroups);
  EXPECT_EQ(net.rx_busy(kCut), 0);
  EXPECT_EQ(rig.fabric.service(kCut).requests_served(), 0u);
  EXPECT_EQ(rig.cluster.node(kCut).cpu_busy(), 0);
  for (int n = 1; n < kNodes; ++n) {
    if (n == kCut) continue;
    EXPECT_EQ(rig.fabric.service(n).requests_served(), kGroups)
        << "node " << n;
  }
}

sim::Task<> await_reply(sim::Simulation& sim, sim::Oneshot<Reply>* slot,
                        sim::Time* done) {
  co_await slot->wait();
  *done = sim.now();
}

TEST(CddService, PostsWhileADrainIsPendingAreServedInFifoOrder) {
  // Probe A, a lock-state message, probe B: one drain serves all three in
  // that order, so the node CPU runs A, the sync's receive charge, then B.
  Rig rig(test::small_cluster());
  CddService& svc = rig.fabric.service(1);
  sim::Oneshot<Reply> slot_a(rig.sim);
  sim::Oneshot<Reply> slot_b(rig.sim);
  auto probe = [](sim::Oneshot<Reply>* slot) {
    Request req;
    req.op = Request::Op::kProbe;
    req.from = 1;
    req.reply = slot;
    return req;
  };
  Request sync;
  sync.op = Request::Op::kLockSync;
  sync.from = 0;
  svc.post(probe(&slot_a));
  EXPECT_EQ(rig.sim.pending_events(), 1u);  // the drain
  svc.post(std::move(sync));
  svc.post(probe(&slot_b));
  EXPECT_EQ(rig.sim.pending_events(), 1u);  // still that one drain
  sim::Time done_a = -1;
  sim::Time done_b = -1;
  rig.sim.spawn(await_reply(rig.sim, &slot_a, &done_a));
  rig.sim.spawn(await_reply(rig.sim, &slot_b, &done_b));
  rig.sim.run();
  const cluster::NodeParams& np = rig.cluster.params().node;
  const sim::Time per_msg =
      np.cpu_op_overhead +
      static_cast<sim::Time>(np.cpu_ns_per_byte *
                             static_cast<double>(kHeaderBytes));
  EXPECT_EQ(done_a, per_msg);
  EXPECT_EQ(done_b, 3 * per_msg);
  EXPECT_EQ(svc.requests_served(), 3u);
}

}  // namespace
}  // namespace raidx::cdd
