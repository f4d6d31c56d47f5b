// Federation of per-shard sub-clusters under one conservative synchronizer.
//
// The single-Simulation stack couples every node through one Network, one
// CddFabric pending-RPC map, and one ArrayController striping across all
// disks -- partitioning the nodes of *that* world across threads would make
// nearly every request cross-shard and serialize on shared state.  The
// scale-out model here is the one real deployments of the paper's design
// use (and the OSDF federation papers measure): the cluster is a set of
// placement groups.  Each shard owns a complete sub-world -- Cluster,
// CddFabric, cache fabric, array controller, obs registry -- living
// entirely on that shard's Simulation, so the intra-group fast paths
// (symmetric-transfer resumes, the local CDD path, lock groups) run
// untouched and lock-free.  Groups are coupled only by an inter-group
// spine: a client in group A reaches data homed in group B through a
// gateway RPC that serializes onto A's uplink, crosses the spine (one
// hop >= the ShardGroup lookahead), executes against B's controller on
// B's shard, and returns the same way.
//
// Every shard seeds its own RNG streams (callers fork per shard index),
// and every cross-shard interaction rides ShardGroup's deterministic
// mailboxes, so results are a pure function of (seed, shard count).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "cache/cache_fabric.hpp"
#include "cdd/cdd.hpp"
#include "cluster/cluster.hpp"
#include "ha/fault_plan.hpp"
#include "ha/ha.hpp"
#include "obs/obs.hpp"
#include "sim/channel.hpp"
#include "sim/resource.hpp"
#include "sim/shard.hpp"
#include "sim/task.hpp"
#include "workload/engines.hpp"

namespace raidx::cluster {

struct ShardedParams {
  int shards = 1;
  workload::Arch arch = workload::Arch::kRaidX;
  raid::EngineParams engine = {};
  cache::CacheParams cache = {};
  cdd::CddParams cdd = {};
  /// Inter-group spine: per-group uplink serialization bandwidth and the
  /// one-way hop latency.  The hop is the ShardGroup lookahead, so it must
  /// be positive; the default models a gigabit spine above the groups'
  /// Fast-Ethernet access tier.
  double uplink_mbs = 125.0;
  sim::Time hop_latency = sim::microseconds(100);
  /// Fixed header cost charged on the spine for requests without payload
  /// (read requests, write acks).
  std::uint32_t header_bytes = 512;
};

class ShardedCluster {
 public:
  /// `group_params` describes ONE group (geometry.nodes = nodes per
  /// shard); the federation is `sp.shards` identical groups.
  ShardedCluster(const ClusterParams& group_params, const ShardedParams& sp);
  ~ShardedCluster();
  ShardedCluster(const ShardedCluster&) = delete;
  ShardedCluster& operator=(const ShardedCluster&) = delete;

  /// One group's complete sub-world, in the construction order of
  /// bench::World so a 1-shard federation is event-for-event the plain
  /// single-Simulation world.
  struct Shard {
    obs::Hub hub;
    std::unique_ptr<Cluster> cluster;
    std::unique_ptr<cdd::CddFabric> fabric;
    std::unique_ptr<cache::CacheFabric> cache;
    std::unique_ptr<raid::ArrayController> engine;
    std::unique_ptr<ha::Orchestrator> orchestrator;  // arm_faults(with_orch)
    ha::FaultPlan faults;                            // this group's slice
    std::unique_ptr<sim::Resource> uplink_tx;
    std::unique_ptr<sim::Resource> uplink_rx;
    std::vector<std::byte> remote_scratch;  // gateway read landing buffer
    std::uint64_t next_gateway = 0;         // round-robin gateway node
    std::uint64_t remote_sent = 0;
    std::uint64_t remote_served = 0;
    std::uint64_t remote_failed = 0;    // I/O failures at this gateway
    std::uint64_t remote_rejected = 0;  // turned away by this group's gate
  };

  int shards() const { return static_cast<int>(shards_.size()); }
  int nodes_per_shard() const { return group_params_.geometry.nodes; }
  int total_nodes() const { return nodes_per_shard() * shards(); }
  int disks_per_shard() const { return group_params_.geometry.total_disks(); }
  int total_disks() const { return disks_per_shard() * shards(); }
  const ShardedParams& params() const { return sharded_params_; }

  sim::ShardGroup& group() { return group_; }
  Shard& shard(int s) { return *shards_[static_cast<std::size_t>(s)]; }
  raid::ArrayController& engine(int s) { return *shard(s).engine; }
  sim::Simulation& sim(int s) { return group_.sim(s); }

  /// Advance the federation to global completion on `threads` workers.
  void run(int threads) { group_.run(threads); }

  /// Execute one op against shard `dst`'s array on behalf of a client in
  /// shard `src`: uplink serialization, spine hop, gateway execution on
  /// dst, reply hop.  Must be awaited from a coroutine running on shard
  /// `src`'s Simulation.  Resolves to kFailed on I/O failure at the far
  /// end and to kRejected when dst's admission gate turns the request away.
  sim::Task<raid::IoOutcome> remote_io(int src, int dst, bool write,
                                       std::uint64_t lba,
                                       std::uint32_t nblocks);

  /// Partition a global fault plan (disk/node ids in federation-global
  /// space: shard s owns disks [s*disks_per_shard, ...) and nodes
  /// [s*nodes_per_shard, ...)) into per-shard plans and arm each against
  /// its group, with a per-group recovery orchestrator when `orch` is
  /// non-null.  Call before run().
  void arm_faults(const ha::FaultPlan& plan, const ha::HaParams* orch);

  /// Collect every group's registry (obs::collect_cluster per shard) and
  /// fold them under "shard.NNN." prefixes in shard order, appending the
  /// federation-level keys (sim.shard.windows/messages, remote.*).  The
  /// result is byte-deterministic for fixed (seed, shards).
  std::string merged_snapshot_json();

 private:
  sim::Task<> serve_remote(int src, int dst, bool write, std::uint64_t lba,
                           std::uint32_t nblocks,
                           sim::Oneshot<raid::IoOutcome>& done);
  sim::Time spine_ns(std::uint64_t bytes) const;

  ClusterParams group_params_;
  ShardedParams sharded_params_;
  sim::ShardGroup group_;
  std::vector<std::unique_ptr<Shard>> shards_;
};

}  // namespace raidx::cluster
