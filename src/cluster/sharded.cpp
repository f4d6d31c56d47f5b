#include "cluster/sharded.hpp"

#include <cassert>
#include <cstdio>
#include <span>
#include <stdexcept>
#include <utility>

#include "block/payload.hpp"
#include "obs/collect.hpp"

namespace raidx::cluster {

ShardedCluster::ShardedCluster(const ClusterParams& group_params,
                               const ShardedParams& sp)
    : group_params_(group_params),
      sharded_params_(sp),
      group_(sp.shards, sp.hop_latency) {
  shards_.reserve(static_cast<std::size_t>(sp.shards));
  for (int s = 0; s < sp.shards; ++s) {
    sim::Simulation& sim = group_.sim(s);
    // Every coroutine frame this shard's world creates -- the CDD server
    // loops the fabric constructor spawns, and all later I/O -- must come
    // from this shard's pool so it recycles on whichever worker drives it.
    sim::FramePool::Scope scope(&sim.frame_pool());
    auto sh = std::make_unique<Shard>();
    sh->cluster = std::make_unique<Cluster>(sim, group_params);
    sh->fabric = std::make_unique<cdd::CddFabric>(*sh->cluster, sp.cdd);
    sh->cache = std::make_unique<cache::CacheFabric>(*sh->cluster, sp.cache);
    sh->engine = workload::make_engine(sp.arch, *sh->fabric, sp.engine);
    sh->engine->attach_cache(sh->cache.get());
    sim.set_hub(&sh->hub);
    sh->uplink_tx = std::make_unique<sim::Resource>(sim, 1);
    sh->uplink_rx = std::make_unique<sim::Resource>(sim, 1);
    shards_.push_back(std::move(sh));
  }
}

// Members declare group_ before shards_, so the sub-worlds die before
// their Simulations; within a Shard the orchestrator precedes the fabric's
// destruction as its contract requires.
ShardedCluster::~ShardedCluster() = default;

sim::Time ShardedCluster::spine_ns(std::uint64_t bytes) const {
  // MB/s = 1e6 bytes/s = 1e-3 bytes/ns.
  return static_cast<sim::Time>(static_cast<double>(bytes) * 1000.0 /
                                sharded_params_.uplink_mbs);
}

sim::Task<raid::IoOutcome> ShardedCluster::remote_io(int src, int dst,
                                                     bool write,
                                                     std::uint64_t lba,
                                                     std::uint32_t nblocks) {
  assert(src != dst && "remote_io is the cross-shard path");
  Shard& a = shard(src);
  sim::Simulation& ssim = group_.sim(src);
  const std::uint64_t bytes =
      static_cast<std::uint64_t>(nblocks) * engine(src).block_bytes();
  ++a.remote_sent;
  {
    // Serialize the request onto this group's spine uplink: full payload
    // for writes, a header for reads.
    auto guard = co_await a.uplink_tx->acquire();
    co_await ssim.delay(
        spine_ns(write ? bytes + sharded_params_.header_bytes
                       : sharded_params_.header_bytes));
  }
  sim::Oneshot<raid::IoOutcome> done(ssim);
  group_.post(src, dst, ssim.now() + sharded_params_.hop_latency,
              [this, src, dst, write, lba, nblocks, &done] {
                // Runs on dst's worker inside a later window; the gateway
                // service task is a dst-shard coroutine from birth.
                group_.sim(dst).spawn(
                    serve_remote(src, dst, write, lba, nblocks, done));
              });
  co_return co_await done.wait();
}

sim::Task<> ShardedCluster::serve_remote(int src, int dst, bool write,
                                         std::uint64_t lba,
                                         std::uint32_t nblocks,
                                         sim::Oneshot<raid::IoOutcome>& done) {
  Shard& b = shard(dst);
  sim::Simulation& dsim = group_.sim(dst);
  raid::ArrayController& eng = *b.engine;
  const std::uint64_t bytes =
      static_cast<std::uint64_t>(nblocks) * eng.block_bytes();
  {
    auto guard = co_await b.uplink_rx->acquire();
    co_await dsim.delay(
        spine_ns(write ? bytes + sharded_params_.header_bytes
                       : sharded_params_.header_bytes));
  }
  // Rotate the gateway so forwarded traffic spreads over the group's
  // nodes; the rotation is driven by deterministic delivery order.
  const int gateway = static_cast<int>(
      b.next_gateway++ % static_cast<std::uint64_t>(nodes_per_shard()));
  raid::IoOutcome outcome = raid::IoOutcome::kServed;
  try {
    if (write) {
      co_await eng.write(gateway, lba, block::Payload::zeros(bytes));
    } else {
      if (b.remote_scratch.size() < bytes) {
        b.remote_scratch.resize(static_cast<std::size_t>(bytes));
      }
      co_await eng.read(gateway, lba, nblocks,
                        std::span<std::byte>(b.remote_scratch.data(),
                                             static_cast<std::size_t>(bytes)));
    }
  } catch (const raid::AdmissionError&) {
    // Turned away by the target's admission gate: policy, not failure
    // (AdmissionError derives IoError, so it must be caught first).
    outcome = raid::IoOutcome::kRejected;
  } catch (const raid::IoError&) {
    outcome = raid::IoOutcome::kFailed;
  }
  switch (outcome) {
    case raid::IoOutcome::kServed: ++b.remote_served; break;
    case raid::IoOutcome::kRejected: ++b.remote_rejected; break;
    case raid::IoOutcome::kFailed: ++b.remote_failed; break;
  }
  {
    // Reply rides the spine back: payload for reads, an ack for writes.
    auto guard = co_await b.uplink_tx->acquire();
    co_await dsim.delay(
        spine_ns(write ? sharded_params_.header_bytes
                       : bytes + sharded_params_.header_bytes));
  }
  group_.post(dst, src, dsim.now() + sharded_params_.hop_latency,
              [&done, outcome] { done.set(outcome); });
}

void ShardedCluster::arm_faults(const ha::FaultPlan& plan,
                                const ha::HaParams* orch) {
  const int dps = disks_per_shard();
  const int nps = nodes_per_shard();
  for (const ha::FaultEvent& ev : plan.events()) {
    ha::FaultEvent local = ev;
    int s;
    if (ev.kind == ha::FaultEvent::Kind::kPartitionNode ||
        ev.kind == ha::FaultEvent::Kind::kJoinNode) {
      s = ev.target / nps;
      local.target = ev.target % nps;
    } else {
      s = ev.target / dps;
      local.target = ev.target % dps;
    }
    if (s < 0 || s >= shards()) {
      throw std::invalid_argument(
          "fault plan targets a disk/node outside the federation");
    }
    shard(s).faults.add(local);
  }
  for (int s = 0; s < shards(); ++s) {
    Shard& sh = shard(s);
    sim::FramePool::Scope scope(&group_.sim(s).frame_pool());
    if (orch != nullptr) {
      sh.orchestrator = std::make_unique<ha::Orchestrator>(*sh.engine, *orch);
    }
    if (!sh.faults.empty()) {
      sh.faults.arm(*sh.cluster, sh.orchestrator.get(), nullptr);
    }
  }
}

std::string ShardedCluster::merged_snapshot_json() {
  // Collect once: collect_cluster adds into each shard's hub registry (on
  // top of whatever the load tier already exported there), so a second
  // call would double-count.
  obs::Registry merged;
  char prefix[32];  // fits "shard." + any int + "."
  for (int s = 0; s < shards(); ++s) {
    Shard& sh = shard(s);
    obs::collect_cluster(sh.hub.registry(), *sh.cluster, sh.fabric.get(),
                         sh.cache.get(), sh.orchestrator.get(), nullptr);
    std::snprintf(prefix, sizeof(prefix), "shard.%03d.", s);
    merged.merge_from(sh.hub.registry(), prefix);
  }
  merged.counter("sim.shard.windows").inc(group_.stats().windows);
  merged.counter("sim.shard.messages").inc(group_.stats().messages);
  std::uint64_t sent = 0, served = 0, failed = 0, rejected = 0;
  for (int s = 0; s < shards(); ++s) {
    sent += shard(s).remote_sent;
    served += shard(s).remote_served;
    failed += shard(s).remote_failed;
    rejected += shard(s).remote_rejected;
  }
  merged.counter("remote.sent").inc(sent);
  merged.counter("remote.served").inc(served);
  merged.counter("remote.failed").inc(failed);
  merged.counter("remote.rejected").inc(rejected);
  return merged.snapshot_json();
}

}  // namespace raidx::cluster
