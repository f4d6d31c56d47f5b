// Multi-site composition: today's single-switch clusters become the
// *sites* of a WAN federation.
//
// Every site is a complete sub-world -- Cluster, CDD fabric, cache
// fabric, array controller -- sharing ONE simulation (a site is the same
// unit the sharded engine advances; composing N of them under one event
// loop keeps the federation a pure function of the seed).  Sites are
// joined by a full mesh of wan::Links (src/wan/link.hpp).
//
// Namespace: every site's array exposes the same logical geometry, and
// the federation splits it into `sites` equal regions.  Region h is site
// h's *primary* data; on every other site the same LBA range is the
// *geo-mirror* region for h (the RAID-x data-zone/image-zone symmetry,
// one level up).  A global LBA therefore means the same thing everywhere,
// which makes site caches collision-free and mirror application a plain
// same-LBA write on the peer.
//
// Remote read path (the XRootD-style hierarchy):
//   1. the local site's cache fabric -- a hit never crosses the WAN;
//   2. the origin (home) site over the WAN: request header out, data
//      back, each over the direct link, or *redirected* through one
//      intermediate site when the direct link is down but a two-hop path
//      is up;
//   3. with geo-replication, a fully unreachable origin degrades to the
//      local mirror region -- possibly stale, and counted as such when
//      the origin->local replication stream still has a backlog.
// Fetched blocks are installed in the local site cache, so a site's
// second read of a remote block is a LAN hit.
//
// Remote writes always forward to the origin (redirect allowed): the
// origin commits them like any local write, which also enqueues them on
// its replication streams when geo-replication is on.  The writer's site
// cache is invalidated for the written range (remote caches revalidate
// only through replication -- the XRootD consistency model).
//
// Site partition = every incident link down.  Site-local traffic keeps
// running; cross-site paths fail fast, replication backlogs grow, and
// heal() lets the throttled catch-up drain them -- the
// `bench/wan_replication` partition-recovery scenario.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "cache/cache_fabric.hpp"
#include "cdd/cdd.hpp"
#include "cluster/cluster.hpp"
#include "ha/fault_plan.hpp"
#include "obs/metrics.hpp"
#include "obs/obs.hpp"
#include "raid/controller.hpp"
#include "sim/task.hpp"
#include "wan/link.hpp"
#include "wan/replication.hpp"
#include "workload/engines.hpp"

namespace raidx::wan {

struct FederationParams {
  int sites = 2;
  /// Applied to every inter-site link (full mesh).
  LinkParams link;
  /// Asynchronous cross-site mirrors (per-site replication log).
  bool geo_rep = false;
  ReplicationParams repl;
  /// Per-site world construction.
  cluster::ClusterParams cluster;
  workload::Arch arch = workload::Arch::kRaidX;
  raid::EngineParams engine;
  cache::CacheParams cache;
  cdd::CddParams cdd;
};

/// Federation-level counters (exported as `wan.*`).
struct WanStats {
  std::uint64_t remote_reads = 0;
  std::uint64_t remote_writes = 0;
  std::uint64_t cache_hits = 0;     // served by the local site cache
  std::uint64_t cache_fills = 0;    // blocks installed after a WAN fetch
  std::uint64_t origin_reads = 0;   // crossed the WAN to the home site
  std::uint64_t redirects = 0;      // took a two-hop detour
  std::uint64_t mirror_reads = 0;   // served by the local geo-mirror
  std::uint64_t stale_served = 0;   // mirror reads with a pending backlog
  std::uint64_t unreachable = 0;    // no path, no mirror: the op failed
  std::uint64_t write_forward_failures = 0;
  std::uint64_t read_bytes = 0;   // payload bytes fetched over the WAN
  std::uint64_t write_bytes = 0;  // payload bytes forwarded over the WAN
};

class Federation {
 public:
  Federation(sim::Simulation& sim, FederationParams params);
  ~Federation();
  Federation(const Federation&) = delete;
  Federation& operator=(const Federation&) = delete;

  sim::Simulation& sim() { return sim_; }
  const FederationParams& params() const { return params_; }
  int sites() const { return params_.sites; }
  bool geo_rep() const { return params_.geo_rep; }

  cluster::Cluster& cluster(int site) { return *sites_[site].cluster; }
  cdd::CddFabric& fabric(int site) { return *sites_[site].fabric; }
  cache::CacheFabric& cache(int site) { return *sites_[site].cache; }
  raid::ArrayController& engine(int site) { return *sites_[site].engine; }

  int num_links() const { return static_cast<int>(links_.size()); }
  Link& link_by_id(int id) { return *links_[id]; }
  Link& link_between(int a, int b);
  /// Full-mesh link count for `sites` sites (CLI validation needs it
  /// before the federation exists).
  static int mesh_links(int sites) { return sites * (sites - 1) / 2; }

  /// The shared logical namespace: every site's array is split into
  /// `sites` regions of region_blocks(); region h is site h's primary.
  std::uint64_t region_blocks() const { return region_blocks_; }
  std::uint64_t region_base(int site) const {
    return static_cast<std::uint64_t>(site) * region_blocks_;
  }
  int home_of(std::uint64_t lba) const {
    const auto h = static_cast<int>(lba / region_blocks_);
    return h >= params_.sites ? params_.sites - 1 : h;
  }
  std::uint32_t block_bytes() const { return block_bytes_; }
  /// Node that fronts federation traffic for `lba` at a site (spread
  /// deterministically over the site's nodes).
  int gateway(std::uint64_t lba) const {
    return static_cast<int>(lba % static_cast<std::uint64_t>(
                                      params_.cluster.geometry.nodes));
  }

  /// Open-loop RemoteHook entry: map a Zipf popularity slot from `src`
  /// onto a peer site's primary region and run the cross-site op.  Sites
  /// have no admission gate, so the outcome is kServed or kFailed.
  sim::Task<raid::IoOutcome> remote_io(int src, std::uint64_t slot,
                                       std::uint32_t nblocks, bool write);

  /// Cross-site read of [lba, lba+nblocks) homed at home_of(lba), on
  /// behalf of site `src` (cache -> WAN origin -> geo-mirror).
  sim::Task<bool> remote_read(int src, std::uint64_t lba,
                              std::uint32_t nblocks,
                              obs::TraceContext ctx = {});
  /// Forward a write to the origin site (redirect allowed).
  sim::Task<bool> remote_write(int src, std::uint64_t lba,
                               std::uint32_t nblocks,
                               obs::TraceContext ctx = {});

  /// Partition/heal a site: every incident link goes down/up.
  void set_site_up(int site, bool up);
  bool site_up(int site) const { return sites_[site].up; }

  /// Arm a fault plan against the federation: site partitions, link
  /// brownouts, and disk fail/heal in federation-global disk ids
  /// (site = id / disks_per_site).  Node partitions, corruption, and
  /// orchestrated recovery are single-site features; arm() rejects them
  /// with std::invalid_argument (the CLI validates first and exits 2).
  void arm_faults(const ha::FaultPlan& plan);

  Replicator* replicator() { return replicator_.get(); }
  const WanStats& stats() const { return stats_; }
  /// Remote read latency (ns), all resolutions.
  const obs::Histogram& remote_read_latency() const { return read_lat_; }

  /// Export per-site registries under `site.NNN.` plus the federation's
  /// own `wan.*` counters/histograms into `reg`.
  void collect(obs::Registry& reg);

 private:
  friend class Replicator;

  struct SiteObserver;
  struct Site {
    std::unique_ptr<cluster::Cluster> cluster;
    std::unique_ptr<cdd::CddFabric> fabric;
    std::unique_ptr<cache::CacheFabric> cache;
    std::unique_ptr<raid::ArrayController> engine;
    std::unique_ptr<SiteObserver> observer;
    bool up = true;
  };

  /// Route src -> dst: the direct link, or a two-hop detour through the
  /// first intermediate site with both legs up.  Empty when unreachable.
  std::vector<Link*> route(int src, int dst);
  /// Ship `bytes` along `path` (every hop must deliver).
  sim::Task<bool> ship(const std::vector<Link*>& path, int from,
                       std::uint64_t bytes, obs::TraceContext ctx);
  void note_site_write(int site, std::uint64_t lba, std::uint32_t nblocks);
  sim::Task<> fault_driver(std::vector<ha::FaultEvent> events);

  sim::Simulation& sim_;
  FederationParams params_;
  std::vector<Site> sites_;
  std::vector<std::unique_ptr<Link>> links_;
  std::unique_ptr<Replicator> replicator_;
  std::uint64_t region_blocks_ = 0;
  std::uint32_t block_bytes_ = 0;
  WanStats stats_;
  obs::Histogram read_lat_;
};

}  // namespace raidx::wan
