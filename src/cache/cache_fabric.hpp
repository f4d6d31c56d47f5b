// Cooperative block-cache fabric: pooling node *memory* the way the CDDs
// pool node disks.
//
// One NodeCache per node holds logical blocks; a directory partitioned by
// home node (home(lba) = lba % n, the same partitioning scheme as
// CddFabric::lock_home) records which nodes cache which block.  The fabric
// provides three timing-charged operations the array controllers call:
//
//  * read_block  -- local hit (memory copy), cooperative peer hit (the
//    block is fetched from a peer's memory over the simulated Ethernet:
//    requester -> home -> peer -> requester, still far cheaper than a disk
//    seek), or miss (caller reads disks and calls fill()).
//  * fill        -- install a block read from disk, register it with the
//    directory (one-way background message to the home node).
//  * write_block -- install the new contents at the writer and invalidate
//    every other copy.  The *functional* invalidation is synchronous --
//    inside the writer's lock-group critical section -- so coherence is
//    byte-exact: any reader serialized after the write can only see the
//    new data (from the writer's cache via the directory, or from disk
//    after the flush).  The invalidation *notices* piggyback on the
//    existing lock-group grant/release broadcasts when the engine runs
//    with locks + lock-table replication (no extra wire traffic); without
//    that traffic to ride on they are charged as explicit one-way
//    messages.
//
// The directory is maintained whenever the cache is enabled; the
// `cooperative` switch only controls peer-memory hit *forwarding* of clean
// copies.  Coherence never depends on it: a dirty peer copy (write-back)
// makes the disk stale, so reads always forward from a dirty holder, and a
// per-block write epoch stops racing readers from re-installing pre-write
// disk bytes after an invalidation.
//
// Dirty blocks (write-back) are never silently dropped: victim selection
// skips them, and the engine-side flusher (ArrayController) cleans them
// through the layout's own redundancy path before eviction retires them.
//
// Write-through writes are installed *transiently dirty*: concurrent
// same-block writers can reach the disks in the opposite order of their
// cache commits (cache commit order is write_block order, disk order is
// lock order), so a block only becomes clean once its last cache writer's
// disk write has landed and no other disk write for it is pending
// (end_write_through).  Until then the dirty copy is the ground truth --
// unevictable and forwarded to every reader -- and any leftovers converge
// through the ordinary flush protocol.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <unordered_map>
#include <vector>

#include "cache/block_cache.hpp"
#include "cluster/cluster.hpp"
#include "obs/obs.hpp"
#include "sim/task.hpp"
#include "sim/time.hpp"

namespace raidx::cache {

/// Fixed framing cost of cache control messages (directory lookups,
/// registrations, invalidation notices, forward requests).
inline constexpr std::uint64_t kCacheHeaderBytes = 128;

enum class WritePolicy {
  kWriteThrough,  // writes update the cache and go to disk in line
  kWriteBack,     // writes are absorbed; a background flusher drains them
};

struct CacheParams {
  /// Per-node capacity in blocks; 0 disables the cache entirely (every
  /// hook in the I/O path is bypassed and timing is bit-identical to a
  /// cacheless build).
  std::uint64_t capacity_blocks = 0;
  WritePolicy write_policy = WritePolicy::kWriteThrough;
  EvictionPolicy eviction = EvictionPolicy::kLru;
  /// Serve local misses from peer memory over the network.
  bool cooperative = false;
  /// Memory copy cost (1999-era ~100 MB/s memcpy).
  double mem_ns_per_byte = 10.0;
  /// Fixed per-lookup CPU cost (hash probe, descriptor bookkeeping).
  sim::Time lookup_overhead = sim::microseconds(5);
  /// Write-back: the flusher starts once dirty blocks exceed this fraction
  /// of capacity and drains down to the low-water fraction.
  double dirty_high_water = 0.25;
  double dirty_low_water = 0.05;

  bool enabled() const { return capacity_blocks > 0; }
};

/// Fabric-wide counters, exported by benches and raidxsim.
struct CacheStats {
  std::uint64_t hits = 0;            // served from the local cache
  std::uint64_t peer_hits = 0;       // forwarded from a peer's memory
  std::uint64_t misses = 0;          // went to disk
  std::uint64_t fills = 0;           // blocks installed after a disk read
  std::uint64_t writes_absorbed = 0; // write-back writes kept in memory
  std::uint64_t invalidations = 0;   // peer copies killed by writes
  std::uint64_t flushes = 0;         // dirty blocks written back
  std::uint64_t evictions = 0;       // blocks retired for capacity
  /// Fault-path counters (exported only when fault injection was used, so
  /// fault-free runs keep their exact obs key set).
  std::uint64_t dead_holder_skips = 0;  // forwards avoided: holder's node down
  std::uint64_t dirty_lost = 0;         // dirty blocks on a node declared down
  /// Coherence-directory pressure: high-water marks of tracked blocks and
  /// of any one block's holder list.  A Zipf-skewed open-loop run shows up
  /// here as a small hot set replicated on many nodes (peak_sharers near
  /// the node count) while a uniform scan grows entries instead.
  std::uint64_t directory_peak_entries = 0;
  std::uint64_t directory_peak_sharers = 0;

  std::uint64_t lookups() const { return hits + peer_hits + misses; }
  double hit_ratio() const {
    const std::uint64_t n = lookups();
    return n == 0 ? 0.0
                  : static_cast<double>(hits + peer_hits) /
                        static_cast<double>(n);
  }
};

class CacheFabric {
 public:
  CacheFabric(cluster::Cluster& cluster, CacheParams params);
  CacheFabric(const CacheFabric&) = delete;
  CacheFabric& operator=(const CacheFabric&) = delete;

  bool enabled() const { return params_.enabled(); }
  const CacheParams& params() const { return params_; }
  const CacheStats& stats() const { return stats_; }
  cluster::Cluster& cluster() { return cluster_; }

  /// Directory home of a block -- same partitioning as CddFabric::lock_home.
  int home_of(std::uint64_t lba) const {
    return static_cast<int>(lba % static_cast<std::uint64_t>(
                                      cluster_.num_nodes()));
  }

  /// Try to serve `lba` into `out` from `cache_node`'s cache or (if
  /// cooperative) a peer's.  `client` is the node that wants the data;
  /// it differs from `cache_node` only for server-side caches (NFS).
  /// Returns false on a miss, charging nothing -- the caller's disk path
  /// pays full price and then calls fill().
  sim::Task<bool> read_block(int client, int cache_node, std::uint64_t lba,
                             std::span<std::byte> out,
                             obs::TraceContext ctx = {});

  /// Monotonic per-block write counter.  A reader snapshots it before
  /// going to disk; fill() refuses the install if a write slipped in
  /// between, so a racing reader can never re-install stale bytes after
  /// the writer's invalidation has run.
  std::uint64_t write_epoch(std::uint64_t lba) const {
    auto it = write_epoch_.find(lba);
    return it == write_epoch_.end() ? 0 : it->second;
  }

  /// Install a block just read from disk (clean) and register it with the
  /// directory.  `epoch` is the write_epoch() snapshot taken before the
  /// disk read; a mismatch means the disk bytes are stale and the install
  /// is dropped.  The registration notice is a one-way background message.
  /// The entry is one shared copy of `data`, or a zero-run (no storage)
  /// when `data` is all zeros.
  void fill(int cache_node, std::uint64_t lba,
            std::span<const std::byte> data, std::uint64_t epoch);

  /// Install new contents at the writer and invalidate every peer copy.
  /// The entry shares `data`'s storage.  `piggybacked` marks the
  /// invalidation notices as riding the engine's lock-group grant/release
  /// broadcasts (no extra wire traffic).
  /// `through` marks a write-through write: the entry is installed dirty
  /// and a per-block in-flight counter is raised until the caller's disk
  /// write lands and end_write_through() settles it.  Returns the write
  /// epoch assigned at the (synchronous) functional commit.
  sim::Task<std::uint64_t> write_block(int cache_node, std::uint64_t lba,
                                       block::Payload data,
                                       bool dirty, bool piggybacked,
                                       bool through = false,
                                       obs::TraceContext ctx = {});

  /// A write-through disk write finished (`ok` = it actually reached the
  /// disks).  The entry is marked clean only when this writer is still the
  /// last cache writer (epoch match) and no other write-through disk write
  /// for the block is in flight -- otherwise disk and cache may disagree
  /// (same-block writers can reach the disks in the opposite order of
  /// their cache commits), so the block stays dirty and the flush protocol
  /// converges it.  Returns true when nothing is left for the caller's
  /// flusher to do.
  bool end_write_through(int node, std::uint64_t lba, std::uint64_t epoch,
                         bool ok);

  /// Write-through disk writes currently in flight for a block.  While
  /// nonzero a flush must not mark the block clean: a straggling writer
  /// could still land stale bytes on disk after the flush.
  std::uint64_t wt_inflight(std::uint64_t lba) const {
    auto it = wt_inflight_.find(lba);
    return it == wt_inflight_.end() ? 0 : it->second;
  }

  // ------------------------------------------------------------------ //
  // Flush protocol (driven by ArrayController's background flusher).

  struct DirtySnapshot {
    std::uint64_t lba = 0;
    std::uint64_t version = 0;
    block::Payload data;  // shares the cache entry's storage
  };

  /// Oldest dirty block of a node, marked busy so concurrent flushers skip
  /// it; std::nullopt when the node has no flushable dirty block.
  std::optional<DirtySnapshot> begin_flush(int node);
  /// Re-snapshot a block mid-flush (after lock acquisition) so the flush
  /// writes current bytes; nullopt if it was cleaned/invalidated meanwhile.
  std::optional<DirtySnapshot> resnapshot(int node, std::uint64_t lba);
  /// Flush finished: mark clean (if unchanged since `version`) and unbusy.
  void end_flush(int node, std::uint64_t lba, std::uint64_t version,
                 bool ok);

  /// Evict clean victims until the node is back under capacity (or only
  /// dirty/busy entries remain).  Dropping a clean block is free; the
  /// directory drop-out notice is a one-way background message.
  void shed_overflow(int node);

  bool over_capacity(int node) const {
    return cache(node).over_capacity();
  }
  std::size_t dirty_blocks(int node) const {
    return cache(node).dirty_blocks();
  }
  /// Flusher trigger: dirty above high water, or capacity overflow that
  /// only dirty entries are causing.
  bool needs_flush(int node) const;
  /// Flusher exit condition.
  bool flushed_enough(int node) const;

  NodeCache& cache(int node) { return *caches_[static_cast<std::size_t>(node)]; }
  const NodeCache& cache(int node) const {
    return *caches_[static_cast<std::size_t>(node)];
  }

  /// Blocks in [lo,hi) are file-system metadata on every node: evict last.
  void set_pinned_range(std::uint64_t lo, std::uint64_t hi);

  /// Test/bench helper: forget a node's (clean!) contents so the next
  /// reads go to disk again.  Asserts there is nothing dirty to lose.
  void drop_node(int node);

  /// Repair path (called by the array controllers after src/integrity
  /// rewrote a block's on-disk bytes from redundancy): drop every CLEAN
  /// cached copy of `lba` and bump its write epoch, so a copy warmed from
  /// an unverified read of the corrupt block -- or a racing reader's fill
  /// of pre-repair disk bytes -- can never keep serving after the repair.
  /// Dirty copies are deliberately kept: they hold a *newer* write than
  /// the disk, and the ordinary flush protocol will land them.
  void invalidate_for_repair(std::uint64_t lba);

  /// Failure path (called by ha::Orchestrator when a node is declared
  /// down): scrub the node's directory registrations and drop its cache
  /// contents.  Unlike drop_node this tolerates -- and counts -- dirty
  /// blocks: their only copy lived in the dead node's memory, so they are
  /// lost (the redundancy layer still has the pre-write bytes; losing a
  /// write-back cache loses unflushed writes, exactly as on real
  /// hardware).
  void on_node_down(int node);

 private:
  void directory_add(std::uint64_t lba, int node);
  void directory_remove(std::uint64_t lba, int node);
  /// Fire-and-forget control message (registration / invalidation notice).
  void post_notice(int from, int to);
  sim::Task<> one_way(int from, int to, std::uint64_t bytes,
                      obs::TraceContext ctx = {});

  cluster::Cluster& cluster_;
  CacheParams params_;
  std::vector<std::unique_ptr<NodeCache>> caches_;
  /// lba -> nodes caching it.  Partitioned by home_of() for charging; kept
  /// in one map because the functional state is global anyway.
  std::unordered_map<std::uint64_t, std::vector<int>> directory_;
  /// lba -> number of write_block() calls; guards fill() against racing
  /// readers installing pre-write disk bytes.
  std::unordered_map<std::uint64_t, std::uint64_t> write_epoch_;
  /// lba -> write-through disk writes in flight (see end_write_through).
  std::unordered_map<std::uint64_t, std::uint64_t> wt_inflight_;
  CacheStats stats_;
};

}  // namespace raidx::cache
