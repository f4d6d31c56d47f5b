// Cooperative disk drivers (CDD) -- the paper's enabling mechanism for the
// single I/O space.
//
// One CddService runs on every node, combining the paper's three modules:
//  * storage manager: an inbox of incoming requests, drained in arrival
//    order by a zero-delay callback, each request then executed against the
//    locally attached disks by its own handler;
//  * client module: redirects I/O on remotely-managed disks to the owning
//    node's storage manager over the network ("device masquerading" -- the
//    caller addresses any disk in the SIOS and never sees the difference
//    beyond latency);
//  * consistency module: home-node partitioned lock-group table; each grant
//    and release is broadcast to the peers as one-way lock-state messages
//    (modelled wire and CPU traffic that carries cache invalidations).
//    Peers keep no replica: the home's table is the only copy.  The
//    broadcast and its receive charges are callback state machines, so
//    the O(N) messages per grant cost no coroutine frames.
//
// Local requests bypass the network entirely (one kernel crossing), which is
// exactly the property that lets a serverless cluster beat a central file
// server.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <unordered_map>
#include <vector>

#include "cdd/lock_table.hpp"
#include "cdd/message.hpp"
#include "cluster/cluster.hpp"
#include "net/network.hpp"
#include "sim/channel.hpp"
#include "sim/random.hpp"
#include "sim/task.hpp"

namespace raidx::cdd {

struct CddParams {
  /// Broadcast every lock grant/release to all peer consistency modules.
  bool replicate_lock_table = true;

  /// Client-side timeout on remote read/write/probe RPCs; 0 (the default)
  /// keeps the seed behavior of waiting forever, and leaves the request
  /// path bit-identical to builds that predate recovery orchestration.
  /// Lock traffic never times out: the home node is also where the data
  /// lives, so a dead lock home fails the I/O itself, and retrying a
  /// queued FIFO acquire would reorder writers.
  sim::Time request_timeout = 0;
  /// Retries after the first timeout before giving up (Reply.timed_out).
  int max_retries = 3;
  /// Exponential backoff between retries: base * multiplier^attempt,
  /// stretched by a seeded jitter in [0, backoff_jitter] so synchronized
  /// clients desynchronize deterministically.
  sim::Time backoff_base = sim::milliseconds(1);
  double backoff_multiplier = 2.0;
  double backoff_jitter = 0.25;
  std::uint64_t backoff_seed = 0x5eedb0ff;
};

class CddFabric;

/// Hooks the CDD data path calls when an integrity plane (src/integrity)
/// is attached.  An abstract interface rather than the concrete plane so
/// the CDD layer does not depend on the subsystem that drives repairs.
class IntegrityHooks {
 public:
  virtual ~IntegrityHooks() = default;
  /// Verify every ordinary read at the CDD boundary (--verify-reads).
  virtual bool verify_reads() const = 0;
  /// Simulated CPU cost of checksumming `bytes` at the serving node.
  virtual sim::Time checksum_cost(std::uint64_t bytes) const = 0;
  /// A block failed verification.  Runs synchronously inside the CDD
  /// handler; must be cheap and spawn any real work (repair, escalation).
  virtual void on_corruption_found(int disk, std::uint64_t offset,
                                   bool by_scrub) = 0;
};

class CddService {
 public:
  CddService(CddFabric& fabric, int node_id);
  CddService(const CddService&) = delete;
  CddService& operator=(const CddService&) = delete;

  /// Deliver a request to this node's inbox.  The first post into an idle
  /// inbox schedules a zero-delay drain; later posts join the queue and
  /// that same drain serves them all in arrival order.  A lock-state
  /// message is served by the drain itself (its receive CPU); any other
  /// request starts its own handler process.
  void post(Request req);

  LockGroupTable& lock_table() { return locks_; }
  int node_id() const { return node_; }

  std::uint64_t requests_served() const { return served_; }
  /// Lock-state broadcasts started and not yet sent to every peer.
  std::size_t broadcasts_in_flight() const {
    return syncs_.size() - idle_syncs_.size();
  }

 private:
  friend class CddFabric;

  /// One lock-state broadcast in flight: a Send re-armed for each peer in
  /// ascending order.  Pooled per service; one abandoned by
  /// Simulation::shutdown() is freed with the service.
  struct LockSync : net::Network::Send {
    explicit LockSync(CddService& s);
    static void sent(net::Network::Send& send);
    CddService* service;
    int peer = 0;
    obs::Span span;
  };

  void drain();
  sim::Task<> handle(Request req);
  sim::Task<> send_reply(int to, Request::Op op, std::uint64_t rpc_id,
                         sim::Oneshot<Reply>* slot, Reply reply,
                         obs::TraceContext ctx = {});
  /// Announce a grant or release to every peer.  The fan-out starts from
  /// its own zero-delay event, once the granting handler has suspended.
  void broadcast_lock_state();
  /// Send to the remaining peers until one send must wait.
  void continue_broadcast(LockSync& sync);
  void deliver_lock_sync(const LockSync& sync);

  CddFabric& fabric_;
  int node_;
  std::vector<Request> inbox_;
  bool drain_pending_ = false;
  LockGroupTable locks_;
  std::uint64_t served_ = 0;
  std::vector<std::unique_ptr<LockSync>> syncs_;
  std::vector<LockSync*> idle_syncs_;
};

/// The cluster-wide collection of CDDs plus the client-side API that the
/// RAID controllers program against.
class CddFabric {
 public:
  CddFabric(cluster::Cluster& cluster, CddParams params = {});
  CddFabric(const CddFabric&) = delete;
  CddFabric& operator=(const CddFabric&) = delete;

  /// Read `nblocks` from physical (disk, offset) on behalf of node
  /// `client`.  Returns the data; Reply.ok is false if the disk failed.
  sim::Task<Reply> read(int client, int disk_id, std::uint64_t offset,
                        std::uint32_t nblocks,
                        disk::IoPriority prio = disk::IoPriority::kForeground,
                        obs::TraceContext ctx = {});

  /// Write `data` to physical (disk, offset) on behalf of node `client`.
  sim::Task<Reply> write(int client, int disk_id, std::uint64_t offset,
                         block::Payload data,
                         disk::IoPriority prio = disk::IoPriority::kForeground,
                         obs::TraceContext ctx = {});

  /// Acquire/release exclusive write locks on a set of groups (sorted
  /// ascending, no duplicates).  Batched: one RPC per home node, homes
  /// visited in ascending order -- every client uses the same global
  /// (home, group) acquisition order, so overlapping writers queue FIFO
  /// instead of deadlocking.  `owner` is a token from next_lock_owner().
  sim::Task<> lock_groups(int client, std::vector<std::uint64_t> groups,
                          std::uint64_t owner, obs::TraceContext ctx = {});
  sim::Task<> unlock_groups(int client, std::vector<std::uint64_t> groups,
                            std::uint64_t owner, obs::TraceContext ctx = {});

  /// Scrub read: like read(), but with per-block checksum verification
  /// forced at the serving CDD.  Mismatching blocks come back listed in
  /// Reply.bad_blocks (ok stays true -- the scrubber wants the report,
  /// not a degraded fallback).  Runs at background priority so sweeps
  /// yield to foreground traffic.
  sim::Task<Reply> scrub_read(int client, int disk_id, std::uint64_t offset,
                              std::uint32_t nblocks,
                              obs::TraceContext ctx = {});

  /// Attach/detach the integrity plane.  Null (the default) keeps every
  /// read bit-identical to a build that predates the checksum plane.
  void set_integrity(IntegrityHooks* hooks) { integrity_ = hooks; }
  IntegrityHooks* integrity() const { return integrity_; }

  /// Health-check RPC: is `node` reachable, and (disk >= 0) is that disk
  /// alive?  Answered from device state with no media access, so probes
  /// never perturb disk heads or queue behind data traffic.  `timeout`
  /// bounds the round trip (0 falls back to the fabric default); probes
  /// are never retried -- the prober's own cadence is the retry policy.
  sim::Task<Reply> probe(int client, int node, int disk = -1,
                         sim::Time timeout = 0, obs::TraceContext ctx = {});

  /// Called by a CddService when a media access hits a failed disk, so
  /// detection can ride ordinary traffic instead of waiting for a probe
  /// round.  The listener runs synchronously; it must be cheap and spawn
  /// any real work (the ha::Orchestrator registers itself here).
  void set_disk_failure_listener(std::function<void(int)> fn) {
    disk_failure_listener_ = std::move(fn);
  }
  void notify_disk_failure(int disk) {
    if (disk_failure_listener_) disk_failure_listener_(disk);
  }

  /// Deterministic backoff before retry number `attempt` (0-based), with
  /// the seeded jitter applied.  Public so tests can pin the schedule.
  sim::Time backoff_delay(int attempt);

  bool timeouts_enabled() const { return params_.request_timeout > 0; }
  std::uint64_t timeouts() const { return timeouts_; }
  std::uint64_t retries() const { return retries_; }
  std::uint64_t retries_exhausted() const { return retries_exhausted_; }
  std::uint64_t late_replies() const { return late_replies_; }

  /// Mint a fresh lock-owner token (unique across the fabric's lifetime).
  std::uint64_t next_lock_owner() { return ++lock_owner_seq_; }

  int lock_home(std::uint64_t group) const {
    return static_cast<int>(group % static_cast<std::uint64_t>(
                                        cluster_.num_nodes()));
  }

  cluster::Cluster& cluster() { return cluster_; }
  const CddParams& params() const { return params_; }
  CddService& service(int node) {
    return *services_[static_cast<std::size_t>(node)];
  }

  std::uint64_t remote_requests() const { return remote_requests_; }
  std::uint64_t local_requests() const { return local_requests_; }

 private:
  friend class CddService;

  /// lock_groups/unlock_groups: one `op` RPC per home node, in order.
  sim::Task<> per_home_rpcs(int client, Request::Op op,
                            std::vector<std::uint64_t> groups,
                            std::uint64_t owner, obs::TraceContext ctx);

  /// Route a request to the node owning its target; completes when the
  /// reply has fully arrived back at the client.
  sim::Task<Reply> submit(int client, int target_node, Request req);

  /// Watchdog fired for a pending RPC: resolve it with a timed-out reply
  /// unless the real reply won the race (then the map entry is gone).
  void resolve_timeout(std::uint64_t rpc_id);
  /// Route a server reply to the pending slot; false (and counted) when
  /// the watchdog already abandoned the RPC -- the late reply is dropped,
  /// never delivered twice.
  bool deliver_reply(std::uint64_t rpc_id, Reply reply);

  cluster::Cluster& cluster_;
  CddParams params_;
  std::vector<std::unique_ptr<CddService>> services_;
  std::uint64_t remote_requests_ = 0;
  std::uint64_t local_requests_ = 0;
  std::uint64_t lock_owner_seq_ = 0;
  /// rpc_id -> reply slot of the attempt still waiting.  Entries are
  /// erased by whichever of {server reply, timeout watchdog} gets there
  /// first; the slot pointer lives in submit()'s frame, which the erasure
  /// protocol keeps alive until the slot resolves.
  std::unordered_map<std::uint64_t, sim::Oneshot<Reply>*> pending_;
  std::uint64_t rpc_seq_ = 0;
  sim::Rng backoff_rng_;
  std::uint64_t timeouts_ = 0;
  std::uint64_t retries_ = 0;
  std::uint64_t retries_exhausted_ = 0;
  std::uint64_t late_replies_ = 0;
  std::function<void(int)> disk_failure_listener_;
  IntegrityHooks* integrity_ = nullptr;
};

}  // namespace raidx::cdd
