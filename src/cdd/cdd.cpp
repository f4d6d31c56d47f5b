#include "cdd/cdd.hpp"

#include <algorithm>
#include <cassert>
#include <utility>

namespace raidx::cdd {

CddService::CddService(CddFabric& fabric, int node_id)
    : fabric_(fabric), node_(node_id), locks_(fabric.cluster().sim()) {}

void CddService::post(Request req) {
  inbox_.push_back(std::move(req));
  if (!drain_pending_) {
    drain_pending_ = true;
    fabric_.cluster().sim().schedule(0, [this] { drain(); });
  }
}

void CddService::drain() {
  auto& sim = fabric_.cluster().sim();
  // Serving only schedules and spawns, so nothing posts while this runs;
  // indexing keeps a reentrant post safe all the same.
  for (std::size_t i = 0; i < inbox_.size(); ++i) {
    Request& req = inbox_[i];
    if (req.op == Request::Op::kLockSync) {
      // A lock-state broadcast has no reply and leaves no state behind:
      // only its receive CPU is charged, queued here in inbox order so it
      // takes the CPU in the same order as every other request.
      ++served_;
      fabric_.cluster().node(node_).post_cpu_work(req.wire_bytes());
      continue;
    }
    // Each request is handled concurrently; ordering on the actual disk is
    // enforced by the disk's own FIFO queue, as in a real driver.
    sim.spawn(handle(std::move(req)));
  }
  inbox_.clear();
  drain_pending_ = false;
}

sim::Task<> CddService::handle(Request req) {
  ++served_;
  auto& cluster = fabric_.cluster();
  auto& node = cluster.node(node_);

  switch (req.op) {
    case Request::Op::kRead: {
      obs::Span serve = obs::trace_span(
          cluster.sim(), req.ctx, "cdd.serve.read", obs::Track::kServer,
          node_, obs::SpanArgs{}.tag("node", node_).tag("disk", req.disk));
      Reply reply;
      co_await node.cpu_work(req.wire_bytes());
      try {
        auto& d = cluster.disk(req.disk);
        // Failed disks and not-yet-rebuilt regions cannot serve reads;
        // the client's controller falls back to its degraded path.
        if (!d.readable(req.offset, req.nblocks)) {
          reply.ok = false;
          if (d.failed()) fabric_.notify_disk_failure(req.disk);
        } else {
          co_await d.io(disk::IoKind::kRead, req.offset, req.nblocks,
                        req.prio, serve.ctx());
          reply.data = d.read_payload(req.offset, req.nblocks);
          IntegrityHooks* integ = fabric_.integrity();
          if (integ != nullptr && (req.verify || integ->verify_reads())) {
            co_await node.compute(integ->checksum_cost(
                static_cast<std::uint64_t>(req.nblocks) *
                d.block_bytes()));
            d.verify_blocks(req.offset, req.nblocks, reply.bad_blocks);
            for (std::uint64_t b : reply.bad_blocks) {
              integ->on_corruption_found(req.disk, b, req.verify);
            }
            if (!reply.bad_blocks.empty() && !req.verify) {
              // An ordinary read must never deliver bytes that failed
              // verification: fail the reply so the client's controller
              // re-fetches through its degraded/redundancy path (and the
              // bad bytes can never be installed in a cache).
              reply.ok = false;
              reply.data = {};
            }
          }
        }
      } catch (const disk::DiskFailedError& e) {
        reply.ok = false;
        fabric_.notify_disk_failure(e.disk_id);
      }
      co_await send_reply(req.from, req.op, req.rpc_id, req.reply,
                          std::move(reply), serve.ctx());
      break;
    }
    case Request::Op::kWrite: {
      obs::Span serve = obs::trace_span(
          cluster.sim(), req.ctx, "cdd.serve.write", obs::Track::kServer,
          node_, obs::SpanArgs{}.tag("node", node_).tag("disk", req.disk));
      Reply reply;
      co_await node.cpu_work(req.wire_bytes());
      try {
        auto& d = cluster.disk(req.disk);
        // With an integrity plane attached, the CDD computes the blocks'
        // checksums before they hit the media (write_data stores them).
        if (IntegrityHooks* integ = fabric_.integrity()) {
          co_await node.compute(integ->checksum_cost(
              static_cast<std::uint64_t>(req.nblocks) *
              d.block_bytes()));
        }
        co_await d.io(disk::IoKind::kWrite, req.offset, req.nblocks,
                      req.prio, serve.ctx());
        d.write_data(req.offset, req.payload);
      } catch (const disk::DiskFailedError& e) {
        reply.ok = false;
        fabric_.notify_disk_failure(e.disk_id);
      }
      co_await send_reply(req.from, req.op, req.rpc_id, req.reply,
                          std::move(reply), serve.ctx());
      break;
    }
    case Request::Op::kLock: {
      obs::Span serve = obs::trace_span(
          cluster.sim(), req.ctx, "cdd.serve.lock", obs::Track::kServer,
          node_,
          obs::SpanArgs{}.tag("node", node_).tag(
              "groups", static_cast<std::int64_t>(req.lock_groups.size())));
      co_await node.cpu_work(req.wire_bytes());
      // Grant the whole record atomically: groups in ascending order, the
      // same order every requester uses.
      for (std::uint64_t g : req.lock_groups) {
        if (!locks_.try_acquire_now(g, req.lock_owner)) {
          co_await locks_.acquire(g, req.lock_owner);
        }
        if (fabric_.params().replicate_lock_table) broadcast_lock_state();
      }
      co_await send_reply(req.from, req.op, req.rpc_id, req.reply, Reply{},
                          serve.ctx());
      break;
    }
    case Request::Op::kUnlock: {
      obs::Span serve = obs::trace_span(
          cluster.sim(), req.ctx, "cdd.serve.unlock", obs::Track::kServer,
          node_,
          obs::SpanArgs{}.tag("node", node_).tag(
              "groups", static_cast<std::int64_t>(req.lock_groups.size())));
      co_await node.cpu_work(req.wire_bytes());
      for (std::uint64_t g : req.lock_groups) {
        locks_.release(g, req.lock_owner);
        if (fabric_.params().replicate_lock_table) broadcast_lock_state();
      }
      co_await send_reply(req.from, req.op, req.rpc_id, req.reply, Reply{},
                          serve.ctx());
      break;
    }
    case Request::Op::kLockSync:
      break;  // served inline by drain()
    case Request::Op::kProbe: {
      // Health query answered from device state: no media access, so a
      // probe never perturbs the disk head or queues behind data traffic.
      obs::Span serve = obs::trace_span(
          cluster.sim(), req.ctx, "cdd.serve.probe", obs::Track::kServer,
          node_, obs::SpanArgs{}.tag("node", node_).tag("disk", req.disk));
      Reply reply;
      co_await node.cpu_work(req.wire_bytes());
      if (req.disk >= 0) reply.ok = !cluster.disk(req.disk).failed();
      co_await send_reply(req.from, req.op, req.rpc_id, req.reply,
                          std::move(reply), serve.ctx());
      break;
    }
  }
}

sim::Task<> CddService::send_reply(int to, Request::Op /*op*/,
                                   std::uint64_t rpc_id,
                                   sim::Oneshot<Reply>* slot, Reply reply,
                                   obs::TraceContext ctx) {
  if (to != node_) {
    auto& cluster = fabric_.cluster();
    co_await cluster.node(node_).cpu_work(reply.wire_bytes());
    const bool delivered = co_await cluster.network().transmit(
        node_, to, reply.wire_bytes(), ctx);
    // Reply lost to a partition: the client's watchdog owns the outcome.
    if (!delivered) co_return;
  }
  if (rpc_id != 0) {
    fabric_.deliver_reply(rpc_id, std::move(reply));
  } else {
    assert(slot != nullptr);
    slot->set(std::move(reply));
  }
}

CddService::LockSync::LockSync(CddService& s)
    : Send(s.fabric_.cluster().network(), &LockSync::sent), service(&s) {}

void CddService::LockSync::sent(net::Network::Send& send) {
  auto& sync = static_cast<LockSync&>(send);
  sync.service->deliver_lock_sync(sync);
  ++sync.peer;
  sync.service->continue_broadcast(sync);
}

void CddService::broadcast_lock_state() {
  if (idle_syncs_.empty()) {
    syncs_.push_back(std::make_unique<LockSync>(*this));
    idle_syncs_.push_back(syncs_.back().get());
  }
  LockSync* sync = idle_syncs_.back();
  idle_syncs_.pop_back();
  fabric_.cluster().sim().schedule(0, [sync] {
    CddService& self = *sync->service;
    // Background one-way traffic gets its own root trace.
    sync->span = obs::trace_span(
        self.fabric_.cluster().sim(), {}, "cdd.replicate",
        obs::Track::kRequest, self.node_,
        obs::SpanArgs{}.tag("node", self.node_));
    sync->peer = 0;
    self.continue_broadcast(*sync);
  });
}

void CddService::continue_broadcast(LockSync& sync) {
  // One header-sized message per peer announcing the group's new owner;
  // cache invalidations piggyback on this traffic.  Peers keep no copy of
  // the table, so a partitioned peer that misses one loses nothing.
  const int nodes = fabric_.cluster().num_nodes();
  for (; sync.peer < nodes; ++sync.peer) {
    if (sync.peer == node_) continue;
    // A lock-state message is a bare header: no payload, no group list.
    if (!sync.start(node_, sync.peer, kHeaderBytes, sync.span.ctx())) {
      return;  // LockSync::sent() picks up from here
    }
    deliver_lock_sync(sync);
  }
  sync.span.close();
  idle_syncs_.push_back(&sync);
}

void CddService::deliver_lock_sync(const LockSync& sync) {
  if (!sync.delivered()) return;
  Request msg;
  msg.op = Request::Op::kLockSync;
  msg.from = node_;
  fabric_.service(sync.peer).post(std::move(msg));
}

CddFabric::CddFabric(cluster::Cluster& cluster, CddParams params)
    : cluster_(cluster), params_(params), backoff_rng_(params.backoff_seed) {
  services_.reserve(static_cast<std::size_t>(cluster.num_nodes()));
  for (int i = 0; i < cluster.num_nodes(); ++i) {
    services_.push_back(std::make_unique<CddService>(*this, i));
  }
}

sim::Task<Reply> CddFabric::submit(int client, int target_node, Request req) {
  req.from = client;
  const std::uint64_t request_bytes = req.wire_bytes();
  const obs::TraceContext ctx = req.ctx;  // req may be moved away below

  if (target_node == client) {
    ++local_requests_;
    sim::Oneshot<Reply> slot(cluster_.sim());
    req.reply = &slot;
    service(client).post(std::move(req));
    co_return co_await slot.wait();
  }

  ++remote_requests_;

  // Only data-path ops are safely retryable: reads and probes are
  // idempotent, and block writes are idempotent at this layer (same
  // payload to the same physical extent).  Lock traffic never times out
  // (see CddParams), so its reply routes through the raw slot pointer.
  const bool can_retry = req.op == Request::Op::kRead ||
                         req.op == Request::Op::kWrite ||
                         req.op == Request::Op::kProbe;
  const sim::Time timeout =
      can_retry ? (req.timeout > 0 ? req.timeout : params_.request_timeout)
                : 0;

  if (timeout <= 0) {
    sim::Oneshot<Reply> slot(cluster_.sim());
    req.reply = &slot;
    co_await cluster_.node(client).cpu_work(request_bytes);
    const bool delivered = co_await cluster_.network().transmit(
        client, target_node, request_bytes, ctx);
    if (delivered) service(target_node).post(std::move(req));
    // An undelivered request with no watchdog waits forever -- exactly the
    // seed's semantics; chaos runs must configure request_timeout.
    Reply reply = co_await slot.wait();
    co_await cluster_.node(client).cpu_work(reply.wire_bytes());
    co_return reply;
  }

  const int max_retries =
      req.retries >= 0 ? req.retries : params_.max_retries;
  for (int attempt = 0;; ++attempt) {
    // Fresh slot and fresh rpc id per attempt: a reply to an abandoned
    // attempt finds no map entry and is dropped, never double-delivered.
    sim::Oneshot<Reply> slot(cluster_.sim());
    const std::uint64_t id = ++rpc_seq_;
    pending_.emplace(id, &slot);
    Request wire = req;       // keep `req` for potential retries
    wire.rpc_id = id;
    wire.reply = nullptr;     // timed RPCs route through the pending map
    co_await cluster_.node(client).cpu_work(request_bytes);
    const bool delivered = co_await cluster_.network().transmit(
        client, target_node, request_bytes, ctx);
    if (delivered) service(target_node).post(std::move(wire));
    cluster_.sim().schedule(timeout, [this, id] { resolve_timeout(id); });
    Reply reply = co_await slot.wait();
    if (!reply.timed_out) {
      co_await cluster_.node(client).cpu_work(reply.wire_bytes());
      co_return reply;
    }
    ++timeouts_;
    if (attempt >= max_retries) {
      ++retries_exhausted_;
      co_return reply;  // ok = false, timed_out = true
    }
    ++retries_;
    co_await cluster_.sim().delay(backoff_delay(attempt));
  }
}

void CddFabric::resolve_timeout(std::uint64_t rpc_id) {
  auto it = pending_.find(rpc_id);
  if (it == pending_.end()) return;  // real reply won the race
  sim::Oneshot<Reply>* slot = it->second;
  pending_.erase(it);
  Reply reply;
  reply.ok = false;
  reply.timed_out = true;
  slot->set(std::move(reply));
}

bool CddFabric::deliver_reply(std::uint64_t rpc_id, Reply reply) {
  auto it = pending_.find(rpc_id);
  if (it == pending_.end()) {
    // The watchdog already abandoned this attempt; the waiter's slot is
    // gone (possibly destroyed), so the late reply must be dropped.
    ++late_replies_;
    return false;
  }
  sim::Oneshot<Reply>* slot = it->second;
  pending_.erase(it);
  slot->set(std::move(reply));
  return true;
}

sim::Time CddFabric::backoff_delay(int attempt) {
  double d = static_cast<double>(params_.backoff_base);
  for (int i = 0; i < attempt; ++i) d *= params_.backoff_multiplier;
  if (params_.backoff_jitter > 0) {
    d *= 1.0 + backoff_rng_.uniform_real(0.0, params_.backoff_jitter);
  }
  return static_cast<sim::Time>(d);
}

sim::Task<Reply> CddFabric::probe(int client, int node, int disk,
                                  sim::Time timeout, obs::TraceContext ctx) {
  obs::Span span = obs::trace_span(
      cluster_.sim(), ctx, "cdd.probe", obs::Track::kRequest, client,
      obs::SpanArgs{}.tag("client", client).tag("node", node).tag("disk",
                                                                  disk));
  Request req;
  req.op = Request::Op::kProbe;
  req.disk = disk;
  req.timeout = timeout > 0 ? timeout : params_.request_timeout;
  req.retries = 0;  // the prober's cadence is the retry policy
  req.ctx = span.ctx();
  co_return co_await submit(client, node, std::move(req));
}

sim::Task<Reply> CddFabric::read(int client, int disk_id, std::uint64_t offset,
                                 std::uint32_t nblocks,
                                 disk::IoPriority prio,
                                 obs::TraceContext ctx) {
  const int target = cluster_.geometry().node_of(disk_id);
  obs::Span span = obs::trace_span(
      cluster_.sim(), ctx, "cdd.read", obs::Track::kRequest, client,
      obs::SpanArgs{}
          .tag("client", client)
          .tag("disk", disk_id)
          .tag("remote", target != client ? 1 : 0));
  Request req;
  req.op = Request::Op::kRead;
  req.disk = disk_id;
  req.offset = offset;
  req.nblocks = nblocks;
  req.prio = prio;
  req.ctx = span.ctx();
  co_return co_await submit(client, target, std::move(req));
}

sim::Task<Reply> CddFabric::scrub_read(int client, int disk_id,
                                       std::uint64_t offset,
                                       std::uint32_t nblocks,
                                       obs::TraceContext ctx) {
  const int target = cluster_.geometry().node_of(disk_id);
  obs::Span span = obs::trace_span(
      cluster_.sim(), ctx, "cdd.scrub_read", obs::Track::kRequest, client,
      obs::SpanArgs{}
          .tag("client", client)
          .tag("disk", disk_id)
          .tag("remote", target != client ? 1 : 0));
  Request req;
  req.op = Request::Op::kRead;
  req.disk = disk_id;
  req.offset = offset;
  req.nblocks = nblocks;
  req.prio = disk::IoPriority::kBackground;
  req.verify = true;
  req.ctx = span.ctx();
  co_return co_await submit(client, target, std::move(req));
}

sim::Task<Reply> CddFabric::write(int client, int disk_id,
                                  std::uint64_t offset,
                                  block::Payload data,
                                  disk::IoPriority prio,
                                  obs::TraceContext ctx) {
  assert(data.size() % cluster_.geometry().block_bytes == 0);
  const int target = cluster_.geometry().node_of(disk_id);
  obs::Span span = obs::trace_span(
      cluster_.sim(), ctx, "cdd.write", obs::Track::kRequest, client,
      obs::SpanArgs{}
          .tag("client", client)
          .tag("disk", disk_id)
          .tag("remote", target != client ? 1 : 0)
          .tag("background",
               prio == disk::IoPriority::kBackground ? 1 : 0));
  Request req;
  req.op = Request::Op::kWrite;
  req.disk = disk_id;
  req.offset = offset;
  req.nblocks = static_cast<std::uint32_t>(
      data.size() / cluster_.geometry().block_bytes);
  req.payload = std::move(data);
  req.prio = prio;
  req.ctx = span.ctx();
  co_return co_await submit(client, target, std::move(req));
}

sim::Task<> CddFabric::lock_groups(int client,
                                   std::vector<std::uint64_t> groups,
                                   std::uint64_t owner,
                                   obs::TraceContext ctx) {
  return per_home_rpcs(client, Request::Op::kLock, std::move(groups), owner,
                       ctx);
}

sim::Task<> CddFabric::unlock_groups(int client,
                                     std::vector<std::uint64_t> groups,
                                     std::uint64_t owner,
                                     obs::TraceContext ctx) {
  return per_home_rpcs(client, Request::Op::kUnlock, std::move(groups),
                       owner, ctx);
}

sim::Task<> CddFabric::per_home_rpcs(int client, Request::Op op,
                                     std::vector<std::uint64_t> groups,
                                     std::uint64_t owner,
                                     obs::TraceContext ctx) {
  obs::Span span = obs::trace_span(
      cluster_.sim(), ctx,
      op == Request::Op::kLock ? "cdd.lock" : "cdd.unlock",
      obs::Track::kRequest, client,
      obs::SpanArgs{}.tag("client", client).tag(
          "groups", static_cast<std::int64_t>(groups.size())));
  // One RPC per home node, homes in ascending order.  The stable sort
  // keeps each home's sub-list in the caller's (ascending) order.
  std::stable_sort(groups.begin(), groups.end(),
                   [this](std::uint64_t a, std::uint64_t b) {
                     return lock_home(a) < lock_home(b);
                   });
  for (auto first = groups.begin(); first != groups.end();) {
    const int home = lock_home(*first);
    auto last = std::find_if(first, groups.end(), [&](std::uint64_t g) {
      return lock_home(g) != home;
    });
    Request req;
    req.op = op;
    req.lock_owner = owner;
    req.ctx = span.ctx();
    req.lock_groups.assign(first, last);
    first = last;
    co_await submit(client, home, std::move(req));
  }
}

}  // namespace raidx::cdd
