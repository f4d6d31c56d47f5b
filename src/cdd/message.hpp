// Wire messages exchanged between cooperative disk drivers.
#pragma once

#include <cstdint>
#include <vector>

#include "block/payload.hpp"
#include "disk/disk.hpp"
#include "obs/obs.hpp"
#include "sim/channel.hpp"

namespace raidx::cdd {

/// Fixed framing cost of every CDD message (headers, opcodes, addresses).
inline constexpr std::uint64_t kHeaderBytes = 128;

struct Reply {
  bool ok = true;
  /// Set (with ok = false) when the client-side watchdog gave up on the
  /// request: the server may be dead, partitioned, or just slow.  Never
  /// set by a server -- a real reply always clears it.
  bool timed_out = false;
  block::Payload data;  // read payload
  /// Physical blocks that failed checksum verification (scrub reads: the
  /// data still ships, ok stays true, and the bad offsets are reported
  /// here for the repair machinery).  Not counted in wire_bytes(): a real
  /// driver packs per-block status bits into existing header slack.
  std::vector<std::uint64_t> bad_blocks;

  std::uint64_t wire_bytes() const { return kHeaderBytes + data.size(); }
};

struct Request {
  enum class Op : std::uint8_t {
    kRead,      // block read from a remote-managed disk
    kWrite,     // block write
    kLock,      // acquire a lock-group write lock (to its home manager)
    kUnlock,    // release it
    kLockSync,  // one-way lock-state broadcast (no reply, no receiver state)
    kProbe,     // health query (node liveness / disk state); no media I/O
  };

  Op op = Op::kRead;
  int from = -1;                 // requesting node
  int disk = -1;                 // global disk id (read/write)
  std::uint64_t offset = 0;      // physical block offset on that disk
  std::uint32_t nblocks = 0;
  disk::IoPriority prio = disk::IoPriority::kForeground;
  /// Force checksum verification of this read regardless of the fabric's
  /// verify-reads policy (the scrub daemon's sweep reads).  A verify-only
  /// mismatch is reported in Reply.bad_blocks with ok left true; ordinary
  /// reads that fail verification come back ok = false instead, so the
  /// client's degraded path re-fetches from redundancy.
  bool verify = false;
  block::Payload payload;  // write data
  /// Lock groups covered by one request -- the paper's "record in the
  /// lock-group table": a set of block groups granted to one client
  /// atomically.  All groups in one message share a home node.
  std::vector<std::uint64_t> lock_groups;
  /// Lock requester token: unique per logical writer, NOT the node id --
  /// two processes on one node must still exclude each other.  0 is the
  /// "free" sentinel.
  std::uint64_t lock_owner = 0;
  sim::Oneshot<Reply>* reply = nullptr;  // null for one-way messages
  /// Nonzero when the request runs under a client-side timeout: the reply
  /// is then routed through the fabric's pending-RPC map (first of reply
  /// and watchdog wins; a late reply is dropped) instead of the raw slot
  /// pointer, which would dangle once the watchdog abandons the frame.
  std::uint64_t rpc_id = 0;
  /// Per-request overrides of CddParams request_timeout / max_retries;
  /// timeout 0 = use the fabric default, retries -1 likewise.  Not
  /// counted in wire_bytes(): policy lives on the client, not the wire.
  sim::Time timeout = 0;
  int retries = -1;
  /// Trace identity carried across the node boundary, so the server-side
  /// handling spans nest under the originating client request.  Not
  /// counted in wire_bytes(): trace ids ride in existing header slack.
  obs::TraceContext ctx{};

  std::uint64_t wire_bytes() const {
    return kHeaderBytes + payload.size() + 8 * lock_groups.size();
  }
};

}  // namespace raidx::cdd
