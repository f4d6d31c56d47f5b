// Lock-group table of the CDD consistency module.
//
// The paper: "Each record in this table corresponds to a group of data
// blocks that have been granted to a specific CDD client with write
// permissions.  The write locks in each record are granted and released
// atomically."  A group's lock is exclusive and waiters are served FIFO.
// Each node manages the groups that hash to it (home-node partitioning),
// and its table is the only copy: the CddService announces every grant and
// release to the peers as one-way lock-state messages, which they charge
// receive CPU for and do not store.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <unordered_map>

#include "sim/event_queue.hpp"
#include "sim/sync.hpp"
#include "sim/task.hpp"

namespace raidx::cdd {

class LockGroupTable {
 public:
  explicit LockGroupTable(sim::Simulation& sim) : sim_(sim) {}

  /// Completes once `owner` holds the exclusive write lock on `group`.
  /// Owners are unique requester tokens (0 = free sentinel), not node ids:
  /// two writers on one node must still exclude each other.  Idempotent:
  /// re-acquiring a group the owner already holds succeeds immediately, so
  /// a retried kLock whose grant reply was lost never deadlocks on itself.
  sim::Task<> acquire(std::uint64_t group, std::uint64_t owner);

  /// Uncontended fast path: grab the lock without spinning up a coroutine
  /// frame.  Returns false (and takes nothing) if the group is held by
  /// someone else or has waiters; fall back to acquire() then.  Returns
  /// true when `owner` already holds the group (idempotent re-acquire).
  bool try_acquire_now(std::uint64_t group, std::uint64_t owner);

  /// Release; ownership passes atomically to the oldest waiter, if any.
  /// Idempotent: releasing a group `owner` does not hold is a no-op (a
  /// duplicate unlock after a lost reply must not steal the lock).
  void release(std::uint64_t group, std::uint64_t owner);

  bool held(std::uint64_t group) const;
  std::uint64_t owner(std::uint64_t group) const;  // 0 if free
  std::size_t waiters(std::uint64_t group) const;
  std::size_t records() const { return table_.size(); }

 private:
  struct Waiter {
    std::uint64_t owner;
    std::unique_ptr<sim::Trigger> granted;
  };
  struct Entry {
    std::uint64_t owner = 0;
    std::deque<Waiter> queue;
  };

  sim::Simulation& sim_;
  std::unordered_map<std::uint64_t, Entry> table_;
};

}  // namespace raidx::cdd
