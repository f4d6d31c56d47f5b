// FIFO counted resource with priority classes.
//
// A Resource models anything with finite concurrent capacity: a disk arm
// (capacity 1), a SCSI bus, a NIC port, a node CPU.  Waiters are served
// strictly FIFO within a priority class; lower class number = higher
// priority.  The disk layer uses two classes so foreground I/O overtakes
// queued background mirror updates -- the mechanism behind RAID-x's
// "mirroring hidden in the background" claim.
//
// Waiters are intrusive list nodes embedded in the acquire() awaiter, which
// lives in the suspended coroutine's frame -- stable storage for exactly as
// long as the wait lasts.  Parking and waking a waiter therefore never
// touches the heap.
//
// A waiter is either a coroutine (resumed holding the slot) or a callback
// (a frameless state machine that embeds the node and is called holding
// the slot).  Both kinds share one FIFO per class and are handed the slot
// by the same zero-delay event, so mixing them changes no grant order and
// no grant instant.
#pragma once

#include <coroutine>
#include <cstdint>
#include <vector>

#include "sim/event_queue.hpp"

namespace raidx::sim {

class Resource {
 public:
  /// Move-only RAII grant.  Releases the slot when destroyed.
  class Guard {
   public:
    Guard() = default;
    explicit Guard(Resource* r) : resource_(r) {}
    Guard(Guard&& other) noexcept
        : resource_(std::exchange(other.resource_, nullptr)) {}
    Guard& operator=(Guard&& other) noexcept {
      if (this != &other) {
        release();
        resource_ = std::exchange(other.resource_, nullptr);
      }
      return *this;
    }
    Guard(const Guard&) = delete;
    Guard& operator=(const Guard&) = delete;
    ~Guard() { release(); }

    void release() {
      if (resource_) {
        resource_->release();
        resource_ = nullptr;
      }
    }
    bool held() const { return resource_ != nullptr; }

   private:
    Resource* resource_ = nullptr;
  };

  /// Intrusive wait-list node; lives in the acquire() awaiter, or in the
  /// callback state machine that parked it.  `granted` null means a
  /// coroutine waiter (`handle` is resumed).
  struct Waiter {
    std::coroutine_handle<> handle{};
    void (*granted)(Waiter&) = nullptr;
    Waiter* next = nullptr;
  };

  Resource(Simulation& sim, int capacity, int priority_levels = 1);

  /// Awaitable acquisition; resumes (or completes immediately) holding one
  /// slot.  `priority` must be < priority_levels (0 = most urgent).
  auto acquire(int priority = 0) {
    struct Awaiter {
      Resource* res;
      int priority;
      Waiter node;
      bool await_ready() const noexcept { return res->try_acquire(); }
      void await_suspend(std::coroutine_handle<> h) {
        node.handle = h;
        res->enqueue(priority, &node);
      }
      Guard await_resume() const noexcept { return Guard{res}; }
    };
    return Awaiter{this, priority, {}};
  }

  /// Non-blocking attempt; returns true and takes a slot if available.
  bool try_acquire();

  /// Park a callback waiter (`w.granted` set) behind every queued waiter of
  /// its class; call only after try_acquire() failed.  release() later
  /// calls `w.granted(w)` from a zero-delay event, holding the slot.  A
  /// waiter still parked at Simulation::shutdown() is never called.
  void enqueue(int priority, Waiter* w);

  /// Return one slot; hands it to the oldest highest-priority waiter.
  void release();

  int in_use() const { return in_use_; }
  int capacity() const { return capacity_; }
  std::size_t queued() const;

  /// Total slot-nanoseconds consumed (for utilization reporting).
  Time busy_time() const;

 private:
  struct WaitQueue {
    Waiter* head = nullptr;
    Waiter* tail = nullptr;
    std::size_t count = 0;
  };

  void note_busy_change();

  Simulation& sim_;
  int capacity_;
  int in_use_ = 0;
  std::vector<WaitQueue> waiters_;  // one FIFO per priority class
  // Utilization accounting.
  Time busy_accum_ = 0;
  Time last_change_ = 0;
};

}  // namespace raidx::sim
