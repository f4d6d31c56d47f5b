#include "sim/resource.hpp"

#include <cassert>

namespace raidx::sim {

Resource::Resource(Simulation& sim, int capacity, int priority_levels)
    : sim_(sim), capacity_(capacity), waiters_(priority_levels) {
  assert(capacity > 0);
  assert(priority_levels > 0);
}

bool Resource::try_acquire() {
  if (in_use_ < capacity_) {
    note_busy_change();
    ++in_use_;
    return true;
  }
  return false;
}

void Resource::enqueue(int priority, Waiter* w) {
  assert(priority >= 0 &&
         static_cast<std::size_t>(priority) < waiters_.size());
  WaitQueue& q = waiters_[static_cast<std::size_t>(priority)];
  w->next = nullptr;
  if (q.tail) {
    q.tail->next = w;
  } else {
    q.head = w;
  }
  q.tail = w;
  ++q.count;
}

void Resource::release() {
  // Simulation::shutdown() may already have destroyed the frames that own
  // the waiter nodes, and nothing runs after it: just return the slot.
  if (!sim_.shutting_down()) {
    for (auto& q : waiters_) {
      if (q.head != nullptr) {
        // Hand the slot straight to the waiter: in_use_ is unchanged.  The
        // node lives in the waiter's frame (or state machine), which stays
        // suspended (and its memory valid) until the scheduled event fires.
        Waiter* w = q.head;
        q.head = w->next;
        if (q.head == nullptr) q.tail = nullptr;
        --q.count;
        if (w->granted != nullptr) {
          sim_.schedule(0, [w] { w->granted(*w); });
        } else {
          sim_.schedule_resume(0, w->handle);
        }
        return;
      }
    }
  }
  note_busy_change();
  --in_use_;
  assert(in_use_ >= 0);
}

std::size_t Resource::queued() const {
  std::size_t total = 0;
  for (const auto& q : waiters_) total += q.count;
  return total;
}

Time Resource::busy_time() const {
  return busy_accum_ + static_cast<Time>(in_use_) * (sim_.now() - last_change_);
}

void Resource::note_busy_change() {
  busy_accum_ += static_cast<Time>(in_use_) * (sim_.now() - last_change_);
  last_change_ = sim_.now();
}

}  // namespace raidx::sim
