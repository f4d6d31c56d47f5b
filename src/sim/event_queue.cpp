#include "sim/event_queue.hpp"

#include <algorithm>
#include <limits>
#include <memory>

namespace raidx::sim {

// Defined out of line so the constructor is user-provided: value
// initialization (make_unique<Simulation>()) then runs it instead of first
// zeroing the whole object, slot arrays included.
Simulation::Simulation() = default;

Simulation::~Simulation() { shutdown(); }

void Simulation::shutdown() {
  drain_finished();
  // Newest-spawned first: a child spawned by a suspended parent may hold a
  // Resource::Guard on a window the parent's frame owns, so the child must
  // release it while that frame is still alive.  Child frames awaited with
  // co_await are owned by their parents' frames and die with them.
  shutting_down_ = true;
  std::sort(processes_.begin(), processes_.end(),
            [](const Process& a, const Process& b) {
              return a.spawn_seq > b.spawn_seq;
            });
  for (const Process& p : processes_) p.handle.destroy();
  processes_.clear();
  shutting_down_ = false;
  // Every queued event is either a slab node or in the overflow heap;
  // drained nodes were reset to kResume, so only live kHeap payloads are
  // freed here.
  for (Event& ev : nodes_) {
    if (ev.kind == Event::Kind::kHeap) delete ev.heap;
  }
  for (Event& ev : overflow_) {
    if (ev.kind == Event::Kind::kHeap) delete ev.heap;
  }
  nodes_.clear();
  overflow_.clear();
  free_ = kNil;
  occupied0_.fill(0);
  summary0_ = 0;
  occupied_.fill(0);
  size_ = 0;
  foreground_ = 0;
}

void Simulation::spawn(Task<> task) {
  auto handle = task.release();
  if (!handle) return;
  auto& p = handle.promise();
  p.owner = this;
  p.process_slot = static_cast<std::uint32_t>(processes_.size());
  p.on_final = [](void* owner, detail::PromiseBase* pb) {
    static_cast<Simulation*>(owner)->note_finished(pb);
  };
  // Start lazily via the queue so spawn() itself never re-enters user code;
  // processes spawned at the same instant start in spawn order.
  Event ev;
  ev.at = now_;
  ev.seq = next_seq_++;
  ev.kind = Event::Kind::kResume;
  ev.resume_addr = handle.address();
  processes_.push_back(Process{handle, ev.seq});
  push(ev);
}

void Simulation::dispatch(Event& ev) {
  ++events_processed_;
  ++dispatched_;
  switch (ev.kind) {
    case Event::Kind::kResume: {
      auto h = std::coroutine_handle<>::from_address(ev.resume_addr);
      if (h && !h.done()) h.resume();
      break;
    }
    case Event::Kind::kInline:
      // `ev` is the drain loop's private copy; the invoker may mutate its
      // capture in place.
      ev.inlined.invoke(ev.inlined.buf);
      break;
    case Event::Kind::kHeap: {
      std::unique_ptr<std::function<void()>> fn(ev.heap);
      (*fn)();
      break;
    }
  }
}

// Re-link every node of upper level u's current slot one or more levels
// down; each lands strictly below u because it agrees with the clock on
// u's digit and everything above.  Walking the list in order keeps append
// order (and therefore seq order for equal timestamps).
void Simulation::cascade(int u) {
  const std::size_t cur =
      (static_cast<std::uint64_t>(now_) >> upper_shift(u)) & (kSlots - 1);
  Slot& slot = upper_[static_cast<std::size_t>(u) * kSlots + cur];
  occupied_[static_cast<std::size_t>(u)] &= ~bit(cur);
  std::uint32_t n = slot.head;
  std::uint64_t moved = 0;
  while (n != kNil) {
    const std::uint32_t next = nodes_[n].next;
    place(n);
    ++moved;
    n = next;
  }
  queue_stats_.cascaded_events += moved;
}

// Pull far-future timers whose prefix window the clock has reached into the
// wheel.  The heap pops in (at, seq) order, so equal-timestamp events enter
// their slots in seq order ahead of any later insert.
void Simulation::migrate_overflow() {
  const std::uint64_t prefix =
      static_cast<std::uint64_t>(now_) >> kPrefixShift;
  while (!overflow_.empty() &&
         (static_cast<std::uint64_t>(overflow_.front().at) >>
          kPrefixShift) == prefix) {
    std::pop_heap(overflow_.begin(), overflow_.end(), OverflowLater{});
    place(new_node(overflow_.back()));
    overflow_.pop_back();
    ++queue_stats_.overflow_migrated;
  }
}

// Locate the next pending timestamp <= limit, cascading and advancing the
// clock through empty windows as needed so it ends up in a level-0 slot.
// The clock only ever moves to window starts that precede the timestamp
// eventually returned, never past `limit`.
bool Simulation::next_event(Time limit, Time* out) {
  for (;;) {
    if (!overflow_.empty() &&
        (static_cast<std::uint64_t>(overflow_.front().at) >> kPrefixShift) ==
            (static_cast<std::uint64_t>(now_) >> kPrefixShift)) {
      migrate_overflow();
    }
    const std::uint64_t unow = static_cast<std::uint64_t>(now_);
    // Level 0: the first occupied slot at or after the clock's, found in
    // the clock's bitmap word or, via the summary, in a later one.
    const std::size_t cur0 = unow & (kL0Slots - 1);
    std::size_t w = cur0 / 64;
    std::uint64_t m0 = occupied0_[w] & (~std::uint64_t{0} << (cur0 % 64));
    if (m0 == 0) {
      // Words above w; (2 << 63) wraps to 0, leaving an empty mask.
      const std::uint64_t later = summary0_ & ~((std::uint64_t{2} << w) - 1);
      if (later != 0) {
        w = static_cast<std::size_t>(std::countr_zero(later));
        m0 = occupied0_[w];
      }
    }
    if (m0 != 0) {
      const std::uint64_t idx =
          w * 64 + static_cast<std::uint64_t>(std::countr_zero(m0));
      const Time t = static_cast<Time>((unow & ~(kL0Slots - 1)) | idx);
      if (t > limit) return false;
      *out = t;
      return true;
    }
    bool progressed = false;
    for (int u = 0; u < kUpperLevels; ++u) {
      const int shift = upper_shift(u);
      const std::size_t cur = (unow >> shift) & (kSlots - 1);
      const std::uint64_t m =
          occupied_[static_cast<std::size_t>(u)] &
          (~std::uint64_t{0} << cur);
      if (m == 0) continue;
      const auto j = static_cast<std::size_t>(std::countr_zero(m));
      if (j != cur) {
        // Every level below is empty and so is this level before slot j:
        // nothing can fire before j's window opens.  Enter the window
        // (a pure clock advance, no event is skipped) and cascade it.
        const int above = shift + kSlotBits;  // at most kPrefixShift
        std::uint64_t start = (unow >> above) << above;
        start |= static_cast<std::uint64_t>(j) << shift;
        if (static_cast<Time>(start) > limit) return false;
        now_ = static_cast<Time>(start);
      }
      cascade(u);
      progressed = true;
      break;
    }
    if (progressed) continue;
    if (overflow_.empty()) return false;
    const std::uint64_t start =
        (static_cast<std::uint64_t>(overflow_.front().at) >> kPrefixShift)
        << kPrefixShift;
    if (static_cast<Time>(start) > limit) return false;
    if (static_cast<Time>(start) > now_) now_ = static_cast<Time>(start);
    migrate_overflow();
  }
}

// Dispatch every event stamped exactly `t` from its level-0 slot, popping
// from the head.  Events appended mid-drain at the same timestamp
// (delay-0 wakeups) join the tail and fire in the same pass; an event
// stamped later -- possible only after an empty-queue fast-forward --
// stays for a later drain.  Each event is unlinked and its node freed
// before dispatch, so the queue is consistent whenever user code runs:
// an exception out of a callback leaves the rest of the slot intact.
void Simulation::drain_slot(Time t) {
  now_ = t;
  const std::size_t idx = static_cast<std::uint64_t>(t) & (kL0Slots - 1);
  Slot& slot = level0_[idx];
  while (slot.head != kNil && nodes_[slot.head].at == t) {
    const std::uint32_t n = slot.head;
    Event& node = nodes_[n];
    Event ev = node;  // user code may grow (and move) the slab
    slot.head = node.next;
    if (slot.head == kNil) {
      occupied0_[idx / 64] &= ~bit(idx % 64);
      if (occupied0_[idx / 64] == 0) summary0_ &= ~bit(idx / 64);
    }
    // A free node must not look like a live heap callback to shutdown().
    node.kind = Event::Kind::kResume;
    node.next = free_;
    free_ = n;
    --size_;
    if (!ev.daemon) --foreground_;
    dispatch(ev);
    if (!finished_.empty()) drain_finished();
    if (pending_exception_) break;
  }
}

// Called from FinalAwaiter while the finishing frame is suspended at its
// final suspend point.  Swap-remove from the process table (O(1)) and park
// the handle for destruction on the next drain pass -- destroying it here
// would free the frame we are currently executing inside.
void Simulation::note_finished(detail::PromiseBase* p) {
  if (p->exception && !pending_exception_) pending_exception_ = p->exception;
  const std::uint32_t i = p->process_slot;
  const Task<>::Handle h = processes_[i].handle;
  processes_[i] = processes_.back();
  processes_[i].handle.promise().process_slot = i;
  processes_.pop_back();
  finished_.push_back(h);
}

void Simulation::drain_finished() {
  for (auto h : finished_) h.destroy();
  finished_.clear();
}

void Simulation::run() {
  unbounded_drain_ = true;
  struct DrainGuard {
    bool* flag;
    ~DrainGuard() { *flag = false; }
  } guard{&unbounded_drain_};
  Time t;
  // Stop once only daemon events remain: they stay parked for a later
  // run() (or die with the queue), so watchdog loops never hold a finished
  // workload open.
  while (foreground_ > 0 &&
         next_event(std::numeric_limits<Time>::max(), &t)) {
    drain_slot(t);
    if (pending_exception_) break;
  }
  drain_finished();
  if (pending_exception_) {
    auto ex = pending_exception_;
    pending_exception_ = nullptr;
    std::rethrow_exception(ex);
  }
}

Time Simulation::next_event_time(Time limit) {
  Time t;
  if (next_event(limit, &t)) return t;
  return kNoEvent;
}

void Simulation::run_window(Time end) {
  Time t;
  // The same liveness test run() makes, per shard: daemons fire only while
  // this shard's own foreground work remains.  Widening the test to the
  // whole group was tried and reverted -- each group's watchdog daemons
  // (HA probe loops) spawn foreground probe RPCs, so two groups would keep
  // each other's watchdogs ticking forever once their probe rounds
  // overlap.  A foreground-idle shard parks instead, exactly like a plain
  // idle Simulation between run() calls, until a cross-shard delivery
  // (always a foreground event) wakes it.
  while (foreground_ > 0 && next_event(end - 1, &t)) {
    drain_slot(t);
    if (pending_exception_) break;
  }
  drain_finished();
  if (pending_exception_) {
    auto ex = pending_exception_;
    pending_exception_ = nullptr;
    std::rethrow_exception(ex);
  }
}

bool Simulation::run_until(Time deadline) {
  Time t;
  while (next_event(deadline, &t)) {
    drain_slot(t);
    if (pending_exception_) break;
  }
  drain_finished();
  if (pending_exception_) {
    auto ex = pending_exception_;
    pending_exception_ = nullptr;
    std::rethrow_exception(ex);
  }
  if (size_ == 0) return true;
  if (deadline > now_) {
    now_ = deadline;
    // The jump may have entered the overflow's prefix window; merge those
    // timers now so later same-timestamp inserts keep seq order.
    if (!overflow_.empty()) migrate_overflow();
  }
  return false;
}

}  // namespace raidx::sim
