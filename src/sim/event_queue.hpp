// Discrete-event simulation driver.
//
// The Simulation owns a time-ordered event queue.  Events are either plain
// callbacks or suspended coroutine resumptions.  Events at equal timestamps
// fire in insertion order (a monotonically increasing sequence number breaks
// ties), which makes every run bit-for-bit reproducible.
//
// The queue is built for throughput on the patterns a cluster simulation
// actually produces (see DESIGN.md section 10 for the full argument):
//
//  * Events are a 48-byte tagged union.  Coroutine resumptions -- the
//    overwhelming majority -- carry a bare coroutine_handle; callbacks with
//    small trivially-copyable captures are stored inline; only large
//    captures fall back to one heap allocation.  Steady-state scheduling
//    and dispatch of a resume allocates nothing.
//
//  * Each queued event is stored once, as a node of a recycled slab (a
//    vector with a LIFO free list).  Wheel slots are intrusive FIFO lists
//    of node indices, so cascading re-links nodes instead of copying them,
//    and the slab stops growing once it reaches the peak queue depth.
//
//  * Ordering uses a hierarchical timing wheel.  Level 0 is 4096
//    one-nanosecond slots with a two-tier occupancy bitmap (64 words plus
//    a summary word); above it sit kUpperLevels levels of 64 slots, level
//    l >= 1 covering bits [12 + 6(l-1), 18 + 6(l-1)) of the timestamp.
//    Insert and extract are O(1) amortized, and a timer shorter than
//    2^18 ns cascades at most once.  Timers beyond the 2^48 ns (~3.2 day)
//    horizon wait in a binary min-heap keyed on (at, seq) and migrate into
//    the wheel when the clock's prefix window reaches them.
//
//  * When the queue is empty and run() is draining, delay() resumes the
//    calling coroutine by symmetric transfer instead of a queue round trip
//    -- the lone-process case degenerates to a bare clock advance.
//
// Slot invariants that make the wheel order-exact rather than approximate:
// every level-0 slot holds events of a single exact timestamp within the
// clock's current 4096 ns window, and every upper slot holds events that
// agree with the clock on all digits above its own.  Slots append at the
// tail and cascading re-links in list order, so equal-timestamp events
// always drain in seq order.
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cassert>
#include <coroutine>
#include <cstdint>
#include <functional>
#include <limits>
#include <type_traits>
#include <vector>

#include "sim/frame_pool.hpp"
#include "sim/task.hpp"
#include "sim/time.hpp"

namespace raidx::obs {
class Hub;
}

namespace raidx::sim {

class Simulation {
 public:
  Simulation();
  Simulation(const Simulation&) = delete;
  Simulation& operator=(const Simulation&) = delete;
  ~Simulation();

  /// Current simulated time.
  Time now() const { return now_; }

  /// Schedule a callback `delay` nanoseconds from now (delay >= 0).
  /// Trivially-copyable callables up to kInlineBytes are stored inline in
  /// the event; larger ones cost one heap allocation.
  template <typename F>
  void schedule(Time delay, F&& fn) {
    assert(delay >= 0 && "cannot schedule into the past");
    Event ev;
    ev.at = now_ + delay;
    ev.seq = next_seq_++;
    using Fn = std::decay_t<F>;
    if constexpr (std::is_trivially_copyable_v<Fn> &&
                  std::is_trivially_destructible_v<Fn> &&
                  sizeof(Fn) <= kInlineBytes &&
                  alignof(Fn) <= alignof(void*)) {
      ev.kind = Event::Kind::kInline;
      ev.inlined.invoke = [](void* p) { (*static_cast<Fn*>(p))(); };
      ::new (static_cast<void*>(ev.inlined.buf)) Fn(std::forward<F>(fn));
    } else {
      ev.kind = Event::Kind::kHeap;
      ev.heap = new std::function<void()>(std::forward<F>(fn));
      ++queue_stats_.heap_callbacks;
    }
    push(ev);
  }

  /// Schedule resumption of a suspended coroutine `delay` ns from now.
  /// A daemon resumption never keeps the simulation alive by itself: run()
  /// stops once only daemon events remain (see daemon_delay()).
  void schedule_resume(Time delay, std::coroutine_handle<> h,
                       bool daemon = false) {
    assert(delay >= 0 && "cannot schedule into the past");
    Event ev;
    ev.at = now_ + delay;
    ev.seq = next_seq_++;
    ev.kind = Event::Kind::kResume;
    ev.daemon = daemon;
    ev.resume_addr = h.address();
    push(ev);
  }

  /// Start a top-level process.  The simulation takes ownership of the
  /// coroutine frame; the task body begins executing at the current time.
  void spawn(Task<> task);

  /// End the world: destroy every still-suspended top-level process,
  /// newest-spawned first, then drop every pending event (freeing heap
  /// callbacks).  Children are always spawned after their parents, so a
  /// child whose Resource::Guard releases into a window its parent's frame
  /// owns dies while that frame is still alive.  The destructor calls
  /// this; an owner whose world objects (disks, fabrics, hubs) die before
  /// the Simulation must call it while they are still alive, because the
  /// suspended frames hold references into them.  Nothing may be resumed
  /// afterwards: the simulation is left empty, its clock unchanged.
  void shutdown();

  /// True while shutdown() is destroying frames.  Resource::release then
  /// skips the handoff to waiters, whose frames may already be gone.
  bool shutting_down() const { return shutting_down_; }

  /// Awaitable: suspend the calling coroutine for `d` nanoseconds.
  auto delay(Time d) {
    struct Awaiter {
      Simulation* sim;
      Time d;
      bool await_ready() const noexcept { return d <= 0; }
      std::coroutine_handle<> await_suspend(std::coroutine_handle<> h) noexcept {
        return sim->suspend_delay(d, h);
      }
      void await_resume() const noexcept {}
    };
    return Awaiter{this, d};
  }

  /// Callback form of delay(d), for frameless awaitables and callback
  /// state machines.  Returns true when the delay is already over -- d <= 0,
  /// or delay()'s fast path applied (same test, same clock advance, same
  /// event count) -- and the caller continues inline.  Returns false when
  /// the caller must schedule its own continuation `d` from now, the one
  /// queue round trip delay() would have made.
  bool delay_inline(Time d) noexcept {
    if (d <= 0) return true;
    // One fused test (all operands are cheap loads with no side effects)
    // and a single counter bump: fast_resumes is derived in queue_stats().
    const std::uint64_t n = events_processed_ + 1;
    if (static_cast<int>((n & kReapMask) != 0) &
        static_cast<int>(size_ == 0) &
        static_cast<int>(unbounded_drain_)) [[likely]] {
      events_processed_ = n;
      now_ += d;
      return true;
    }
    return false;
  }

  /// Awaitable like delay(), but the wakeup is a *daemon* event: it fires
  /// in timestamp order while foreground work keeps the simulation going,
  /// yet never keeps run() alive by itself -- once only daemon events
  /// remain, run() returns and leaves them parked.  Monitor/heartbeat
  /// loops sleep on this so a finished workload is never held open by its
  /// own watchdogs.  Always takes the queue (no symmetric-transfer fast
  /// path): a lone daemon would otherwise spin the clock forever.
  auto daemon_delay(Time d) {
    struct Awaiter {
      Simulation* sim;
      Time d;
      bool await_ready() const noexcept { return false; }
      void await_suspend(std::coroutine_handle<> h) noexcept {
        sim->schedule_resume(d < 0 ? 0 : d, h, /*daemon=*/true);
      }
      void await_resume() const noexcept {}
    };
    return Awaiter{this, d};
  }

  /// Pending events that are not daemons -- the count run() drains to zero.
  /// Daemon loops use this to tell "the workload is still running" from
  /// "only we are left" and skip their work in the latter case.
  std::size_t foreground_pending() const { return foreground_; }

  /// Run until no events remain.  Rethrows the first exception raised by a
  /// top-level process (after draining is aborted).
  void run();

  /// Run until the queue empties or simulated time reaches `deadline`.
  /// Returns true if the queue was drained.
  bool run_until(Time deadline);

  /// Sentinel returned by next_event_time() when nothing is queued.
  static constexpr Time kNoEvent = std::numeric_limits<Time>::max();

  /// Earliest pending timestamp <= `limit` (daemon events included), or
  /// kNoEvent when nothing is queued below it.  Probing is not free of
  /// side effects: locating the next event cascades the timing wheel,
  /// advancing the clock through event-free regions -- the same clock
  /// motion run() makes on its way to an event -- up to `limit`, never
  /// past the timestamp eventually reported, and never dispatching.  The
  /// shard synchronizer (sim/shard.hpp) polls this with a bounded limit
  /// to compute the global safe window; an unbounded probe would fling an
  /// idle shard's clock past the window in which a peer is about to post
  /// it a message.
  Time next_event_time(Time limit = kNoEvent);

  /// Dispatch every event with timestamp strictly below `end`, in exact
  /// (at, seq) order.  Daemon events keep run()'s liveness contract: they
  /// fire only while this simulation's own foreground work remains, so a
  /// foreground-idle shard parks exactly like a plain idle world -- its
  /// watchdog daemons wait for the next foreground arrival (a cross-shard
  /// delivery) instead of being kept alive by peers, which would let two
  /// groups' watchdogs sustain each other forever.  Unlike run_until(),
  /// the clock is left at the last dispatched event rather than dragged
  /// to `end`, so consecutive windows splice seamlessly.
  void run_window(Time end);

  /// Schedule `fn` at the absolute instant `at` (>= now()).  The shard
  /// synchronizer stamps cross-shard messages in the sender's frame of
  /// reference and delivers them through this at window boundaries.
  template <typename F>
  void schedule_at(Time at, F&& fn) {
    assert(at >= now_ && "cannot deliver into the past");
    schedule(at - now_, std::forward<F>(fn));
  }

  /// Number of events processed so far (useful for micro-benchmarks).
  std::uint64_t events_processed() const { return events_processed_; }

  /// Events currently scheduled and not yet dispatched.
  std::size_t pending_events() const { return size_; }

  /// Engine-internal counters, exported as `sim.queue.*` by obs.
  struct QueueStats {
    std::uint64_t fast_resumes = 0;     // delay() symmetric-transfer hops
    std::uint64_t cascaded_events = 0;  // wheel level demotions
    std::uint64_t overflow_inserts = 0; // events beyond the wheel horizon
    std::uint64_t overflow_migrated = 0;
    std::uint64_t heap_callbacks = 0;   // schedule() SBO misses
    std::uint64_t peak_pending = 0;     // high-water mark of the queue
  };
  QueueStats queue_stats() const {
    // fast_resumes is derived rather than counted so the symmetric-transfer
    // hot path touches one counter, not two.
    QueueStats s = queue_stats_;
    s.fast_resumes = events_processed_ - dispatched_;
    return s;
  }

  /// Coroutine-frame pool statistics, exported as `sim.frame_pool.*`.
  const FramePool::Stats& frame_pool_stats() const {
    return frame_pool_.stats();
  }

  /// The pool this simulation's coroutine frames come from.  A worker
  /// thread advancing this shard installs it (FramePool::Scope) before
  /// creating or resuming any of its coroutines, so frames are always
  /// allocated and recycled on the thread currently driving the shard.
  FramePool& frame_pool() { return frame_pool_; }

  /// Observability hub (src/obs), or null when observability is off.
  /// The simulation never calls into the hub itself; instrumented layers
  /// test this pointer on their record paths.  Null by default, so runs
  /// without a hub are bit-identical to builds that predate src/obs.
  obs::Hub* hub() const { return hub_; }
  void set_hub(obs::Hub* hub) { hub_ = hub; }

  /// Largest callable stored inside an event without heap fallback.
  static constexpr std::size_t kInlineBytes = 16;

 private:
  static constexpr std::uint32_t kNil = 0xffffffff;
  static constexpr int kL0Bits = 12;
  static constexpr std::size_t kL0Slots = std::size_t{1} << kL0Bits;
  static constexpr std::size_t kL0Words = kL0Slots / 64;
  static constexpr int kSlotBits = 6;
  static constexpr std::size_t kSlots = std::size_t{1} << kSlotBits;
  static constexpr int kUpperLevels = 6;
  static constexpr int kPrefixShift =
      kL0Bits + kSlotBits * kUpperLevels;  // 48
  static constexpr std::uint64_t kReapMask = 0x3ff;
  static_assert(kL0Words == 64, "one summary word covers level 0");

  struct Event {
    Time at;
    std::uint64_t seq;
    enum class Kind : std::uint8_t { kResume, kInline, kHeap };
    Kind kind;
    /// Daemon events ride the queue like any other (exact timestamp order)
    /// but do not count toward foreground_, so run() can stop with them
    /// still parked.
    bool daemon = false;
    /// Slab index of the next node in the same wheel slot (or free list).
    /// Like `daemon`, it lives in padding after `kind`: a node is exactly
    /// one 48-byte event.
    std::uint32_t next = kNil;
    union {
      // coroutine_handle<> stored by address: its user-provided constexpr
      // ctor would otherwise delete the union's default constructor.
      void* resume_addr;
      struct {
        void (*invoke)(void*);
        alignas(void*) unsigned char buf[kInlineBytes];
      } inlined;
      std::function<void()>* heap;
    };
  };
  static_assert(sizeof(Event) == 48, "a slab node is one event");
  struct OverflowLater {
    bool operator()(const Event& a, const Event& b) const {
      if (a.at != b.at) return a.at > b.at;
      return a.seq > b.seq;
    }
  };
  /// An intrusive FIFO list of slab nodes, meaningful only while the
  /// slot's occupancy bit is set: the bitmaps say which slots are live,
  /// so slots are never initialized or reset, and constructing a
  /// Simulation does not write their 35 KB.
  struct Slot {
    std::uint32_t head;
    std::uint32_t tail;
  };
  struct Process {
    Task<>::Handle handle;
    std::uint64_t spawn_seq;  // spawn order, for newest-first teardown
  };

  static constexpr std::uint64_t bit(std::size_t i) {
    return std::uint64_t{1} << i;
  }
  /// Lowest timestamp bit of upper level u (u = 0 is wheel level 1).
  static constexpr int upper_shift(int u) { return kL0Bits + kSlotBits * u; }

  /// Route an event into the wheel or the far-future overflow heap.
  void push(const Event& ev) {
    ++size_;
    if (!ev.daemon) ++foreground_;
    if (size_ > queue_stats_.peak_pending) queue_stats_.peak_pending = size_;
    if ((static_cast<std::uint64_t>(ev.at) >> kPrefixShift) !=
        (static_cast<std::uint64_t>(now_) >> kPrefixShift)) {
      overflow_.push_back(ev);
      std::push_heap(overflow_.begin(), overflow_.end(), OverflowLater{});
      ++queue_stats_.overflow_inserts;
      return;
    }
    place(new_node(ev));
  }

  /// Store `ev` in a slab node: the most recently freed one, or a new one
  /// once the slab is at its high-water mark.
  std::uint32_t new_node(const Event& ev) {
    std::uint32_t n = free_;
    if (n != kNil) {
      free_ = nodes_[n].next;
      nodes_[n] = ev;
    } else {
      n = static_cast<std::uint32_t>(nodes_.size());
      nodes_.push_back(ev);
    }
    return n;
  }

  /// Wheel insert proper: append node `n` to the tail of its slot.  Level
  /// 0 when `at` agrees with the clock above bit 12 (slot = the low 12
  /// bits), else the upper level holding the highest differing bit (slot =
  /// that level's 6-bit digit of `at`).
  void place(std::uint32_t n) {
    Event& ev = nodes_[n];
    ev.next = kNil;
    const std::uint64_t at = static_cast<std::uint64_t>(ev.at);
    const std::uint64_t x = at ^ static_cast<std::uint64_t>(now_);
    Slot* slot;
    std::uint64_t* word;
    std::uint64_t mask;
    if (x < kL0Slots) {
      const std::size_t idx = at & (kL0Slots - 1);
      slot = &level0_[idx];
      word = &occupied0_[idx / 64];
      mask = bit(idx % 64);
      summary0_ |= bit(idx / 64);
    } else {
      const int u = (63 - std::countl_zero(x) - kL0Bits) / kSlotBits;
      const std::size_t idx = (at >> upper_shift(u)) & (kSlots - 1);
      slot = &upper_[static_cast<std::size_t>(u) * kSlots + idx];
      word = &occupied_[static_cast<std::size_t>(u)];
      mask = bit(idx);
    }
    if ((*word & mask) != 0) {
      nodes_[slot->tail].next = n;
    } else {
      *word |= mask;
      slot->head = n;
    }
    slot->tail = n;
  }

  /// delay() suspension: symmetric-transfer fast path when nothing else is
  /// pending and run() is draining unbounded, queue round trip otherwise.
  /// Every 1024th event still bounces through run() so finished top-level
  /// frames get reaped on the same cadence as queued dispatch.
  std::coroutine_handle<> suspend_delay(Time d,
                                        std::coroutine_handle<> h) noexcept {
    if (delay_inline(d)) [[likely]] return h;
    schedule_resume(d, h);
    return std::noop_coroutine();
  }

  bool next_event(Time limit, Time* out);
  void cascade(int u);
  void migrate_overflow();
  void drain_slot(Time t);
  void dispatch(Event& ev);
  // O(1) process retirement: finished top-level frames report in via the
  // promise's on_final hook; their frames are destroyed on the next pass
  // through the drain loop (never from inside their own resume).
  void note_finished(detail::PromiseBase* p);
  void drain_finished();

  Time now_ = 0;
  obs::Hub* hub_ = nullptr;
  std::uint64_t next_seq_ = 0;
  std::uint64_t events_processed_ = 0;
  std::uint64_t dispatched_ = 0;  // queue round trips (excludes fast resumes)
  std::size_t size_ = 0;
  std::size_t foreground_ = 0;  // size_ minus parked daemon events
  bool unbounded_drain_ = false;
  bool shutting_down_ = false;
  QueueStats queue_stats_;
  std::vector<Event> nodes_;  // the slab; free nodes chain through `next`
  std::uint32_t free_ = kNil;
  std::array<Slot, kL0Slots> level0_;  // left uninitialized, see Slot
  std::array<std::uint64_t, kL0Words> occupied0_{};
  std::uint64_t summary0_ = 0;  // bit w set <=> occupied0_[w] != 0
  std::array<Slot, kSlots * kUpperLevels> upper_;
  std::array<std::uint64_t, kUpperLevels> occupied_{};
  std::vector<Event> overflow_;
  std::vector<Process> processes_;
  std::vector<std::coroutine_handle<>> finished_;
  std::exception_ptr pending_exception_;
  FramePool frame_pool_;
  FramePool::Scope pool_scope_{&frame_pool_};
};

}  // namespace raidx::sim
