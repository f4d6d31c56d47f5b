// Reply rendezvous between simulated processes.
//
// Oneshot<T> carries a single value to a single waiter: the reply slot of
// one outstanding RPC.  A CDD client parks on it while the serving node's
// handler runs, mirroring how a kernel driver pairs a request queue with
// per-request completions.  The slot lives in the waiter's frame, so
// waiting never allocates.
#pragma once

#include <cassert>
#include <coroutine>
#include <optional>
#include <utility>

#include "sim/event_queue.hpp"

namespace raidx::sim {

/// Single-value, single-waiter rendezvous (an RPC reply slot).
template <typename T>
class Oneshot {
 public:
  explicit Oneshot(Simulation& sim) : sim_(sim) {}
  Oneshot(const Oneshot&) = delete;
  Oneshot& operator=(const Oneshot&) = delete;

  void set(T value) {
    assert(!value_.has_value() && "Oneshot set twice");
    value_ = std::move(value);
    if (waiter_) {
      sim_.schedule_resume(0, std::exchange(waiter_, nullptr));
    }
  }

  auto wait() {
    struct Awaiter {
      Oneshot* os;
      bool await_ready() const noexcept { return os->value_.has_value(); }
      void await_suspend(std::coroutine_handle<> h) {
        assert(!os->waiter_ && "Oneshot awaited twice");
        os->waiter_ = h;
      }
      T await_resume() {
        assert(os->value_.has_value());
        return std::move(*os->value_);
      }
    };
    return Awaiter{this};
  }

  bool ready() const { return value_.has_value(); }

 private:
  Simulation& sim_;
  std::optional<T> value_;
  std::coroutine_handle<> waiter_{};
};

}  // namespace raidx::sim
