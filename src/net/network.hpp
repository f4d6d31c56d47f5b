// Switched full-duplex Fast Ethernet model.
//
// Every node has one link to the switch, modeled as two capacity-1
// resources (TX and RX).  A message serializes on the sender's TX port,
// crosses the switch after a fixed forwarding latency, then serializes on
// the receiver's RX port.  This captures the two effects the paper's
// numbers hinge on:
//   * per-link serialization: one 100 Mbps link moves at most ~12.5 MB/s,
//     which bounds any single client and any single server;
//   * output-port contention: N clients funneling into one server share the
//     server's RX port -- the mechanism behind the NFS baseline flattening
//     out while the serverless architectures keep scaling.
// Streams of back-to-back messages pipeline across the TX and RX phases, so
// sustained point-to-point throughput equals the effective link rate.
#pragma once

#include <coroutine>
#include <cstdint>
#include <memory>
#include <vector>

#include "obs/obs.hpp"
#include "sim/event_queue.hpp"
#include "sim/resource.hpp"

namespace raidx::net {

struct NetParams {
  double link_mbs = 12.5;       // 100 Mbps Fast Ethernet
  double efficiency = 0.90;     // Ethernet/IP/TCP framing overhead
  sim::Time switch_latency = sim::microseconds(20);
  sim::Time per_message_overhead = sim::microseconds(120);  // protocol stack

  double effective_mbs() const { return link_mbs * efficiency; }
};

class Network {
 public:
  Network(sim::Simulation& sim, NetParams params, int nodes);
  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  /// One message's trip as a callback state machine with no coroutine
  /// frame: TX port (queue, per-message overhead plus serialization),
  /// switch latency, the partition check at the switch, RX port.  Each
  /// phase makes the events a coroutine awaiting Resource::acquire() and
  /// Simulation::delay() would -- grant handoffs, delay round trips or
  /// their fast path -- in the same order, and opens and closes the same
  /// net.transmit / net.tx / net.rx spans.  The owner embeds it (the
  /// transmit() awaiter, a broadcast fan-out) and keeps it in place until
  /// it finishes; a Send abandoned by Simulation::shutdown() keeps its
  /// port, as nothing runs afterwards.
  class Send : sim::Resource::Waiter {
   public:
    /// Called once when a send that start() left pending finishes.
    using Done = void (*)(Send&);

    Send(Network& net, Done done);
    Send(const Send&) = delete;
    Send& operator=(const Send&) = delete;

    /// Begin moving `bytes` from `from` to `to`.  Returns true when the
    /// send has already finished (loopback, or every wait took the fast
    /// path); `done` is then not called.  A finished Send may be started
    /// again.
    bool start(int from, int to, std::uint64_t bytes,
               obs::TraceContext ctx = {});
    /// Outcome of a finished send; see transmit().
    bool delivered() const { return delivered_; }

   private:
    enum class Phase : std::uint8_t { kTxGranted, kTxDone, kAtSwitch,
                                      kRxGranted, kRxDone };
    /// Run phases until one must wait for an event; true when finished.
    bool advance();
    /// Wait `d` ns; false when an event will resume advance().
    bool wait(sim::Time d);
    /// Take `port` or park on it; false when parked.
    bool take(sim::Resource& port);
    /// Event entry point: advance, and report a finish to the owner.
    void resume();

    Network* net_;
    Done done_;
    int from_ = 0;
    int to_ = 0;
    std::uint64_t bytes_ = 0;
    sim::Time wire_ = 0;
    sim::Time grant_ = 0;
    Phase phase_ = Phase::kTxGranted;
    bool delivered_ = false;
    obs::Span msg_;
    obs::Span port_;
  };

  /// Move `bytes` from node `from` to node `to`; completes when the last
  /// byte has drained from the receiver's port.  from == to is free (the
  /// loopback path never touches the wire).  Returns true when the message
  /// was delivered; false when either endpoint was partitioned away
  /// (set_node_up) -- the sender still pays its TX serialization (the NIC
  /// transmits into a dead link), the message is dropped at the switch,
  /// and the caller must not deliver the payload.  With every node up the
  /// event sequence is bit-identical to the pre-fault-injection model.
  /// A frameless awaitable: its Send lives in the awaiting frame.
  auto transmit(int from, int to, std::uint64_t bytes,
                obs::TraceContext ctx = {}) {
    struct Awaiter : Send {
      Awaiter(Network& net, int from, int to, std::uint64_t bytes,
              obs::TraceContext ctx)
          : Send(net, &Awaiter::finished),
            from(from), to(to), bytes(bytes), ctx(ctx) {}
      bool await_ready() const noexcept { return false; }
      bool await_suspend(std::coroutine_handle<> h) {
        caller = h;
        return !start(from, to, bytes, ctx);
      }
      bool await_resume() const noexcept { return delivered(); }
      static void finished(Send& s) {
        static_cast<Awaiter&>(s).caller.resume();
      }
      int from;
      int to;
      std::uint64_t bytes;
      obs::TraceContext ctx;
      std::coroutine_handle<> caller{};
    };
    return Awaiter(*this, from, to, bytes, ctx);
  }

  /// Fault injection: mark a node's link up/down (down drops every message
  /// to or from it at the switch).  Nodes start up.
  void set_node_up(int node, bool up);
  bool node_up(int node) const {
    return up_[static_cast<std::size_t>(node)] != 0;
  }
  std::uint64_t messages_dropped() const { return dropped_; }
  /// True once set_node_up has ever been called: obs export gates the
  /// drop counter on this so fault-free runs keep their exact key set.
  bool fault_injection_used() const { return fault_injection_used_; }

  int nodes() const { return static_cast<int>(tx_.size()); }
  const NetParams& params() const { return params_; }

  std::uint64_t bytes_sent(int node) const { return bytes_sent_[node]; }
  std::uint64_t messages_sent(int node) const { return msgs_sent_[node]; }
  sim::Time tx_busy(int node) const { return tx_[node]->busy_time(); }
  sim::Time rx_busy(int node) const { return rx_[node]->busy_time(); }

 private:
  sim::Simulation& sim_;
  NetParams params_;
  std::vector<std::unique_ptr<sim::Resource>> tx_;
  std::vector<std::unique_ptr<sim::Resource>> rx_;
  std::vector<obs::BusyRecorder> tx_rec_;
  std::vector<obs::BusyRecorder> rx_rec_;
  std::vector<std::uint64_t> bytes_sent_;
  std::vector<std::uint64_t> msgs_sent_;
  std::vector<char> up_;
  std::uint64_t dropped_ = 0;
  bool fault_injection_used_ = false;
};

}  // namespace raidx::net
