#include "net/network.hpp"

#include <cassert>

namespace raidx::net {

Network::Network(sim::Simulation& sim, NetParams params, int nodes)
    : sim_(sim),
      params_(params),
      bytes_sent_(static_cast<std::size_t>(nodes), 0),
      msgs_sent_(static_cast<std::size_t>(nodes), 0),
      up_(static_cast<std::size_t>(nodes), 1) {
  assert(nodes > 0);
  tx_.reserve(static_cast<std::size_t>(nodes));
  rx_.reserve(static_cast<std::size_t>(nodes));
  for (int i = 0; i < nodes; ++i) {
    tx_.push_back(std::make_unique<sim::Resource>(sim, 1));
    rx_.push_back(std::make_unique<sim::Resource>(sim, 1));
  }
  tx_rec_.resize(static_cast<std::size_t>(nodes));
  rx_rec_.resize(static_cast<std::size_t>(nodes));
}

void Network::set_node_up(int node, bool up) {
  assert(node >= 0 && node < nodes());
  fault_injection_used_ = true;
  up_[static_cast<std::size_t>(node)] = up ? 1 : 0;
}

Network::Send::Send(Network& net, Done done) : net_(&net), done_(done) {
  granted = [](sim::Resource::Waiter& w) { static_cast<Send&>(w).resume(); };
}

bool Network::Send::start(int from, int to, std::uint64_t bytes,
                          obs::TraceContext ctx) {
  Network& net = *net_;
  assert(from >= 0 && from < net.nodes());
  assert(to >= 0 && to < net.nodes());
  net.bytes_sent_[static_cast<std::size_t>(from)] += bytes;
  ++net.msgs_sent_[static_cast<std::size_t>(from)];
  delivered_ = true;
  // Loopback never touches the wire, so a partition cannot cut a node off
  // from its own disks.
  if (from == to) return true;

  from_ = from;
  to_ = to;
  bytes_ = bytes;
  msg_ = obs::trace_span(
      net.sim_, ctx, "net.transmit", obs::Track::kRequest, from,
      obs::SpanArgs{}
          .tag("from", from)
          .tag("to", to)
          .tag("bytes", static_cast<std::int64_t>(bytes)));
  wire_ = sim::transfer_time(bytes, net.params_.effective_mbs());
  phase_ = Phase::kTxGranted;
  if (!take(*net.tx_[static_cast<std::size_t>(from)])) return false;
  return advance();
}

bool Network::Send::take(sim::Resource& port) {
  if (port.try_acquire()) return true;
  port.enqueue(0, this);
  return false;
}

bool Network::Send::wait(sim::Time d) {
  if (net_->sim_.delay_inline(d)) return true;
  net_->sim_.schedule(d, [this] { resume(); });
  return false;
}

void Network::Send::resume() {
  if (advance()) done_(*this);
}

bool Network::Send::advance() {
  Network& net = *net_;
  sim::Simulation& sim = net.sim_;
  const auto from = static_cast<std::size_t>(from_);
  const auto to = static_cast<std::size_t>(to_);
  switch (phase_) {
    case Phase::kTxGranted:
      grant_ = sim.now();
      port_ = obs::trace_span(
          sim, msg_.ctx(), "net.tx", obs::Track::kNetTx, from_,
          obs::SpanArgs{}.tag("to", to_).tag(
              "bytes", static_cast<std::int64_t>(bytes_)));
      phase_ = Phase::kTxDone;
      if (!wait(net.params_.per_message_overhead + wire_)) return false;
      [[fallthrough]];
    case Phase::kTxDone:
      port_.close();
      net.tx_rec_[from].record(sim, obs::Track::kNetTx, from_, grant_,
                               sim.now());
      net.tx_[from]->release();
      phase_ = Phase::kAtSwitch;
      if (!wait(net.params_.switch_latency)) return false;
      [[fallthrough]];
    case Phase::kAtSwitch:
      // Partition check at the switch, after the sender has paid its TX
      // cost: the frame left the NIC, the switch has no live port to
      // forward it to.  Checked once per message (not per phase) so the
      // drop point is deterministic.
      if (!net.node_up(from_) || !net.node_up(to_)) {
        ++net.dropped_;
        delivered_ = false;
        msg_.close();
        return true;
      }
      phase_ = Phase::kRxGranted;
      if (!take(*net.rx_[to])) return false;
      [[fallthrough]];
    case Phase::kRxGranted:
      grant_ = sim.now();
      port_ = obs::trace_span(
          sim, msg_.ctx(), "net.rx", obs::Track::kNetRx, to_,
          obs::SpanArgs{}.tag("from", from_).tag(
              "bytes", static_cast<std::int64_t>(bytes_)));
      phase_ = Phase::kRxDone;
      if (!wait(wire_)) return false;
      [[fallthrough]];
    case Phase::kRxDone:
      port_.close();
      net.rx_rec_[to].record(sim, obs::Track::kNetRx, to_, grant_,
                             sim.now());
      net.rx_[to]->release();
      msg_.close();
      return true;
  }
  return true;
}

}  // namespace raidx::net
