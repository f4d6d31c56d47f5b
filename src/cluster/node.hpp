// A cluster node: CPU, one SCSI bus, k locally attached storage devices.
//
// The CPU is a capacity-1 resource charged per kernel operation plus a
// per-byte cost for protocol/copy work.  On a serverless cluster every node
// is simultaneously an I/O client and a storage server for its peers, so
// this shared CPU is a first-order bottleneck at scale (it is what keeps
// the measured aggregate bandwidth well below the switch's raw capacity,
// as in the paper's Trojans numbers).
//
// Devices can be spindles (disk::Disk) or flash (flash::SsdDevice), chosen
// per row by the cluster's device map; a homogeneous all-HDD node is the
// default and behaves bit-identically to the pre-Device code.
#pragma once

#include <coroutine>
#include <memory>
#include <vector>

#include "disk/device.hpp"
#include "disk/disk.hpp"
#include "disk/scsi_bus.hpp"
#include "flash/ssd.hpp"
#include "sim/event_queue.hpp"
#include "sim/resource.hpp"
#include "sim/task.hpp"

namespace raidx::cluster {

struct NodeParams {
  /// Fixed kernel-path cost per I/O operation (syscall, driver dispatch).
  sim::Time cpu_op_overhead = sim::microseconds(150);
  /// Per-byte protocol/copy cost.  Rule of thumb: 1 GHz moves ~100 MB/s of
  /// TCP; a 400 MHz Pentium II with kernel-2.2 checksumming and an extra
  /// copy lands near 60 ns/B (~16 MB/s of CPU-limited protocol work per
  /// node, shared between its client and storage-server roles).
  double cpu_ns_per_byte = 60.0;
};

class Node {
 public:
  /// `row_classes` selects the device model per local row; empty means all
  /// spindles.  Flash rows are built from `flash_params` with the same
  /// geometry the spindle rows take from `disk_params`.
  Node(sim::Simulation& sim, int id, NodeParams params,
       disk::BusParams bus_params, disk::DiskParams disk_params,
       int num_disks,
       const std::vector<disk::DeviceClass>& row_classes = {},
       const flash::FlashParams& flash_params = {});
  Node(const Node&) = delete;
  Node& operator=(const Node&) = delete;

  /// Awaitable CPU charge: holds the node CPU for `t` ns, FIFO behind every
  /// other charge, and completes as the CPU is released.  Frameless: the
  /// awaiter lives in the caller's frame, parks there as a callback waiter
  /// when the CPU is busy, and makes exactly the events a coroutine doing
  /// `acquire(); delay(t); release()` would -- the grant handoff, then the
  /// delay's round trip (or its fast path), then the release as the caller
  /// resumes.
  class Charge : sim::Resource::Waiter {
   public:
    Charge(Node& node, sim::Time t) : node_(&node), t_(t) {
      granted = &Charge::on_granted;
    }
    Charge(const Charge&) = delete;
    Charge& operator=(const Charge&) = delete;

    bool await_ready() const noexcept { return false; }
    bool await_suspend(std::coroutine_handle<> caller);
    void await_resume() { node_->cpu_.release(); }

   private:
    /// Run the held delay; true when it ended inline.
    bool hold();
    static void on_granted(sim::Resource::Waiter& w);

    Node* node_;
    sim::Time t_;
    std::coroutine_handle<> caller_{};
  };

  /// Charge CPU time for handling `bytes` of I/O payload.
  Charge cpu_work(std::uint64_t bytes) {
    return Charge(*this, cpu_time(bytes));
  }

  /// Charge a raw computation time (checksum/XOR/compile work).
  Charge compute(sim::Time t) { return Charge(*this, t); }

  /// cpu_work(bytes) that nobody awaits (a one-way message's receive
  /// cost).  It starts from its own zero-delay event, so it queues for the
  /// CPU in the order it was posted, and from there makes the events an
  /// awaited charge makes.
  void post_cpu_work(std::uint64_t bytes);

  int id() const { return id_; }
  int num_disks() const { return static_cast<int>(disks_.size()); }
  disk::Device& local_disk(int row) {
    return *disks_[static_cast<std::size_t>(row)];
  }
  const disk::Device& local_disk(int row) const {
    return *disks_[static_cast<std::size_t>(row)];
  }
  disk::ScsiBus& bus() { return *bus_; }
  sim::Time cpu_busy() const { return cpu_.busy_time(); }

 private:
  /// A posted charge that found the CPU busy, parked until granted.
  /// Pooled: a machine abandoned by Simulation::shutdown() is freed with
  /// the node and never touches the CPU again.
  struct Posted : sim::Resource::Waiter {
    Node* node;
    sim::Time t;
  };

  sim::Time cpu_time(std::uint64_t bytes) const {
    return params_.cpu_op_overhead +
           static_cast<sim::Time>(params_.cpu_ns_per_byte *
                                  static_cast<double>(bytes));
  }
  void start_posted(sim::Time t);
  /// Hold the CPU (already taken) for `t` ns, then release it.
  void hold_posted(sim::Time t);

  sim::Simulation& sim_;
  int id_;
  NodeParams params_;
  sim::Resource cpu_;
  std::vector<std::unique_ptr<Posted>> posted_;
  std::vector<Posted*> idle_posted_;
  std::unique_ptr<disk::ScsiBus> bus_;
  std::vector<std::unique_ptr<disk::Device>> disks_;
};

}  // namespace raidx::cluster
