#include "cluster/node.hpp"

namespace raidx::cluster {

Node::Node(sim::Simulation& sim, int id, NodeParams params,
           disk::BusParams bus_params, disk::DiskParams disk_params,
           int num_disks, const std::vector<disk::DeviceClass>& row_classes,
           const flash::FlashParams& flash_params)
    : sim_(sim),
      id_(id),
      params_(params),
      cpu_(sim, /*capacity=*/1),
      bus_(std::make_unique<disk::ScsiBus>(sim, bus_params, id)) {
  disks_.reserve(static_cast<std::size_t>(num_disks));
  for (int row = 0; row < num_disks; ++row) {
    // Global ids are assigned by the Cluster; the local id encodes
    // (node, row) for diagnostics until then.
    const int local_id = id * 1000 + row;
    const disk::DeviceClass cls =
        static_cast<std::size_t>(row) < row_classes.size()
            ? row_classes[static_cast<std::size_t>(row)]
            : disk::DeviceClass::kHdd;
    if (cls == disk::DeviceClass::kSsd) {
      disks_.push_back(std::make_unique<flash::SsdDevice>(
          sim, disk_params.geometry(), flash_params, local_id, bus_.get()));
    } else {
      disks_.push_back(
          std::make_unique<disk::Disk>(sim, disk_params, local_id,
                                       bus_.get()));
    }
  }
}

bool Node::Charge::await_suspend(std::coroutine_handle<> caller) {
  caller_ = caller;
  if (!node_->cpu_.try_acquire()) {
    node_->cpu_.enqueue(0, this);
    return true;
  }
  return !hold();
}

bool Node::Charge::hold() {
  if (node_->sim_.delay_inline(t_)) return true;
  node_->sim_.schedule_resume(t_, caller_);
  return false;
}

void Node::Charge::on_granted(sim::Resource::Waiter& w) {
  auto& c = static_cast<Charge&>(w);
  if (c.hold()) c.caller_.resume();
}

void Node::post_cpu_work(std::uint64_t bytes) {
  sim_.schedule(0, [this, t = cpu_time(bytes)] { start_posted(t); });
}

void Node::start_posted(sim::Time t) {
  if (cpu_.try_acquire()) {
    hold_posted(t);
    return;
  }
  if (idle_posted_.empty()) {
    posted_.push_back(std::make_unique<Posted>());
    Posted& fresh = *posted_.back();
    fresh.granted = [](sim::Resource::Waiter& w) {
      auto& posted = static_cast<Posted&>(w);
      posted.node->idle_posted_.push_back(&posted);
      posted.node->hold_posted(posted.t);
    };
    fresh.node = this;
    idle_posted_.push_back(&fresh);
  }
  Posted* p = idle_posted_.back();
  idle_posted_.pop_back();
  p->t = t;
  cpu_.enqueue(0, p);
}

void Node::hold_posted(sim::Time t) {
  if (sim_.delay_inline(t)) {
    cpu_.release();
  } else {
    sim_.schedule(t, [this] { cpu_.release(); });
  }
}

}  // namespace raidx::cluster
