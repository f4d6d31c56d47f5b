#include "cdd/lock_table.hpp"

#include <cassert>

namespace raidx::cdd {

bool LockGroupTable::try_acquire_now(std::uint64_t group,
                                     std::uint64_t owner) {
  assert(owner != 0 && "owner token 0 is the free sentinel");
  Entry& e = table_[group];
  if (e.owner == 0 && e.queue.empty()) {
    e.owner = owner;
    return true;
  }
  // Idempotent re-acquire: a retried kLock whose original grant succeeded
  // (the grant reply was lost) must not queue behind itself.
  return e.owner == owner;
}

sim::Task<> LockGroupTable::acquire(std::uint64_t group,
                                    std::uint64_t owner) {
  if (try_acquire_now(group, owner)) co_return;
  Entry& e = table_[group];
  auto trigger = std::make_unique<sim::Trigger>(sim_);
  sim::Trigger* waiting_on = trigger.get();
  e.queue.push_back(Waiter{owner, std::move(trigger)});
  co_await waiting_on->wait();
}

void LockGroupTable::release(std::uint64_t group, std::uint64_t owner) {
  auto it = table_.find(group);
  // Idempotent: releasing a group this owner does not hold (a duplicate
  // unlock after a lost reply) is a no-op, never a steal.
  if (it == table_.end() || it->second.owner != owner) return;
  Entry& e = it->second;
  if (e.queue.empty()) {
    table_.erase(it);
    return;
  }
  Waiter next = std::move(e.queue.front());
  e.queue.pop_front();
  e.owner = next.owner;
  next.granted->set();
}

bool LockGroupTable::held(std::uint64_t group) const {
  auto it = table_.find(group);
  return it != table_.end() && it->second.owner != 0;
}

std::uint64_t LockGroupTable::owner(std::uint64_t group) const {
  auto it = table_.find(group);
  return it == table_.end() ? 0 : it->second.owner;
}

std::size_t LockGroupTable::waiters(std::uint64_t group) const {
  auto it = table_.find(group);
  return it == table_.end() ? 0 : it->second.queue.size();
}

}  // namespace raidx::cdd
