#include "cache/block_cache.hpp"

#include <algorithm>
#include <cassert>
#include <utility>

namespace raidx::cache {

NodeCache::NodeCache(std::uint64_t capacity_blocks, std::uint32_t block_bytes,
                     EvictionPolicy policy)
    : capacity_blocks_(capacity_blocks),
      block_bytes_(block_bytes),
      policy_(policy) {
  // 2Q tuning from the paper: probation ~25% of capacity, ghost ~50%.
  probation_target_ = std::max<std::size_t>(1, capacity_blocks / 4);
  ghost_target_ = std::max<std::size_t>(1, capacity_blocks / 2);
}

void NodeCache::attach(std::uint64_t lba, Entry& e, Queue q) {
  e.queue = q;
  auto& list = (q == Queue::kProbation) ? probation_ : main_;
  e.pos = list.insert(list.end(), lba);
}

void NodeCache::touch(std::uint64_t lba, Entry& e) {
  if (policy_ == EvictionPolicy::kLru) {
    main_.erase(e.pos);
    attach(lba, e, Queue::kMain);
    return;
  }
  // 2Q: a hit in probation stays put (A1in is FIFO); a hit in the main
  // queue refreshes recency.
  if (e.queue == Queue::kMain) {
    main_.erase(e.pos);
    attach(lba, e, Queue::kMain);
  }
}

const block::Payload* NodeCache::lookup(std::uint64_t lba) {
  auto it = entries_.find(lba);
  if (it == entries_.end()) return nullptr;
  touch(lba, it->second);
  return &it->second.data;
}

const block::Payload* NodeCache::peek(std::uint64_t lba) const {
  auto it = entries_.find(lba);
  if (it == entries_.end()) return nullptr;
  return &it->second.data;
}

void NodeCache::remember_ghost(std::uint64_t lba) {
  if (ghost_index_.count(lba)) return;
  ghost_index_[lba] = ghost_.insert(ghost_.end(), lba);
  while (ghost_.size() > ghost_target_) {
    ghost_index_.erase(ghost_.front());
    ghost_.pop_front();
  }
}

void NodeCache::insert(std::uint64_t lba, block::Payload data, bool dirty) {
  assert(data.size() == block_bytes_);
  auto it = entries_.find(lba);
  if (it != entries_.end()) {
    Entry& e = it->second;
    e.data = std::move(data);
    if (dirty && !e.dirty) ++dirty_count_;
    if (dirty) {
      e.dirty = true;
      e.version = ++next_version_;
    }
    touch(lba, e);
    return;
  }
  Entry e;
  e.data = std::move(data);
  e.dirty = dirty;
  if (dirty) {
    ++dirty_count_;
    e.version = ++next_version_;
  }
  Queue q = Queue::kMain;
  if (policy_ == EvictionPolicy::k2Q) {
    // First touch goes on probation unless the ghost list remembers the
    // block (it was recently evicted from probation => it has reuse).
    auto g = ghost_index_.find(lba);
    if (g != ghost_index_.end()) {
      ghost_.erase(g->second);
      ghost_index_.erase(g);
    } else {
      q = Queue::kProbation;
    }
  }
  auto [ins, ok] = entries_.emplace(lba, std::move(e));
  (void)ok;
  attach(lba, ins->second, q);
}

bool NodeCache::invalidate(std::uint64_t lba) {
  auto it = entries_.find(lba);
  if (it == entries_.end()) return false;
  Entry& e = it->second;
  if (e.dirty) --dirty_count_;
  auto& list = (e.queue == Queue::kProbation) ? probation_ : main_;
  list.erase(e.pos);
  entries_.erase(it);
  return true;
}

bool NodeCache::dirty(std::uint64_t lba) const {
  auto it = entries_.find(lba);
  return it != entries_.end() && it->second.dirty;
}

std::uint64_t NodeCache::version(std::uint64_t lba) const {
  auto it = entries_.find(lba);
  return it == entries_.end() ? 0 : it->second.version;
}

bool NodeCache::mark_clean(std::uint64_t lba, std::uint64_t version) {
  auto it = entries_.find(lba);
  if (it == entries_.end()) return true;  // invalidated meanwhile
  Entry& e = it->second;
  if (!e.dirty) return true;
  if (e.version != version) return false;  // rewritten since the flush read
  e.dirty = false;
  --dirty_count_;
  return true;
}

void NodeCache::set_busy(std::uint64_t lba, bool busy) {
  auto it = entries_.find(lba);
  if (it != entries_.end()) it->second.busy = busy;
}

std::optional<std::uint64_t> NodeCache::scan_for_victim(
    const std::list<std::uint64_t>& q, bool allow_pinned) {
  for (std::uint64_t lba : q) {
    const Entry& e = entries_.at(lba);
    if (e.dirty || e.busy) continue;
    if (!allow_pinned && pinned(lba)) continue;
    return lba;
  }
  return std::nullopt;
}

std::optional<std::uint64_t> NodeCache::pick_victim() {
  // Keep probation at its target share first (2Q); LRU keeps everything in
  // main_, so the probation scan is a no-op there.
  if (probation_.size() > probation_target_) {
    if (auto v = scan_for_victim(probation_, false)) {
      remember_ghost(*v);
      return v;
    }
  }
  for (bool allow_pinned : {false, true}) {
    if (auto v = scan_for_victim(probation_, allow_pinned)) {
      remember_ghost(*v);
      return v;
    }
    if (auto v = scan_for_victim(main_, allow_pinned)) return v;
  }
  return std::nullopt;  // everything dirty or mid-flush
}

std::optional<std::uint64_t> NodeCache::oldest_dirty() const {
  for (const std::list<std::uint64_t>* q : {&probation_, &main_}) {
    for (std::uint64_t lba : *q) {
      const Entry& e = entries_.at(lba);
      if (e.dirty && !e.busy) return lba;
    }
  }
  return std::nullopt;
}

void NodeCache::clear() {
  entries_.clear();
  main_.clear();
  probation_.clear();
  ghost_.clear();
  ghost_index_.clear();
  dirty_count_ = 0;
}

}  // namespace raidx::cache
