#include "core/memcache.hpp"

#include <cstring>

namespace xrdma::core {

namespace {
constexpr std::uint8_t kCanary = 0xa5;
}

MemCache::MemCache(rnic::Rnic& nic, MemCacheConfig config)
    : nic_(nic), cfg_(config) {
  for (std::size_t i = 0; i < cfg_.min_mrs; ++i) grow();
}

MemCache::~MemCache() {
  for (auto& region : mrs_) nic_.dereg_mr(region.info.lkey);
}

MemCache::Region* MemCache::grow() {
  if (mrs_.size() >= cfg_.max_mrs) return nullptr;
  Region region;
  region.info = nic_.reg_mr(cfg_.mr_bytes, cfg_.real_memory);
  region.free_ranges[0] = cfg_.mr_bytes;
  mrs_.push_back(std::move(region));
  ++stats_.grow_events;
  stats_.occupied_bytes += cfg_.mr_bytes;
  if (recorder_) {
    recorder_->log(nic_.engine().now(), analysis::RecEvent::mem_grow, which_,
                   0, stats_.occupied_bytes);
  }
  return &mrs_.back();
}

MemBlock MemCache::alloc(std::uint32_t len, bool privileged,
                         BlockWriter writer) {
  ++stats_.alloc_calls;
  note_activity();
  const std::uint32_t need = padded(len);
  if (need > cfg_.mr_bytes) {
    ++stats_.failed_allocs;
    if (privileged) ++stats_.privileged_alloc_fails;
    return {};
  }
  if (!privileged && cfg_.reserve_bytes > 0) {
    const std::uint64_t budget = budget_bytes();
    const std::uint64_t open =
        budget > cfg_.reserve_bytes ? budget - cfg_.reserve_bytes : 0;
    if (stats_.in_use_bytes + need > open) {
      ++stats_.failed_allocs;
      ++stats_.reserve_denials;
      if (recorder_) {
        recorder_->log(nic_.engine().now(), analysis::RecEvent::mem_denial,
                       which_, 0, len);
      }
      return {};
    }
  }
  auto carve = [&](Region& region) -> MemBlock {
    for (auto it = region.free_ranges.begin(); it != region.free_ranges.end();
         ++it) {
      if (it->second < need) continue;
      const std::uint64_t offset = it->first;
      const std::uint64_t remaining = it->second - need;
      region.free_ranges.erase(it);
      if (remaining > 0) region.free_ranges[offset + need] = remaining;
      region.used += need;
      stats_.in_use_bytes += need;
      MemBlock block;
      block.addr = region.info.addr + offset +
                   (cfg_.isolation ? cfg_.guard_bytes : 0);
      block.len = len;
      block.lkey = region.info.lkey;
      block.rkey = region.info.rkey;
      block.guarded = cfg_.isolation && writer == BlockWriter::host;
      if (block.guarded) write_guards(region, offset, len);
      return block;
    }
    return {};
  };

  for (auto& region : mrs_) {
    MemBlock b = carve(region);
    if (b.valid()) return b;
  }
  Region* fresh = grow();
  if (fresh) {
    MemBlock b = carve(*fresh);
    if (b.valid()) return b;
  }
  ++stats_.failed_allocs;
  if (privileged) ++stats_.privileged_alloc_fails;
  return {};
}

void MemCache::free(const MemBlock& block) {
  ++stats_.free_calls;
  note_activity();
  for (auto& region : mrs_) {
    if (region.info.lkey != block.lkey) continue;
    const std::uint64_t guard = cfg_.isolation ? cfg_.guard_bytes : 0;
    const std::uint64_t offset = block.addr - region.info.addr - guard;
    const std::uint32_t need = padded(block.len);
    // A range that leaves the region or overlaps free space is not a live
    // block (a double free, or a block forged from bad metadata). Counting
    // it in would corrupt `used` and `in_use_bytes` for good, and let
    // shrink() deregister a region that still holds live blocks.
    const auto after = region.free_ranges.lower_bound(offset);
    const bool outside =
        offset > cfg_.mr_bytes || need > cfg_.mr_bytes - offset;
    const bool overlaps =
        (after != region.free_ranges.end() && after->first < offset + need) ||
        (after != region.free_ranges.begin() &&
         std::prev(after)->first + std::prev(after)->second > offset);
    if (outside || overlaps) {
      ++stats_.bad_frees;
      return;
    }
    if (block.guarded && !check_guards(region, offset, block.len)) {
      ++stats_.guard_violations;
      if (on_violation_) on_violation_(block);
    }
    // Coalescing insert.
    auto it = region.free_ranges.emplace_hint(after, offset, need);
    if (it != region.free_ranges.begin()) {
      auto prev = std::prev(it);
      if (prev->first + prev->second == it->first) {
        prev->second += it->second;
        region.free_ranges.erase(it);
        it = prev;
      }
    }
    auto next = std::next(it);
    if (next != region.free_ranges.end() &&
        it->first + it->second == next->first) {
      it->second += next->second;
      region.free_ranges.erase(next);
    }
    region.used -= need;
    stats_.in_use_bytes -= need;
    return;
  }
}

std::uint8_t* MemCache::data(const MemBlock& block, std::uint32_t offset) {
  return nic_.mr_ptr(block.addr + offset, block.len - offset);
}

void MemCache::write_guards(Region& region, std::uint64_t offset,
                            std::uint32_t len) {
  if (!cfg_.real_memory) return;
  std::uint8_t* base = nic_.mr_ptr(region.info.addr + offset, padded(len));
  if (!base) return;
  std::memset(base, kCanary, cfg_.guard_bytes);
  std::memset(base + cfg_.guard_bytes + len, kCanary, cfg_.guard_bytes);
}

bool MemCache::check_guards(Region& region, std::uint64_t offset,
                            std::uint32_t len) {
  if (!cfg_.real_memory) return true;
  std::uint8_t* base = nic_.mr_ptr(region.info.addr + offset, padded(len));
  if (!base) return true;
  for (std::uint32_t i = 0; i < cfg_.guard_bytes; ++i) {
    if (base[i] != kCanary) return false;
    if (base[cfg_.guard_bytes + len + i] != kCanary) return false;
  }
  return true;
}

void MemCache::enable_idle_shrink(Nanos idle) {
  idle_delay_ = idle;
  if (!idle_timer_) {
    idle_timer_ = std::make_unique<sim::DeadlineTimer>(nic_.engine(), [this] {
      ++stats_.idle_shrink_fires;
      shrink();
      // Not re-armed: the next alloc/free starts the next idle spell.
    });
  }
  idle_timer_->arm_after(idle_delay_);
}

void MemCache::note_activity() {
  if (idle_timer_ && idle_delay_ > 0) idle_timer_->arm_after(idle_delay_);
}

void MemCache::shrink() {
  for (auto it = mrs_.begin(); it != mrs_.end() && mrs_.size() > cfg_.min_mrs;) {
    if (it->used == 0) {
      nic_.dereg_mr(it->info.lkey);
      stats_.occupied_bytes -= cfg_.mr_bytes;
      ++stats_.shrink_events;
      if (recorder_) {
        recorder_->log(nic_.engine().now(), analysis::RecEvent::mem_shrink,
                       which_, 0, stats_.occupied_bytes);
      }
      it = mrs_.erase(it);
    } else {
      ++it;
    }
  }
}

}  // namespace xrdma::core
