#include "mem/cache.h"

#include "util/types.h"

#include <algorithm>
#include <stdexcept>

namespace its::mem {

SetAssocCache::SetAssocCache(const CacheConfig& cfg) : cfg_(cfg) {
  if (cfg.line_size == 0 || (cfg.line_size & (cfg.line_size - 1)) != 0)
    throw std::invalid_argument("cache line size must be a power of two");
  if (cfg.ways == 0) throw std::invalid_argument("cache must have >= 1 way");
  std::uint64_t lines = cfg.size_bytes / cfg.line_size;
  if (lines < cfg.ways || lines % cfg.ways != 0)
    throw std::invalid_argument("cache size/ways mismatch");
  num_sets_ = static_cast<unsigned>(lines / cfg.ways);
  ways_.assign(lines, Way{});
  line_shift_ = static_cast<unsigned>(std::countr_zero(cfg.line_size));
  pow2_sets_ = (num_sets_ & (num_sets_ - 1)) == 0;
  if (pow2_sets_) {
    set_shift_ = static_cast<unsigned>(std::countr_zero(num_sets_));
    set_mask_ = num_sets_ - 1;
  }
}

bool SetAssocCache::access(its::PhysAddr addr) {
  std::uint64_t line = line_of(addr);
  unsigned set = set_index(line);
  std::uint64_t tag = tag_of(line);
  Way* base = &ways_[static_cast<std::size_t>(set) * cfg_.ways];
  Way* victim = base;
  for (unsigned w = 0; w < cfg_.ways; ++w) {
    Way& way = base[w];
    if (way.valid && way.tag == tag) {
      way.lru = ++tick_;
      ++stats_.hits;
      return true;
    }
    if (!way.valid) {
      victim = &way;
    } else if (victim->valid && way.lru < victim->lru) {
      victim = &way;
    }
  }
  ++stats_.misses;
  if (victim->valid) {
    ++stats_.evictions;
    region_sub(line_of_way(victim->tag, set));
  }
  region_add(line);
  victim->valid = true;
  victim->tag = tag;
  victim->lru = ++tick_;
  return false;
}

bool SetAssocCache::probe(its::PhysAddr addr) const {
  std::uint64_t line = line_of(addr);
  unsigned set = set_index(line);
  std::uint64_t tag = tag_of(line);
  const Way* base = &ways_[static_cast<std::size_t>(set) * cfg_.ways];
  for (unsigned w = 0; w < cfg_.ways; ++w)
    if (base[w].valid && base[w].tag == tag) return true;
  return false;
}

void SetAssocCache::fill(its::PhysAddr addr) {
  std::uint64_t line = line_of(addr);
  unsigned set = set_index(line);
  std::uint64_t tag = tag_of(line);
  Way* base = &ways_[static_cast<std::size_t>(set) * cfg_.ways];
  Way* victim = base;
  for (unsigned w = 0; w < cfg_.ways; ++w) {
    Way& way = base[w];
    if (way.valid && way.tag == tag) {
      way.lru = ++tick_;
      return;  // already resident
    }
    if (!way.valid) {
      victim = &way;
    } else if (victim->valid && way.lru < victim->lru) {
      victim = &way;
    }
  }
  if (victim->valid) {
    ++stats_.evictions;
    region_sub(line_of_way(victim->tag, set));
  }
  region_add(line);
  victim->valid = true;
  victim->tag = tag;
  victim->lru = ++tick_;
}

bool SetAssocCache::invalidate_line(std::uint64_t line) {
  unsigned set = set_index(line);
  std::uint64_t tag = tag_of(line);
  Way* base = &ways_[static_cast<std::size_t>(set) * cfg_.ways];
  for (unsigned w = 0; w < cfg_.ways; ++w) {
    if (base[w].valid && base[w].tag == tag) {
      base[w].valid = false;
      ++stats_.invalidations;
      region_sub(line);
      return true;
    }
  }
  return false;
}

bool SetAssocCache::invalidate(its::PhysAddr addr) {
  return invalidate_line(line_of(addr));
}

void SetAssocCache::invalidate_range(its::PhysAddr base, its::Bytes len) {
  if (len == 0) return;
  const std::uint64_t first = line_of(base);
  const std::uint64_t last = line_of(base + len - 1);
  if (pow2_sets_ && tag_of(first) == tag_of(last)) {
    // Page-eviction fast path: an aligned range within one tag block maps
    // to contiguous sets under one shared tag, so the per-line set/tag
    // arithmetic collapses into a single sequential sweep of the way
    // array.  Each set holds at most one copy of a tag (access/fill probe
    // before inserting), so this clears exactly the lines the slow path
    // would — and when the range sits inside one region whose resident
    // count is already zero (the common cache-cold CLOCK victim), there is
    // nothing to sweep at all.
    const std::uint64_t region = region_of_line(first);
    const bool one_region = region == region_of_line(last);
    std::uint32_t left = 0xffffffffu;
    if (one_region)
      left = region < region_lines_.size() ? region_lines_[region] : 0;
    if (left == 0) return;
    const std::uint64_t tag = tag_of(first);
    const unsigned s0 = set_index(first);
    Way* w = &ways_[static_cast<std::size_t>(s0) * cfg_.ways];
    const std::size_t n = static_cast<std::size_t>(last - first + 1) * cfg_.ways;
    for (std::size_t i = 0; i < n; ++i) {
      if (w[i].valid && w[i].tag == tag) {
        w[i].valid = false;
        ++stats_.invalidations;
        region_sub(line_of_way(tag, s0 + static_cast<unsigned>(i / cfg_.ways)));
        if (--left == 0) break;
      }
    }
    return;
  }
  for (std::uint64_t line = first; line <= last; ++line) invalidate_line(line);
}

void SetAssocCache::invalidate_all() {
  for (auto& w : ways_)
    if (w.valid) {
      w.valid = false;
      ++stats_.invalidations;
    }
  std::fill(region_lines_.begin(), region_lines_.end(), 0);
}

std::uint64_t SetAssocCache::lines_resident() const {
  std::uint64_t n = 0;
  for (const auto& w : ways_) n += w.valid ? 1 : 0;
  return n;
}

}  // namespace its::mem
