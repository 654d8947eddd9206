#include "mem/cache.h"

#include "mem/set_assoc.h"
#include "util/types.h"

#include <bit>
#include <stdexcept>

namespace its::mem {

namespace {
std::uint64_t sets_of(const CacheConfig& cfg) {
  if (!std::has_single_bit(cfg.line_size))
    throw std::invalid_argument("cache line_size must be a power of two");
  if (cfg.line_size > its::kPageSize)
    throw std::invalid_argument(
        "cache line_size must not exceed the 4 KiB page");
  if (cfg.ways == 0) throw std::invalid_argument("cache must have >= 1 way");
  const std::uint64_t lines = cfg.size_bytes / cfg.line_size;
  if (lines < cfg.ways || lines % cfg.ways != 0)
    throw std::invalid_argument("cache size/ways mismatch");
  return lines / cfg.ways;
}
}  // namespace

SetAssocCache::SetAssocCache(const CacheConfig& cfg)
    : cfg_(cfg),
      line_shift_(static_cast<unsigned>(std::countr_zero(cfg.line_size))),
      lines_(sets_of(cfg), cfg.ways, "cache") {}

bool SetAssocCache::access(its::PhysAddr addr) {
  const std::uint64_t line = line_of(addr);
  if (const std::size_t slot = lines_.find(line); slot != kNoSlot) {
    lines_.touch(slot);
    ++stats_.hits;
    return true;
  }
  ++stats_.misses;
  insert(line);
  return false;
}

bool SetAssocCache::probe(its::PhysAddr addr) const {
  return lines_.find(line_of(addr)) != kNoSlot;
}

void SetAssocCache::fill(its::PhysAddr addr) {
  const std::uint64_t line = line_of(addr);
  if (const std::size_t slot = lines_.find(line); slot != kNoSlot)
    lines_.touch(slot);
  else
    insert(line);
}

void SetAssocCache::insert(std::uint64_t line) {
  if (const auto victim = lines_.insert(line).evicted) {
    ++stats_.evictions;
    region_sub(*victim);
  }
  region_add(line);
}

void SetAssocCache::invalidate_range(its::PhysAddr base, its::Bytes len) {
  if (len == 0) return;
  const std::uint64_t first = line_of(base);
  const std::uint64_t last = line_of(base + len - 1);
  // Within one region the count bounds the sweep: a cache-cold region (the
  // common CLOCK victim) needs none, and a warm one stops once it drains.
  const std::uint64_t region = region_of_line(first);
  std::uint32_t left = 0xffffffffu;
  if (region == region_of_line(last))
    left = region < region_lines_.size() ? region_lines_[region] : 0;
  if (left == 0) return;
  lines_.erase_range(first, last, [&](std::uint64_t line) {
    ++stats_.invalidations;
    region_sub(line);
    return --left != 0;
  });
}

}  // namespace its::mem
