#include "mem/cache.h"

#include "util/types.h"

#include <algorithm>
#include <bit>
#include <cstdint>
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
  if (resident(line)) {
    lines_.touch(lines_.find(line));
    ++stats_.hits;
    return true;
  }
  ++stats_.misses;
  insert(line);
  return false;
}

bool SetAssocCache::probe(its::PhysAddr addr) const {
  return resident(line_of(addr));
}

void SetAssocCache::fill(its::PhysAddr addr) {
  const std::uint64_t line = line_of(addr);
  if (resident(line))
    lines_.touch(lines_.find(line));
  else
    insert(line);
}

void SetAssocCache::insert(std::uint64_t line) {
  if (const auto victim = lines_.insert(line).evicted) {
    ++stats_.evictions;
    resident_[*victim >> 6] &= ~(std::uint64_t{1} << (*victim & 63));
  }
  if ((line >> 6) >= resident_.size()) resident_.resize((line >> 6) + 1, 0);
  resident_[line >> 6] |= std::uint64_t{1} << (line & 63);
}

void SetAssocCache::invalidate_range(its::PhysAddr base, its::Bytes len) {
  if (len == 0) return;
  const std::uint64_t first = line_of(base);
  const std::uint64_t last = line_of(base + len - 1);
  // Mask each covered word to the range, then erase its set bits: the cost
  // follows the resident lines, not the range.
  const std::uint64_t end =
      std::min<std::uint64_t>((last >> 6) + 1, resident_.size());
  for (std::uint64_t w = first >> 6; w < end; ++w) {
    std::uint64_t bits = resident_[w];
    if (w == first >> 6) bits &= ~std::uint64_t{0} << (first & 63);
    if (w == last >> 6) bits &= ~std::uint64_t{0} >> (63 - (last & 63));
    resident_[w] &= ~bits;
    for (; bits != 0; bits &= bits - 1) {
      const std::uint64_t line =
          (w << 6) | static_cast<unsigned>(std::countr_zero(bits));
      lines_.erase(lines_.find(line));
      ++stats_.invalidations;
    }
  }
}

}  // namespace its::mem
