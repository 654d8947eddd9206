#include "mem/preexec_cache.h"

#include "mem/set_assoc.h"
#include "util/types.h"

#include <bit>
#include <stdexcept>

namespace its::mem {

namespace {
/// Mask of bits [lo, lo+n) within a 64-bit line mask.
std::uint64_t byte_mask(unsigned lo, unsigned n) {
  if (n >= 64) return ~0ull;
  return ((1ull << n) - 1) << lo;
}

/// Bytes of [addr, addr+size) that fall in line `la`, one bit per byte.
std::uint64_t line_mask(its::VirtAddr addr, unsigned size, std::uint64_t la) {
  constexpr std::uint64_t kLast = its::kCacheLineSize - 1;
  const std::uint64_t lo = la == its::line_of(addr) ? addr & kLast : 0;
  const its::VirtAddr end = addr + size - 1;
  const std::uint64_t hi = la == its::line_of(end) ? end & kLast : kLast;
  return byte_mask(static_cast<unsigned>(lo),
                   static_cast<unsigned>(hi - lo + 1));
}

std::uint64_t sets_of(const PreexecCacheConfig& cfg) {
  if (cfg.line_size != its::kCacheLineSize)
    throw std::invalid_argument(
        "PreexecCache models 64-byte lines (one INV bit per byte)");
  const std::uint64_t n = cfg.size_bytes / cfg.line_size;
  if (cfg.ways == 0 || n < cfg.ways || n % cfg.ways != 0)
    throw std::invalid_argument("PreexecCache size/ways mismatch");
  return n / cfg.ways;
}
}  // namespace

PreexecCache::PreexecCache(const PreexecCacheConfig& cfg)
    : lines_(sets_of(cfg), cfg.ways, "PreexecCache") {}

void PreexecCache::store(its::VirtAddr addr, unsigned size, bool invalid) {
  if (size == 0) return;  // zero-byte store writes nothing
  ++stats_.stores;
  const std::uint64_t last = its::line_of(addr + size - 1);
  for (std::uint64_t la = its::line_of(addr); la <= last; ++la) {
    const std::uint64_t m = line_mask(addr, size, la);
    std::size_t slot = lines_.find(la);
    if (slot == kNoSlot)
      slot = lines_.insert(la).slot;
    else
      lines_.touch(slot);
    Masks& l = lines_.payload(slot);
    l.written |= m;
    if (invalid) {
      l.inv |= m;
      stats_.invalid_bytes_written += static_cast<unsigned>(std::popcount(m));
    } else {
      l.inv &= ~m;
    }
  }
}

PxLookup PreexecCache::lookup(its::VirtAddr addr, unsigned size) {
  PxLookup r;
  if (size == 0) {  // zero-byte probe: vacuously complete, never found
    ++stats_.load_misses;
    return r;
  }
  r.complete = true;
  const std::uint64_t last = its::line_of(addr + size - 1);
  for (std::uint64_t la = its::line_of(addr); la <= last; ++la) {
    const std::uint64_t m = line_mask(addr, size, la);
    const std::size_t slot = lines_.find(la);
    if (slot == kNoSlot || (lines_.payload(slot).written & m) == 0) {
      r.complete = false;
      continue;
    }
    lines_.touch(slot);
    const Masks& l = lines_.payload(slot);
    r.found = true;
    if ((l.written & m) != m) r.complete = false;
    if ((l.inv & m) != 0) r.any_invalid = true;
  }
  if (r.found)
    ++stats_.load_hits;
  else
    ++stats_.load_misses;
  return r;
}

}  // namespace its::mem
