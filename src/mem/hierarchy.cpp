#include "mem/hierarchy.h"

#include "util/types.h"

#include <algorithm>
#include <cstdint>

namespace its::mem {

CacheHierarchy::CacheHierarchy(const HierarchyConfig& cfg)
    : cfg_(cfg), l1_(cfg.l1), l2_(cfg.l2), llc_(cfg.llc) {}

AccessResult CacheHierarchy::access_line(its::PhysAddr addr) {
  if (l1_.access(addr)) return {HitLevel::kL1, cfg_.l1.hit_latency};
  // A miss at a level has already allocated the line there, so the levels
  // above the hit are filled by their own access calls.
  if (l2_.access(addr))
    return {HitLevel::kL2, cfg_.l1.hit_latency + cfg_.l2.hit_latency};
  if (llc_.access(addr))
    return {HitLevel::kLlc,
            cfg_.l1.hit_latency + cfg_.l2.hit_latency + cfg_.llc.hit_latency};
  return {HitLevel::kMemory, cfg_.l1.hit_latency + cfg_.l2.hit_latency +
                                 cfg_.llc.hit_latency + cfg_.dram_latency};
}

AccessResult CacheHierarchy::access(its::PhysAddr addr, unsigned size) {
  unsigned line = cfg_.l1.line_size;
  std::uint64_t first = addr / line;
  std::uint64_t last = (addr + (size ? size - 1 : 0)) / line;
  AccessResult r = access_line(addr);
  for (std::uint64_t l = first + 1; l <= last; ++l) {
    AccessResult r2 = access_line(l * line);
    // Split accesses proceed in parallel on a real core; charge the slower.
    if (r2.latency > r.latency) r = r2;
  }
  return r;
}

void CacheHierarchy::warm(its::PhysAddr addr, unsigned size) {
  unsigned line = cfg_.l1.line_size;
  std::uint64_t first = addr / line;
  std::uint64_t last = (addr + (size ? size - 1 : 0)) / line;
  for (std::uint64_t l = first; l <= last; ++l) {
    its::PhysAddr a = l * line;
    llc_.fill(a);
    l2_.fill(a);
    l1_.fill(a);
  }
}

bool CacheHierarchy::probe(its::PhysAddr addr) const {
  return l1_.probe(addr) || l2_.probe(addr) || llc_.probe(addr);
}

void CacheHierarchy::invalidate_page(its::PhysAddr page_base) {
  l1_.invalidate_range(page_base, its::kPageSize);
  l2_.invalidate_range(page_base, its::kPageSize);
  llc_.invalidate_range(page_base, its::kPageSize);
}

}  // namespace its::mem
