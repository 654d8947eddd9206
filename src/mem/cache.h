// Generic set-associative cache with true-LRU replacement.
//
// Physically indexed/physically tagged: all processes share the hierarchy,
// so multiprogrammed cache contention (one of the effects the ITS
// self-sacrificing thread exploits) emerges naturally.
#pragma once

#include "mem/set_assoc.h"
#include "util/types.h"

#include <cstdint>
#include <vector>

namespace its::mem {

struct CacheConfig {
  its::Bytes size_bytes = 32_KiB;
  unsigned ways = 8;
  unsigned line_size = 64;
  its::Duration hit_latency = 1;  ///< ns, charged on a hit at this level.
};

struct CacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t evictions = 0;
  std::uint64_t invalidations = 0;

  double miss_ratio() const {
    std::uint64_t t = hits + misses;
    return t ? static_cast<double>(misses) / static_cast<double>(t) : 0.0;
  }
};

class SetAssocCache {
 public:
  /// Throws std::invalid_argument naming the field for a line size that is
  /// not a power of two or exceeds a page, zero ways, a size that is not a
  /// whole number of sets, or a set count that is not a power of two.
  explicit SetAssocCache(const CacheConfig& cfg);

  /// Looks up `addr`; on miss, inserts the line (allocate-on-miss for both
  /// reads and writes).  Returns true on hit.
  bool access(its::PhysAddr addr);

  /// Lookup without side effects.
  bool probe(its::PhysAddr addr) const;

  /// Inserts the line without counting a hit or miss (used by pre-execute /
  /// prefetch warming paths).
  void fill(its::PhysAddr addr);

  /// Drops all lines in [base, base+len).
  void invalidate_range(its::PhysAddr base, its::Bytes len);

  const CacheConfig& config() const { return cfg_; }
  const CacheStats& stats() const { return stats_; }
  std::uint64_t lines_resident() const { return lines_.resident(); }

 private:
  std::uint64_t line_of(its::PhysAddr addr) const {
    return addr >> line_shift_;
  }

  /// The miss path shared by access and fill.
  void insert(std::uint64_t line);

  // Exact resident-line count per 4 KiB region, maintained on every insert,
  // replacement and invalidation.  Page eviction invalidates its frame at
  // every level, but CLOCK victims are usually cache-cold by then — the
  // count lets invalidate_range answer "nothing resident" in O(1) instead
  // of sweeping ways, and stop a warm sweep the moment the region drains.
  std::uint64_t region_of_line(std::uint64_t line) const {
    return line >> (its::kPageShift - line_shift_);
  }
  void region_add(std::uint64_t line) {
    const std::uint64_t r = region_of_line(line);
    if (r >= region_lines_.size()) region_lines_.resize(r + 1, 0);
    ++region_lines_[r];
  }
  void region_sub(std::uint64_t line) { --region_lines_[region_of_line(line)]; }

  CacheConfig cfg_;
  unsigned line_shift_;
  SetAssoc<NoPayload> lines_;  ///< Keyed by line number.
  std::vector<std::uint32_t> region_lines_;
  CacheStats stats_;
};

}  // namespace its::mem
