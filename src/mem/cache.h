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

  // One bit per line number, 64 lines a word, set exactly while the line is
  // resident.  Page eviction invalidates its frame at every level, but CLOCK
  // victims are usually cache-cold by then: the bits let invalidate_range
  // visit only the resident lines (none, most often) and answer probe and
  // the hit test without scanning a set.
  bool resident(std::uint64_t line) const {
    const std::uint64_t w = line >> 6;
    return w < resident_.size() && (resident_[w] >> (line & 63) & 1) != 0;
  }

  CacheConfig cfg_;
  unsigned line_shift_;
  SetAssoc<NoPayload> lines_;  ///< Keyed by line number.
  std::vector<std::uint64_t> resident_;  ///< Grown to the highest line.
  CacheStats stats_;
};

}  // namespace its::mem
