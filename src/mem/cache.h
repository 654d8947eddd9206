// Generic set-associative cache with true-LRU replacement.
//
// Physically indexed/physically tagged: all processes share the hierarchy,
// so multiprogrammed cache contention (one of the effects the ITS
// self-sacrificing thread exploits) emerges naturally.
#pragma once

#include "util/types.h"

#include <bit>
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
  explicit SetAssocCache(const CacheConfig& cfg);

  /// Looks up `addr`; on miss, inserts the line (allocate-on-miss for both
  /// reads and writes).  Returns true on hit.
  bool access(its::PhysAddr addr);

  /// Lookup without side effects.
  bool probe(its::PhysAddr addr) const;

  /// Inserts the line without counting a hit or miss (used by pre-execute /
  /// prefetch warming paths).
  void fill(its::PhysAddr addr);

  /// Drops one line if present; returns whether it was present.
  bool invalidate(its::PhysAddr addr);

  /// Drops all lines in [base, base+len).
  void invalidate_range(its::PhysAddr base, its::Bytes len);

  void invalidate_all();

  const CacheConfig& config() const { return cfg_; }
  const CacheStats& stats() const { return stats_; }
  void reset_stats() { stats_ = {}; }

  unsigned sets() const { return num_sets_; }
  std::uint64_t lines_resident() const;

 private:
  struct Way {
    std::uint64_t tag = 0;
    std::uint64_t lru = 0;  ///< Higher = more recently used.
    bool valid = false;
  };

  // addr→line/set/tag splits sit on the page-eviction invalidate path
  // (hundreds of millions of calls in a serving run), where a hardware
  // divide by a runtime divisor costs more than the whole way scan.  The
  // ctor precomputes shift/mask forms; the modulo fallback only runs for
  // non-power-of-two set counts, which no shipped config uses.
  std::uint64_t line_of(its::PhysAddr addr) const {
    return addr >> line_shift_;
  }
  unsigned set_index(std::uint64_t line) const {
    if (pow2_sets_) return static_cast<unsigned>(line & set_mask_);
    return static_cast<unsigned>(line % num_sets_);
  }
  std::uint64_t tag_of(std::uint64_t line) const {
    if (pow2_sets_) return line >> set_shift_;
    return line / num_sets_;
  }

  bool invalidate_line(std::uint64_t line);

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
  /// The victim's line number reconstructed from its slot: row-major layout
  /// stores set implicitly, the tag the rest.
  std::uint64_t line_of_way(std::uint64_t tag, unsigned set) const {
    return tag * num_sets_ + set;
  }

  CacheConfig cfg_;
  unsigned num_sets_;
  unsigned line_shift_ = 0;
  bool pow2_sets_ = false;
  unsigned set_shift_ = 0;
  std::uint64_t set_mask_ = 0;
  std::uint64_t tick_ = 0;
  std::vector<Way> ways_;  ///< num_sets_ * cfg_.ways, row-major by set.
  std::vector<std::uint32_t> region_lines_;
  CacheStats stats_;
};

}  // namespace its::mem
