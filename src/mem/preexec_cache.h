// Pre-execute cache (paper §3.4.2).
//
// "Within each CPU, we introduce a pre-execute cache, associating an INV bit
// with each byte. This cache stores both data values and their associated
// INV statuses linked to retired store instructions from the store buffer."
//
// In the trace-driven model we track *validity*, not data values: each line
// holds a written-byte mask and a per-byte INV mask.  The cache is tagged by
// (pid, virtual address) because invalid stores may target pages with no
// physical address (the data is still in storage — Fig. 3a case 0), and it
// is only accessible during pre-execution.
#pragma once

#include "mem/set_assoc.h"
#include "util/types.h"

#include <cstdint>

namespace its::mem {

struct PreexecCacheConfig {
  its::Bytes size_bytes = 4_MiB;  ///< Half of the 8 MB LLC.
  unsigned ways = 16;
  unsigned line_size = 64;
};

/// Result of a pre-execute load probe.
struct PxLookup {
  bool found = false;      ///< Some written bytes of the range are present.
  bool complete = false;   ///< Every byte of the range is present.
  bool any_invalid = false;///< Any overlapping written byte is INV.
};

struct PreexecCacheStats {
  std::uint64_t stores = 0;
  std::uint64_t load_hits = 0;
  std::uint64_t load_misses = 0;
  std::uint64_t invalid_bytes_written = 0;
};

class PreexecCache {
 public:
  /// Throws std::invalid_argument unless lines are 64 B, the size is a
  /// whole number of sets and the set count is a power of two.
  explicit PreexecCache(const PreexecCacheConfig& cfg = {});

  /// Composite key for (pid, vaddr): heap VAs use < 48 bits.
  static std::uint64_t key(its::Pid pid, its::VirtAddr va) {
    return its::pid_key(pid, va);
  }

  /// Records a retired pre-execute store of [addr, addr+size); bytes are
  /// flagged INV when `invalid` (bogus source data or page-in-storage).
  void store(its::VirtAddr addr, unsigned size, bool invalid);

  /// Pre-execute load probe over [addr, addr+size).
  PxLookup lookup(its::VirtAddr addr, unsigned size);

  const PreexecCacheStats& stats() const { return stats_; }
  std::uint64_t lines_resident() const { return lines_.resident(); }

 private:
  struct Masks {
    std::uint64_t written = 0;  ///< Bit i: byte i of the line was stored.
    std::uint64_t inv = 0;      ///< Bit i: byte i is invalid.
  };

  SetAssoc<Masks> lines_;  ///< Keyed by line_of(key).
  PreexecCacheStats stats_;
};

}  // namespace its::mem
