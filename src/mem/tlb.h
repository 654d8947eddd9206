// Translation Look-aside Buffer.
//
// A single shared hardware TLB, fully associative with true LRU, flushed on
// every context switch (the paper lists TLB shootdown as one of the hidden
// context-switch costs — the Async baseline pays it on every fault).
#pragma once

#include "mem/set_assoc.h"
#include "util/types.h"

#include <cstdint>

namespace its::mem {

struct TlbStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t flushes = 0;
};

class Tlb {
 public:
  /// Largest accepted capacity — above any real L1/L2 data TLB; the
  /// entries are allocated up front.
  static constexpr unsigned kMaxEntries = 4096;

  /// Throws std::invalid_argument naming `tlb_entries` unless
  /// 1 <= entries <= kMaxEntries.
  explicit Tlb(unsigned entries = 64);

  /// Translates `vpn`: true on a hit (and refreshes LRU); on a miss, counts
  /// it and installs the translation the page walk produces.  One
  /// fingerprint scan of the entries (eight per word) either way; the
  /// victim is the recency list's tail, found in O(1).
  bool access(its::Vpn vpn);

  /// Looks up a translation for `vpn`; true on hit (and refreshes LRU).
  bool lookup(its::Vpn vpn);

  /// Installs a translation after a page walk.
  void insert(its::Vpn vpn);

  /// Drops one translation (page unmapped / evicted to swap).
  void invalidate(its::Vpn vpn);

  /// Full flush (context switch).
  void flush();

  const TlbStats& stats() const { return stats_; }
  std::size_t size() const { return entries_.resident(); }

 private:
  SetAssoc<NoPayload> entries_;  ///< One set of `entries` ways.
  TlbStats stats_;
};

}  // namespace its::mem
