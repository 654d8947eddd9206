// Differential tests for src/mem and the pre-execute store buffer: the
// caches, the hierarchy, the TLB, the pre-execute cache and the store buffer
// each run beside an obviously-correct reference model (MRU-first std::list
// stacks, a std::map of byte masks, a std::deque) under seeded random
// operation streams, compared after every step.  A failure prints the seed
// and the step, so a divergence replays from the test name alone.
// `ctest -L diff` runs just these.
#include <gtest/gtest.h>

#include "cpu/store_buffer.h"
#include "mem/cache.h"
#include "mem/hierarchy.h"
#include "mem/preexec_cache.h"
#include "mem/tlb.h"
#include "util/rng.h"
#include "util/types.h"

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <iterator>
#include <list>
#include <map>
#include <optional>
#include <ostream>
#include <sstream>
#include <string>
#include <vector>

namespace its::mem {
namespace {

constexpr int kSteps = 5000;
constexpr int kSweepEvery = 64;  ///< Steps between full-residency sweeps.
constexpr std::uint64_t kSeeds[] = {1, 2, 3, 7, 42, 1009};

/// The first disagreement of a step, as "what: got X, model Y".
class Mismatch {
 public:
  template <class T>
  void eq(const std::string& what, const T& got, const T& want) {
    if (!why_.empty() || got == want) return;
    std::ostringstream os;
    os << what << ": got " << got << ", model " << want;
    why_ = os.str();
  }
  bool any() const { return !why_.empty(); }
  const std::string& why() const { return why_; }

 private:
  std::string why_;
};

std::string at(const char* what, std::uint64_t key) {
  std::ostringstream os;
  os << what << " 0x" << std::hex << key;
  return os.str();
}

/// Moves `x` to the front of `s`; false if absent.
bool touch(std::list<std::uint64_t>& s, std::uint64_t x) {
  auto it = std::find(s.begin(), s.end(), x);
  if (it == s.end()) return false;
  s.splice(s.begin(), s, it);
  return true;
}

// --- SetAssocCache ----------------------------------------------------------

/// One MRU-first list of line numbers per set; set = line mod sets.
class RefCache {
 public:
  explicit RefCache(const CacheConfig& c)
      : line_(c.line_size),
        ways_(c.ways),
        sets_(c.size_bytes / c.line_size / c.ways) {}

  bool access(PhysAddr a) {
    const bool hit = touch(set_of(a / line_), a / line_);
    ++(hit ? stats.hits : stats.misses);
    if (!hit) insert(a / line_);
    return hit;
  }
  void fill(PhysAddr a) {
    if (!touch(set_of(a / line_), a / line_)) insert(a / line_);
  }
  bool probe(PhysAddr a) const {
    const std::list<std::uint64_t>& s = sets_[a / line_ % sets_.size()];
    return std::find(s.begin(), s.end(), a / line_) != s.end();
  }
  void invalidate_range(PhysAddr base, Bytes len) {
    if (len == 0) return;
    for (std::uint64_t l = base / line_; l <= (base + len - 1) / line_; ++l) {
      std::list<std::uint64_t>& s = set_of(l);
      auto it = std::find(s.begin(), s.end(), l);
      if (it == s.end()) continue;
      s.erase(it);
      ++stats.invalidations;
    }
  }
  std::uint64_t lines_resident() const {
    std::uint64_t n = 0;
    for (const std::list<std::uint64_t>& s : sets_) n += s.size();
    return n;
  }
  /// A line of `a`'s set that is neither its most nor its least recent.
  std::optional<std::uint64_t> middle_line(PhysAddr a, util::Rng& rng) {
    const std::list<std::uint64_t>& s = set_of(a / line_);
    if (s.size() < 3) return std::nullopt;
    const auto pos = static_cast<std::ptrdiff_t>(1 + rng.below(s.size() - 2));
    return *std::next(s.begin(), pos);
  }
  std::uint64_t sets() const { return sets_.size(); }

  CacheStats stats;
  bool evicted = false;
  PhysAddr victim = 0;  ///< Address of the last evicted line.

 private:
  std::list<std::uint64_t>& set_of(std::uint64_t line) {
    return sets_[line % sets_.size()];
  }
  void insert(std::uint64_t line) {
    std::list<std::uint64_t>& s = set_of(line);
    if (s.size() == ways_) {
      evicted = true;
      victim = s.back() * line_;
      s.pop_back();
      ++stats.evictions;
    }
    s.push_front(line);
  }

  std::uint64_t line_;
  std::size_t ways_;
  std::vector<std::list<std::uint64_t>> sets_;
};

void same_stats(Mismatch& m, const char* level, const CacheStats& got,
                const CacheStats& want) {
  const std::string l(level);
  m.eq(l + " hits", got.hits, want.hits);
  m.eq(l + " misses", got.misses, want.misses);
  m.eq(l + " evictions", got.evictions, want.evictions);
  m.eq(l + " invalidations", got.invalidations, want.invalidations);
}

/// Pages the streams draw from: some adjacent (ranges span pages), some
/// apart.  Cold pages are never accessed, so their invalidation finds no
/// resident bit.
constexpr PhysAddr kPages[] = {0x0, 0x1000, 0x2000, 0x7000, 0x40000, 0x41000};
constexpr PhysAddr kColdPages[] = {0x9000, 0x80000};

/// Addresses with reuse: half the draws repeat one of the last eight.
class AddrGen {
 public:
  explicit AddrGen(util::Rng& rng) : rng_(rng) {}
  PhysAddr next() {
    PhysAddr a = 0;
    if (!recent_.empty() && rng_.chance(0.5)) {
      a = recent_[rng_.below(recent_.size())];
    } else {
      a = kPages[rng_.below(std::size(kPages))] + rng_.below(kPageSize);
    }
    recent_[n_++ % recent_.size()] = a;
    return a;
  }
  PhysAddr page() { return kPages[rng_.below(std::size(kPages))]; }
  PhysAddr cold_page() { return kColdPages[rng_.below(std::size(kColdPages))]; }

 private:
  util::Rng& rng_;
  std::vector<PhysAddr> recent_ = std::vector<PhysAddr>(8, kPages[0]);
  std::uint64_t n_ = 0;
};

/// Every line of the page universe resident in `c` exactly when in `ref`.
void same_residency(Mismatch& m, const char* level, const SetAssocCache& c,
                    const RefCache& ref) {
  for (PhysAddr p : kPages)
    for (PhysAddr a = p; a < p + kPageSize; a += c.config().line_size)
      m.eq(at(level, a) + " resident", c.probe(a), ref.probe(a));
}

struct CacheCase {
  const char* name;
  CacheConfig cfg;
};

// gtest prints a parameter without a printer as its raw bytes, and ctest
// discovery copies that text into the test name: the `name` pointer would
// put a load address there, different at every discovery.  Printed as its
// name, the case names the ctest test ("…/MatchesListModel/1set_2way").
void PrintTo(const CacheCase& c, std::ostream* os) { *os << c.name; }

class SetAssocCacheDiff : public ::testing::TestWithParam<CacheCase> {};

TEST_P(SetAssocCacheDiff, MatchesListModel) {
  const CacheConfig cfg = GetParam().cfg;
  for (std::uint64_t seed : kSeeds) {
    SetAssocCache c(cfg);
    RefCache ref(cfg);
    util::Rng rng(seed);
    AddrGen gen(rng);
    for (int step = 0; step < kSteps; ++step) {
      Mismatch m;
      ref.evicted = false;
      const std::uint64_t op = rng.below(100);
      if (op < 45) {
        const PhysAddr a = gen.next();
        m.eq(at("access", a), c.access(a), ref.access(a));
      } else if (op < 60) {
        const PhysAddr a = gen.next();
        c.fill(a);
        ref.fill(a);
      } else if (op < 70) {
        const PhysAddr p = gen.page();
        c.invalidate_range(p, kPageSize);
        ref.invalidate_range(p, kPageSize);
      } else if (op < 75) {
        const PhysAddr p = gen.cold_page();
        c.invalidate_range(p, kPageSize);
        ref.invalidate_range(p, kPageSize);
      } else if (op < 82) {
        // Unaligned, possibly empty, spanning pages and tag blocks.
        const PhysAddr a = gen.next();
        const Bytes len = rng.below(3 * kPageSize);
        c.invalidate_range(a, len);
        ref.invalidate_range(a, len);
      } else if (op < 88) {
        // From and to a 64-line word edge of the resident-line mask, or one
        // line either side of it: ranges that cross words, and ranges that
        // start or end mid-word.
        const Bytes word = 64 * Bytes{cfg.line_size};
        const PhysAddr edge = gen.page() + word * rng.below(2);
        const PhysAddr a = edge + cfg.line_size * rng.below(3) -
                           (edge == 0 ? 0 : cfg.line_size);
        const Bytes len = word * rng.below(3) + cfg.line_size * rng.below(3);
        c.invalidate_range(a, len);
        ref.invalidate_range(a, len);
      } else if (op < 94) {
        const PhysAddr a = gen.next();
        m.eq(at("probe", a), c.probe(a), ref.probe(a));
      } else {
        // Drop a line from the middle of its set's LRU order, then miss
        // into that set while valid ways remain: the freed way must take
        // the new lines before any valid one is evicted.
        const PhysAddr a = gen.next();
        if (const std::optional<std::uint64_t> l = ref.middle_line(a, rng)) {
          c.invalidate_range(*l * cfg.line_size, cfg.line_size);
          ref.invalidate_range(*l * cfg.line_size, cfg.line_size);
          for (std::uint64_t i = 0, n = 1 + rng.below(2); i < n; ++i) {
            // Beyond the page universe, so almost always a miss.
            const PhysAddr b =
                (*l + ref.sets() * (4096 + rng.below(64))) * cfg.line_size;
            m.eq(at("access", b), c.access(b), ref.access(b));
          }
        }
      }
      same_stats(m, "cache", c.stats(), ref.stats);
      m.eq("lines_resident", c.lines_resident(), ref.lines_resident());
      if (ref.evicted)
        m.eq(at("victim", ref.victim) + " resident", c.probe(ref.victim),
             false);
      if (step % kSweepEvery == 0 || step + 1 == kSteps)
        same_residency(m, "line", c, ref);
      if (m.any())
        FAIL() << "seed " << seed << " step " << step << ": " << m.why();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, SetAssocCacheDiff,
    ::testing::Values(CacheCase{"1set_2way", {128, 2, 64, 1}},
                      CacheCase{"2set_2way", {256, 2, 64, 1}},
                      CacheCase{"8set_2way", {1024, 2, 64, 1}},
                      CacheCase{"64set_2way", {8192, 2, 64, 1}},
                      CacheCase{"64set_16way", {64 * 1024, 16, 64, 1}},
                      CacheCase{"16set_2way_32B", {1024, 2, 32, 1}},
                      CacheCase{"128set_4way_32B", {16 * 1024, 4, 32, 1}},
                      CacheCase{"8set_4way_128B", {4096, 4, 128, 1}},
                      CacheCase{"2set_2way_4KiB", {16 * 1024, 2, 4096, 1}}));

// --- CacheHierarchy ---------------------------------------------------------

/// Three model levels: an access allocates at every level it probes and
/// stops at the first hit; warm fills every level; line-spanning accesses
/// are charged as their slowest line.
struct RefHierarchy {
  explicit RefHierarchy(const HierarchyConfig& c)
      : cfg(c), l1(c.l1), l2(c.l2), llc(c.llc) {}

  AccessResult access(PhysAddr addr, unsigned size) {
    const unsigned line = cfg.l1.line_size;
    AccessResult worst{HitLevel::kL1, 0};
    const std::uint64_t last = (addr + (size ? size - 1 : 0)) / line;
    for (std::uint64_t l = addr / line; l <= last; ++l) {
      const PhysAddr a = l == addr / line ? addr : l * line;
      AccessResult r{HitLevel::kL1, cfg.l1.hit_latency};
      if (!l1.access(a)) {
        r = {HitLevel::kL2, r.latency + cfg.l2.hit_latency};
        if (!l2.access(a)) {
          r = {HitLevel::kLlc, r.latency + cfg.llc.hit_latency};
          if (!llc.access(a))
            r = {HitLevel::kMemory, r.latency + cfg.dram_latency};
        }
      }
      if (r.latency > worst.latency) worst = r;
    }
    return worst;
  }
  void warm(PhysAddr addr, unsigned size) {
    const unsigned line = cfg.l1.line_size;
    const std::uint64_t last = (addr + (size ? size - 1 : 0)) / line;
    for (std::uint64_t l = addr / line; l <= last; ++l) {
      llc.fill(l * line);
      l2.fill(l * line);
      l1.fill(l * line);
    }
  }
  void invalidate_page(PhysAddr p) {
    for (RefCache* c : {&l1, &l2, &llc}) c->invalidate_range(p, kPageSize);
  }

  HierarchyConfig cfg;
  RefCache l1, l2, llc;
};

TEST(CacheHierarchyDiff, MatchesThreeListModels) {
  HierarchyConfig cfg;
  cfg.l1 = {128, 2, 64, 1};    // 1 set: every page spans many tag blocks
  cfg.l2 = {512, 2, 64, 4};    // 4 sets
  cfg.llc = {8192, 2, 64, 14};  // 64 sets: a page is one tag block
  for (std::uint64_t seed : kSeeds) {
    CacheHierarchy h(cfg);
    RefHierarchy ref(cfg);
    util::Rng rng(seed);
    AddrGen gen(rng);
    constexpr unsigned kSizes[] = {0, 1, 8, 16, 64, 100};
    for (int step = 0; step < kSteps; ++step) {
      Mismatch m;
      const std::uint64_t op = rng.below(100);
      const PhysAddr a = gen.next();
      const unsigned size = kSizes[rng.below(std::size(kSizes))];
      if (op < 70) {
        const AccessResult got = h.access(a, size);
        const AccessResult want = ref.access(a, size);
        m.eq(at("access level", a), static_cast<int>(got.level),
             static_cast<int>(want.level));
        m.eq(at("access latency", a), got.latency, want.latency);
      } else if (op < 85) {
        h.warm(a, size);
        ref.warm(a, size);
      } else if (op < 95) {
        const PhysAddr p = gen.page();
        h.invalidate_page(p);
        ref.invalidate_page(p);
      } else {
        const PhysAddr p = gen.cold_page();
        h.invalidate_page(p);
        ref.invalidate_page(p);
      }
      same_stats(m, "l1", h.l1().stats(), ref.l1.stats);
      same_stats(m, "l2", h.l2().stats(), ref.l2.stats);
      same_stats(m, "llc", h.llc().stats(), ref.llc.stats);
      m.eq("l1 lines", h.l1().lines_resident(), ref.l1.lines_resident());
      m.eq("l2 lines", h.l2().lines_resident(), ref.l2.lines_resident());
      m.eq("llc lines", h.llc().lines_resident(), ref.llc.lines_resident());
      m.eq(at("probe", a), h.probe(a),
           ref.l1.probe(a) || ref.l2.probe(a) || ref.llc.probe(a));
      if (step % kSweepEvery == 0 || step + 1 == kSteps) {
        same_residency(m, "l1 line", h.l1(), ref.l1);
        same_residency(m, "l2 line", h.l2(), ref.l2);
        same_residency(m, "llc line", h.llc(), ref.llc);
      }
      if (m.any())
        FAIL() << "seed " << seed << " step " << step << ": " << m.why();
    }
  }
}

// --- Tlb --------------------------------------------------------------------

/// One MRU-first list of keys.
class RefTlb {
 public:
  explicit RefTlb(std::size_t entries) : entries_(entries) {}

  bool lookup(Vpn k) {
    const bool hit = touch(lru_, k);
    ++(hit ? stats.hits : stats.misses);
    return hit;
  }
  void insert(Vpn k) {
    if (touch(lru_, k)) return;
    if (lru_.size() == entries_) lru_.pop_back();
    lru_.push_front(k);
  }
  void invalidate(Vpn k) { lru_.remove(k); }
  const std::list<Vpn>& keys() const { return lru_; }
  void flush() {
    lru_.clear();
    ++stats.flushes;
  }
  std::size_t size() const { return lru_.size(); }

  TlbStats stats;

 private:
  std::size_t entries_;
  std::list<Vpn> lru_;
};

class TlbDiff : public ::testing::TestWithParam<unsigned> {};

TEST_P(TlbDiff, MatchesListModel) {
  const unsigned entries = GetParam();
  // Keys 0 and ~0 are real: pid_key puts any 16-bit pid above the VPN.
  std::vector<Vpn> keys = {0, ~0ull, pid_key(0xFFFF, 0),
                           pid_key(0, (1ull << 48) - 1)};
  for (Pid pid : {1u, 2u, 0xFFFFu})
    for (Vpn v = 0; v < entries + 2; ++v) keys.push_back(pid_key(pid, v));
  for (std::uint64_t seed : kSeeds) {
    Tlb tlb(entries);
    RefTlb ref(entries);
    util::Rng rng(seed);
    for (int step = 0; step < kSteps; ++step) {
      Mismatch m;
      const Vpn k = keys[rng.below(keys.size())];
      const std::uint64_t op = rng.below(100);
      if (op < 30) {  // the simulator's translate: walk and install on a miss
        const bool want = ref.lookup(k);
        if (!want) ref.insert(k);
        m.eq(at("access", k), tlb.access(k), want);
      } else if (op < 60) {
        const bool hit = tlb.lookup(k);
        m.eq(at("lookup", k), hit, ref.lookup(k));
        if (!hit && rng.chance(0.8)) {  // probes' walk-then-insert
          tlb.insert(k);
          ref.insert(k);
        }
      } else if (op < 85) {
        tlb.insert(k);
        ref.insert(k);
      } else if (op < 96) {
        tlb.invalidate(k);
        ref.invalidate(k);
      } else if (op < 98) {
        tlb.flush();
        ref.flush();
      } else {
        // Flush, then reinstall half of what was resident: the empty ways
        // still hold the tags of the other half, which must all miss.
        const std::vector<Vpn> before(ref.keys().begin(), ref.keys().end());
        tlb.flush();
        ref.flush();
        for (Vpn v : before)
          if (rng.chance(0.5)) {
            tlb.insert(v);
            ref.insert(v);
          }
        for (Vpn v : before)
          m.eq(at("lookup", v), tlb.lookup(v), ref.lookup(v));
      }
      m.eq("hits", tlb.stats().hits, ref.stats.hits);
      m.eq("misses", tlb.stats().misses, ref.stats.misses);
      m.eq("flushes", tlb.stats().flushes, ref.stats.flushes);
      m.eq("size", tlb.size(), ref.size());
      if (m.any())
        FAIL() << "seed " << seed << " step " << step << ": " << m.why();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Entries, TlbDiff, ::testing::Values(1u, 2u, 4u, 64u));

// --- PreexecCache -----------------------------------------------------------

/// Line → {written, inv} byte masks in a std::map, and one MRU-first list
/// of lines per set for replacement.
class RefPx {
 public:
  explicit RefPx(const PreexecCacheConfig& c)
      : ways_(c.ways), lru_(c.size_bytes / c.line_size / c.ways) {}

  void store(VirtAddr addr, unsigned size, bool invalid) {
    if (size == 0) return;
    ++stats.stores;
    for (std::uint64_t l = addr / 64; l <= (addr + size - 1) / 64; ++l) {
      const std::uint64_t m = mask(addr, size, l);
      Masks& line = find_or_alloc(l);
      line.written |= m;
      if (invalid) {
        line.inv |= m;
        stats.invalid_bytes_written += static_cast<unsigned>(std::popcount(m));
      } else {
        line.inv &= ~m;
      }
    }
  }
  PxLookup lookup(VirtAddr addr, unsigned size) {
    PxLookup r;
    r.complete = size != 0;
    const std::uint64_t last = size == 0 ? 0 : (addr + size - 1) / 64;
    for (std::uint64_t l = addr / 64; size != 0 && l <= last; ++l) {
      const std::uint64_t m = mask(addr, size, l);
      auto it = lines_.find(l);
      if (it == lines_.end() || (it->second.written & m) == 0) {
        r.complete = false;
        continue;
      }
      touch(set_of(l), l);
      r.found = true;
      if ((it->second.written & m) != m) r.complete = false;
      if ((it->second.inv & m) != 0) r.any_invalid = true;
    }
    ++(r.found ? stats.load_hits : stats.load_misses);
    return r;
  }
  std::uint64_t lines_resident() const { return lines_.size(); }

  PreexecCacheStats stats;

 private:
  struct Masks {
    std::uint64_t written = 0;
    std::uint64_t inv = 0;
  };
  /// Bytes of [addr, addr+size) that fall in line `l`, one bit per byte.
  static std::uint64_t mask(VirtAddr addr, unsigned size, std::uint64_t l) {
    std::uint64_t m = 0;
    const VirtAddr end = std::min(addr + size, l * 64 + 64);
    for (VirtAddr b = std::max(addr, l * 64); b < end; ++b)
      m |= 1ull << (b % 64);
    return m;
  }
  std::list<std::uint64_t>& set_of(std::uint64_t l) {
    return lru_[l % lru_.size()];
  }
  Masks& find_or_alloc(std::uint64_t l) {
    std::list<std::uint64_t>& s = set_of(l);
    if (!touch(s, l)) {
      if (s.size() == ways_) {
        lines_.erase(s.back());
        s.pop_back();
      }
      s.push_front(l);
      lines_[l] = Masks{};
    }
    return lines_[l];
  }

  std::size_t ways_;
  std::vector<std::list<std::uint64_t>> lru_;
  std::map<std::uint64_t, Masks> lines_;
};

struct PxCase {
  const char* name;
  PreexecCacheConfig cfg;
};

void PrintTo(const PxCase& c, std::ostream* os) { *os << c.name; }

class PreexecCacheDiff : public ::testing::TestWithParam<PxCase> {};

TEST_P(PreexecCacheDiff, MatchesMapModel) {
  const PreexecCacheConfig cfg = GetParam().cfg;
  // Keys as the engine forms them: pid in the top 16 bits, VA below.
  const std::vector<VirtAddr> bases = {0x0, 0x1000, pid_key(1, 0x1000),
                                       pid_key(0xFFFF, 0x7fff0000)};
  constexpr unsigned kSizes[] = {0, 1, 2, 4, 8, 8, 8, 16, 64, 100};
  for (std::uint64_t seed : kSeeds) {
    PreexecCache px(cfg);
    RefPx ref(cfg);
    util::Rng rng(seed);
    for (int step = 0; step < kSteps; ++step) {
      Mismatch m;
      const VirtAddr a = bases[rng.below(bases.size())] + rng.below(1024);
      const unsigned size = kSizes[rng.below(std::size(kSizes))];
      if (rng.chance(0.5)) {
        const bool invalid = rng.chance(0.3);
        px.store(a, size, invalid);
        ref.store(a, size, invalid);
      } else {
        const PxLookup got = px.lookup(a, size);
        const PxLookup want = ref.lookup(a, size);
        m.eq(at("lookup found", a), got.found, want.found);
        m.eq(at("lookup complete", a), got.complete, want.complete);
        m.eq(at("lookup any_invalid", a), got.any_invalid, want.any_invalid);
      }
      m.eq("stores", px.stats().stores, ref.stats.stores);
      m.eq("load_hits", px.stats().load_hits, ref.stats.load_hits);
      m.eq("load_misses", px.stats().load_misses, ref.stats.load_misses);
      m.eq("invalid_bytes_written", px.stats().invalid_bytes_written,
           ref.stats.invalid_bytes_written);
      m.eq("lines_resident", px.lines_resident(), ref.lines_resident());
      if (m.any())
        FAIL() << "seed " << seed << " step " << step << ": " << m.why();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, PreexecCacheDiff,
    ::testing::Values(PxCase{"1set_2way", {128, 2, 64}},
                      PxCase{"2set_2way", {256, 2, 64}},
                      PxCase{"16set_2way", {2048, 2, 64}},
                      PxCase{"16set_4way", {4096, 4, 64}}));

// --- StoreBuffer ------------------------------------------------------------

/// A std::deque of entries, oldest at the front.
class RefSb {
 public:
  explicit RefSb(std::size_t capacity) : capacity_(capacity) {}

  std::optional<cpu::SbEntry> push(const cpu::SbEntry& e) {
    std::optional<cpu::SbEntry> retired;
    if (q_.size() == capacity_) {
      retired = q_.front();
      q_.pop_front();
    }
    q_.push_back(e);
    return retired;
  }
  cpu::SbHit lookup(VirtAddr a, std::uint16_t n) const {
    for (auto e = q_.rbegin(); e != q_.rend(); ++e)
      if (e->addr < a + n && a < e->addr + e->size)
        return {true, e->invalid, e->addr <= a && a + n <= e->addr + e->size};
    return {};
  }
  std::vector<cpu::SbEntry> drain() {
    std::vector<cpu::SbEntry> out(q_.begin(), q_.end());
    q_.clear();
    return out;
  }
  void clear() { q_.clear(); }
  std::size_t size() const { return q_.size(); }

 private:
  std::size_t capacity_;
  std::deque<cpu::SbEntry> q_;
};

void same_entry(Mismatch& m, const std::string& what, const cpu::SbEntry& got,
                const cpu::SbEntry& want) {
  m.eq(what + " addr", got.addr, want.addr);
  m.eq(what + " size", got.size, want.size);
  m.eq(what + " invalid", got.invalid, want.invalid);
}

class StoreBufferDiff : public ::testing::TestWithParam<std::size_t> {};

TEST_P(StoreBufferDiff, MatchesDequeModel) {
  const std::size_t capacity = GetParam();
  // Keys as the engine forms them; stores overlap often within a base.
  const std::vector<VirtAddr> bases = {0x0, pid_key(1, 0x1000),
                                       pid_key(0xFFFF, 0x7fff0000)};
  constexpr std::uint16_t kSizes[] = {0, 1, 2, 4, 8, 8, 16, 64};
  for (std::uint64_t seed : kSeeds) {
    cpu::StoreBuffer sb(capacity);
    RefSb ref(capacity);
    util::Rng rng(seed);
    for (int step = 0; step < kSteps; ++step) {
      Mismatch m;
      const VirtAddr a = bases[rng.below(bases.size())] + rng.below(128);
      const std::uint16_t size = kSizes[rng.below(std::size(kSizes))];
      const std::uint64_t op = rng.below(100);
      if (op < 60) {
        // Mostly pushes: a full buffer retires its oldest entry on every
        // push, so the ring's head wraps many times between drains.
        const cpu::SbEntry e{a, size, rng.chance(0.3)};
        const std::optional<cpu::SbEntry> got = sb.push(e);
        const std::optional<cpu::SbEntry> want = ref.push(e);
        m.eq(at("push retired", a), got.has_value(), want.has_value());
        if (got && want) same_entry(m, at("push retired", a), *got, *want);
      } else if (op < 96) {
        const cpu::SbHit got = sb.lookup(a, size);
        const cpu::SbHit want = ref.lookup(a, size);
        m.eq(at("lookup found", a), got.found, want.found);
        m.eq(at("lookup invalid", a), got.invalid, want.invalid);
        m.eq(at("lookup complete", a), got.complete, want.complete);
      } else if (op < 99) {
        std::vector<cpu::SbEntry> got;
        sb.drain([&](const cpu::SbEntry& e) { got.push_back(e); });
        const std::vector<cpu::SbEntry> want = ref.drain();
        m.eq("drained", got.size(), want.size());
        for (std::size_t i = 0; i < std::min(got.size(), want.size()); ++i)
          same_entry(m, "drained #" + std::to_string(i), got[i], want[i]);
      } else {
        sb.clear();
        ref.clear();
      }
      m.eq("size", sb.size(), ref.size());
      m.eq("empty", sb.empty(), ref.size() == 0);
      if (m.any())
        FAIL() << "seed " << seed << " step " << step << ": " << m.why();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Capacities, StoreBufferDiff,
                         ::testing::Values(std::size_t{1}, std::size_t{2},
                                           std::size_t{3}, std::size_t{56}));

}  // namespace
}  // namespace its::mem
