// Workload-shaped replay probes and the parallel-capacity calibration.
//
// Each probe drives one layer class through its public API with the
// workload's own trace addresses and the points its traced run recorded,
// then reports host time per operation.  Multiplied by the traced run's
// exact operation count this gives a layer's estimated share of
// core.run_s; the probes run cold of the simulator's other state, so the
// shares are estimates and the benchmark prints the unattributed rest.
#include "perfbench.h"

#include "cpu/preexec_engine.h"
#include "cpu/register_file.h"
#include "mem/hierarchy.h"
#include "mem/preexec_cache.h"
#include "mem/tlb.h"
#include "storage/dma.h"
#include "vm/mm.h"
#include "vm/prefetch.h"

#include <algorithm>
#include <span>
#include <thread>
#include <unordered_map>

namespace perfbench {

using namespace its;

namespace {

/// Keeps a computed value alive past the optimiser.
template <typename T>
inline void keep(const T& v) {
  asm volatile("" : : "g"(&v) : "memory");
}

/// One memory record of the replay stream, already translated.
struct Ref {
  std::uint32_t src;
  bool store;
  std::uint16_t size;
  VirtAddr addr;
  PhysAddr phys;
};

constexpr std::size_t kStreamRecords = 1 << 21;
constexpr std::size_t kChunk = 4096;

/// Per-trace address space: every touched page gets a frame number, dense
/// in first-touch order and folded onto the run's DRAM frame count so the
/// replayed physical space matches the simulated one.
struct Space {
  std::vector<Vpn> pages;
  std::unordered_map<Vpn, Pfn> pfn_of;
};

std::vector<Space> build_spaces(const ReplayInput& in) {
  const std::uint64_t frames =
      std::max<std::uint64_t>(1, in.sim.dram_bytes / kPageSize);
  std::vector<Space> spaces(in.traces.size());
  std::uint64_t next = 0;
  for (std::size_t i = 0; i < in.traces.size(); ++i) {
    spaces[i].pages = in.traces[i]->touched_pages();
    for (Vpn v : spaces[i].pages) spaces[i].pfn_of.emplace(v, next++ % frames);
  }
  return spaces;
}

/// The replay stream: evenly spaced chunks of each trace's memory records,
/// interleaved chunk by chunk across traces the way the scheduler
/// interleaves processes.
std::vector<Ref> build_stream(const ReplayInput& in,
                              const std::vector<Space>& spaces) {
  std::vector<std::vector<Ref>> per(in.traces.size());
  const std::size_t quota = kStreamRecords / std::max<std::size_t>(1, per.size());
  for (std::size_t i = 0; i < in.traces.size(); ++i) {
    const trace::Trace& t = *in.traces[i];
    const std::size_t chunks = std::max<std::size_t>(1, quota / kChunk);
    const std::size_t stride = std::max<std::size_t>(kChunk, t.size() / chunks);
    for (std::size_t start = 0; start < t.size() && per[i].size() < quota;
         start += stride) {
      for (std::size_t k = start; k < std::min(t.size(), start + kChunk); ++k) {
        const trace::Instr& r = t[k];
        if (!r.is_mem()) continue;
        const Pfn pfn = spaces[i].pfn_of.at(vpn_of(r.addr));
        per[i].push_back(Ref{static_cast<std::uint32_t>(i),
                             r.op == trace::Op::kStore, r.size, r.addr,
                             (pfn << kPageShift) | (r.addr & kPageOffsetMask)});
      }
    }
  }
  std::vector<Ref> out;
  for (std::size_t off = 0;; off += kChunk) {
    bool any = false;
    for (const auto& p : per) {
      if (off >= p.size()) continue;
      any = true;
      out.insert(out.end(), p.begin() + static_cast<std::ptrdiff_t>(off),
                 p.begin() + static_cast<std::ptrdiff_t>(
                                 std::min(p.size(), off + kChunk)));
    }
    if (!any) break;
  }
  return out;
}

double ns_per(Clock::time_point t0, std::uint64_t ops) {
  return ops == 0 ? 0.0 : seconds_since(t0) * 1e9 / static_cast<double>(ops);
}

/// Mean host ns per operation over every recorded point.  `run_group`
/// replays one simulation's kept points and returns the seconds they took;
/// each simulation's mean is weighted by how many points it recorded, so a
/// simulation thinned harder counts as much as its real operations.
template <typename F>
double weighted_ns(const ReplayInput::Points& pts, F run_group) {
  double ns = 0;
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < pts.kept.size();) {
    std::size_t j = i;
    while (j < pts.kept.size() && pts.kept[j].sim == pts.kept[i].sim) ++j;
    const double secs =
        run_group(std::span<const ReplayInput::Point>(pts.kept).subspan(i, j - i));
    const std::uint64_t recorded = pts.recorded[pts.kept[i].sim];
    ns += secs * 1e9 / static_cast<double>(j - i) * static_cast<double>(recorded);
    total += recorded;
    i = j;
  }
  return total == 0 ? 0.0 : ns / static_cast<double>(total);
}

std::vector<vm::MemoryDescriptor> build_mms(const std::vector<Space>& spaces,
                                            bool every_other) {
  std::vector<vm::MemoryDescriptor> mms;
  mms.reserve(spaces.size());
  for (std::size_t i = 0; i < spaces.size(); ++i) {
    mms.emplace_back(static_cast<Pid>(i), spaces[i].pages);
    for (std::size_t k = 0; k < spaces[i].pages.size(); ++k) {
      if (every_other && k % 2 == 1) continue;
      const Vpn v = spaces[i].pages[k];
      mms.back().pte(v)->map(spaces[i].pfn_of.at(v));
    }
  }
  return mms;
}

}  // namespace

ReplayCosts run_replays(const ReplayInput& in, const Counters& exact) {
  ReplayCosts out;
  if (in.traces.empty()) return out;
  const std::vector<Space> spaces = build_spaces(in);
  const std::vector<Ref> stream = build_stream(in, spaces);

  // CacheHierarchy::access: warm on the first quarter, time the whole
  // stream, charge per L1 line access (what the exact counter counts).
  mem::CacheHierarchy caches(in.sim.hierarchy);
  for (std::size_t i = 0; i < stream.size() / 4; ++i)
    keep(caches.access(stream[i].phys, stream[i].size));
  {
    const std::uint64_t before = caches.total_accesses();
    const auto t0 = Clock::now();
    for (const Ref& r : stream) keep(caches.access(r.phys, r.size));
    out.access_ns = ns_per(t0, caches.total_accesses() - before);
  }

  // invalidate_page on the recorded victim frames, in blocks, with the
  // stream re-warming the caches untimed between blocks.
  std::size_t cursor = 0;
  out.invalidate_page_ns = weighted_ns(in.evicted_pfns, [&](auto pts) {
    constexpr std::size_t kBlock = 64;
    double seconds = 0;
    for (std::size_t i = 0; i < pts.size(); i += kBlock) {
      for (std::size_t k = 0; k < kChunk / 4; ++k, ++cursor)
        keep(caches.access(stream[cursor % stream.size()].phys, 8));
      const auto t0 = Clock::now();
      for (std::size_t k = i; k < std::min(i + kBlock, pts.size()); ++k)
        caches.invalidate_page(pts[k].a << kPageShift);
      seconds += seconds_since(t0);
    }
    return seconds;
  });

  // Tlb: lookup, insert on miss, flushed at the run's own flush rate.
  {
    mem::Tlb tlb(in.sim.tlb_entries);
    const std::uint64_t flush_every =
        exact.tlb_flushes == 0
            ? 0
            : std::max<std::uint64_t>(1, exact.tlb_lookups / exact.tlb_flushes);
    const auto t0 = Clock::now();
    std::uint64_t n = 0;
    for (const Ref& r : stream) {
      const std::uint64_t key = pid_key(r.src, vpn_of(r.addr));
      if (!tlb.lookup(key)) tlb.insert(key);
      if (flush_every != 0 && ++n % flush_every == 0) tlb.flush();
    }
    out.tlb_ns = ns_per(t0, stream.size());
  }

  // MemoryDescriptor::pte on every translated access.
  std::vector<vm::MemoryDescriptor> mms = build_mms(spaces, false);
  {
    const auto t0 = Clock::now();
    for (const Ref& r : stream) keep(mms[r.src].pte(vpn_of(r.addr)));
    out.walk_ns = ns_per(t0, stream.size());
  }

  // DmaController::post at the recorded issue times, from an idle device
  // for each simulation.
  storage::DmaController dma(in.sim.ull, in.sim.pcie);
  out.dma_post_ns = weighted_ns(in.dma_posts, [&](auto pts) {
    dma.reset();
    const auto t0 = Clock::now();
    for (const ReplayInput::Point& p : pts)
      keep(dma.post(p.b, p.c == 0 ? storage::Dir::kRead : storage::Dir::kWrite,
                    p.a));
    return seconds_since(t0);
  });

  // The pre-execute probes only mean something where pre-execution ran.
  if (exact.preexec_episodes != 0) {
    mem::PreexecCache px(in.sim.px_cache);
    std::uint64_t ops = 0;
    const auto t0 = Clock::now();
    for (const Ref& r : stream) {
      const std::uint64_t key = mem::PreexecCache::key(r.src, r.addr);
      if (r.store)
        px.store(key, r.size, false);
      else
        keep(px.lookup(key, r.size));
      ++ops;
    }
    out.px_cache_ns = ns_per(t0, ops);
  }
  // Pre-execute episodes and VA-prefetch walks run mid-fault, when part of
  // the address space is swapped out: they replay over address spaces with
  // every other page resident, so both the resident and the swapped paths
  // are exercised.
  std::vector<vm::MemoryDescriptor> half = build_mms(spaces, true);
  mem::CacheHierarchy ecaches(in.sim.hierarchy);
  mem::PreexecCache epx(in.sim.px_cache);
  cpu::PreexecEngine engine(in.sim.preexec, ecaches, epx);
  std::vector<cpu::RegisterFile> rfs(in.traces.size());
  out.episode_us = weighted_ns(in.episodes, [&](auto pts) {
    const auto t0 = Clock::now();
    for (const ReplayInput::Point& p : pts)
      keep(engine.run(*in.traces[p.src], p.a, rfs[p.src], half[p.src], p.b));
    return seconds_since(t0);
  }) / 1e3;

  vm::VaPrefetcher pf(in.sim.va_prefetch);
  out.va_collect_ns = weighted_ns(in.walk_victims, [&](auto pts) {
    const auto t0 = Clock::now();
    for (const ReplayInput::Point& p : pts) keep(pf.collect(half[p.src], p.a));
    return seconds_since(t0);
  });
  return out;
}

double host_probe_seconds() {
  constexpr std::size_t kWords = std::size_t{1} << 22;  // 32 MiB
  static std::vector<std::uint64_t> buf(kWords, 1);     // touched once here
  std::uint64_t x = 0x9e3779b97f4a7c15ull;
  const auto t0 = Clock::now();
  for (int i = 0; i < 8'000'000; ++i) {
    x = x * 6364136223846793005ull + 1442695040888963407ull;
    buf[(x >> 40) & (kWords - 1)] += x;
  }
  keep(x);
  return seconds_since(t0);
}

double spin_speedup(unsigned width) {
  auto spin = [] {
    std::uint64_t x = 0x9e3779b97f4a7c15ull;
    for (int i = 0; i < 40'000'000; ++i) x = x * 6364136223846793005ull + 1;
    keep(x);
  };
  std::vector<double> trials;
  for (int t = 0; t < 3; ++t) {
    auto t0 = Clock::now();
    spin();
    const double one = seconds_since(t0);
    t0 = Clock::now();
    {
      std::vector<std::jthread> threads;
      for (unsigned w = 0; w < width; ++w) threads.emplace_back(spin);
    }
    const double all = seconds_since(t0);
    trials.push_back(all > 0 ? width * one / all : 0);
  }
  return median(trials);
}

}  // namespace perfbench
