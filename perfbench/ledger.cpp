// Spans, digests and per-simulation counters: the bookkeeping behind the
// benchmark's per-layer ledger.
#include "perfbench.h"

#include "obs/event_trace.h"
#include "serve/scenario.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iomanip>
#include <map>
#include <string_view>
#include <utility>

namespace perfbench {

using namespace its;

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  const std::size_t mid = v.size() / 2;
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(mid),
                   v.end());
  const double hi = v[mid];
  if (v.size() % 2 == 1) return hi;
  const double lo = *std::max_element(
      v.begin(), v.begin() + static_cast<std::ptrdiff_t>(mid));
  return (lo + hi) / 2;
}

// -- Spans -------------------------------------------------------------------

int SpanLog::open(std::string name, int parent) {
  const double start = seconds_since(t0_);
  std::lock_guard<std::mutex> lock(mu_);
  const int id = static_cast<int>(spans_.size());
  spans_.push_back(Span{id, parent, std::move(name), start, start});
  return id;
}

void SpanLog::close(int id) {
  const double end = seconds_since(t0_);
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<std::size_t>(id)].end = end;
}

std::vector<Span> SpanLog::spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

std::vector<std::pair<std::string, double>> self_seconds_by_layer(
    const std::vector<Span>& spans, int root) {
  // A parent is always opened, and so numbered, before its children.
  std::vector<bool> in_tree(spans.size(), false);
  std::vector<std::vector<std::pair<double, double>>> kids(spans.size());
  for (const Span& s : spans) {
    const auto id = static_cast<std::size_t>(s.id);
    in_tree[id] = s.id == root ||
                  (s.parent >= 0 && in_tree[static_cast<std::size_t>(s.parent)]);
    if (s.parent >= 0)
      kids[static_cast<std::size_t>(s.parent)].emplace_back(s.start, s.end);
  }

  std::map<std::string, double> by_layer;
  for (const Span& s : spans) {
    if (!in_tree[static_cast<std::size_t>(s.id)]) continue;
    // Children of a farm dispatch overlap one another, so subtract the
    // union of their intervals, clipped to the parent.
    auto& iv = kids[static_cast<std::size_t>(s.id)];
    std::sort(iv.begin(), iv.end());
    double covered = 0;
    double cur_lo = 0;
    double cur_hi = -1;
    for (auto [lo, hi] : iv) {
      lo = std::max(lo, s.start);
      hi = std::min(hi, s.end);
      if (hi <= lo) continue;
      if (lo > cur_hi) {
        if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
        cur_lo = lo;
        cur_hi = hi;
      } else {
        cur_hi = std::max(cur_hi, hi);
      }
    }
    if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
    const std::string layer = s.name.substr(0, s.name.find('.'));
    by_layer[layer] += std::max(0.0, (s.end - s.start) - covered);
  }
  return {by_layer.begin(), by_layer.end()};
}

namespace {

std::string json_escape(std::string_view s) {
  std::string out;
  for (char ch : s) {
    if (ch == '"' || ch == '\\') out += '\\';
    out += ch;
  }
  return out;
}

}  // namespace

bool write_spans_json(const std::string& path, const std::string& workload,
                      const std::vector<Span>& spans) {
  std::ofstream f(path);
  if (!f) return false;
  f << std::setprecision(9);
  f << "{\"workload\": \"" << json_escape(workload) << "\", \"spans\": [\n";
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    f << "  {\"id\": " << s.id << ", \"parent\": " << s.parent
      << ", \"name\": \"" << json_escape(s.name) << "\", \"start_s\": "
      << s.start << ", \"end_s\": " << s.end << "}"
      << (i + 1 < spans.size() ? ",\n" : "\n");
  }
  f << "]}\n";
  return static_cast<bool>(f);
}

// -- Digests -----------------------------------------------------------------

namespace {

class Fnv {
 public:
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xff;
      h_ *= 0x100000001b3ull;
    }
  }
  void add(std::string_view s) {
    add(s.size());
    for (unsigned char ch : s) {
      h_ ^= ch;
      h_ *= 0x100000001b3ull;
    }
  }
  std::string hex() const {
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(h_));
    return buf;
  }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ull;
};

void add_sim(Fnv& f, const core::SimMetrics& m) {
  for (std::uint64_t v :
       {m.idle.mem_stall, m.idle.busy_wait, m.idle.ctx_switch,
        m.idle.no_runnable, m.makespan, m.cpu_busy, m.major_faults,
        m.minor_faults, m.llc_misses, m.file_reads, m.file_writes,
        m.page_cache_hits, m.page_cache_misses, m.file_writebacks,
        m.prefetch_issued, m.prefetch_useful, m.preexec_episodes,
        m.preexec_lines_warmed, m.async_switches, m.evictions, m.stolen_time,
        m.io_errors, m.io_retries, m.retry_exhausted, m.deadline_aborts,
        m.mode_fallbacks, m.degraded_time, m.health_healthy_time,
        m.health_degraded_time, m.health_offline_time,
        m.health_recovering_time, m.pool_stores, m.pool_hits, m.pool_drains,
        m.drain_bytes, m.faults_served_degraded})
    f.add(v);
  f.add(m.processes.size());
  for (const core::ProcessOutcome& p : m.processes) {
    const sched::ProcessMetrics& pm = p.metrics;
    f.add(p.pid);
    f.add(p.name);
    f.add(static_cast<std::uint64_t>(static_cast<std::int64_t>(p.priority)));
    for (std::uint64_t v :
         {pm.instructions, pm.mem_refs, pm.major_faults, pm.minor_faults,
          pm.llc_misses, pm.prefetches_received, pm.mem_stall, pm.busy_wait,
          pm.stolen, pm.finish_time})
      f.add(v);
  }
}

void add_quantiles(Fnv& f, const util::QuantileDigest& q) {
  f.add(q.count());
  for (double p : {0.5, 0.99, 0.999}) f.add(q.quantile(p));
}

}  // namespace

std::string digest(const core::SimMetrics& m) {
  Fnv f;
  add_sim(f, m);
  return f.hex();
}

std::string digest(const serve::ServeMetrics& m) {
  Fnv f;
  add_sim(f, m.sim);
  for (std::uint64_t v :
       {m.arrivals, m.admits, m.rejects, m.completed, m.slo_violations})
    f.add(v);
  add_quantiles(f, m.latency);
  f.add(m.tiers.size());
  for (const serve::TierMetrics& t : m.tiers) {
    f.add(t.name);
    for (std::uint64_t v : {t.slo_ns, t.arrivals, t.admits, t.rejects,
                            t.completed, t.slo_violations})
      f.add(v);
    add_quantiles(f, t.latency);
  }
  return f.hex();
}

// -- Counters ------------------------------------------------------------------

void Counters::add(const Counters& o) {
  records += o.records;
  mem_refs += o.mem_refs;
  l1_accesses += o.l1_accesses;
  llc_hits += o.llc_hits;
  llc_misses += o.llc_misses;
  cache_evictions += o.cache_evictions;
  invalidations += o.invalidations;
  tlb_lookups += o.tlb_lookups;
  tlb_misses += o.tlb_misses;
  tlb_flushes += o.tlb_flushes;
  major_faults += o.major_faults;
  minor_faults += o.minor_faults;
  evictions += o.evictions;
  clock_scans += o.clock_scans;
  swap_ins += o.swap_ins;
  swap_outs += o.swap_outs;
  prefetch_issued += o.prefetch_issued;
  prefetch_useful += o.prefetch_useful;
  preexec_episodes += o.preexec_episodes;
  preexec_lines_warmed += o.preexec_lines_warmed;
  async_switches += o.async_switches;
  events += o.events;
  ctx_switches += o.ctx_switches;
  picks += o.picks;
  dma_posts += o.dma_posts;
  prefetch_walks += o.prefetch_walks;
}

Counters counters_of(const core::Simulator& sim, const core::SimMetrics& m) {
  Counters c;
  for (const core::ProcessOutcome& p : m.processes) {
    c.records += p.metrics.instructions;
    c.mem_refs += p.metrics.mem_refs;
  }
  const mem::CacheHierarchy& h = sim.caches();
  c.l1_accesses = h.total_accesses();
  c.llc_hits = h.llc().stats().hits;
  c.llc_misses = h.llc().stats().misses;
  for (const mem::SetAssocCache* level : {&h.l1(), &h.l2(), &h.llc()}) {
    c.cache_evictions += level->stats().evictions;
    c.invalidations += level->stats().invalidations;
  }
  const mem::TlbStats& t = sim.tlb().stats();
  c.tlb_lookups = t.hits + t.misses;
  c.tlb_misses = t.misses;
  c.tlb_flushes = t.flushes;
  c.major_faults = m.major_faults;
  c.minor_faults = m.minor_faults;
  c.evictions = m.evictions;
  c.clock_scans = sim.frames().stats().clock_scans;
  c.swap_ins = sim.swap().stats().swap_ins;
  c.swap_outs = sim.swap().stats().swap_outs;
  c.prefetch_issued = m.prefetch_issued;
  c.prefetch_useful = m.prefetch_useful;
  c.preexec_episodes = m.preexec_episodes;
  c.preexec_lines_warmed = m.preexec_lines_warmed;
  c.async_switches = m.async_switches;
  return c;
}

void add_event_counts(const obs::EventTrace& t, Counters& c) {
  using obs::EventKind;
  c.events += t.size();
  for (const obs::Event& e : t.events()) {
    switch (e.kind) {
      case EventKind::kCtxSwitch: ++c.ctx_switches; break;
      case EventKind::kSchedPick: ++c.picks; break;
      case EventKind::kDmaComplete: ++c.dma_posts; break;
      case EventKind::kPrefetchWalk: ++c.prefetch_walks; break;
      default: break;
    }
  }
}

// -- Replay points -------------------------------------------------------------

namespace {

void thin_to(std::vector<ReplayInput::Point>& v, std::size_t cap) {
  if (v.size() <= cap) return;
  std::vector<ReplayInput::Point> out;
  out.reserve(cap);
  for (std::size_t i = 0; i < cap; ++i) out.push_back(v[i * v.size() / cap]);
  v = std::move(out);
}

}  // namespace

void ReplayInput::add_events(const obs::EventTrace& t,
                             const std::vector<std::uint32_t>& src_of_pid) {
  using obs::EventKind;
  const auto sim_index = static_cast<std::uint32_t>(episodes.recorded.size());
  auto src = [&](its::Pid pid) {
    return pid < src_of_pid.size() ? src_of_pid[pid] : 0u;
  };
  std::vector<Point> evicted, walks, dma, eps;
  for (const obs::Event& e : t.events()) {
    switch (e.kind) {
      case EventKind::kEvict:
        evicted.push_back({src(e.pid), sim_index, e.a, 0, 0});
        break;
      case EventKind::kPrefetchWalk:
        walks.push_back({src(e.pid), sim_index, e.a, 0, 0});
        break;
      case EventKind::kDmaComplete:
        dma.push_back({0, sim_index, e.a, e.b, e.c});
        break;
      case EventKind::kPreexecEnd:
        eps.push_back({src(e.pid), sim_index, e.a, e.b, 0});
        break;
      default:
        break;
    }
  }
  for (auto [from, to] : {std::pair{&evicted, &evicted_pfns},
                          std::pair{&walks, &walk_victims},
                          std::pair{&dma, &dma_posts},
                          std::pair{&eps, &episodes}}) {
    to->recorded.push_back(from->size());
    thin_to(*from, kPointsPerSim);
    to->kept.insert(to->kept.end(), from->begin(), from->end());
  }
}

}  // namespace perfbench
