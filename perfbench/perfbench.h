// Shared declarations of the host-speed benchmark (README.md).
//
// The benchmark drives the simulator only through its public API and times
// it with std::chrono::steady_clock from outside src/, which stays free of
// wall-clock reads.  Simulated quantities (makespan, idle time, simulated
// req/s and p99) never become a speed metric here: they enter only the
// per-simulation digest that the correctness check compares against the
// committed reference (reference.json).
#pragma once

#include "core/config.h"
#include "core/metrics.h"
#include "core/simulator.h"
#include "obs/event_trace.h"
#include "serve/scenario.h"
#include "trace/trace.h"
#include "util/types.h"

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;
using Traces = std::vector<std::shared_ptr<const its::trace::Trace>>;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}
inline double seconds_since(Clock::time_point t0) {
  return seconds_between(t0, Clock::now());
}

/// Median of `v` (0 when empty); takes a copy because it reorders.
double median(std::vector<double> v);

// -- Spans -------------------------------------------------------------------

/// One timed interval around a call into a layer.  `parent` is the id of the
/// span that caused it (-1 for a root); times are seconds since the log was
/// created.
struct Span {
  int id = 0;
  int parent = -1;
  std::string name;  ///< "<layer>.<call>/<detail>"; the layer is the text
                     ///< before the first '.'.
  double start = 0;
  double end = 0;
};

/// In-memory span store, written out once when the run ends.  Farm tasks
/// open spans from worker threads, so every access takes the mutex.
class SpanLog {
 public:
  int open(std::string name, int parent);
  void close(int id);
  std::vector<Span> spans() const;

 private:
  Clock::time_point t0_ = Clock::now();
  mutable std::mutex mu_;
  std::vector<Span> spans_;  // guarded by mu_
};

/// RAII span; a null log makes it a no-op (the untimed-by-tracing path).
class SpanScope {
 public:
  SpanScope(SpanLog* log, std::string name, int parent)
      : log_(log), id_(log ? log->open(std::move(name), parent) : -1) {}
  ~SpanScope() {
    if (log_ != nullptr) log_->close(id_);
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;
  int id() const { return id_; }

 private:
  SpanLog* log_;
  int id_;
};

/// Σ self time per layer over the subtree rooted at span `root`: each
/// span's duration minus the part of it that its children's intervals cover.
std::vector<std::pair<std::string, double>> self_seconds_by_layer(
    const std::vector<Span>& spans, int root);

bool write_spans_json(const std::string& path, const std::string& workload,
                      const std::vector<Span>& spans);

// -- Digests -----------------------------------------------------------------

/// 64-bit FNV-1a over every SimMetrics field, per-process outcomes included.
std::string digest(const its::core::SimMetrics& m);
/// Same, plus every per-tier serve counter and the latency quantiles.
std::string digest(const its::serve::ServeMetrics& m);

// -- Per-simulation counters ---------------------------------------------------

/// Deterministic work counts of one simulation, read from the Simulator's
/// accessors and its metrics after run(), plus (traced runs only) the
/// event counts the accessors do not expose.
struct Counters {
  std::uint64_t records = 0;  ///< Σ ProcessMetrics::instructions.
  std::uint64_t mem_refs = 0;
  std::uint64_t l1_accesses = 0;
  std::uint64_t llc_hits = 0;
  std::uint64_t llc_misses = 0;
  std::uint64_t cache_evictions = 0;
  std::uint64_t invalidations = 0;
  std::uint64_t tlb_lookups = 0;
  std::uint64_t tlb_misses = 0;
  std::uint64_t tlb_flushes = 0;
  std::uint64_t major_faults = 0;
  std::uint64_t minor_faults = 0;
  std::uint64_t evictions = 0;
  std::uint64_t clock_scans = 0;
  std::uint64_t swap_ins = 0;
  std::uint64_t swap_outs = 0;
  std::uint64_t prefetch_issued = 0;
  std::uint64_t prefetch_useful = 0;
  std::uint64_t preexec_episodes = 0;
  std::uint64_t preexec_lines_warmed = 0;
  std::uint64_t async_switches = 0;
  // From the event trace.
  std::uint64_t events = 0;
  std::uint64_t ctx_switches = 0;
  std::uint64_t picks = 0;
  std::uint64_t dma_posts = 0;
  std::uint64_t prefetch_walks = 0;

  void add(const Counters& o);
};

Counters counters_of(const its::core::Simulator& sim,
                     const its::core::SimMetrics& m);
void add_event_counts(const its::obs::EventTrace& t, Counters& c);

// -- Replay probes -------------------------------------------------------------

/// What the replay probes need from a traced pass: the workload's own traces
/// and the operation points its events recorded.  Each simulation keeps at
/// most kPointsPerSim points of each kind, evenly spaced, and remembers how
/// many it recorded, so a probe can weight each simulation's mean cost by
/// its real operation count.
struct ReplayInput {
  static constexpr std::size_t kPointsPerSim = 8192;

  struct Point {
    std::uint32_t src = 0;  ///< Index into `traces`.
    std::uint32_t sim = 0;  ///< Simulation the point came from.
    std::uint64_t a = 0;
    std::uint64_t b = 0;
    std::uint64_t c = 0;
  };
  struct Points {
    std::vector<Point> kept;             ///< Grouped by simulation.
    std::vector<std::uint64_t> recorded; ///< Per simulation, before thinning.
  };

  std::vector<const its::trace::Trace*> traces;  ///< Address streams.
  Points evicted_pfns;  ///< kEvict: a = pfn.
  Points walk_victims;  ///< kPrefetchWalk: a = victim vpn.
  Points dma_posts;     ///< kDmaComplete: a = bytes, b = issue time,
                        ///< c = direction.
  Points episodes;      ///< kPreexecEnd: a = pc, b = ns used.
  its::core::SimConfig sim;  ///< Costs and sizes the probes use.

  /// Appends one simulation's points; `src_of_pid` maps its pids to traces.
  void add_events(const its::obs::EventTrace& t,
                  const std::vector<std::uint32_t>& src_of_pid);
};

/// Host ns (or µs) per operation, measured by driving each layer class's
/// public API with the workload's own addresses and recorded points.
struct ReplayCosts {
  double access_ns = 0;          ///< Per L1 line access, CacheHierarchy.
  double invalidate_page_ns = 0; ///< Per CacheHierarchy::invalidate_page.
  double tlb_ns = 0;             ///< Per Tlb lookup (insert on miss).
  double px_cache_ns = 0;        ///< Per PreexecCache store or lookup.
  double walk_ns = 0;            ///< Per MemoryDescriptor::pte lookup.
  double va_collect_ns = 0;      ///< Per VaPrefetcher::collect.
  double dma_post_ns = 0;        ///< Per DmaController::post.
  double episode_us = 0;         ///< Per PreexecEngine::run episode.
};

ReplayCosts run_replays(const ReplayInput& in, const Counters& exact);

/// Host seconds of a fixed memory-bound loop (a random read-modify-write
/// walk over 32 MiB): a gauge of how fast the shared host runs right now.
double host_probe_seconds();
/// The probe's time on the 4-vCPU VM the benchmark was defined on; scaled
/// host times read as seconds on a host that runs the probe this fast.
inline constexpr double kNominalProbeS = 0.06;

/// Speedup of `width` threads spinning on independent fixed work over one
/// thread doing the same work alone (median of three trials).
double spin_speedup(unsigned width);

// -- Workloads ----------------------------------------------------------------

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;  ///< Measured-phase budget; 0 = one pass, one set-up.
  bool trace = false;
  std::string spans_path;
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct Result {
  std::vector<Metric> metrics;
  /// Per measured pass, the digest of each simulation in submission order.
  std::vector<std::vector<std::string>> digests;
  /// Simulations whose traced run failed obs::check_invariants.
  std::uint64_t invariant_failures = 0;
  std::vector<std::string> notes;  ///< Human-readable context lines.
};

Result run_workload(const Options& opt);

}  // namespace perfbench
