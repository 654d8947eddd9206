// The three benchmark workloads and the metrics they report.
//
// Host side, every workload is a closed loop: one process runs its
// simulations back to back in whole passes until the measured-phase budget
// is spent.  Only the serve workload's arrivals are an open loop, and only
// in simulated time.
//
//   grid   the paper's figure grid, 4 batches x 5 policies at default scale,
//          serial (farm width 1, no farm threads): steady-state cache, fill
//          and TLB work in mem/ plus cpu/ pre-execution dominate.
//   serve  open-loop ITS serving at the its_bench operating point (bursty
//          MMPP arrivals, overcommit 2, admit limit 64) at a rate the
//          simulated system sustains: short-lived processes make
//          retirement and eviction invalidation and pre-execute episodes
//          the hot paths.
//   sweep  the Sync-vs-Async device-latency sweep (abl_sync_crossover's 16
//          simulations on batch 1) on the farm: the only workload where
//          farm/ does work, and one that bypasses cpu/ pre-execution, the
//          pre-execute cache and the VA prefetcher entirely.
#include "perfbench.h"

#include "core/batch.h"
#include "core/experiment.h"
#include "core/policy.h"
#include "obs/invariant_checker.h"
#include "sched/process.h"
#include "serve/arrival.h"
#include "trace/workloads.h"

#include <sys/resource.h>

#include <algorithm>
#include <functional>
#include <iterator>
#include <map>
#include <optional>
#include <stdexcept>
#include <thread>
#include <utility>

namespace perfbench {

using namespace its;

namespace {

// -- Workload definitions --------------------------------------------------------

struct SimJob {
  std::string label;
  std::size_t batch = 0;  ///< Index into core::paper_batches().
  core::PolicyKind policy = core::PolicyKind::kIts;
  core::SimConfig sim;
};

core::ExperimentConfig experiment_config(std::uint64_t seed) {
  core::ExperimentConfig cfg;
  cfg.gen.seed = seed;
  cfg.sim.seed = seed;
  cfg.sim.fault = {};  // injection off, whatever ITS_FAULT_PROFILE says
  return cfg;
}

std::vector<SimJob> grid_jobs(const core::ExperimentConfig& cfg) {
  std::vector<SimJob> jobs;
  const auto batches = core::paper_batches();
  for (std::size_t b = 0; b < batches.size(); ++b) {
    for (core::PolicyKind k : core::kAllPolicies) {
      SimJob j{std::string(batches[b].name) + "/" +
                   std::string(core::policy_name(k)),
               b, k, cfg.sim};
      j.sim.dram_bytes = core::dram_bytes_for(batches[b], cfg.dram_headroom,
                                              cfg.gen.footprint_scale);
      jobs.push_back(std::move(j));
    }
  }
  return jobs;
}

constexpr std::size_t kSweepBatch = 1;
constexpr Duration kSweepLatencies[] = {1000,  2000,  3000,  5000,
                                        7000, 10000, 15000, 25000};

std::vector<SimJob> sweep_jobs(const core::ExperimentConfig& cfg) {
  std::vector<SimJob> jobs;
  const core::BatchSpec& batch = core::paper_batches()[kSweepBatch];
  for (Duration lat : kSweepLatencies) {
    for (core::PolicyKind k : {core::PolicyKind::kSync, core::PolicyKind::kAsync}) {
      SimJob j{"media" + std::to_string(lat / 1000) + "us/" +
                   std::string(core::policy_name(k)),
               kSweepBatch, k, cfg.sim};
      j.sim.ull.read_latency = lat;
      j.sim.ull.write_latency = lat;
      j.sim.dram_bytes = core::dram_bytes_for(batch, cfg.dram_headroom,
                                              cfg.gen.footprint_scale);
      jobs.push_back(std::move(j));
    }
  }
  return jobs;
}

/// Sweep farm width: two workers read steadier than four on a small shared
/// host, and never more than the host has.
unsigned sweep_width() {
  return std::clamp(std::thread::hardware_concurrency(), 1u, 2u);
}

/// A fixed request count keeps the work per pass the same for every seed;
/// at 300 req/s the bursty stream stays below what the simulated system
/// sustains (no rejects, no growing backlog).
constexpr std::uint64_t kServeRequests = 300;

serve::ServeConfig serve_config(std::uint64_t seed) {
  serve::ServeConfig cfg;
  cfg.arrivals.model = serve::ArrivalModel::kMmpp;
  cfg.arrivals.rate_rps = 300.0;
  cfg.arrivals.seed = seed;
  cfg.duration = 60'000'000'000;  // long enough that the count cap binds
  cfg.max_requests = kServeRequests;
  cfg.admit_limit = 64;
  cfg.overcommit = 2.0;
  cfg.sim.seed = seed;
  cfg.sim.fault = {};
  return cfg;
}

// -- Running simulations ---------------------------------------------------------

/// Traced-pass state shared by the simulations of one pass.
struct Tracing {
  SpanLog* log = nullptr;
  int parent = -1;
  std::vector<std::uint32_t> src_base;  ///< Per paper batch: first trace index
                                        ///< in replay.traces.
  std::mutex mu;
  ReplayInput replay;  // guarded by mu
};

struct TaskResult {
  std::string label;
  core::PolicyKind policy = core::PolicyKind::kIts;
  double seconds = 0;      ///< Whole task: build, add processes, run.
  double scale = 1;        ///< kNominalProbeS / the probe after its chunk.
  double run_seconds = 0;  ///< Simulator::run (run_serve for serve).
  /// Traced tasks first run the same simulation untraced, back to back, so
  /// obs.trace_overhead compares two runs made under the same host load.
  double untraced_run_seconds = 0;
  std::string untraced_digest;
  std::uint64_t items = 0; ///< Requests completed (serve) or 1 simulation.
  std::uint64_t arrivals = 0, admits = 0, rejects = 0;  ///< Serve only.
  std::string digest;
  Counters counters;
  bool invariants_ok = true;
  double check_seconds = 0;
};

struct PassResult {
  double wall = 0;  ///< Host seconds of the simulations, probes excluded.
  /// `wall` with each chunk's seconds scaled by the probe taken right after
  /// it (untraced passes; see end_to_end).
  double scaled_wall = 0;
  std::vector<TaskResult> tasks;
  std::vector<double> probes;  ///< host_probe_seconds() samples.

  std::uint64_t items() const {
    std::uint64_t n = 0;
    for (const TaskResult& t : tasks) n += t.items;
    return n;
  }
  Counters counters() const {
    Counters c;
    for (const TaskResult& t : tasks) c.add(t.counters);
    return c;
  }
  std::vector<std::string> digests() const {
    std::vector<std::string> d;
    for (const TaskResult& t : tasks) d.push_back(t.digest);
    return d;
  }
};

/// Event counts, the invariant check and the replay points of one traced
/// simulation.
void finish_traced(Tracing& tr, const obs::EventTrace& events,
                   const core::SimMetrics& m, const std::string& label,
                   int parent, const std::vector<std::uint32_t>& src_of_pid,
                   TaskResult& r) {
  add_event_counts(events, r.counters);
  {
    SpanScope span(tr.log, "obs.check/" + label, parent);
    const auto t0 = Clock::now();
    r.invariants_ok = obs::check_invariants(events, m).ok();
    r.check_seconds = seconds_since(t0);
  }
  std::lock_guard<std::mutex> lock(tr.mu);
  tr.replay.add_events(events, src_of_pid);
}

core::SimMetrics run_task(const SimJob& job, const Traces& traces,
                          Tracing* tr, int parent, TaskResult& r) {
  const auto t0 = Clock::now();
  if (tr != nullptr) {
    SpanScope span(tr->log, "bench.untraced/" + job.label, parent);
    TaskResult base;
    run_task(job, traces, nullptr, parent, base);
    r.untraced_run_seconds = base.run_seconds;
    r.untraced_digest = base.digest;
  }
  const core::BatchSpec& batch = core::paper_batches()[job.batch];
  std::optional<SpanScope> build;
  build.emplace(tr ? tr->log : nullptr, "core.build/" + job.label, parent);
  core::Simulator sim(job.sim, job.policy);
  std::unique_ptr<obs::EventTrace> events;
  if (tr != nullptr) {
    events = std::make_unique<obs::EventTrace>();
    sim.set_trace(events.get());
  }
  for (auto& p : core::build_processes(batch, traces, job.sim.seed))
    sim.add_process(std::move(p));
  build.reset();
  core::SimMetrics m;
  {
    SpanScope span(tr ? tr->log : nullptr, "core.run/" + job.label, parent);
    const auto r0 = Clock::now();
    m = sim.run();
    r.run_seconds = seconds_since(r0);
  }
  r.seconds = seconds_since(t0);
  r.label = job.label;
  r.policy = job.policy;
  r.items = 1;
  r.digest = digest(m);
  r.counters = counters_of(sim, m);
  if (tr != nullptr) {
    std::vector<std::uint32_t> src_of_pid(traces.size());
    for (std::size_t i = 0; i < traces.size(); ++i)
      src_of_pid[i] = tr->src_base[job.batch] + static_cast<std::uint32_t>(i);
    finish_traced(*tr, *events, m, job.label, parent, src_of_pid, r);
  }
  return m;
}

/// Runs `jobs` in chunks of `chunk` simulations.  An untraced pass takes a
/// host-speed probe after each chunk, outside the timed interval.
PassResult run_batch_pass(const std::vector<SimJob>& jobs,
                          const std::vector<Traces>& traces, unsigned width,
                          std::size_t chunk, Tracing* tr) {
  PassResult out;
  out.tasks.resize(jobs.size());
  SpanScope dispatch(tr ? tr->log : nullptr, "farm.dispatch",
                     tr ? tr->parent : -1);
  for (std::size_t first = 0; first < jobs.size(); first += chunk) {
    const std::size_t count = std::min(chunk, jobs.size() - first);
    const auto t0 = Clock::now();
    core::run_sim_tasks(count, width, [&](std::size_t i) {
      const SimJob& job = jobs[first + i];
      return run_task(job, traces[job.batch], tr, dispatch.id(),
                      out.tasks[first + i]);
    });
    const double wall = seconds_since(t0);
    out.wall += wall;
    if (tr != nullptr) continue;
    out.probes.push_back(host_probe_seconds());
    const double scale = kNominalProbeS / out.probes.back();
    out.scaled_wall += wall * scale;
    for (std::size_t i = first; i < first + count; ++i) out.tasks[i].scale = scale;
  }
  return out;
}

Traces serve_templates(const serve::ServeConfig& cfg) {
  Traces out;
  for (const serve::TierSpec& t : cfg.tiers) {
    trace::GeneratorConfig g;
    g.footprint_scale = cfg.footprint_scale;
    g.length_scale = cfg.length_scale;
    g.seed = cfg.arrivals.seed;
    out.push_back(std::make_shared<const trace::Trace>(trace::generate(t.workload, g)));
  }
  return out;
}

/// The untraced serve pass: one serve::run_serve call, then a host probe.
PassResult run_serve_pass(const serve::ServeConfig& cfg) {
  PassResult out;
  TaskResult r;
  const auto t0 = Clock::now();
  serve::ServeMetrics m = serve::run_serve(cfg, core::PolicyKind::kIts);
  r.seconds = r.run_seconds = out.wall = seconds_since(t0);
  out.probes.push_back(host_probe_seconds());
  r.scale = kNominalProbeS / out.probes.back();
  out.scaled_wall = out.wall * r.scale;
  r.label = "serve/ITS";
  r.items = m.completed;
  r.arrivals = m.arrivals;
  r.admits = m.admits;
  r.rejects = m.rejects;
  r.digest = digest(m);
  for (const core::ProcessOutcome& p : m.sim.processes)
    r.counters.records += p.metrics.instructions;
  out.tasks.push_back(std::move(r));
  return out;
}

/// The traced serve pass.  serve::run_serve keeps its Simulator private, so
/// this builds the same scenario from the public pieces (generate_requests,
/// serve_dram_bytes, add_process_at, the admission gate and retire hook) to
/// read the mem/ and vm/ counters.  Its digest is checked against the
/// committed reference like every other pass, so a drift from run_serve
/// fails the run instead of skewing the ledger.
PassResult run_serve_traced(const serve::ServeConfig& cfg, Tracing& tr) {
  using obs::EventKind;
  PassResult out;
  const auto t0 = Clock::now();
  TaskResult r;
  {
    SpanScope span(tr.log, "bench.untraced/serve", tr.parent);
    const TaskResult base = run_serve_pass(cfg).tasks.front();
    r.untraced_run_seconds = base.run_seconds;
    r.untraced_digest = base.digest;
  }
  r.label = "serve/ITS";
  obs::EventTrace events;
  serve::ServeMetrics m;
  std::vector<std::uint32_t> pids;
  double run_s = 0;
  {
    SpanScope span(tr.log, "serve.run/ITS", tr.parent);
    const auto r0 = Clock::now();
    for (const serve::TierSpec& t : cfg.tiers) {
      serve::TierMetrics tm;
      tm.name = t.name;
      tm.slo_ns = t.slo_ns;
      m.tiers.push_back(std::move(tm));
    }
    const std::vector<serve::Request> reqs = serve::generate_requests(cfg);
    const Traces tmpl = serve_templates(cfg);
    core::SimConfig sc = cfg.sim;
    sc.dram_bytes = serve::serve_dram_bytes(cfg);
    core::Simulator sim(sc, core::PolicyKind::kIts);
    sim.set_trace(&events);
    for (const serve::Request& rq : reqs) {
      const serve::TierSpec& t = cfg.tiers[rq.tier];
      pids.push_back(static_cast<std::uint32_t>(rq.id));
      sim.add_process_at(rq.arrive, std::make_unique<sched::Process>(
                                        static_cast<Pid>(rq.id),
                                        t.name + "-" + std::to_string(rq.id),
                                        t.priority, tmpl[rq.tier]));
    }
    std::vector<SimTime> arrived_at(reqs.size(), 0);
    unsigned in_flight = 0;
    sim.set_admission_gate([&](sched::Process& p) {
      const serve::Request& rq = reqs[p.pid()];
      serve::TierMetrics& tm = m.tiers[rq.tier];
      ++tm.arrivals;
      ++m.arrivals;
      events.record(EventKind::kRequestArrive, sim.now(), p.pid(), rq.id, rq.tier);
      if (cfg.admit_limit != 0 && in_flight >= cfg.admit_limit) {
        ++tm.rejects;
        ++m.rejects;
        return false;
      }
      ++in_flight;
      ++tm.admits;
      ++m.admits;
      arrived_at[p.pid()] = sim.now();
      events.record(EventKind::kRequestAdmit, sim.now(), p.pid(), rq.id, rq.tier);
      return true;
    });
    sim.set_retire_hook([&](sched::Process& p) {
      const serve::Request& rq = reqs[p.pid()];
      const serve::TierSpec& t = cfg.tiers[rq.tier];
      serve::TierMetrics& tm = m.tiers[rq.tier];
      --in_flight;
      const Duration lat = sim.now() - arrived_at[p.pid()];
      ++tm.completed;
      ++m.completed;
      tm.latency.add(lat);
      m.latency.add(lat);
      events.record(EventKind::kRequestDone, sim.now(), p.pid(), rq.id, lat,
                    rq.tier);
      if (t.slo_ns != 0 && lat > t.slo_ns) {
        ++tm.slo_violations;
        ++m.slo_violations;
        events.record(EventKind::kSloViolation, sim.now(), p.pid(), rq.id, lat,
                      t.slo_ns);
      }
    });
    m.sim = sim.run();
    run_s = seconds_since(r0);
    r.counters = counters_of(sim, m.sim);
  }
  r.run_seconds = run_s;
  r.seconds = out.wall = seconds_since(t0);
  r.items = m.completed;
  r.arrivals = m.arrivals;
  r.admits = m.admits;
  r.rejects = m.rejects;
  r.digest = digest(m);
  // Replay source i is request i's template (see serve_workload).
  finish_traced(tr, events, m.sim, r.label, tr.parent, pids, r);
  out.tasks.push_back(std::move(r));
  return out;
}

// -- Phases ------------------------------------------------------------------------

/// Repeats `f` at least five times and until it has run for two seconds
/// (at most 2000 times), or once when `once`.  Samples the host probe
/// before the first call and then after any call that ends 0.25 s or more
/// after the last sample, so set-up is scaled by the host speed of its own
/// moment.  Returns the median seconds per call.
template <typename F>
double median_reps(bool once, std::vector<double>& probes, F f) {
  std::vector<double> t;
  double total = 0;
  probes.push_back(host_probe_seconds());
  auto last_probe = Clock::now();
  do {
    const auto t0 = Clock::now();
    f();
    t.push_back(seconds_since(t0));
    total += t.back();
    if (seconds_since(last_probe) >= 0.25) {
      probes.push_back(host_probe_seconds());
      last_probe = Clock::now();
    }
  } while (!once && t.size() < 2000 && (t.size() < 5 || total < 2.0));
  return median(t);
}

/// Runs whole passes: always one, then another only while it is expected to
/// finish within `seconds` of the first pass's start.
template <typename F>
std::vector<PassResult> measure(double seconds, F pass) {
  std::vector<PassResult> out;
  const auto start = Clock::now();
  for (;;) {
    out.push_back(pass());
    if (seconds <= 0 || seconds_since(start) + out.back().wall > seconds) break;
  }
  return out;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

struct Setup {
  double setup_s = 0;
  std::vector<double> probes;      ///< Host-probe samples taken during set-up.
  double generate_s = 0;           ///< Trace / template generation alone.
  double generate_requests_s = 0;  ///< serve::generate_requests alone.
  std::vector<Traces> traces;      ///< Per paper batch (batch workloads).
  Traces templates;                ///< Per tier (serve).
  std::vector<std::uint32_t> tier_of_request;  ///< Serve.
  std::uint64_t records = 0;       ///< Trace records generated.
};

Setup setup_batches(const std::vector<std::size_t>& batches,
                    const trace::GeneratorConfig& gen, bool once,
                    SpanLog* log) {
  Setup s;
  s.traces.resize(core::paper_batches().size());
  SpanScope root(log, "bench.setup", -1);
  s.setup_s = median_reps(once, s.probes, [&] {
    for (Traces& t : s.traces) t.clear();  // peak memory: one set, not two
    for (std::size_t b : batches) {
      const core::BatchSpec& spec = core::paper_batches()[b];
      SpanScope span(log, "trace.generate/" + std::string(spec.name), root.id());
      s.traces[b] = core::batch_traces(spec, gen);
    }
  });
  s.generate_s = s.setup_s;
  for (std::size_t b : batches)
    for (const auto& t : s.traces[b]) s.records += t->size();
  return s;
}

Setup setup_serve(const serve::ServeConfig& cfg, bool once, SpanLog* log) {
  Setup s;
  SpanScope root(log, "bench.setup", -1);
  std::vector<double> gen, req;
  s.setup_s = median_reps(once, s.probes, [&] {
    auto t0 = Clock::now();
    {
      SpanScope span(log, "serve.generate_requests", root.id());
      s.tier_of_request.clear();
      for (const serve::Request& rq : serve::generate_requests(cfg))
        s.tier_of_request.push_back(rq.tier);
    }
    req.push_back(seconds_since(t0));
    s.templates.clear();
    t0 = Clock::now();
    {
      SpanScope span(log, "trace.generate/serve-templates", root.id());
      s.templates = serve_templates(cfg);
    }
    gen.push_back(seconds_since(t0));
  });
  s.generate_s = median(gen);
  s.generate_requests_s = median(req);
  for (const auto& t : s.templates) s.records += t->size();
  return s;
}

/// The end-to-end metrics, from the untraced passes.  Host times are
/// scaled to a host that runs the probe in kNominalProbeS: each chunk of
/// simulations by the probe taken right after it, set-up by the median of
/// its own probes.  The shared host this benchmark was defined on drifts by
/// ±20 % over minutes, and the probe, a fixed memory-bound loop outside the
/// simulator, drifts with it.
void end_to_end(const Setup& setup, const std::vector<PassResult>& passes,
                Result& out) {
  std::vector<double> walls, raw_walls, minstr, rates, tasks, probes;
  for (const PassResult& p : passes) {
    walls.push_back(p.scaled_wall);
    raw_walls.push_back(p.wall);
    minstr.push_back(static_cast<double>(p.counters().records) / p.scaled_wall / 1e6);
    rates.push_back(static_cast<double>(p.items()) / p.scaled_wall);
    for (const TaskResult& t : p.tasks) tasks.push_back(t.seconds * t.scale);
    probes.insert(probes.end(), p.probes.begin(), p.probes.end());
  }
  const double setup_scale = kNominalProbeS / median(setup.probes);
  out.metrics = {
      {"wall_s", median(walls), "s"},
      {"setup_s", setup.setup_s * setup_scale, "s"},
      {"sim_minstr_per_s", median(minstr), "Minstr/s"},
      {"host_req_per_s", median(rates), "req/s"},
      {"task_p50_s", median(tasks), "s"},
      {"peak_rss_mb", peak_rss_mb(), "MiB"},
  };
  out.notes.push_back(
      std::to_string(passes.size()) + " measured pass(es); task_p50_s over " +
      std::to_string(tasks.size()) + " simulation(s); host probe median " +
      std::to_string(median(probes) * 1e3) + " ms over " +
      std::to_string(probes.size()) + " samples");
  out.notes.push_back("unscaled: wall_s " + std::to_string(median(raw_walls)) +
                      ", setup_s " + std::to_string(setup.setup_s));
}

/// The per-layer ledger of a traced run.  Every task of a traced pass ran
/// its simulation untraced (the base of core.run_s and obs.trace_overhead)
/// and then traced; the last pass's counters, events and spans feed the
/// rest.
void per_layer(const Setup& setup, const std::vector<PassResult>& traced,
               unsigned width, double spin, double probe, Tracing& tr,
               Result& out) {
  const Counters c = traced.back().counters();
  const ReplayCosts rc = run_replays(tr.replay, c);
  auto ratio = [](double num, double den) { return den > 0 ? num / den : 0.0; };
  auto d = [](std::uint64_t v) { return static_cast<double>(v); };
  std::vector<double> untraced_runs, traced_runs;
  for (const PassResult& p : traced) {
    double u = 0, t = 0;
    for (const TaskResult& task : p.tasks) {
      u += task.untraced_run_seconds;
      t += task.run_seconds;
    }
    untraced_runs.push_back(u);
    traced_runs.push_back(t);
  }
  const double run_s = median(untraced_runs);
  const double traced_run_s = median(traced_runs);

  const PassResult& base = traced.back();
  double task_s = 0, check_s = 0;
  std::map<core::PolicyKind, double> by_policy;
  std::uint64_t violations = 0, arrivals = 0, admits = 0, rejects = 0;
  for (const TaskResult& t : base.tasks) {
    task_s += t.seconds;
    by_policy[t.policy] += t.untraced_run_seconds;
    arrivals += t.arrivals;
    admits += t.admits;
    rejects += t.rejects;
    check_s += t.check_seconds;
    if (!t.invariants_ok) ++violations;
  }

  const double mem_share =
      ratio((rc.access_ns * d(c.l1_accesses) +
             rc.invalidate_page_ns * d(c.evictions) +
             rc.tlb_ns * d(c.tlb_lookups)) / 1e9, run_s);
  const double cpu_share =
      ratio(rc.episode_us * d(c.preexec_episodes) / 1e6, run_s);
  const double vm_share =
      ratio((rc.walk_ns * d(c.mem_refs) +
             rc.va_collect_ns * d(c.prefetch_walks)) / 1e9, run_s);
  const double storage_share = ratio(rc.dma_post_ns * d(c.dma_posts) / 1e9, run_s);
  const double farm_speedup = ratio(task_s, base.wall);

  // Self times of the last traced pass only (set-up spans repeat).
  std::map<std::string, double> self;
  for (const auto& [layer, secs] :
       self_seconds_by_layer(tr.log->spans(), tr.parent))
    self[layer] = secs;

  auto& m = out.metrics;
  m = {
      {"trace.generate_s", setup.generate_s, "s"},
      {"trace.records", d(setup.records), "count"},
      {"core.run_s", run_s, "s"},
      {"core.ns_per_record", ratio(run_s * 1e9, d(c.records)), "ns"},
  };
  for (core::PolicyKind k : core::kAllPolicies)
    m.push_back({"core.run_s." + std::string(core::policy_name(k)),
                 by_policy[k], "s"});
  std::vector<Metric> rest = {
      {"core.self_s", self["core"], "s"},
      {"core.unattributed_share",
       1.0 - mem_share - cpu_share - vm_share - storage_share, "ratio"},
      {"mem.l1_accesses", d(c.l1_accesses), "count"},
      {"mem.llc_misses", d(c.llc_misses), "count"},
      {"mem.cache_evictions", d(c.cache_evictions), "count"},
      {"mem.invalidations", d(c.invalidations), "count"},
      {"mem.tlb_misses", d(c.tlb_misses), "count"},
      {"mem.tlb_flushes", d(c.tlb_flushes), "count"},
      {"mem.llc_hit_ratio", ratio(d(c.llc_hits), d(c.llc_hits + c.llc_misses)),
       "ratio"},
      {"mem.access_ns", rc.access_ns, "ns"},
      {"mem.invalidate_page_ns", rc.invalidate_page_ns, "ns"},
      {"mem.tlb_ns", rc.tlb_ns, "ns"},
      {"mem.px_cache_ns", rc.px_cache_ns, "ns"},
      {"mem.est_share", mem_share, "ratio"},
      {"cpu.preexec_episodes", d(c.preexec_episodes), "count"},
      {"cpu.preexec_lines_warmed", d(c.preexec_lines_warmed), "count"},
      {"cpu.lines_per_episode",
       ratio(d(c.preexec_lines_warmed), d(c.preexec_episodes)), "ratio"},
      {"cpu.episode_us", rc.episode_us, "us"},
      {"cpu.est_share", cpu_share, "ratio"},
      {"vm.major_faults", d(c.major_faults), "count"},
      {"vm.minor_faults", d(c.minor_faults), "count"},
      {"vm.evictions", d(c.evictions), "count"},
      {"vm.clock_scans", d(c.clock_scans), "count"},
      {"vm.swap_ins", d(c.swap_ins), "count"},
      {"vm.swap_outs", d(c.swap_outs), "count"},
      {"vm.prefetch_issued", d(c.prefetch_issued), "count"},
      {"vm.prefetch_accuracy", ratio(d(c.prefetch_useful), d(c.prefetch_issued)),
       "ratio"},
      {"vm.walk_ns", rc.walk_ns, "ns"},
      {"vm.va_collect_ns", rc.va_collect_ns, "ns"},
      {"vm.est_share", vm_share, "ratio"},
      {"sched.ctx_switches", d(c.ctx_switches), "count"},
      {"sched.async_switches", d(c.async_switches), "count"},
      {"sched.picks", d(c.picks), "count"},
      {"storage.dma_posts", d(c.dma_posts), "count"},
      {"storage.dma_post_ns", rc.dma_post_ns, "ns"},
      {"storage.est_share", storage_share, "ratio"},
      {"obs.events", d(c.events), "count"},
      {"obs.check_s", check_s, "s"},
      {"obs.trace_overhead", ratio(traced_run_s, run_s) - 1.0, "ratio"},
      {"obs.violations", d(violations), "count"},
      {"obs.self_s", self["obs"], "s"},
      {"farm.efficiency", ratio(task_s, width * base.wall), "ratio"},
      {"calib.spin_speedup", spin, "ratio"},
      {"calib.host_probe_s", probe, "s"},
      {"farm.calibrated_efficiency", ratio(farm_speedup, spin), "ratio"},
      {"farm.self_s", self["farm"], "s"},
      {"serve.requests", d(arrivals), "count"},
      {"serve.admits", d(admits), "count"},
      {"serve.rejects", d(rejects), "count"},
      {"serve.generate_requests_s", setup.generate_requests_s, "s"},
      {"serve.self_s", self["serve"], "s"},
  };
  m.insert(m.end(), rest.begin(), rest.end());
  out.notes.push_back(
      "est shares of core.run_s: mem " + std::to_string(mem_share) + ", cpu " +
      std::to_string(cpu_share) + ", vm " + std::to_string(vm_share) +
      ", storage " + std::to_string(storage_share) + "; unattributed " +
      std::to_string(1.0 - mem_share - cpu_share - vm_share - storage_share));
}

void record_digests(const PassResult& p, Result& out) {
  out.digests.push_back(p.digests());
  if (!p.tasks.empty() && !p.tasks.front().untraced_digest.empty()) {
    std::vector<std::string> base;
    for (const TaskResult& t : p.tasks) base.push_back(t.untraced_digest);
    out.digests.push_back(std::move(base));
  }
  for (const TaskResult& t : p.tasks)
    if (!t.invariants_ok) ++out.invariant_failures;
}

/// One workload: how it sets up, how it runs a pass with tracing off and
/// on, and which traces its replay probes stream.
struct Workload {
  unsigned width = 1;  ///< Farm width of a pass.
  std::function<Setup(bool once, SpanLog* log)> setup;
  std::function<PassResult(const Setup&, unsigned width)> pass;
  std::function<PassResult(const Setup&, Tracing&)> traced_pass;
  std::function<void(const Setup&, Tracing&)> replay_sources;
};

Result run(const Options& opt, const Workload& w) {
  Result out;
  SpanLog log;
  const Setup setup = w.setup(opt.seconds <= 0, opt.trace ? &log : nullptr);
  if (!opt.trace) {
    const auto passes = measure(opt.seconds, [&] { return w.pass(setup, w.width); });
    for (const PassResult& p : passes) record_digests(p, out);
    end_to_end(setup, passes, out);
    return out;
  }

  std::vector<PassResult> traced;
  Tracing tr;
  tr.log = &log;
  const auto start = Clock::now();
  for (;;) {
    tr.replay = ReplayInput{};
    w.replay_sources(setup, tr);
    SpanScope root(&log, "bench.traced_pass", -1);
    tr.parent = root.id();
    traced.push_back(w.traced_pass(setup, tr));
    if (opt.seconds <= 0 ||
        seconds_since(start) + traced.back().wall > opt.seconds)
      break;
  }
  for (const PassResult& p : traced) record_digests(p, out);
  // The serial reference: its digests are checked against the same
  // reference list as the farmed passes', so any width dependence fails.
  if (w.width > 1) record_digests(w.pass(setup, 1), out);
  const double spin = w.width > 1 ? spin_speedup(w.width) : 0.0;
  std::vector<double> probes;
  for (int i = 0; i < 5; ++i) probes.push_back(host_probe_seconds());
  per_layer(setup, traced, w.width, spin, median(probes), tr, out);
  if (!opt.spans_path.empty() &&
      !write_spans_json(opt.spans_path, opt.workload, log.spans()))
    throw std::runtime_error("cannot write spans to " + opt.spans_path);
  return out;
}

Workload batch_workload(std::vector<SimJob> jobs, std::vector<std::size_t> batches,
                        trace::GeneratorConfig gen, unsigned width,
                        std::size_t chunk) {
  auto shared_jobs = std::make_shared<const std::vector<SimJob>>(std::move(jobs));
  Workload w;
  w.width = width;
  w.setup = [=](bool once, SpanLog* log) {
    return setup_batches(batches, gen, once, log);
  };
  w.pass = [=](const Setup& s, unsigned wd) {
    return run_batch_pass(*shared_jobs, s.traces, wd, chunk, nullptr);
  };
  w.traced_pass = [=](const Setup& s, Tracing& tr) {
    return run_batch_pass(*shared_jobs, s.traces, width, chunk, &tr);
  };
  w.replay_sources = [=](const Setup& s, Tracing& tr) {
    tr.src_base.assign(s.traces.size(), 0);
    for (std::size_t b : batches) {
      tr.src_base[b] = static_cast<std::uint32_t>(tr.replay.traces.size());
      for (const auto& t : s.traces[b]) tr.replay.traces.push_back(t.get());
    }
    // The largest batch's DRAM: the replayed frame space of the hot runs.
    tr.replay.sim = shared_jobs->back().sim;
  };
  return w;
}

Workload serve_workload(const serve::ServeConfig& cfg) {
  Workload w;
  w.setup = [=](bool once, SpanLog* log) { return setup_serve(cfg, once, log); };
  w.pass = [=](const Setup&, unsigned) { return run_serve_pass(cfg); };
  w.traced_pass = [=](const Setup&, Tracing& tr) {
    return run_serve_traced(cfg, tr);
  };
  // One source per request, each on its tier's template, so every request
  // replays in its own address space as it runs in its own process.
  w.replay_sources = [=](const Setup& s, Tracing& tr) {
    for (std::uint32_t tier : s.tier_of_request)
      tr.replay.traces.push_back(s.templates[tier].get());
    tr.replay.sim = cfg.sim;
    tr.replay.sim.dram_bytes = serve::serve_dram_bytes(cfg);
  };
  return w;
}

}  // namespace

Result run_workload(const Options& opt) {
  const core::ExperimentConfig cfg = experiment_config(opt.seed);
  // The grid probes host speed after every simulation; the sweep probes
  // after each pass, so its farm schedules all 16 simulations at once.
  if (opt.workload == "grid")
    return run(opt, batch_workload(grid_jobs(cfg), {0, 1, 2, 3}, cfg.gen, 1, 1));
  if (opt.workload == "sweep")
    return run(opt, batch_workload(sweep_jobs(cfg), {kSweepBatch}, cfg.gen,
                                   sweep_width(), 2 * std::size(kSweepLatencies)));
  if (opt.workload == "serve") return run(opt, serve_workload(serve_config(opt.seed)));
  throw std::invalid_argument("unknown workload '" + opt.workload +
                              "' (grid, serve, sweep)");
}

}  // namespace perfbench
