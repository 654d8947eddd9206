#include "core/report.h"

#include "core/experiment.h"
#include "core/metrics.h"
#include "core/policy.h"
#include "obs/run_totals.h"

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <ostream>
#include <sstream>
#include <stdexcept>

namespace its::core {

// Every counter is a uint64_t alias, so RunTotals has no padding and its
// size counts its fields: a counter added there stops the build here until
// it has a column below (the pinned row in tests/report_args_test.cpp
// catches a dropped or swapped column).
static_assert(sizeof(obs::RunTotals) == 36 * sizeof(std::uint64_t),
              "obs::RunTotals changed: add the new counter to "
              "write_metrics_csv, then update this count");

void write_metrics_csv(std::ostream& os, std::span<const BatchResult> grid) {
  os << "batch,policy,cpu_busy_ns,idle_total_ns,mem_stall_ns,busy_wait_ns,"
        "ctx_switch_ns,no_runnable_ns,major_faults,minor_faults,llc_misses,"
        "prefetch_issued,prefetch_useful,preexec_episodes,preexec_lines_warmed,"
        "async_switches,evictions,stolen_ns,makespan_ns,top50_finish_ns,"
        "bottom50_finish_ns,io_errors,io_retries,retry_exhausted,"
        "deadline_aborts,mode_fallbacks,degraded_ns,file_reads,file_writes,"
        "file_writebacks,page_cache_hits,page_cache_misses,"
        "health_healthy_time_ns,health_degraded_time_ns,"
        "health_offline_time_ns,health_recovering_time_ns,pool_stores,"
        "pool_hits,pool_drains,drain_bytes,faults_served_degraded\n";
  for (const auto& r : grid) {
    for (PolicyKind k : kAllPolicies) {
      auto it = r.by_policy.find(k);
      if (it == r.by_policy.end()) continue;
      const SimMetrics& m = it->second;
      os << r.spec->name << ',' << policy_name(k) << ',' << m.cpu_busy << ','
         << m.idle.total() << ','
         << m.idle.mem_stall << ',' << m.idle.busy_wait << ',' << m.idle.ctx_switch
         << ',' << m.idle.no_runnable << ',' << m.major_faults << ','
         << m.minor_faults << ',' << m.llc_misses << ',' << m.prefetch_issued << ','
         << m.prefetch_useful << ',' << m.preexec_episodes << ','
         << m.preexec_lines_warmed << ',' << m.async_switches << ',' << m.evictions
         << ',' << m.stolen_time << ',' << m.makespan << ','
         << static_cast<std::uint64_t>(m.avg_finish_top_half()) << ','
         << static_cast<std::uint64_t>(m.avg_finish_bottom_half()) << ','
         << m.io_errors << ',' << m.io_retries << ',' << m.retry_exhausted
         << ',' << m.deadline_aborts << ',' << m.mode_fallbacks << ','
         << m.degraded_time << ',' << m.file_reads << ',' << m.file_writes
         << ',' << m.file_writebacks << ',' << m.page_cache_hits << ','
         << m.page_cache_misses << ',' << m.health_healthy_time << ','
         << m.health_degraded_time << ',' << m.health_offline_time << ','
         << m.health_recovering_time << ',' << m.pool_stores << ','
         << m.pool_hits << ',' << m.pool_drains << ',' << m.drain_bytes << ','
         << m.faults_served_degraded << '\n';
    }
  }
}

void write_processes_csv(std::ostream& os, std::span<const BatchResult> grid) {
  os << "batch,policy,pid,process,priority,finish_ns,major_faults,minor_faults,"
        "llc_misses,mem_stall_ns,busy_wait_ns,stolen_ns\n";
  for (const auto& r : grid) {
    for (PolicyKind k : kAllPolicies) {
      auto it = r.by_policy.find(k);
      if (it == r.by_policy.end()) continue;
      for (const auto& p : it->second.processes) {
        os << r.spec->name << ',' << policy_name(k) << ',' << p.pid << ','
           << p.name << ',' << p.priority << ',' << p.metrics.finish_time << ','
           << p.metrics.major_faults << ',' << p.metrics.minor_faults << ','
           << p.metrics.llc_misses << ',' << p.metrics.mem_stall << ','
           << p.metrics.busy_wait << ',' << p.metrics.stolen << '\n';
      }
    }
  }
}

std::string metrics_csv(std::span<const BatchResult> grid) {
  std::ostringstream ss;
  write_metrics_csv(ss, grid);
  return ss.str();
}

void save_csv_files(const std::string& dir, std::span<const BatchResult> grid) {
  std::filesystem::create_directories(dir);
  auto open = [&](const std::string& name) {
    std::ofstream f(dir + "/" + name);
    if (!f) throw std::runtime_error("report: cannot write " + dir + "/" + name);
    return f;
  };
  auto m = open("its_metrics.csv");
  write_metrics_csv(m, grid);
  auto p = open("its_processes.csv");
  write_processes_csv(p, grid);
}

}  // namespace its::core
