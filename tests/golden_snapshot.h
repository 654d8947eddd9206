// The formats of the checked-in golden files, shared by the test that
// records each file and by farm_test, which rebuilds it from a farmed run.
// One emitter per file, so regenerating a golden with ITS_UPDATE_GOLDEN=1
// can never leave the farm comparing a stale field list.
//
//   tests/golden/metrics.golden        golden_test, farm_test
//   tests/golden/fault_metrics.golden  fault_test,  farm_test
#pragma once

#include <cstddef>
#include <ostream>
#include <string>

#include "core/experiment.h"
#include "core/metrics.h"
#include "core/policy.h"

namespace its::golden {

/// The fixed scale and seed both golden files are recorded at.
inline core::ExperimentConfig golden_config() {
  core::ExperimentConfig cfg;
  cfg.gen.length_scale = 0.02;
  cfg.gen.footprint_scale = 0.25;
  cfg.sim.seed = 42;
  return cfg;
}

// ---------------------------------------------------------------------------
// metrics.golden: every paper batch under every policy, fault-free.

inline constexpr const char* kMetricsHeader =
    "# its_sim golden metrics — regenerate with ITS_UPDATE_GOLDEN=1 "
    "./golden_test\n"
    "# config: length_scale=0.02 footprint_scale=0.25 seed=42\n";

inline void emit_metrics(std::ostream& os, std::size_t batch,
                         core::PolicyKind policy, const core::SimMetrics& m) {
  const std::string key = "batch" + std::to_string(batch) + "." +
                          std::string(core::policy_name(policy));
  os << key << ".makespan=" << m.makespan << '\n';
  os << key << ".cpu_busy=" << m.cpu_busy << '\n';
  os << key << ".idle.mem_stall=" << m.idle.mem_stall << '\n';
  os << key << ".idle.busy_wait=" << m.idle.busy_wait << '\n';
  os << key << ".idle.ctx_switch=" << m.idle.ctx_switch << '\n';
  os << key << ".idle.no_runnable=" << m.idle.no_runnable << '\n';
  os << key << ".major_faults=" << m.major_faults << '\n';
  os << key << ".minor_faults=" << m.minor_faults << '\n';
  os << key << ".llc_misses=" << m.llc_misses << '\n';
  os << key << ".prefetch_issued=" << m.prefetch_issued << '\n';
  os << key << ".prefetch_useful=" << m.prefetch_useful << '\n';
  os << key << ".preexec_episodes=" << m.preexec_episodes << '\n';
  os << key << ".async_switches=" << m.async_switches << '\n';
  os << key << ".evictions=" << m.evictions << '\n';
  os << key << ".stolen_time=" << m.stolen_time << '\n';
}

// ---------------------------------------------------------------------------
// fault_metrics.golden: batch 1 under every policy with the `hostile`
// profile at fault seed 7.

inline constexpr const char* kFaultHeader =
    "# its_sim fault golden — regenerate with ITS_UPDATE_GOLDEN=1 "
    "./fault_test\n"
    "# config: batch1 length_scale=0.02 footprint_scale=0.25 seed=42 "
    "fault=hostile fault_seed=7\n";

inline void emit_fault_metrics(std::ostream& os, core::PolicyKind policy,
                               const core::SimMetrics& m) {
  const std::string key(core::policy_name(policy));
  os << key << ".makespan=" << m.makespan << '\n';
  os << key << ".cpu_busy=" << m.cpu_busy << '\n';
  os << key << ".idle.busy_wait=" << m.idle.busy_wait << '\n';
  os << key << ".idle.ctx_switch=" << m.idle.ctx_switch << '\n';
  os << key << ".idle.no_runnable=" << m.idle.no_runnable << '\n';
  os << key << ".major_faults=" << m.major_faults << '\n';
  os << key << ".stolen_time=" << m.stolen_time << '\n';
  os << key << ".io_errors=" << m.io_errors << '\n';
  os << key << ".io_retries=" << m.io_retries << '\n';
  os << key << ".retry_exhausted=" << m.retry_exhausted << '\n';
  os << key << ".deadline_aborts=" << m.deadline_aborts << '\n';
  os << key << ".mode_fallbacks=" << m.mode_fallbacks << '\n';
  os << key << ".degraded_time=" << m.degraded_time << '\n';
  os << key << ".health_healthy_time=" << m.health_healthy_time << '\n';
  os << key << ".health_degraded_time=" << m.health_degraded_time << '\n';
  os << key << ".health_offline_time=" << m.health_offline_time << '\n';
  os << key << ".health_recovering_time=" << m.health_recovering_time << '\n';
  os << key << ".pool_stores=" << m.pool_stores << '\n';
  os << key << ".pool_hits=" << m.pool_hits << '\n';
  os << key << ".pool_drains=" << m.pool_drains << '\n';
  os << key << ".faults_served_degraded=" << m.faults_served_degraded << '\n';
}

}  // namespace its::golden
