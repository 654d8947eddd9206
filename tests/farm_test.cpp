// Run-farm suite (ctest label: farm).
//
// Two layers of guarantees:
//   * farm execution semantics — every task runs exactly once at any
//     width (n < jobs and n == 0 included), results collect by submission
//     index, nested calls run every inner task once, the lowest-index
//     failure is rethrown at every width after all tasks ran, thousands
//     of no-op tasks drain (stress), ITS_JOBS is parsed strictly;
//   * the bit-determinism matrix — the same experiments at --jobs 1/2/8
//     and under a shuffled submission order produce byte-identical metrics
//     CSVs, and a --jobs 8 run reproduces the checked-in golden files
//     (tests/golden/metrics.golden, fault_metrics.golden) byte for byte.
//
// The whole suite also runs under TSAN in CI (-DITS_SANITIZE=thread);
// docs/performance.md describes the farm design these tests pin down.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/batch.h"
#include "core/experiment.h"
#include "core/policy.h"
#include "core/report.h"
#include "farm/farm.h"
#include "fault/fault_injector.h"
#include "golden_snapshot.h"

namespace its {
namespace {

#ifndef ITS_GOLDEN_DIR
#error "ITS_GOLDEN_DIR must point at the checked-in golden directory"
#endif

using core::PolicyKind;
using core::SimMetrics;

// ---------------------------------------------------------------------------
// Farm execution semantics.

TEST(Farm, EveryTaskRunsExactlyOnceAtAnyWidth) {
  for (unsigned jobs : {1u, 2u, 8u}) {
    for (std::size_t n : {std::size_t{0}, std::size_t{3}, std::size_t{257}}) {
      std::vector<std::atomic<int>> hits(n);
      farm::run_indexed(jobs, n, [&](std::size_t i) {
        hits[i].fetch_add(1, std::memory_order_relaxed);
      });
      for (std::size_t i = 0; i < n; ++i)
        EXPECT_EQ(hits[i].load(), 1)
            << "task " << i << " of " << n << " at jobs=" << jobs;
    }
  }
}

TEST(Farm, RunCollectKeysResultsBySubmissionIndex) {
  std::vector<std::uint64_t> got = farm::run_collect<std::uint64_t>(
      4, 100, [](std::size_t i) { return static_cast<std::uint64_t>(i * i); });
  ASSERT_EQ(got.size(), 100u);
  for (std::size_t i = 0; i < got.size(); ++i) EXPECT_EQ(got[i], i * i);
}

TEST(Farm, NestedCallsRunEveryInnerTaskOnce) {
  // Each call owns its threads, so a farmed helper called from inside a
  // farm task runs its own batch to completion instead of deadlocking.
  std::vector<std::atomic<int>> hits(64);
  farm::run_indexed(4, 8, [&](std::size_t o) {
    farm::run_indexed(4, 8, [&](std::size_t i) {
      hits[o * 8 + i].fetch_add(1, std::memory_order_relaxed);
    });
  });
  for (std::size_t i = 0; i < hits.size(); ++i)
    EXPECT_EQ(hits[i].load(), 1) << "inner task " << i;
}

TEST(Farm, FirstExceptionPropagatesAfterDrain) {
  // Tasks 17 and 30 both throw; whichever fails first in wall time, the
  // lowest index wins at every width, and every other task still runs.
  for (unsigned jobs : {1u, 2u, 8u}) {
    std::atomic<int> ran{0};
    try {
      farm::run_indexed(jobs, 40, [&](std::size_t i) {
        if (i == 17 || i == 30)
          throw std::runtime_error("task " + std::to_string(i) + " failed");
        ran.fetch_add(1, std::memory_order_relaxed);
      });
      FAIL() << "expected the task exception to propagate (jobs=" << jobs << ")";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "task 17 failed") << "jobs=" << jobs;
    }
    EXPECT_EQ(ran.load(), 38) << "jobs=" << jobs;
  }
}

TEST(Farm, StressThousandsOfNoopTasks) {
  for (int round = 0; round < 3; ++round) {
    std::atomic<std::uint64_t> sum{0};
    const std::size_t n = 5000;
    farm::run_indexed(8, n, [&](std::size_t i) {
      sum.fetch_add(i + 1, std::memory_order_relaxed);
    });
    EXPECT_EQ(sum.load(), static_cast<std::uint64_t>(n) * (n + 1) / 2);
  }
}

TEST(Farm, DefaultJobsHonoursItsJobsEnv) {
  const unsigned hw = std::thread::hardware_concurrency();
  const unsigned fallback = hw == 0 ? 1 : hw;
  ASSERT_EQ(setenv("ITS_JOBS", "3", 1), 0);
  EXPECT_EQ(farm::default_jobs(), 3u);
  // Only a complete positive decimal that fits `unsigned` counts; anything
  // else falls back to the hardware width.
  for (const char* bad : {"not-a-number", "-1", "3abc", "99999999999", "0", ""}) {
    ASSERT_EQ(setenv("ITS_JOBS", bad, 1), 0);
    EXPECT_EQ(farm::default_jobs(), fallback) << "ITS_JOBS=" << bad;
  }
  ASSERT_EQ(unsetenv("ITS_JOBS"), 0);
  EXPECT_EQ(farm::default_jobs(), fallback);
}

// ---------------------------------------------------------------------------
// The bit-determinism matrix (the farm's reason to exist).

std::string grid_csv(unsigned jobs) {
  core::ExperimentConfig cfg = golden::golden_config();
  cfg.jobs = jobs;
  std::vector<core::BatchResult> grid = core::run_grid_all(cfg);
  return core::metrics_csv(grid);
}

TEST(FarmDeterminism, MetricsCsvByteIdenticalAtJobs1_2_8) {
  const std::string serial = grid_csv(1);
  ASSERT_FALSE(serial.empty());
  EXPECT_EQ(grid_csv(2), serial) << "--jobs 2 diverged from serial reference";
  EXPECT_EQ(grid_csv(8), serial) << "--jobs 8 diverged from serial reference";
}

TEST(FarmDeterminism, ShuffledSubmissionOrderIsByteIdentical) {
  // Submit the same (batch, policy) tasks in a permuted order and place
  // each result back at its original index: any dependence on execution
  // or submission order would move a byte.
  core::ExperimentConfig cfg = golden::golden_config();
  const auto& batches = core::paper_batches();
  const std::size_t np = std::size(core::kAllPolicies);
  const std::size_t n = batches.size() * np;

  std::vector<std::vector<std::shared_ptr<const trace::Trace>>> traces;
  for (const auto& b : batches) traces.push_back(core::batch_traces(b, cfg.gen));

  auto run_cell = [&](std::size_t cell) {
    return core::run_batch_policy(batches[cell / np],
                                  core::kAllPolicies[cell % np], cfg,
                                  traces[cell / np]);
  };
  auto emit = [&](const std::vector<SimMetrics>& ms) {
    std::vector<core::BatchResult> grid(batches.size());
    for (std::size_t b = 0; b < batches.size(); ++b) {
      grid[b].spec = &batches[b];
      for (std::size_t p = 0; p < np; ++p)
        grid[b].by_policy.emplace(core::kAllPolicies[p], ms[b * np + p]);
    }
    return core::metrics_csv(grid);
  };

  std::vector<SimMetrics> in_order =
      core::run_sim_tasks(n, 8, [&](std::size_t i) { return run_cell(i); });

  // A fixed full-cycle permutation (stride 7 is coprime to 20).
  std::vector<std::size_t> perm(n);
  for (std::size_t i = 0; i < n; ++i) perm[i] = (i * 7 + 3) % n;
  std::vector<std::size_t> check = perm;
  std::sort(check.begin(), check.end());
  ASSERT_TRUE(std::adjacent_find(check.begin(), check.end()) == check.end());

  std::vector<SimMetrics> shuffled_raw = core::run_sim_tasks(
      n, 8, [&](std::size_t i) { return run_cell(perm[i]); });
  std::vector<SimMetrics> shuffled(n);
  for (std::size_t i = 0; i < n; ++i) shuffled[perm[i]] = shuffled_raw[i];

  EXPECT_EQ(emit(shuffled), emit(in_order))
      << "a shuffled submission order changed the metrics CSV";
}

// The checked-in golden files are the strongest witness: they were
// recorded by the serial runner, so matching them from a farmed run proves
// the farm is invisible in the output.

TEST(FarmDeterminism, Jobs8ReproducesGoldenMetricsFile) {
  if (const char* fp = std::getenv("ITS_FAULT_PROFILE");
      fp != nullptr && std::string(fp) != "none")
    GTEST_SKIP() << "golden snapshot is fault-free; ITS_FAULT_PROFILE=" << fp;

  core::ExperimentConfig cfg = golden::golden_config();
  cfg.jobs = 8;
  std::vector<core::BatchResult> grid = core::run_grid_all(cfg);

  std::ostringstream os;
  os << golden::kMetricsHeader;
  for (std::size_t bi = 0; bi < grid.size(); ++bi)
    for (PolicyKind k : core::kAllPolicies)
      golden::emit_metrics(os, bi, k, grid[bi].by_policy.at(k));

  std::ifstream in(ITS_GOLDEN_DIR "/metrics.golden");
  ASSERT_TRUE(in.good()) << "missing " << ITS_GOLDEN_DIR "/metrics.golden";
  std::ostringstream expected;
  expected << in.rdbuf();
  EXPECT_EQ(os.str(), expected.str())
      << "a --jobs 8 farmed grid diverged from the serial-recorded golden "
         "file: the farm leaked into simulation results";
}

TEST(FarmDeterminism, Jobs8ReproducesFaultGoldenFile) {
  // The hostile-profile golden: per-sim FaultInjector streams must be
  // untouched by concurrency.  cfg.sim.fault is assigned explicitly, so
  // the CI-wide ITS_FAULT_PROFILE default cannot interfere.
  core::ExperimentConfig cfg = golden::golden_config();
  cfg.sim.fault = *fault::profile_by_name("hostile");
  cfg.sim.fault.seed = 7;
  const core::BatchSpec& batch = core::paper_batches()[1];
  auto traces = core::batch_traces(batch, cfg.gen);

  std::vector<SimMetrics> ms = core::run_sim_tasks(
      std::size(core::kAllPolicies), 8, [&](std::size_t i) {
        return core::run_batch_policy(batch, core::kAllPolicies[i], cfg, traces);
      });

  std::ostringstream os;
  os << golden::kFaultHeader;
  for (std::size_t i = 0; i < std::size(core::kAllPolicies); ++i)
    golden::emit_fault_metrics(os, core::kAllPolicies[i], ms[i]);

  std::ifstream in(ITS_GOLDEN_DIR "/fault_metrics.golden");
  ASSERT_TRUE(in.good()) << "missing " << ITS_GOLDEN_DIR "/fault_metrics.golden";
  std::ostringstream expected;
  expected << in.rdbuf();
  EXPECT_EQ(os.str(), expected.str())
      << "a --jobs 8 farmed hostile run diverged from the fault golden file";
}

TEST(FarmDeterminism, HostileProfileCsvByteIdenticalAtJobs1_2_8) {
  // The hostile profile now schedules device outages, so every sim carries
  // the health monitor and fallback pool — state that must stay strictly
  // per-simulator.  Running the full grid under fault injection at three
  // widths is the sharpest probe for shared mutable state in that path.
  auto hostile_csv = [](unsigned jobs) {
    core::ExperimentConfig cfg = golden::golden_config();
    cfg.sim.fault = *fault::profile_by_name("hostile");
    cfg.sim.fault.seed = 7;
    cfg.jobs = jobs;
    std::vector<core::BatchResult> grid = core::run_grid_all(cfg);
    return core::metrics_csv(grid);
  };
  const std::string serial = hostile_csv(1);
  ASSERT_FALSE(serial.empty());
  ASSERT_NE(serial.find("health_offline_time_ns"), std::string::npos)
      << "metrics CSV is missing the availability columns";
  EXPECT_EQ(hostile_csv(2), serial)
      << "--jobs 2 hostile run diverged from serial reference";
  EXPECT_EQ(hostile_csv(8), serial)
      << "--jobs 8 hostile run diverged from serial reference";
}

}  // namespace
}  // namespace its
