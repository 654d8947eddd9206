// farm — the run farm: independent tasks over a few threads.
//
// A task here is a whole simulation run (0.4–0.6 s on the sweep workload),
// so the farm is one shared next-index counter, not a work-stealing pool.
// Determinism contract: tasks are named by their submission index and
// results are collected by that index, so a farm run is byte-identical at
// any width — the golden files do not know the farm exists.  The
// determinism matrix (tests/farm_test.cpp, ctest -L farm) and the TSAN CI
// job enforce this; docs/performance.md describes the design.
#pragma once

#include <cstddef>
#include <functional>
#include <vector>

namespace its::farm {

/// ITS_JOBS when it is a complete positive decimal that fits `unsigned`,
/// else std::thread::hardware_concurrency (never 0).
unsigned default_jobs();

/// Runs task(0), …, task(n-1) on min(jobs, n) workers (`jobs` 0 means
/// default_jobs()) and returns once every task has finished.  The calling
/// thread is one of the workers, so `jobs` 1 spawns no thread and runs
/// the tasks in submission order.  Tasks must be independent.  Every task
/// runs even when some throw; afterwards the failure of the lowest index
/// is rethrown, at every width.
void run_indexed(unsigned jobs, std::size_t n,
                 const std::function<void(std::size_t)>& task);

/// run_indexed that collects each task's result at its submission index.
template <typename R>
std::vector<R> run_collect(unsigned jobs, std::size_t n,
                           const std::function<R(std::size_t)>& task) {
  std::vector<R> out(n);
  run_indexed(jobs, n, [&](std::size_t i) { out[i] = task(i); });
  return out;
}

}  // namespace its::farm
