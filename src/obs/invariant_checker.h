// Timeline well-formedness checker.
//
// Replays a recorded EventTrace against the run's final totals and
// asserts that the §4.2.1 idle-time accounting actually balances event by
// event, not just in aggregate:
//
//   1. events are time-ordered per pid (DMA completions excepted — they are
//      stamped with the future completion time at issue);
//   2. every kFaultBegin has exactly one matching kFaultEnd (same pid and
//      vpn, no two faults open at once for one pid) and no kFaultEnd closes
//      a fault that never began;
//   3. stolen time never exceeds its enclosing wait window: FaultEnd and
//      FileWait events carry (window, stolen) and stolen ≤ window;
//   4. the idle breakdown reconciles with the makespan:
//      cpu_busy + busy_wait + ctx_switch + no_runnable == makespan (within
//      `granularity`), and mem_stall ⊆ cpu_busy;
//   5. per-counter totals derived from events equal the run's counters:
//      faults, prefetch issued/useful, pre-execute episodes, async
//      switches, evictions, Σ ctx-switch cost, Σ wait windows == busy_wait,
//      Σ stolen credits == stolen_time.
//
// A trace that dropped events (buffer cap) is rejected outright — a
// truncated timeline cannot vouch for anything.
#pragma once

#include "obs/event_trace.h"
#include "obs/run_totals.h"
#include "util/types.h"

#include <string>
#include <vector>

namespace its::obs {

struct CheckConfig {
  /// Tolerance (ns) for the makespan reconciliation — "one event
  /// granularity".  The simulator's accounting is exact, so the default is
  /// a single nanosecond of slack.
  its::Duration granularity = 1;
};

struct CheckResult {
  std::vector<std::string> violations;

  bool ok() const { return violations.empty(); }
  /// All violations joined with newlines ("ok" when none).
  std::string summary() const;
};

/// Replays `trace` and cross-checks it against the run's totals (a
/// core::SimMetrics binds here through its RunTotals base).
CheckResult check_invariants(const EventTrace& trace, const RunTotals& totals,
                             const CheckConfig& cfg = {});

}  // namespace its::obs
