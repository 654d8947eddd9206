// Golden-run regression suite.
//
// Runs every paper batch under every policy at a fixed seed and compares
// the integer SimMetrics fields against a checked-in snapshot
// (tests/golden/metrics.golden).  Any change to fault handling, idle
// accounting, prefetching, stealing or scheduling shows up as a concrete
// per-field diff instead of a silently shifted figure.
//
// To regenerate after an intentional behaviour change:
//
//   ITS_UPDATE_GOLDEN=1 ./build/tests/golden_test
//
// then review the golden-file diff like any other code change.
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "core/batch.h"
#include "core/experiment.h"
#include "core/policy.h"
#include "golden_snapshot.h"

namespace its::core {
namespace {

#ifndef ITS_GOLDEN_DIR
#error "ITS_GOLDEN_DIR must point at the checked-in golden directory"
#endif

const char* kGoldenPath = ITS_GOLDEN_DIR "/metrics.golden";

/// The full snapshot: 4 batches × 5 policies at the fixed seed, traces
/// shared across policies exactly as the figure benches share them.
std::string snapshot() {
  ExperimentConfig cfg = golden::golden_config();
  std::ostringstream os;
  os << golden::kMetricsHeader;
  for (std::size_t bi = 0; bi < paper_batches().size(); ++bi) {
    const BatchSpec& batch = paper_batches()[bi];
    auto traces = batch_traces(batch, cfg.gen);
    for (PolicyKind k : kAllPolicies) {
      SimMetrics m = run_batch_policy(batch, k, cfg, traces);
      golden::emit_metrics(os, bi, k, m);
    }
  }
  return os.str();
}

TEST(GoldenRun, MetricsMatchCheckedInSnapshot) {
  // The snapshot is defined for the fault-free simulator; the CI job that
  // forces a fault profile over the whole suite legitimately diverges.
  if (const char* fp = std::getenv("ITS_FAULT_PROFILE");
      fp != nullptr && std::string(fp) != "none")
    GTEST_SKIP() << "golden snapshot is fault-free; ITS_FAULT_PROFILE=" << fp;

  std::string actual = snapshot();

  if (const char* update = std::getenv("ITS_UPDATE_GOLDEN");
      update != nullptr && std::string(update) == "1") {
    std::ofstream out(kGoldenPath, std::ios::trunc);
    ASSERT_TRUE(out.good()) << "cannot write " << kGoldenPath;
    out << actual;
    GTEST_SKIP() << "regenerated " << kGoldenPath;
  }

  std::ifstream in(kGoldenPath);
  ASSERT_TRUE(in.good())
      << "missing golden file " << kGoldenPath
      << " — run ITS_UPDATE_GOLDEN=1 ./golden_test to create it";
  std::ostringstream expected;
  expected << in.rdbuf();

  if (actual == expected.str()) return;

  // Report the first few differing lines so the failure names the metric
  // that moved, not just "files differ".
  std::istringstream as(actual), es(expected.str());
  std::string aline, eline;
  int lineno = 0, reported = 0;
  std::ostringstream diff;
  while (reported < 8) {
    bool amore = static_cast<bool>(std::getline(as, aline));
    bool emore = static_cast<bool>(std::getline(es, eline));
    if (!amore && !emore) break;
    ++lineno;
    if (!amore) aline = "<eof>";
    if (!emore) eline = "<eof>";
    if (aline != eline) {
      diff << "  line " << lineno << ":\n    golden: " << eline
           << "\n    actual: " << aline << '\n';
      ++reported;
    }
  }
  FAIL() << "metrics diverged from " << kGoldenPath << ":\n"
         << diff.str()
         << "if the change is intentional, regenerate with "
            "ITS_UPDATE_GOLDEN=1 ./golden_test and commit the diff";
}

}  // namespace
}  // namespace its::core
