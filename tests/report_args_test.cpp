// Tests for the CSV report writer and the CLI argument parser.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <numeric>
#include <sstream>
#include <string>
#include <vector>

#include "core/metrics.h"
#include "core/report.h"
#include "obs/run_totals.h"
#include "util/args.h"

namespace its {
namespace {

core::BatchResult fake_result() {
  core::BatchResult r;
  r.spec = &core::paper_batches()[0];
  core::SimMetrics m;
  m.idle.mem_stall = 100;
  m.idle.busy_wait = 200;
  m.major_faults = 7;
  m.llc_misses = 42;
  m.makespan = 12345;
  core::ProcessOutcome p;
  p.pid = 0;
  p.name = "wrf";
  p.priority = 30;
  p.metrics.finish_time = 999;
  p.metrics.major_faults = 7;
  m.processes.push_back(p);
  r.by_policy.emplace(core::PolicyKind::kSync, m);
  return r;
}

// The 41 columns of its_metrics.csv, in order.
constexpr const char* kMetricsHeader =
    "batch,policy,cpu_busy_ns,idle_total_ns,mem_stall_ns,busy_wait_ns,"
    "ctx_switch_ns,no_runnable_ns,major_faults,minor_faults,llc_misses,"
    "prefetch_issued,prefetch_useful,preexec_episodes,preexec_lines_warmed,"
    "async_switches,evictions,stolen_ns,makespan_ns,top50_finish_ns,"
    "bottom50_finish_ns,io_errors,io_retries,retry_exhausted,"
    "deadline_aborts,mode_fallbacks,degraded_ns,file_reads,file_writes,"
    "file_writebacks,page_cache_hits,page_cache_misses,"
    "health_healthy_time_ns,health_degraded_time_ns,"
    "health_offline_time_ns,health_recovering_time_ns,pool_stores,"
    "pool_hits,pool_drains,drain_bytes,faults_served_degraded";

std::vector<std::string> split_csv(const std::string& line) {
  std::vector<std::string> fields;
  std::istringstream ls(line);
  for (std::string f; std::getline(ls, f, ',');) fields.push_back(f);
  return fields;
}

TEST(ReportCsv, MetricsHeaderAndRow) {
  auto r = fake_result();
  std::string csv = core::metrics_csv({&r, 1});
  std::istringstream is(csv);
  std::string header, row, extra;
  ASSERT_TRUE(std::getline(is, header));
  ASSERT_TRUE(std::getline(is, row));
  EXPECT_FALSE(std::getline(is, extra));  // one policy → one row
  EXPECT_EQ(header, kMetricsHeader);
  EXPECT_EQ(split_csv(header).size(), 41u);
  EXPECT_NE(row.find("No_Data_Intensive,Sync,0,300,100,200"), std::string::npos);
  EXPECT_EQ(split_csv(row).size(), split_csv(header).size());
}

TEST(ReportCsv, MetricsRowPinsEveryCounterToItsColumn) {
  // Counter word i (in obs::RunTotals declaration order) holds i + 1, so
  // a dropped, duplicated or swapped column changes the row.  The size
  // static_assert next to write_metrics_csv keeps the count at 36.
  std::array<std::uint64_t, 36> words{};
  std::iota(words.begin(), words.end(), std::uint64_t{1});
  core::BatchResult r;
  r.spec = &core::paper_batches()[0];
  core::SimMetrics m;
  static_cast<obs::RunTotals&>(m) = std::bit_cast<obs::RunTotals>(words);
  ASSERT_EQ(m.idle.mem_stall, 1u);
  ASSERT_EQ(m.faults_served_degraded, 36u);
  const obs::IdleBreakdown& idle = m.idle;
  EXPECT_EQ(idle.total(), 1u + 2u + 3u + 4u);
  r.by_policy.emplace(core::PolicyKind::kSync, m);

  std::ostringstream os;
  core::write_metrics_csv(os, {&r, 1});
  std::istringstream is(os.str());
  std::string header, row;
  ASSERT_TRUE(std::getline(is, header));
  ASSERT_TRUE(std::getline(is, row));
  // idle_total is 10; the finish-time means are 0 without processes.
  EXPECT_EQ(row,
            "No_Data_Intensive,Sync,6,10,1,2,3,4,7,8,9,15,16,17,18,19,20,21,"
            "5,0,0,22,23,24,25,26,27,10,11,14,12,13,28,29,30,31,32,33,34,35,"
            "36");
  const std::vector<std::string> fields = split_csv(row);
  for (std::uint64_t v = 1; v <= 36; ++v)
    EXPECT_NE(std::find(fields.begin(), fields.end(), std::to_string(v)),
              fields.end())
        << "counter value " << v << " missing from the row";
}

TEST(ReportCsv, ProcessesRows) {
  auto r = fake_result();
  std::ostringstream os;
  core::write_processes_csv(os, {&r, 1});
  std::string out = os.str();
  EXPECT_NE(out.find("No_Data_Intensive,Sync,0,wrf,30,999,7"), std::string::npos);
}

TEST(ReportCsv, SaveCreatesDirectoryAndFiles) {
  auto dir = std::filesystem::temp_directory_path() / "its_report_test" / "nested";
  std::filesystem::remove_all(dir.parent_path());
  auto r = fake_result();
  core::save_csv_files(dir.string(), {&r, 1});
  EXPECT_TRUE(std::filesystem::exists(dir / "its_metrics.csv"));
  EXPECT_TRUE(std::filesystem::exists(dir / "its_processes.csv"));
  std::filesystem::remove_all(dir.parent_path());
}

util::Args make_args(std::initializer_list<const char*> tokens) {
  std::vector<const char*> argv{"prog"};
  argv.insert(argv.end(), tokens.begin(), tokens.end());
  return util::Args(static_cast<int>(argv.size()), argv.data());
}

TEST(Args, EqualsSyntax) {
  auto a = make_args({"--batch=3", "--policy=ITS"});
  EXPECT_EQ(a.get_u64("batch", 0), 3u);
  EXPECT_EQ(a.get_string("policy", ""), "ITS");
}

TEST(Args, SpaceSyntax) {
  auto a = make_args({"--seed", "99"});
  EXPECT_EQ(a.get_u64("seed", 0), 99u);
}

TEST(Args, BareBooleanFlag) {
  auto a = make_args({"--list", "--batch=1"});
  EXPECT_TRUE(a.has("list"));
  EXPECT_FALSE(a.has("missing"));
  EXPECT_EQ(a.get_u64("batch", 0), 1u);
}

TEST(Args, DefaultsWhenAbsent) {
  auto a = make_args({});
  EXPECT_EQ(a.get_u64("x", 42), 42u);
  EXPECT_DOUBLE_EQ(a.get_double("y", 1.5), 1.5);
  EXPECT_EQ(a.get_string("z", "dflt"), "dflt");
}

TEST(Args, PositionalCollected) {
  auto a = make_args({"pos1", "--k=v", "pos2"});
  ASSERT_EQ(a.positional().size(), 2u);
  EXPECT_EQ(a.positional()[0], "pos1");
  EXPECT_EQ(a.positional()[1], "pos2");
}

TEST(Args, MalformedNumberThrows) {
  auto a = make_args({"--n=12x"});
  EXPECT_THROW(a.get_u64("n", 0), std::invalid_argument);
  auto b = make_args({"--f=1.2.3"});
  EXPECT_THROW(b.get_double("f", 0), std::invalid_argument);
}

TEST(Args, EntirelyNonNumericThrowsInvalidArgument) {
  // Regression: std::stoull's own exception must be translated, not leak
  // through as an unhandled std::invalid_argument("stoull") terminate.
  auto a = make_args({"--batch=xx"});
  try {
    a.get_u64("batch", 0);
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("batch"), std::string::npos)
        << "error must name the flag";
  }
  auto b = make_args({"--scale=abc"});
  EXPECT_THROW(b.get_double("scale", 0), std::invalid_argument);
  // Out-of-range numerics are also translated.
  auto c = make_args({"--n=99999999999999999999999999"});
  EXPECT_THROW(c.get_u64("n", 0), std::invalid_argument);
}

TEST(Args, NegativeOrSpacedIntegerIsRejected) {
  // std::stoull would wrap "-1" to 2^64-1 and skip leading whitespace.
  for (const char* v : {"--jobs=-1", "--jobs= 3", "--jobs=+3"}) {
    auto a = make_args({v});
    try {
      a.get_u64("jobs", 0);
      FAIL() << v << ": expected invalid_argument";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("--jobs"), std::string::npos) << v;
    }
    EXPECT_THROW(a.get_unsigned("jobs", 0), std::invalid_argument) << v;
  }
}

TEST(Args, UnsignedGetterRejectsValuesAboveUintMax) {
  auto a = make_args({"--jobs=4294967297"});
  EXPECT_EQ(a.get_u64("jobs", 0), 4294967297u);
  try {
    a.get_unsigned("jobs", 0);
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("--jobs"), std::string::npos);
  }
  EXPECT_EQ(make_args({"--jobs=4294967295"}).get_unsigned("jobs", 0),
            4294967295u);
  EXPECT_EQ(make_args({}).get_unsigned("jobs", 7), 7u);
}

TEST(Args, UnknownFlagDetection) {
  auto a = make_args({"--good=1", "--typo=2"});
  auto unknown = a.unknown({"good"});
  ASSERT_EQ(unknown.size(), 1u);
  EXPECT_EQ(unknown[0], "typo");
}

TEST(Args, DoubleParsing) {
  auto a = make_args({"--scale=0.25"});
  EXPECT_DOUBLE_EQ(a.get_double("scale", 1.0), 0.25);
}

}  // namespace
}  // namespace its
