// Tests for src/sched: PCB construction and the SCHED_RR scheduler with
// NICE-derived slices.
#include <gtest/gtest.h>

#include <memory>

#include "sched/process.h"
#include "sched/scheduler.h"
#include "trace/instr.h"
#include "trace/trace.h"

namespace its::sched {
namespace {

std::shared_ptr<const trace::Trace> tiny_trace() {
  auto t = std::make_shared<trace::Trace>("tiny");
  t->push_back(trace::Instr::load(0x560000000000ull, 8, 1, 0));
  t->push_back(trace::Instr::compute(4, 2, 1, 0));
  return t;
}

TEST(Process, ConstructionBuildsAddressSpace) {
  Process p(3, "tiny", 40, tiny_trace());
  EXPECT_EQ(p.pid(), 3u);
  EXPECT_EQ(p.priority(), 40);
  EXPECT_EQ(p.mm().footprint_pages(), 1u);
  EXPECT_EQ(p.state(), ProcState::kReady);
  EXPECT_EQ(p.pc(), 0u);
  EXPECT_FALSE(p.at_end());
}

TEST(Process, RejectsEmptyTrace) {
  auto empty = std::make_shared<trace::Trace>("empty");
  EXPECT_THROW(Process(1, "x", 1, empty), std::invalid_argument);
}

TEST(Process, RejectsNullTrace) {
  // The trace is checked before the memory descriptor reads its pages.
  EXPECT_THROW(Process(1, "x", 0, nullptr), std::invalid_argument);
}

TEST(Process, PcAdvancesToEnd) {
  Process p(1, "t", 10, tiny_trace());
  p.advance_pc();
  p.advance_pc();
  EXPECT_TRUE(p.at_end());
}

TEST(Process, SliceConsumption) {
  Process p(1, "t", 10, tiny_trace());
  p.set_slice(100);
  p.consume_slice(40);
  EXPECT_EQ(p.slice_remaining(), 60u);
  p.consume_slice(1000);  // saturates at zero
  EXPECT_EQ(p.slice_remaining(), 0u);
}

class SchedulerTest : public ::testing::Test {
 protected:
  SchedulerTest() : sched_(1000, 9000) {
    for (int i = 0; i < 3; ++i)
      procs_.push_back(std::make_unique<Process>(
          static_cast<its::Pid>(i), "p" + std::to_string(i), 10 * (i + 1),
          tiny_trace()));
  }
  RRScheduler sched_;
  std::vector<std::unique_ptr<Process>> procs_;
};

TEST_F(SchedulerTest, RoundRobinOrder) {
  for (auto& p : procs_) sched_.add(p.get());
  EXPECT_EQ(sched_.pick(), procs_[0].get());
  EXPECT_EQ(sched_.pick(), procs_[1].get());
  sched_.yield(procs_[0].get());
  EXPECT_EQ(sched_.pick(), procs_[2].get());
  EXPECT_EQ(sched_.pick(), procs_[0].get());  // requeued at tail
  EXPECT_EQ(sched_.pick(), nullptr);
}

TEST_F(SchedulerTest, PickGrantsPriorityScaledSlice) {
  for (auto& p : procs_) sched_.add(p.get());
  // Priorities 10, 20, 30 → slices 1000, 5000, 9000 (linear interpolation).
  Process* a = sched_.pick();
  Process* b = sched_.pick();
  Process* c = sched_.pick();
  EXPECT_EQ(a->slice_remaining(), 1000u);
  EXPECT_EQ(b->slice_remaining(), 5000u);
  EXPECT_EQ(c->slice_remaining(), 9000u);
  EXPECT_EQ(a->state(), ProcState::kRunning);
}

TEST_F(SchedulerTest, SinglePriorityGetsMaxSlice) {
  RRScheduler s(5, 800);
  Process p(0, "only", 42, tiny_trace());
  s.add(&p);
  EXPECT_EQ(s.slice_for(p), 800u);
}

TEST_F(SchedulerTest, PeekNextDoesNotDequeue) {
  for (auto& p : procs_) sched_.add(p.get());
  EXPECT_EQ(sched_.peek_next(), procs_[0].get());
  EXPECT_EQ(sched_.ready_count(), 3u);
}

TEST_F(SchedulerTest, PeekEmptyIsNull) { EXPECT_EQ(sched_.peek_next(), nullptr); }

TEST_F(SchedulerTest, BlockAndWake) {
  sched_.add(procs_[0].get());
  sched_.add(procs_[1].get());
  Process* p = sched_.pick();
  sched_.block(p);
  EXPECT_EQ(p->state(), ProcState::kBlocked);
  EXPECT_EQ(sched_.ready_count(), 1u);
  sched_.wake(p);
  EXPECT_EQ(p->state(), ProcState::kReady);
  // Woken process goes to the tail.
  EXPECT_EQ(sched_.pick(), procs_[1].get());
  EXPECT_EQ(sched_.pick(), p);
}

TEST_F(SchedulerTest, WakingNonBlockedThrows) {
  sched_.add(procs_[0].get());
  EXPECT_THROW(sched_.wake(procs_[0].get()), std::logic_error);
}

TEST_F(SchedulerTest, AddNullThrows) {
  EXPECT_THROW(sched_.add(nullptr), std::invalid_argument);
}

TEST_F(SchedulerTest, StatsCount) {
  for (auto& p : procs_) sched_.add(p.get());
  Process* p = sched_.pick();
  sched_.yield(p);
  p = sched_.pick();
  sched_.block(p);
  sched_.wake(p);
  EXPECT_EQ(sched_.stats().picks, 2u);
  EXPECT_EQ(sched_.stats().yields, 1u);
  EXPECT_EQ(sched_.stats().blocks, 1u);
  EXPECT_EQ(sched_.stats().wakes, 1u);
}

class SliceInterpolation : public ::testing::TestWithParam<int> {};

TEST_P(SliceInterpolation, SliceWithinConfiguredRange) {
  RRScheduler s(5'000'000, 800'000'000);  // the paper's 5–800 ms
  std::vector<std::unique_ptr<Process>> procs;
  for (int i = 0; i < 6; ++i)
    procs.push_back(std::make_unique<Process>(static_cast<its::Pid>(i), "p",
                                              10 * (i + 1), tiny_trace()));
  for (auto& p : procs) s.add(p.get());
  const std::size_t idx = static_cast<std::size_t>(GetParam());
  its::Duration slice = s.slice_for(*procs[idx]);
  EXPECT_GE(slice, 5'000'000u);
  EXPECT_LE(slice, 800'000'000u);
  if (idx > 0) {
    EXPECT_GT(slice, s.slice_for(*procs[idx - 1]));
  }
}

INSTANTIATE_TEST_SUITE_P(AllSixPriorities, SliceInterpolation,
                         ::testing::Range(0, 6));

}  // namespace
}  // namespace its::sched
