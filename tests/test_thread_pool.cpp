// Unit tests for the lane pool (em/thread_pool.hpp) and the budget's
// try_reserve: every task runs exactly once, exceptions surface
// deterministically (smallest task index, like a serial left-to-right loop),
// and try_reserve declines instead of throwing when M is full.
#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <stdexcept>
#include <string>
#include <vector>

#include "em/memory_budget.hpp"
#include "em/thread_pool.hpp"

namespace emsplit {
namespace {

TEST(ThreadPoolTest, RunsEveryTaskExactlyOnce) {
  ThreadPool pool(3);
  EXPECT_EQ(pool.workers(), 3u);
  EXPECT_EQ(pool.lanes(), 4u);
  constexpr std::size_t kTasks = 500;
  std::vector<std::atomic<int>> hits(kTasks);
  pool.run(kTasks, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (std::size_t i = 0; i < kTasks; ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "task " << i;
  }
}

TEST(ThreadPoolTest, ReusableAcrossBatches) {
  ThreadPool pool(2);
  for (int round = 0; round < 50; ++round) {
    std::atomic<std::size_t> sum{0};
    pool.run(8, [&](std::size_t i) { sum.fetch_add(i + 1); });
    EXPECT_EQ(sum.load(), 36u) << "round " << round;
  }
}

TEST(ThreadPoolTest, ZeroWorkersRunsInlineInIndexOrder) {
  // workers = 0 is the degenerate pool: run() is a plain serial loop, so
  // task order is exactly index order.
  ThreadPool pool(0);
  std::vector<std::size_t> order;
  pool.run(16, [&](std::size_t i) { order.push_back(i); });
  ASSERT_EQ(order.size(), 16u);
  for (std::size_t i = 0; i < order.size(); ++i) EXPECT_EQ(order[i], i);
}

TEST(ThreadPoolTest, ZeroTasksIsANoOp) {
  ThreadPool pool(2);
  bool ran = false;
  pool.run(0, [&](std::size_t) { ran = true; });
  EXPECT_FALSE(ran);
}

TEST(ThreadPoolTest, ExceptionWithSmallestTaskIndexWins) {
  // Every task at index >= 5 throws; all tasks still run, and the rethrown
  // exception is deterministically the smallest failing index — what a
  // serial left-to-right loop would have surfaced first.
  ThreadPool pool(3);
  std::atomic<int> executed{0};
  try {
    pool.run(64, [&](std::size_t i) {
      executed.fetch_add(1);
      if (i >= 5) throw std::runtime_error("task " + std::to_string(i));
    });
    FAIL() << "expected a rethrown task exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "task 5");
  }
  EXPECT_EQ(executed.load(), 64);
}

TEST(ThreadPoolTest, PoolSurvivesAFailedBatch) {
  ThreadPool pool(2);
  EXPECT_THROW(
      pool.run(8, [](std::size_t) { throw std::runtime_error("boom"); }),
      std::runtime_error);
  std::atomic<std::size_t> sum{0};
  pool.run(8, [&](std::size_t i) { sum.fetch_add(i); });
  EXPECT_EQ(sum.load(), 28u);
}

TEST(ThreadPoolTest, RunParallelWithoutPoolIsSerial) {
  std::vector<std::size_t> order;
  run_parallel(nullptr, 5, [&](std::size_t i) { order.push_back(i); });
  EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2, 3, 4}));
}

// ---------------------------------------------------------------------------
// MemoryBudget::try_reserve: the service's admission primitive.
// ---------------------------------------------------------------------------

TEST(TryReserveTest, GrantsWithinCapacityAndCountsTowardPeak) {
  MemoryBudget budget(1000);
  auto r = budget.try_reserve(600);
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->bytes(), 600u);
  EXPECT_EQ(budget.used(), 600u);
  EXPECT_EQ(budget.peak(), 600u);
  r->release();
  EXPECT_EQ(budget.used(), 0u);
  EXPECT_EQ(budget.peak(), 600u);
}

TEST(TryReserveTest, DeclinesInsteadOfThrowingWhenFull) {
  MemoryBudget budget(1000);
  auto base = budget.reserve(800);
  EXPECT_FALSE(budget.try_reserve(201).has_value());
  EXPECT_EQ(budget.used(), 800u) << "a declined reserve must not leak";
  auto fits = budget.try_reserve(200);
  EXPECT_TRUE(fits.has_value());
}

}  // namespace
}  // namespace emsplit
