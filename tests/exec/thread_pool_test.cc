#include "exec/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "exec/parallel_for.h"

namespace sdelta::exec {
namespace {

TEST(ThreadPoolTest, ResolveThreads) {
  EXPECT_EQ(ThreadPool::ResolveThreads(5), 5u);
  EXPECT_EQ(ThreadPool::ResolveThreads(1), 1u);
  EXPECT_GE(ThreadPool::ResolveThreads(0), 1u);  // hardware_concurrency
}

TEST(ThreadPoolTest, ParallelismCountsTheCaller) {
  ThreadPool pool(3);
  EXPECT_EQ(pool.num_workers(), 3u);
  EXPECT_EQ(pool.parallelism(), 4u);
}

TEST(MorselPlanTest, EmptyInput) {
  EXPECT_TRUE(MorselPlan::For(0).morsels.empty());
}

TEST(MorselPlanTest, SingleMorselBelowMinRows) {
  MorselPlan plan = MorselPlan::For(100, 4096);
  ASSERT_EQ(plan.morsels.size(), 1u);
  EXPECT_EQ(plan.morsels[0].begin, 0u);
  EXPECT_EQ(plan.morsels[0].end, 100u);
}

TEST(MorselPlanTest, ContiguousCoverageWithRemainder) {
  MorselPlan plan = MorselPlan::For(10, 4);
  ASSERT_EQ(plan.morsels.size(), 3u);  // ceil(10/4)
  size_t expected_begin = 0;
  size_t total = 0;
  for (const Morsel& m : plan.morsels) {
    EXPECT_EQ(m.begin, expected_begin);
    EXPECT_GT(m.end, m.begin);
    expected_begin = m.end;
    total += m.end - m.begin;
  }
  EXPECT_EQ(total, 10u);
  EXPECT_EQ(plan.morsels.back().end, 10u);
}

TEST(MorselPlanTest, CapsMorselCount) {
  MorselPlan plan = MorselPlan::For(1000000, 1);
  EXPECT_EQ(plan.morsels.size(), kMaxMorselsPerLoop);
  EXPECT_EQ(plan.morsels.back().end, 1000000u);
}

TEST(MorselPlanTest, PureFunctionOfInputSize) {
  // The determinism contract: the plan must not depend on anything but
  // (n, min_rows) — recomputing it yields identical ranges.
  MorselPlan a = MorselPlan::For(123457, 4096);
  MorselPlan b = MorselPlan::For(123457, 4096);
  ASSERT_EQ(a.morsels.size(), b.morsels.size());
  for (size_t i = 0; i < a.morsels.size(); ++i) {
    EXPECT_EQ(a.morsels[i].begin, b.morsels[i].begin);
    EXPECT_EQ(a.morsels[i].end, b.morsels[i].end);
  }
}

TEST(ParallelForTest, SerialWithoutPoolVisitsInOrder) {
  std::vector<size_t> seen;
  const size_t morsels =
      ParallelFor(nullptr, 10000, 1000, [&](size_t b, size_t e, size_t m) {
        EXPECT_EQ(m, seen.size() / 1000);  // morsels visited in order
        for (size_t i = b; i < e; ++i) seen.push_back(i);
      });
  EXPECT_EQ(morsels, 10u);
  ASSERT_EQ(seen.size(), 10000u);
  for (size_t i = 0; i < seen.size(); ++i) EXPECT_EQ(seen[i], i);
}

TEST(ParallelForTest, PoolCoversEveryIndexExactlyOnce) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(20000);
  ParallelFor(&pool, hits.size(), 1000, [&](size_t b, size_t e, size_t) {
    for (size_t i = b; i < e; ++i) hits[i].fetch_add(1);
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelForTest, MorselCountIndependentOfWorkerCount) {
  ThreadPool small(1);
  ThreadPool large(7);
  std::atomic<uint64_t> sink{0};
  const auto fn = [&](size_t b, size_t e, size_t) { sink += e - b; };
  const size_t m1 = ParallelFor(&small, 50000, 4096, fn);
  const size_t m2 = ParallelFor(&large, 50000, 4096, fn);
  const size_t m0 = ParallelFor(nullptr, 50000, 4096, fn);
  EXPECT_EQ(m1, m2);
  EXPECT_EQ(m1, m0);
}

TEST(TaskGroupTest, RunsAllTasks) {
  ThreadPool pool(2);
  std::atomic<int> done{0};
  TaskGroup group(&pool);
  for (int i = 0; i < 100; ++i) {
    group.Spawn([&done] { done.fetch_add(1); });
  }
  group.Wait();
  EXPECT_EQ(done.load(), 100);
}

TEST(TaskGroupTest, ZeroWorkerPoolRunsEverythingInWait) {
  ThreadPool pool(0);
  std::atomic<int> done{0};
  TaskGroup group(&pool);
  for (int i = 0; i < 10; ++i) group.Spawn([&done] { done.fetch_add(1); });
  EXPECT_EQ(pool.num_workers(), 0u);
  group.Wait();
  EXPECT_EQ(done.load(), 10);
  // With no workers every execution is a "help" from the waiter.
  EXPECT_EQ(pool.StatsSnapshot().tasks_helped, 10u);
}

TEST(TaskGroupTest, NullPoolDefersToWaitInSpawnOrder) {
  TaskGroup group(nullptr);
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) group.Spawn([&order, i] { order.push_back(i); });
  EXPECT_TRUE(order.empty());  // deferred, never inline in Spawn
  group.Wait();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(TaskGroupTest, PropagatesFirstException) {
  ThreadPool pool(2);
  TaskGroup group(&pool);
  std::atomic<int> completed{0};
  group.Spawn([] { throw std::runtime_error("task failed"); });
  for (int i = 0; i < 20; ++i) {
    group.Spawn([&completed] { completed.fetch_add(1); });
  }
  EXPECT_THROW(group.Wait(), std::runtime_error);
  // Every non-throwing task still ran to completion before the rethrow.
  EXPECT_EQ(completed.load(), 20);
}

TEST(TaskGroupTest, NestedForkJoinDoesNotDeadlock) {
  // A task on the pool forks its own ParallelFor onto the same pool —
  // a task calling a parallel GroupBy. Help-while-waiting
  // must drain the inner tasks even though every worker may be blocked
  // in an outer Wait.
  ThreadPool pool(2);
  std::atomic<uint64_t> total{0};
  TaskGroup outer(&pool);
  for (int t = 0; t < 8; ++t) {
    outer.Spawn([&pool, &total] {
      ParallelFor(&pool, 10000, 500, [&total](size_t b, size_t e, size_t) {
        uint64_t local = 0;
        for (size_t i = b; i < e; ++i) local += i;
        total.fetch_add(local);
      });
    });
  }
  outer.Wait();
  const uint64_t per_task = 10000ull * 9999ull / 2;
  EXPECT_EQ(total.load(), 8 * per_task);
}

TEST(ThreadPoolTest, StatsCountScheduledAndExecuted) {
  ThreadPool pool(2);
  const PoolStats before = pool.StatsSnapshot();
  TaskGroup group(&pool);
  for (int i = 0; i < 50; ++i) group.Spawn([] {});
  group.Wait();
  const PoolStats after = pool.StatsSnapshot();
  EXPECT_EQ(after.tasks_scheduled - before.tasks_scheduled, 50u);
  EXPECT_EQ((after.tasks_executed + after.tasks_helped) -
                (before.tasks_executed + before.tasks_helped),
            50u);
}

TEST(ThreadPoolTest, ParallelForRecordsMorsels) {
  ThreadPool pool(2);
  const PoolStats before = pool.StatsSnapshot();
  const size_t morsels = ParallelFor(&pool, 10000, 1000,
                                     [](size_t, size_t, size_t) {});
  const PoolStats after = pool.StatsSnapshot();
  EXPECT_EQ(morsels, 10u);
  EXPECT_EQ(after.morsels_scheduled - before.morsels_scheduled, 10u);
}

}  // namespace
}  // namespace sdelta::exec
