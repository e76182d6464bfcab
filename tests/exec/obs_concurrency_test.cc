// Thread-safety of the observability sinks under the execution engine:
// many pool tasks writing one MetricsRegistry / one Tracer at once.
// (Correct totals under contention; TSAN builds additionally check the
// locking itself.)
#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <vector>

#include "exec/parallel_for.h"
#include "exec/thread_pool.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace sdelta {
namespace {

TEST(ObsConcurrencyTest, ConcurrentCounterAddsSumExactly) {
  obs::MetricsRegistry metrics;
  exec::ThreadPool pool(4);
  exec::TaskGroup group(&pool);
  constexpr int kTasks = 64;
  constexpr int kAddsPerTask = 1000;
  for (int t = 0; t < kTasks; ++t) {
    group.Spawn([&metrics] {
      for (int i = 0; i < kAddsPerTask; ++i) {
        metrics.Add("test.hits");
        metrics.Observe("test.value", 1.0);
      }
    });
  }
  group.Wait();
  EXPECT_EQ(metrics.counter("test.hits"),
            static_cast<uint64_t>(kTasks) * kAddsPerTask);
  const obs::Histogram h = metrics.histogram("test.value");
  EXPECT_EQ(h.count, static_cast<uint64_t>(kTasks) * kAddsPerTask);
  EXPECT_DOUBLE_EQ(h.sum, static_cast<double>(kTasks) * kAddsPerTask);
}

TEST(ObsConcurrencyTest, MergeFromAfterQuiesce) {
  obs::MetricsRegistry total;
  obs::MetricsRegistry scratch;
  scratch.Add("a", 3);
  scratch.Set("g", 2.5);
  total.Add("a", 1);
  total.MergeFrom(scratch);
  EXPECT_EQ(total.counter("a"), 4u);
  EXPECT_DOUBLE_EQ(total.gauge("g"), 2.5);
}

TEST(ObsConcurrencyTest, SpansFromManyThreadsNestPerThread) {
  obs::Tracer tracer;
  exec::ThreadPool pool(4);
  exec::TaskGroup group(&pool);
  constexpr int kTasks = 32;
  for (int t = 0; t < kTasks; ++t) {
    group.Spawn([&tracer, t] {
      obs::TraceSpan outer(&tracer, "task." + std::to_string(t));
      // Inner RAII span must parent on *this thread's* open span.
      obs::TraceSpan inner(&tracer, "inner");
      EXPECT_EQ(tracer.CurrentSpan(), inner.id());
    });
  }
  group.Wait();
  const auto& spans = tracer.spans();
  ASSERT_EQ(spans.size(), 2u * kTasks);
  // Every inner span's parent is a task.* span, and ids are unique.
  std::vector<bool> seen(spans.size() + 1, false);
  for (const auto& s : spans) {
    ASSERT_GE(s.id, 1u);
    ASSERT_LE(s.id, spans.size());
    EXPECT_FALSE(seen[s.id]);
    seen[s.id] = true;
    EXPECT_NE(s.end_ns, 0u);  // all closed
    if (s.name == "inner") {
      ASSERT_NE(s.parent_id, 0u);
      const auto& parent = spans[s.parent_id - 1];
      EXPECT_EQ(parent.name.rfind("task.", 0), 0u);
    } else {
      EXPECT_EQ(s.parent_id, 0u);  // task spans are roots on workers
    }
  }
}

TEST(ObsConcurrencyTest, ExplicitParentCrossesThreads) {
  // A phase span opened on the calling thread, step spans opened on pool
  // workers with the phase as explicit parent.
  obs::Tracer tracer;
  exec::ThreadPool pool(2);
  uint64_t phase_id = 0;
  {
    obs::TraceSpan phase(&tracer, "phase");
    phase_id = phase.id();
    exec::TaskGroup group(&pool);
    for (int i = 0; i < 8; ++i) {
      group.Spawn([&tracer, phase_id] {
        obs::TraceSpan step(&tracer, "step", phase_id);
      });
    }
    group.Wait();
  }
  int steps = 0;
  for (const auto& s : tracer.spans()) {
    if (s.name == "step") {
      ++steps;
      EXPECT_EQ(s.parent_id, phase_id);
    }
  }
  EXPECT_EQ(steps, 8);
}

TEST(ObsConcurrencyTest, CurrentSpanIsPerThread) {
  obs::Tracer tracer;
  obs::TraceSpan outer(&tracer, "caller-scope");
  exec::ThreadPool pool(2);
  exec::TaskGroup group(&pool);
  std::atomic<int> nonzero{0};
  for (int i = 0; i < 16; ++i) {
    group.Spawn([&tracer, &nonzero] {
      // A worker with no open spans must not see the caller's stack.
      if (tracer.CurrentSpan() != 0) nonzero.fetch_add(1);
    });
  }
  group.Wait();
  // The calling thread helps run tasks in Wait(), and *its* stack does
  // hold the outer span — so helped tasks legitimately observe it.
  // Worker-executed tasks must observe 0.
  const exec::PoolStats stats = pool.StatsSnapshot();
  EXPECT_LE(static_cast<uint64_t>(nonzero.load()), stats.tasks_helped);
  EXPECT_EQ(tracer.CurrentSpan(), outer.id());
}

}  // namespace
}  // namespace sdelta
