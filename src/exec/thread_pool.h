// Fixed-size thread pool with a helping fork/join TaskGroup.
//
// The pool is the execution backbone for the morsel-driven operators
// (relational layer); maintenance steps themselves run in order on the
// calling thread.  Design constraints, in order of importance:
//
//  1. Determinism of *results* — the pool never decides what work
//     exists or how it is split, only which thread runs it.  Work
//     decomposition (morselization) is computed by the caller from
//     input sizes alone, so byte-identical output across thread counts
//     is the caller's contract and the pool cannot break it.
//  2. No deadlock under nesting — a task running on a pool worker may
//     itself fork a TaskGroup onto the same pool (e.g. a forked task
//     calling a parallel GroupBy).  TaskGroup::Wait() therefore *helps*:
//     while its own tasks are unfinished the waiter pops and executes
//     queued tasks instead of blocking, so every blocked thread makes
//     global progress.
//  3. Observability — scheduling counters are kept as atomics and
//     exposed via StatsSnapshot(); the warehouse diffs snapshots around
//     each phase and emits them as exec.* metrics.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace sdelta::exec {

// Monotonic scheduling counters.  Snapshots are cheap (relaxed loads);
// callers diff two snapshots to attribute work to a phase.
struct PoolStats {
  uint64_t tasks_scheduled = 0;    // tasks handed to Submit()
  uint64_t tasks_executed = 0;     // tasks run by pool workers
  uint64_t tasks_helped = 0;       // tasks run by a waiter inside Wait()
  uint64_t morsels_scheduled = 0;  // morsels dispatched by ParallelFor
  uint64_t busy_ns = 0;            // wall ns threads spent inside tasks
  // Per-execution-context split of busy_ns: one entry per pool worker
  // (index = worker id), plus the time helping threads spent running
  // tasks inside Wait().  busy_ns == sum(worker_busy_ns) + helper_busy_ns.
  std::vector<uint64_t> worker_busy_ns;
  uint64_t helper_busy_ns = 0;
};

class TaskGroup;

class ThreadPool {
 public:
  // Spawns `num_workers` threads.  `num_workers == 0` is valid: the pool
  // holds no threads and every TaskGroup task runs inline in Wait() —
  // useful for tests exercising the helping path deterministically.
  explicit ThreadPool(size_t num_workers);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  size_t num_workers() const { return workers_.size(); }

  // Number of execution contexts a fork/join over this pool can use:
  // the workers plus the calling (helping) thread.
  size_t parallelism() const { return workers_.size() + 1; }

  PoolStats StatsSnapshot() const;

  // Attribution hook for ParallelFor: records morsels dispatched through
  // this pool. tasks_scheduled/tasks_executed/tasks_helped splits vary
  // with timing, but tasks_scheduled and morsels_scheduled depend only
  // on the work decomposition — they are the exec.* *counters*; the
  // execution split and busy_ns feed gauges only.
  void NoteMorsels(uint64_t n) {
    morsels_scheduled_.fetch_add(n, std::memory_order_relaxed);
  }

  // Resolve a user-facing thread-count option: 0 means "all hardware
  // threads" (never less than 1).
  static size_t ResolveThreads(size_t requested);

 private:
  friend class TaskGroup;

  struct Task {
    std::function<void()> fn;
    TaskGroup* group = nullptr;
  };

  void Submit(std::function<void()> fn, TaskGroup* group);
  // Pop-and-run one queued task; returns false if the queue was empty.
  // `helping` selects which counter the execution is attributed to.
  bool RunOneQueued(bool helping);
  void WorkerLoop(size_t worker_index);
  // `worker_index` attributes busy time; pass kHelperContext for
  // executions on a helping (non-worker) thread.
  static constexpr size_t kHelperContext = static_cast<size_t>(-1);
  void Execute(Task task, bool helping, size_t worker_index);

  std::vector<std::thread> workers_;
  mutable std::mutex mu_;
  std::condition_variable work_cv_;
  std::deque<Task> queue_;
  bool shutdown_ = false;

  std::atomic<uint64_t> tasks_scheduled_{0};
  std::atomic<uint64_t> tasks_executed_{0};
  std::atomic<uint64_t> tasks_helped_{0};
  std::atomic<uint64_t> morsels_scheduled_{0};
  std::atomic<uint64_t> busy_ns_{0};
  // One busy-time slot per worker (allocated before the threads spawn,
  // never resized) plus one for all helping threads combined.
  std::unique_ptr<std::atomic<uint64_t>[]> worker_busy_ns_;
  std::atomic<uint64_t> helper_busy_ns_{0};
};

// Scoped fork/join.  Spawn() enqueues onto the pool; Wait() helps run
// queued tasks until every task spawned through this group has finished,
// then rethrows the first captured exception (subsequent ones are
// dropped; all tasks still run to completion so partial-output state is
// never observed by the caller).
//
// A TaskGroup must be waited before destruction; if Wait() was never
// reached (e.g. the scope unwound on an exception) the destructor joins
// all tasks but swallows their errors — the in-flight exception wins.
// Groups are stack-scoped and must not outlive their pool.
class TaskGroup {
 public:
  explicit TaskGroup(ThreadPool* pool) : pool_(pool) {}
  ~TaskGroup();

  TaskGroup(const TaskGroup&) = delete;
  TaskGroup& operator=(const TaskGroup&) = delete;

  // Fork `fn`.  With a null or zero-worker pool the task is deferred to
  // Wait(); it never runs inline inside Spawn(), so spawn order ==
  // queue order always holds.
  void Spawn(std::function<void()> fn);

  // Join: help the pool until all of this group's tasks completed, then
  // rethrow the first exception thrown by any of them.
  void Wait();

 private:
  friend class ThreadPool;

  void OnTaskDone(std::exception_ptr error);

  ThreadPool* pool_;  // may be null (pure-inline group)
  std::vector<std::function<void()>> inline_tasks_;  // used when pool_ is null
  std::atomic<size_t> pending_{0};
  std::mutex done_mu_;
  std::condition_variable done_cv_;
  std::exception_ptr first_error_;
  bool waited_ = false;
};

}  // namespace sdelta::exec
