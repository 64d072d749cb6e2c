// Work-stealing thread pool for index tasks.
//
// The pool serves the explorer's batch of independent candidate
// resolves and the pool-sharded AnchorAnalysis::compute(g, pool). Both
// are batches of index tasks with wildly varying costs: a candidate
// whose dirty cone covers the design -- or an anchor whose cone covers
// the graph -- takes orders of magnitude longer than one touching a
// leaf. Static partitioning would leave workers idle behind one slow
// shard, so each worker owns a deque seeded round-robin; owners pop
// from the front, and a worker that drains its own deque steals from
// the back of a victim's. Queues are mutex-guarded (the per-task cost
// here dwarfs any lock-free gain, and plain locking keeps the pool
// trivially ThreadSanitizer-clean). All shared state carries
// RELSCHED_GUARDED_BY annotations, so unlocked access is a compile
// error under the clang -Wthread-safety CI leg.
//
// run() is synchronous and the pool is reusable: workers persist
// across run() calls, parked on a condition variable between jobs.
// Jobs never nest: session resolves are sequential, so an explorer
// candidate running on a worker never submits work of its own.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "base/mutex.hpp"
#include "base/thread_annotations.hpp"

namespace relsched::base {

class WorkStealingPool {
 public:
  /// Spawns `threads` workers (>= 1; clamped).
  explicit WorkStealingPool(int threads);
  ~WorkStealingPool();

  WorkStealingPool(const WorkStealingPool&) = delete;
  WorkStealingPool& operator=(const WorkStealingPool&) = delete;

  [[nodiscard]] int thread_count() const {
    return static_cast<int>(workers_.size());
  }

  /// Runs fn(0), ..., fn(count - 1) across the workers and blocks until
  /// every call has returned. fn must not throw. Tasks are distributed
  /// round-robin; any imbalance is evened out by stealing. Calls must
  /// not be nested or concurrent (checked). An empty batch returns
  /// without touching the workers.
  void run(int count, const std::function<void(int)>& fn)
      RELSCHED_EXCLUDES(job_mutex_);

  /// Tasks executed by a worker other than the one they were assigned
  /// to, across all run() calls. Diagnostics only.
  [[nodiscard]] long long steals() const RELSCHED_EXCLUDES(job_mutex_);

  /// Pool width for this process: hardware_concurrency(), overridden /
  /// clamped by RELSCHED_THREADS (strict parse; unparsable or
  /// out-of-range values warn once on stderr and fall back).
  [[nodiscard]] static int default_thread_count();

 private:
  struct Worker {
    base::Mutex mutex;
    std::deque<int> queue RELSCHED_GUARDED_BY(mutex);
  };

  void worker_loop(int id) RELSCHED_EXCLUDES(job_mutex_);
  /// Executes tasks until neither the own queue nor any victim has one.
  void drain(int id, const std::function<void(int)>& fn)
      RELSCHED_EXCLUDES(job_mutex_);
  /// Pops the front of worker `id`'s own queue; -1 when empty.
  int pop_own(int id);
  /// Steals from the back of some other worker's queue; -1 when all are
  /// empty.
  int steal(int thief);

  std::vector<std::unique_ptr<Worker>> workers_;
  std::vector<std::thread> threads_;

  // Job hand-off: run() publishes (fn, generation) under job_mutex_;
  // workers wake on job_cv_, drain, and report back on done_cv_.
  mutable base::Mutex job_mutex_;
  std::condition_variable_any job_cv_;
  std::condition_variable_any done_cv_;
  const std::function<void(int)>* job_fn_ RELSCHED_GUARDED_BY(job_mutex_) =
      nullptr;
  std::uint64_t job_generation_ RELSCHED_GUARDED_BY(job_mutex_) = 0;
  int tasks_remaining_ RELSCHED_GUARDED_BY(job_mutex_) = 0;
  int workers_active_ RELSCHED_GUARDED_BY(job_mutex_) = 0;
  long long steals_ RELSCHED_GUARDED_BY(job_mutex_) = 0;
  bool stopping_ RELSCHED_GUARDED_BY(job_mutex_) = false;
};

/// The process-wide pool, created on first use with
/// default_thread_count() workers. Explorers with threads == 0 run
/// their candidate batches on it.
[[nodiscard]] const std::shared_ptr<WorkStealingPool>& shared_pool();

}  // namespace relsched::base
