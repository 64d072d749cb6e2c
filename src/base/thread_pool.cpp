#include "base/thread_pool.hpp"

#include <algorithm>
#include <cstdlib>

#include "base/env.hpp"
#include "base/error.hpp"
#include "base/strings.hpp"

namespace relsched::base {

WorkStealingPool::WorkStealingPool(int threads) {
  const int n = std::max(1, threads);
  workers_.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) workers_.push_back(std::make_unique<Worker>());
  threads_.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    threads_.emplace_back([this, i] { worker_loop(i); });
  }
}

WorkStealingPool::~WorkStealingPool() {
  {
    const base::MutexLock lk(job_mutex_);
    stopping_ = true;
  }
  job_cv_.notify_all();
  for (std::thread& t : threads_) t.join();
}

int WorkStealingPool::pop_own(int id) {
  Worker& w = *workers_[static_cast<std::size_t>(id)];
  const base::MutexLock lk(w.mutex);
  if (w.queue.empty()) return -1;
  const int task = w.queue.front();
  w.queue.pop_front();
  return task;
}

int WorkStealingPool::steal(int thief) {
  const int n = thread_count();
  for (int k = 1; k < n; ++k) {
    Worker& victim = *workers_[static_cast<std::size_t>((thief + k) % n)];
    const base::MutexLock lk(victim.mutex);
    if (victim.queue.empty()) continue;
    const int task = victim.queue.back();
    victim.queue.pop_back();
    return task;
  }
  return -1;
}

void WorkStealingPool::drain(int id, const std::function<void(int)>& fn) {
  for (;;) {
    int task = pop_own(id);
    bool stolen = false;
    if (task < 0) {
      task = steal(id);
      stolen = task >= 0;
    }
    if (task < 0) return;
    fn(task);
    {
      const base::MutexLock lk(job_mutex_);
      if (stolen) ++steals_;
      if (--tasks_remaining_ == 0) done_cv_.notify_all();
    }
  }
}

void WorkStealingPool::worker_loop(int id) {
  base::UniqueMutexLock lk(job_mutex_);
  std::uint64_t seen = 0;
  for (;;) {
    // Wait for a live job, not just a new generation: a worker
    // descheduled long enough to miss a generation entirely must not
    // wake into the gap after run() retired it (job_fn_ == nullptr) --
    // it sleeps through and joins the next published job instead.
    // (Spelled as an explicit loop rather than a wait-with-predicate so
    // the thread-safety analysis sees the guarded reads under the lock.)
    while (!stopping_ && !(job_generation_ != seen && job_fn_ != nullptr)) {
      job_cv_.wait(lk);
    }
    if (stopping_) return;
    seen = job_generation_;
    const std::function<void(int)>* fn = job_fn_;
    ++workers_active_;
    lk.unlock();
    drain(id, *fn);
    lk.lock();
    if (--workers_active_ == 0) done_cv_.notify_all();
  }
}

void WorkStealingPool::run(int count, const std::function<void(int)>& fn) {
  if (count <= 0) return;
  base::UniqueMutexLock lk(job_mutex_);
  RELSCHED_CHECK(job_fn_ == nullptr, "run() calls must not overlap");
  // Seed while holding job_mutex_: every parked worker's wait predicate
  // requires a live job_fn_, so no worker -- including one that slept
  // through an entire previous generation -- can touch the queues
  // before this job is published below.
  for (int i = 0; i < count; ++i) {
    Worker& w = *workers_[static_cast<std::size_t>(i) % workers_.size()];
    const base::MutexLock qlk(w.mutex);
    w.queue.push_back(i);
  }
  job_fn_ = &fn;
  tasks_remaining_ = count;
  ++job_generation_;
  job_cv_.notify_all();
  while (!(tasks_remaining_ == 0 && workers_active_ == 0)) {
    done_cv_.wait(lk);
  }
  job_fn_ = nullptr;
}

long long WorkStealingPool::steals() const {
  const base::MutexLock lk(job_mutex_);
  return steals_;
}

int WorkStealingPool::default_thread_count() {
  const unsigned hw = std::thread::hardware_concurrency();
  const int hardware = hw == 0 ? 1 : static_cast<int>(hw);
  constexpr long long kMaxThreads = 512;
  const long long requested = env_int("RELSCHED_THREADS", hardware);
  if (requested >= 1 && requested <= kMaxThreads) {
    return static_cast<int>(requested);
  }
  // Parsed fine but out of range (env_int already warned otherwise).
  const char* raw = std::getenv("RELSCHED_THREADS");
  detail::warn_bad_value("RELSCHED_THREADS", raw == nullptr ? "" : raw,
                         "an integer in [1, 512]", cat(hardware).c_str());
  return hardware;
}

const std::shared_ptr<WorkStealingPool>& shared_pool() {
  static const std::shared_ptr<WorkStealingPool> pool =
      std::make_shared<WorkStealingPool>(
          WorkStealingPool::default_thread_count());
  return pool;
}

}  // namespace relsched::base
