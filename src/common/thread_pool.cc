#include "common/thread_pool.h"

#include "common/stopwatch.h"
#include "obs/obs.h"

namespace soi {

namespace {

// Depth of parallel-region nesting on the current thread. A counter (not
// a bool) so ParallelRegionGuard composes under inline-nested loops.
thread_local int parallel_region_depth = 0;

}  // namespace

namespace internal_pool {

ParallelRegionGuard::ParallelRegionGuard() { ++parallel_region_depth; }
ParallelRegionGuard::~ParallelRegionGuard() { --parallel_region_depth; }

}  // namespace internal_pool

bool ThreadPool::InParallelRegion() { return parallel_region_depth > 0; }

ThreadPool::ThreadPool(int num_threads) {
  int num_workers = num_threads > 1 ? num_threads - 1 : 0;
  workers_.reserve(static_cast<size_t>(num_workers));
  for (int i = 0; i < num_workers; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
  SOI_OBS_GAUGE_ADD("soi.pool.threads", num_workers);
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lock(mutex_);
    stop_ = true;
  }
  wake_.NotifyAll();
  SOI_OBS_GAUGE_ADD("soi.pool.threads",
                    -static_cast<int64_t>(workers_.size()));
  for (std::thread& worker : workers_) worker.join();
}

void ThreadPool::Submit(std::function<void()> task) {
  // Wrap to measure queue wait (submit -> dequeue) and task run time.
  Stopwatch queued;
  task = [task = std::move(task), queued]() {
    SOI_OBS_HISTOGRAM_OBSERVE("soi.pool.queue_wait_seconds",
                              queued.ElapsedSeconds());
    Stopwatch running;
    task();
    SOI_OBS_HISTOGRAM_OBSERVE("soi.pool.task_seconds",
                              running.ElapsedSeconds());
  };
  SOI_OBS_COUNTER_ADD("soi.pool.tasks", 1);
  {
    MutexLock lock(mutex_);
    queue_.push_back(std::move(task));
    SOI_OBS_GAUGE_SET("soi.pool.queue_depth",
                      static_cast<int64_t>(queue_.size()));
  }
  wake_.NotifyOne();
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    std::function<void()> task;
    {
      MutexLock lock(mutex_);
      while (!stop_ && queue_.empty()) wake_.Wait(mutex_);
      if (queue_.empty()) return;  // stop_ set and nothing left to run
      task = std::move(queue_.front());
      queue_.pop_front();
      SOI_OBS_GAUGE_SET("soi.pool.queue_depth",
                        static_cast<int64_t>(queue_.size()));
    }
    task();
  }
}

}  // namespace soi
