#ifndef CROWDRTSE_UTIL_THREAD_POOL_H_
#define CROWDRTSE_UTIL_THREAD_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace crowdrtse::util {

/// Fixed-size worker pool for data-parallel loops: the Gamma_R closure
/// fans its per-source Dijkstra runs out over it, and the sharded router
/// its per-owner sub-queries.
///
/// Any number of threads may call ParallelFor at once, also from inside a
/// body running on the same pool. Each call queues one job; the caller
/// claims its own job's unstarted chunks and then waits only for chunks
/// another thread has already started, so a call completes even when every
/// worker is busy elsewhere. Idle workers park on one condition variable.
class ThreadPool {
 public:
  /// Starts `num_threads - 1` workers (a calling thread is the Nth).
  explicit ThreadPool(int num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// The process-wide pool of hardware-concurrency threads, started on
  /// first use.
  static ThreadPool& Shared();

  int num_threads() const { return num_threads_; }

  /// Runs body(begin, end) over [0, total) split into min(total,
  /// num_threads()) contiguous chunks, in parallel; returns when every
  /// chunk is done.
  void ParallelFor(size_t total,
                   const std::function<void(size_t, size_t)>& body);

 private:
  struct Job;

  void WorkerLoop();
  /// Claims `job`'s next chunk, runs it unlocked and retires it. `lock`
  /// holds mutex_ on entry and on return.
  void RunChunk(Job& job, std::unique_lock<std::mutex>& lock);

  int num_threads_;

  std::mutex mutex_;
  std::condition_variable work_ready_;
  std::deque<Job*> queue_;  // jobs with unclaimed chunks, oldest first
  bool stopping_ = false;

  std::vector<std::thread> workers_;
};

}  // namespace crowdrtse::util

#endif  // CROWDRTSE_UTIL_THREAD_POOL_H_
