#ifndef CROWDRTSE_UTIL_THREAD_POOL_H_
#define CROWDRTSE_UTIL_THREAD_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

namespace crowdrtse::util {

/// Fixed-size worker pool for data-parallel loops: the Gamma_R closure
/// fans its per-source Dijkstra runs out over it, and the CCD trainer its
/// per-slot work. Dispatch is lock-free (a job counter the hot workers spin
/// on) and workers only park on a condition variable after an idle spell.
///
/// Not a general task scheduler: one ParallelFor runs at a time, invoked
/// from a single caller thread, which also participates in the work.
class ThreadPool {
 public:
  /// Starts `num_threads - 1` workers (the calling thread is the Nth).
  explicit ThreadPool(int num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int num_threads() const { return num_threads_; }

  /// Runs body(begin, end) over [0, total) split into contiguous chunks,
  /// one per thread, in parallel; returns when every chunk is done. The
  /// body must not call ParallelFor on the same pool reentrantly.
  void ParallelFor(size_t total,
                   const std::function<void(size_t, size_t)>& body);

 private:
  void WorkerLoop(int worker_index);

  int num_threads_;
  std::vector<std::thread> workers_;

  // Job slot: written by ParallelFor before the job_id_ release-increment,
  // read by workers after its acquire-load.
  const std::function<void(size_t, size_t)>* body_ = nullptr;
  size_t total_ = 0;
  std::atomic<uint64_t> job_id_{0};
  std::atomic<int> remaining_{0};
  std::atomic<bool> shutting_down_{false};

  // Cold-path parking.
  std::atomic<int> parked_{0};
  std::mutex mutex_;
  std::condition_variable work_ready_;
};

}  // namespace crowdrtse::util

#endif  // CROWDRTSE_UTIL_THREAD_POOL_H_
