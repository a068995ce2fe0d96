#include "util/thread_pool.h"

#include <algorithm>
#include <utility>

namespace crowdrtse::util {

namespace {

/// Contiguous chunk [begin, end) of `index` out of `parts`.
std::pair<size_t, size_t> Chunk(size_t total, int parts, int index) {
  const size_t base = total / static_cast<size_t>(parts);
  const size_t extra = total % static_cast<size_t>(parts);
  const size_t begin = static_cast<size_t>(index) * base +
                       std::min<size_t>(static_cast<size_t>(index), extra);
  const size_t size = base + (static_cast<size_t>(index) < extra ? 1 : 0);
  return {begin, begin + size};
}

}  // namespace

/// One ParallelFor call. Lives on its caller's stack; every field but
/// `body`, `total` and `parts` is guarded by the pool mutex.
struct ThreadPool::Job {
  const std::function<void(size_t, size_t)>* body = nullptr;
  size_t total = 0;
  int parts = 0;
  int next = 0;         // first unclaimed chunk
  int unfinished = 0;   // chunks not yet retired
  std::condition_variable done;
};

ThreadPool::ThreadPool(int num_threads)
    : num_threads_(std::max(1, num_threads)) {
  workers_.reserve(static_cast<size_t>(num_threads_ - 1));
  for (int i = 1; i < num_threads_; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  work_ready_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

ThreadPool& ThreadPool::Shared() {
  static ThreadPool pool(static_cast<int>(std::thread::hardware_concurrency()));
  return pool;
}

void ThreadPool::ParallelFor(
    size_t total, const std::function<void(size_t, size_t)>& body) {
  if (total == 0) return;
  const int parts =
      static_cast<int>(std::min(total, static_cast<size_t>(num_threads_)));
  if (parts == 1) {
    body(0, total);
    return;
  }
  Job job;
  job.body = &body;
  job.total = total;
  job.parts = parts;
  job.unfinished = parts;
  std::unique_lock<std::mutex> lock(mutex_);
  queue_.push_back(&job);
  for (int i = 1; i < parts; ++i) work_ready_.notify_one();
  // Run this job's unstarted chunks here, then wait out the ones workers
  // have started.
  while (job.next < parts) RunChunk(job, lock);
  job.done.wait(lock, [&job] { return job.unfinished == 0; });
}

void ThreadPool::RunChunk(Job& job, std::unique_lock<std::mutex>& lock) {
  const int index = job.next++;
  if (job.next == job.parts) {
    queue_.erase(std::find(queue_.begin(), queue_.end(), &job));
  }
  lock.unlock();
  const auto [begin, end] = Chunk(job.total, job.parts, index);
  (*job.body)(begin, end);
  lock.lock();
  // Notified under the lock: the caller returns, destroying `job`, as soon
  // as it observes the count.
  if (--job.unfinished == 0) job.done.notify_all();
}

void ThreadPool::WorkerLoop() {
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    work_ready_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
    if (queue_.empty()) return;  // stopping, and no call is waiting
    RunChunk(*queue_.front(), lock);
  }
}

}  // namespace crowdrtse::util
