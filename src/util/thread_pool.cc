#include "util/thread_pool.h"

#include <algorithm>

namespace crowdrtse::util {

namespace {

/// Contiguous chunk [begin, end) of worker `index` out of `parts`.
std::pair<size_t, size_t> Chunk(size_t total, int parts, int index) {
  const size_t base = total / static_cast<size_t>(parts);
  const size_t extra = total % static_cast<size_t>(parts);
  const size_t begin = static_cast<size_t>(index) * base +
                       std::min<size_t>(static_cast<size_t>(index), extra);
  const size_t size = base + (static_cast<size_t>(index) < extra ? 1 : 0);
  return {begin, begin + size};
}

// Spin iterations before a worker parks on the condition variable. The
// pool's users (the Gamma_R build and incremental refresh, the CCD trainer
// and the theta tuner) each make a run of ParallelFor calls back to back;
// spinning keeps the workers hot between the calls of one run, while an
// idle pool still ends up parked instead of burning a core. GSP does not
// use the pool: a propagation runs on the serving thread.
constexpr int kSpinLimit = 1 << 14;

}  // namespace

ThreadPool::ThreadPool(int num_threads)
    : num_threads_(std::max(1, num_threads)) {
  workers_.reserve(static_cast<size_t>(num_threads_ - 1));
  for (int i = 1; i < num_threads_; ++i) {
    workers_.emplace_back([this, i] { WorkerLoop(i); });
  }
}

ThreadPool::~ThreadPool() {
  shutting_down_.store(true, std::memory_order_release);
  {
    std::lock_guard<std::mutex> lock(mutex_);
  }
  work_ready_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

void ThreadPool::ParallelFor(
    size_t total, const std::function<void(size_t, size_t)>& body) {
  if (total == 0) return;
  if (num_threads_ == 1 || total == 1) {
    body(0, total);
    return;
  }
  body_ = &body;
  total_ = total;
  remaining_.store(num_threads_ - 1, std::memory_order_relaxed);
  job_id_.fetch_add(1, std::memory_order_release);
  if (parked_.load(std::memory_order_acquire) > 0) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
    }
    work_ready_.notify_all();
  }
  // The caller works on chunk 0, then spins for the stragglers.
  const auto [begin, end] = Chunk(total, num_threads_, 0);
  if (begin < end) body(begin, end);
  int spins = 0;
  while (remaining_.load(std::memory_order_acquire) != 0) {
    if (++spins > kSpinLimit) {
      std::this_thread::yield();
      spins = 0;
    }
  }
  body_ = nullptr;
}

void ThreadPool::WorkerLoop(int worker_index) {
  uint64_t last_job = 0;
  for (;;) {
    // Hot path: spin for the next job.
    uint64_t job = 0;
    int spins = 0;
    for (;;) {
      if (shutting_down_.load(std::memory_order_acquire)) return;
      job = job_id_.load(std::memory_order_acquire);
      if (job != last_job) break;
      if (++spins > kSpinLimit) {
        // Cold path: park until something changes.
        std::unique_lock<std::mutex> lock(mutex_);
        parked_.fetch_add(1, std::memory_order_release);
        work_ready_.wait(lock, [this, last_job] {
          return shutting_down_.load(std::memory_order_acquire) ||
                 job_id_.load(std::memory_order_acquire) != last_job;
        });
        parked_.fetch_sub(1, std::memory_order_release);
        if (shutting_down_.load(std::memory_order_acquire)) return;
        job = job_id_.load(std::memory_order_acquire);
        break;
      }
    }
    last_job = job;
    const auto [begin, end] = Chunk(total_, num_threads_, worker_index);
    if (begin < end) (*body_)(begin, end);
    remaining_.fetch_sub(1, std::memory_order_release);
  }
}

}  // namespace crowdrtse::util
