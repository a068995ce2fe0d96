#include "util/thread_pool.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <mutex>
#include <numeric>
#include <thread>
#include <vector>

namespace crowdrtse::util {
namespace {

TEST(ThreadPoolTest, CoversWholeRangeExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  pool.ParallelFor(1000, [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) hits[i].fetch_add(1);
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolTest, ReusableAcrossManyCalls) {
  ThreadPool pool(3);
  std::atomic<long> total{0};
  for (int call = 0; call < 200; ++call) {
    pool.ParallelFor(100, [&](size_t begin, size_t end) {
      total.fetch_add(static_cast<long>(end - begin));
    });
  }
  EXPECT_EQ(total.load(), 200L * 100L);
}

TEST(ThreadPoolTest, SingleThreadRunsInline) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.num_threads(), 1);
  size_t covered = 0;
  pool.ParallelFor(57, [&](size_t begin, size_t end) {
    EXPECT_EQ(begin, 0u);
    EXPECT_EQ(end, 57u);
    covered = end - begin;
  });
  EXPECT_EQ(covered, 57u);
}

TEST(ThreadPoolTest, ZeroTotalIsNoop) {
  ThreadPool pool(4);
  bool called = false;
  pool.ParallelFor(0, [&](size_t, size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ThreadPoolTest, TotalSmallerThanThreads) {
  ThreadPool pool(8);
  std::vector<std::atomic<int>> hits(3);
  pool.ParallelFor(3, [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) hits[i].fetch_add(1);
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolTest, ChunksAreContiguousAndDisjoint) {
  ThreadPool pool(5);
  std::mutex mutex;
  std::vector<std::pair<size_t, size_t>> chunks;
  pool.ParallelFor(103, [&](size_t begin, size_t end) {
    std::lock_guard<std::mutex> lock(mutex);
    chunks.emplace_back(begin, end);
  });
  std::sort(chunks.begin(), chunks.end());
  size_t expected_begin = 0;
  for (const auto& [begin, end] : chunks) {
    EXPECT_EQ(begin, expected_begin);
    EXPECT_GT(end, begin);
    expected_begin = end;
  }
  EXPECT_EQ(expected_begin, 103u);
}

TEST(ThreadPoolTest, NonPositiveThreadCountClampsToOne) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.num_threads(), 1);
  ThreadPool negative(-3);
  EXPECT_EQ(negative.num_threads(), 1);
}

TEST(ThreadPoolTest, ConcurrentCallersShareOnePool) {
  ThreadPool pool(4);
  std::atomic<long> total{0};
  std::vector<std::thread> callers;
  for (int c = 0; c < 4; ++c) {
    callers.emplace_back([&pool, &total] {
      for (int call = 0; call < 200; ++call) {
        std::vector<int> hits(100, 0);
        pool.ParallelFor(100, [&](size_t begin, size_t end) {
          for (size_t i = begin; i < end; ++i) ++hits[i];
        });
        for (int h : hits) EXPECT_EQ(h, 1);
        total.fetch_add(std::accumulate(hits.begin(), hits.end(), 0L));
      }
    });
  }
  for (std::thread& caller : callers) caller.join();
  EXPECT_EQ(total.load(), 4L * 200L * 100L);
}

TEST(ThreadPoolTest, NestedCallOnSamePool) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(8 * 50);
  pool.ParallelFor(8, [&](size_t begin, size_t end) {
    for (size_t outer = begin; outer < end; ++outer) {
      pool.ParallelFor(50, [&](size_t lo, size_t hi) {
        for (size_t i = lo; i < hi; ++i) hits[outer * 50 + i].fetch_add(1);
      });
    }
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolTest, CallerCompletesWhileEveryWorkerIsBusy) {
  ThreadPool pool(4);
  std::mutex mutex;
  std::condition_variable changed;
  int entered = 0;
  bool release = false;
  // Four blocking chunks occupy the three workers and the first caller.
  std::thread blocker([&] {
    pool.ParallelFor(4, [&](size_t, size_t) {
      std::unique_lock<std::mutex> lock(mutex);
      ++entered;
      changed.notify_all();
      changed.wait(lock, [&] { return release; });
    });
  });
  {
    std::unique_lock<std::mutex> lock(mutex);
    changed.wait(lock, [&] { return entered == 4; });
  }

  const std::thread::id self = std::this_thread::get_id();
  std::vector<std::thread::id> ran_on(4);
  pool.ParallelFor(4, [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) {
      ran_on[i] = std::this_thread::get_id();
    }
  });
  for (const std::thread::id& id : ran_on) EXPECT_EQ(id, self);

  {
    std::lock_guard<std::mutex> lock(mutex);
    release = true;
  }
  changed.notify_all();
  blocker.join();
}

TEST(ThreadPoolTest, SharedPoolIsOneInstance) {
  ThreadPool& shared = ThreadPool::Shared();
  EXPECT_EQ(&shared, &ThreadPool::Shared());
  EXPECT_GE(shared.num_threads(), 1);
  std::atomic<long> covered{0};
  shared.ParallelFor(1000, [&](size_t begin, size_t end) {
    covered.fetch_add(static_cast<long>(end - begin));
  });
  EXPECT_EQ(covered.load(), 1000L);
}

}  // namespace
}  // namespace crowdrtse::util
