#include "common/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <thread>
#include <vector>

#include "common/error.h"

namespace mib {
namespace {

TEST(ThreadPool, ZeroMeansHardwareConcurrency) {
  ThreadPool pool(0);
  EXPECT_GE(pool.thread_count(), 1u);
}

TEST(ThreadPool, SubmitRunsTasks) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  for (int i = 0; i < 100; ++i) {
    pool.submit([&] { counter.fetch_add(1); });
  }
  pool.wait_idle();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPool, ParallelForCoversRange) {
  ThreadPool pool(4);
  std::vector<int> hits(1000, 0);
  pool.parallel_for(0, hits.size(), [&](std::size_t i) { hits[i] += 1; });
  EXPECT_EQ(std::accumulate(hits.begin(), hits.end(), 0), 1000);
}

TEST(ThreadPool, ParallelForEmptyRangeIsNoop) {
  ThreadPool pool(2);
  pool.parallel_for(5, 5, [](std::size_t) { FAIL(); });
  pool.parallel_for(7, 3, [](std::size_t) { FAIL(); });
}

TEST(ThreadPool, ParallelForSingleThreadFallback) {
  ThreadPool pool(1);
  std::vector<int> hits(64, 0);
  pool.parallel_for(0, 64, [&](std::size_t i) { hits[i] = 1; });
  EXPECT_EQ(std::accumulate(hits.begin(), hits.end(), 0), 64);
}

TEST(ThreadPool, ParallelForPropagatesException) {
  ThreadPool pool(4);
  EXPECT_THROW(
      pool.parallel_for(0, 100,
                        [](std::size_t i) {
                          if (i == 42) throw Error("boom");
                        }),
      Error);
  // The pool must stay usable afterwards.
  std::atomic<int> counter{0};
  pool.parallel_for(0, 10, [&](std::size_t) { counter.fetch_add(1); });
  EXPECT_EQ(counter.load(), 10);
}

TEST(ThreadPool, NullTaskRejected) {
  ThreadPool pool(1);
  EXPECT_THROW(pool.submit(nullptr), Error);
}

TEST(ThreadPool, SharedPoolSingleton) {
  EXPECT_EQ(&ThreadPool::shared(), &ThreadPool::shared());
}

TEST(ThreadPool, ParallelForLargeGrain) {
  ThreadPool pool(8);
  std::atomic<long long> sum{0};
  pool.parallel_for(1, 10001, [&](std::size_t i) {
    sum.fetch_add(static_cast<long long>(i));
  });
  EXPECT_EQ(sum.load(), 10000LL * 10001 / 2);
}

// Overwrite the stack region a just-returned parallel_for frame occupied,
// so a worker that still touches that frame's mutex or condition variable
// finds garbage rather than a fresh zeroed object.
[[gnu::noinline]] void scribble_stack() {
  volatile unsigned char buf[2048];
  for (std::size_t i = 0; i < sizeof buf; ++i) {
    buf[i] = static_cast<unsigned char>(0xA5 ^ i);
  }
}

TEST(ThreadPool, ParallelForFrameOutlivesWorkers) {
  // parallel_for's completion state lives on the caller's stack. Many
  // concurrent callers returning as fast as possible expose any worker
  // that signals completion after the caller may already have returned.
  // Twice as many workers as a 4-core host has cores keep workers being
  // descheduled mid-task, which is what opens the window. Each call ends
  // with one last-block completion, the racy moment; two blocks per call
  // keep calls cheap, so the test makes many of them in little time.
  ThreadPool pool(8);
  constexpr int kCallers = 8;
  constexpr int kCalls = 20000;
  constexpr int kBlocks = 2;
  std::atomic<long long> hits{0};
  std::vector<std::thread> callers;
  callers.reserve(kCallers);
  for (int c = 0; c < kCallers; ++c) {
    callers.emplace_back([&] {
      for (int k = 0; k < kCalls; ++k) {
        pool.parallel_for(0, kBlocks, [&](std::size_t) {
          hits.fetch_add(1, std::memory_order_relaxed);
        });
        scribble_stack();
      }
    });
  }
  for (auto& t : callers) t.join();
  EXPECT_EQ(hits.load(), 1LL * kBlocks * kCallers * kCalls);
}

}  // namespace
}  // namespace mib
