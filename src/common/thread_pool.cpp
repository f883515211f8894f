#include "common/thread_pool.h"

#include <exception>

#include "common/error.h"

namespace mib {

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) {
    threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard lock(mu_);
    stop_ = true;
  }
  cv_task_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::submit(std::function<void()> task) {
  MIB_ENSURE(task != nullptr, "null task submitted to thread pool");
  {
    std::lock_guard lock(mu_);
    MIB_ENSURE(!stop_, "submit on stopped thread pool");
    queue_.push_back(std::move(task));
  }
  cv_task_.notify_one();
}

void ThreadPool::wait_idle() {
  std::unique_lock lock(mu_);
  cv_idle_.wait(lock, [this] { return queue_.empty() && in_flight_ == 0; });
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock lock(mu_);
      cv_task_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (stop_ && queue_.empty()) return;
      task = std::move(queue_.front());
      queue_.pop_front();
      ++in_flight_;
    }
    task();  // tasks wrap their own exception handling (see parallel_for)
    {
      std::lock_guard lock(mu_);
      --in_flight_;
    }
    cv_idle_.notify_all();
  }
}

void ThreadPool::parallel_for(std::size_t begin, std::size_t end,
                              const std::function<void(std::size_t)>& fn) {
  if (begin >= end) return;
  const std::size_t n = end - begin;
  const std::size_t nthreads = thread_count();
  if (n == 1 || nthreads == 1) {
    for (std::size_t i = begin; i < end; ++i) fn(i);
    return;
  }

  const std::size_t blocks = std::min(n, nthreads * 2);
  const std::size_t chunk = (n + blocks - 1) / blocks;

  // Completion state lives on this frame. Workers decrement `remaining`
  // and notify while holding `done_mu`, so the caller cannot observe zero
  // and return (destroying the mutex and condition variable) until the
  // last worker has released them.
  std::size_t remaining = (n + chunk - 1) / chunk;
  std::exception_ptr first_error = nullptr;
  std::mutex done_mu;
  std::condition_variable done_cv;

  for (std::size_t b = begin; b < end; b += chunk) {
    const std::size_t lo = b;
    const std::size_t hi = std::min(end, b + chunk);
    submit([&, lo, hi] {
      std::exception_ptr error = nullptr;
      try {
        for (std::size_t i = lo; i < hi; ++i) fn(i);
      } catch (...) {
        error = std::current_exception();
      }
      std::lock_guard lock(done_mu);
      if (error && !first_error) first_error = error;
      if (--remaining == 0) done_cv.notify_all();
    });
  }

  std::unique_lock lock(done_mu);
  done_cv.wait(lock, [&] { return remaining == 0; });
  if (first_error) std::rethrow_exception(first_error);
}

ThreadPool& ThreadPool::shared() {
  static ThreadPool pool;
  return pool;
}

}  // namespace mib
