#include "common/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <memory>

#include "common/error.hpp"

namespace cobalt {

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) {
    threads = std::thread::hardware_concurrency();
    if (threads == 0) threads = 1;
  }
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i)
    workers_.emplace_back([this] { worker_loop(); });
}

ThreadPool::~ThreadPool() {
  {
    const std::lock_guard lock(mutex_);
    stopping_ = true;
  }
  task_available_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::submit(std::function<void()> task) {
  COBALT_REQUIRE(task != nullptr, "cannot submit an empty task");
  {
    const std::lock_guard lock(mutex_);
    COBALT_REQUIRE(!stopping_, "cannot submit to a stopping pool");
    tasks_.push(std::move(task));
  }
  task_available_.notify_one();
}

void ThreadPool::wait_idle() {
  std::unique_lock lock(mutex_);
  idle_.wait(lock, [this] { return tasks_.empty() && in_flight_ == 0; });
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock lock(mutex_);
      task_available_.wait(lock,
                           [this] { return stopping_ || !tasks_.empty(); });
      if (tasks_.empty()) return;  // stopping and drained
      task = std::move(tasks_.front());
      tasks_.pop();
      ++in_flight_;
    }
    task();
    {
      const std::lock_guard lock(mutex_);
      --in_flight_;
    }
    idle_.notify_all();
  }
}

namespace {

/// Shared state of one parallel_for call. Helpers own it through a
/// shared_ptr: a helper scheduled only after the caller has already
/// returned (the pool was saturated and the caller drained every
/// iteration itself) must still find the state alive - the iteration
/// counter tells it there is nothing left and it exits immediately.
struct ParallelForState {
  explicit ParallelForState(std::size_t n,
                            std::function<void(std::size_t)> fn)
      : count(n), body(std::move(fn)) {}

  const std::size_t count;
  const std::function<void(std::size_t)> body;
  std::atomic<std::size_t> next{0};
  std::mutex mutex;
  std::condition_variable all_done;
  // completed and first_error are guarded by mutex.
  std::size_t completed = 0;
  std::exception_ptr first_error;

  /// Claims and runs iterations until the index space is exhausted.
  void drain() {
    for (;;) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= count) return;
      std::exception_ptr error;
      try {
        body(i);
      } catch (...) {
        error = std::current_exception();
      }
      bool last;
      {
        const std::lock_guard lock(mutex);
        if (error && !first_error) first_error = std::move(error);
        last = ++completed == count;
      }
      if (last) all_done.notify_all();
    }
  }
};

}  // namespace

void parallel_for(ThreadPool& pool, std::size_t count,
                  const std::function<void(std::size_t)>& body) {
  if (count == 0) return;
  auto state = std::make_shared<ParallelForState>(count, body);
  // Helpers beyond the iteration count (or beyond the pool) would only
  // contend on the claim counter; the caller is always one lane.
  const std::size_t helpers =
      std::min(count > 1 ? count - 1 : 0, pool.thread_count());
  for (std::size_t h = 0; h < helpers; ++h) {
    pool.submit([state] { state->drain(); });
  }
  state->drain();
  std::unique_lock lock(state->mutex);
  state->all_done.wait(lock,
                       [&state] { return state->completed == state->count; });
  if (state->first_error) std::rethrow_exception(state->first_error);
}

}  // namespace cobalt
