// cobalt/common/thread_pool.hpp
//
// A fixed-size worker pool with a parallel-for helper. The experiment
// harnesses and the growth simulation run the paper's 100-run averages
// across hardware threads; each run owns independent state (an RNG
// stream, its own store), so tasks are embarrassingly parallel and
// deterministic regardless of scheduling.

#pragma once

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace cobalt {

/// Fixed set of worker threads consuming a FIFO of tasks.
class ThreadPool {
 public:
  /// Spawns `threads` workers (defaults to hardware concurrency, min 1).
  explicit ThreadPool(std::size_t threads = 0);

  /// Joins all workers after draining the queue.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues a task for asynchronous execution.
  void submit(std::function<void()> task);

  /// Blocks until every submitted task has finished.
  void wait_idle();

  [[nodiscard]] std::size_t thread_count() const { return workers_.size(); }

 private:
  void worker_loop();

  std::vector<std::thread> workers_;
  std::mutex mutex_;
  std::condition_variable task_available_;
  std::condition_variable idle_;
  // tasks_, in_flight_ and stopping_ are guarded by mutex_.
  std::queue<std::function<void()>> tasks_;
  std::size_t in_flight_ = 0;
  bool stopping_ = false;
};

/// Runs body(i) for i in [0, count) on `pool`, blocking until all
/// iterations complete. Exceptions from iterations propagate (the
/// first one captured is rethrown after the barrier).
///
/// The calling thread participates in the iteration loop, so the call
/// makes progress even when every pool worker is busy - in particular
/// parallel_for may be called from inside a pool task (nested
/// parallelism) without deadlocking: the helpers it submits are pure
/// accelerators, never required for completion, and any helper that
/// only gets scheduled after the loop has drained exits immediately.
void parallel_for(ThreadPool& pool, std::size_t count,
                  const std::function<void(std::size_t)>& body);

}  // namespace cobalt
