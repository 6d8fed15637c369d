//===- ThreadPool.h - Fixed-size worker pool -------------------*- C++ -*-===//
//
// Part of the DEFACTO-DSE project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A fixed-size worker pool for the exploration engine. Tasks are queued
/// FIFO and handed to the first free worker; submit() returns a future
/// the caller can block on, so the explorer's speculative frontier
/// evaluation can overlap estimation of many candidate designs while the
/// guided walk consumes results in its own deterministic order.
///
/// The pool is deliberately small and boring: one shared queue, a
/// condition variable, and clean shutdown (the destructor drains the
/// queue and joins every worker). A task may wait on another task of the
/// same pool through helpWait(), which runs queued tasks on the waiting
/// thread instead of blocking; a plain future wait inside a worker can
/// deadlock a bounded pool (every worker waiting on tasks no worker is
/// free to run).
///
//===----------------------------------------------------------------------===//

#ifndef DEFACTO_SUPPORT_THREADPOOL_H
#define DEFACTO_SUPPORT_THREADPOOL_H

#include <condition_variable>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace defacto {

/// Fixed worker count, FIFO task queue, future-based results.
class ThreadPool {
public:
  /// Spawns \p NumThreads workers (at least one).
  explicit ThreadPool(unsigned NumThreads);

  ThreadPool(const ThreadPool &) = delete;
  ThreadPool &operator=(const ThreadPool &) = delete;

  /// Runs every queued task, then joins all workers.
  ~ThreadPool();

  unsigned size() const { return Workers.size(); }

  /// Enqueues \p Task; the future resolves when it has run.
  std::future<void> submit(std::function<void()> Task);

  /// Enqueues a value-returning task.
  template <typename Fn> auto async(Fn F) -> std::future<decltype(F())> {
    using R = decltype(F());
    auto P = std::make_shared<std::promise<R>>();
    std::future<R> Fut = P->get_future();
    submit([P, F = std::move(F)]() mutable {
      if constexpr (std::is_void_v<R>) {
        F();
        P->set_value();
      } else {
        P->set_value(F());
      }
    });
    return Fut;
  }

  /// Waits for \p F, a future of a task submitted to this pool, without
  /// tying up the calling thread: while \p F is not ready, pops queued
  /// tasks (newest first; workers take the oldest) and runs them here.
  /// Blocks only once the queue is empty, when the awaited task has
  /// already been taken by another thread. Safe from inside a worker and
  /// nestable, provided no task waits on a task that is running further
  /// down its own thread's stack (a task never waits on its caller).
  void helpWait(std::future<void> &F);

  /// Blocks until the queue is empty and no task is running, on a worker
  /// or on a helpWait() caller.
  void wait();

  /// Tasks started since construction, by a worker or a helpWait()
  /// caller (finished or still running); every task whose future is
  /// ready is counted.
  uint64_t tasksRun() const;

  /// Tasks queued or currently executing — the live backlog a metrics
  /// gauge watches. Point-in-time under the pool lock.
  uint64_t queueDepth() const;

private:
  void workerLoop();
  /// Runs \p Task, just popped under \p Lock, with the lock released;
  /// returns with \p Lock held again.
  void run(std::unique_lock<std::mutex> &Lock, std::function<void()> Task);

  mutable std::mutex M;
  std::condition_variable WorkReady;
  std::condition_variable AllIdle;
  std::deque<std::function<void()>> Queue;
  std::vector<std::thread> Workers;
  unsigned Active = 0;
  uint64_t Executed = 0;
  bool Stopping = false;
};

} // namespace defacto

#endif // DEFACTO_SUPPORT_THREADPOOL_H
