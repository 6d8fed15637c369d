//===- ThreadPool.cpp -----------------------------------------------------===//
//
// Part of the DEFACTO-DSE project, under the MIT License.
//
//===----------------------------------------------------------------------===//

#include "defacto/Support/ThreadPool.h"

#include <algorithm>
#include <chrono>

using namespace defacto;

ThreadPool::ThreadPool(unsigned NumThreads) {
  NumThreads = std::max(1u, NumThreads);
  Workers.reserve(NumThreads);
  for (unsigned I = 0; I != NumThreads; ++I)
    Workers.emplace_back([this] { workerLoop(); });
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> Lock(M);
    Stopping = true;
  }
  WorkReady.notify_all();
  for (std::thread &W : Workers)
    W.join();
}

std::future<void> ThreadPool::submit(std::function<void()> Task) {
  std::packaged_task<void()> Packaged(std::move(Task));
  std::future<void> Fut = Packaged.get_future();
  {
    std::lock_guard<std::mutex> Lock(M);
    Queue.emplace_back(
        [P = std::make_shared<std::packaged_task<void()>>(
             std::move(Packaged))]() mutable { (*P)(); });
  }
  WorkReady.notify_one();
  return Fut;
}

void ThreadPool::helpWait(std::future<void> &F) {
  std::unique_lock<std::mutex> Lock(M);
  while (F.wait_for(std::chrono::seconds(0)) != std::future_status::ready) {
    if (Queue.empty()) {
      // Every task of this pool has been taken, the awaited one included,
      // so it is running on another thread: plain blocking is safe.
      Lock.unlock();
      F.wait();
      return;
    }
    // Newest first: those are most likely the tasks this waiter just
    // queued, so a waiting job works through its own candidates rather
    // than starting another job inside its wait.
    std::function<void()> Task = std::move(Queue.back());
    Queue.pop_back();
    run(Lock, std::move(Task));
  }
}

void ThreadPool::wait() {
  std::unique_lock<std::mutex> Lock(M);
  AllIdle.wait(Lock, [this] { return Queue.empty() && Active == 0; });
}

uint64_t ThreadPool::tasksRun() const {
  std::lock_guard<std::mutex> Lock(M);
  return Executed;
}

uint64_t ThreadPool::queueDepth() const {
  std::lock_guard<std::mutex> Lock(M);
  return Queue.size() + Active;
}

void ThreadPool::workerLoop() {
  std::unique_lock<std::mutex> Lock(M);
  while (true) {
    WorkReady.wait(Lock, [this] { return Stopping || !Queue.empty(); });
    if (Queue.empty()) // Stopping with a drained queue: shut down.
      return;
    std::function<void()> Task = std::move(Queue.front());
    Queue.pop_front();
    run(Lock, std::move(Task));
  }
}

void ThreadPool::run(std::unique_lock<std::mutex> &Lock,
                     std::function<void()> Task) {
  ++Active;
  // Counted before it runs: the task's future becomes ready inside
  // Task(), and a caller that saw it ready must see it counted.
  ++Executed;
  Lock.unlock();
  Task();
  Lock.lock();
  --Active;
  if (Queue.empty() && Active == 0)
    AllIdle.notify_all();
}
