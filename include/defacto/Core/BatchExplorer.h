//===- BatchExplorer.h - Multi-kernel exploration driver -------*- C++ -*-===//
//
// Part of the DEFACTO-DSE project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Explores many (kernel, platform) jobs concurrently on one worker pool
/// with one shared EstimateCache. Each job runs inside a pool worker and
/// is lent the batch pool as its ExplorerOptions::Pool. The
/// candidate-list searches ("exhaustive", "random", and "random" inside
/// "portfolio") fan their candidates out onto it and help-wait
/// (ThreadPool::helpWait) instead of blocking, so one large job no
/// longer sets the batch's wall time and a bounded pool cannot deadlock.
/// The walks run sequentially inside their worker whatever the pool,
/// composing with the other jobs only through the shared cache. A job
/// that brings its own Estimator is lent no pool (parallel work needs a
/// thread-safe, deterministic backend). Results come back in submission
/// order and each job's outcome is identical to running it alone; jobs
/// over the same kernel and platform additionally hit each other's
/// cached estimates.
///
//===----------------------------------------------------------------------===//

#ifndef DEFACTO_CORE_BATCHEXPLORER_H
#define DEFACTO_CORE_BATCHEXPLORER_H

#include "defacto/Core/Explorer.h"

#include <atomic>
#include <memory>
#include <string>
#include <vector>

namespace defacto {

class CircuitBreakerRegistry;
class EvaluationJournal;

/// One unit of batch work: explore one kernel for one platform.
struct BatchJob {
  std::string Name; // label for reports; defaults to the kernel's name
  Kernel K;
  ExplorerOptions Opts;
  /// StrategyRegistry name ("guided", "exhaustive", "portfolio", ...).
  /// Unknown names degrade to guided with a note in the result's trace —
  /// a batch never aborts over one job.
  std::string Strategy;

  BatchJob(std::string Name, Kernel K, ExplorerOptions Opts,
           std::string Strategy = "guided")
      : Name(std::move(Name)), K(std::move(K)), Opts(std::move(Opts)),
        Strategy(std::move(Strategy)) {}
};

/// One finished job, in submission order.
struct BatchResult {
  std::string Name;
  ExplorationResult Result;
};

/// Batch-level configuration.
struct BatchOptions {
  /// Concurrent jobs. <= 1 runs the batch sequentially (still sharing
  /// the cache across jobs).
  unsigned NumThreads = 1;
  /// Pool to run jobs on; created on demand when unset and NumThreads
  /// exceeds one.
  std::shared_ptr<ThreadPool> Pool;
  /// Estimate cache shared by every job; created when unset. Exposed so
  /// callers can carry warm state across batches.
  std::shared_ptr<EstimateCache> Cache;
  /// Trace recorder shared by every job (each job's events land on a
  /// track named after the job). Jobs that set their own recorder keep
  /// it. Unset: jobs fall back to TraceRecorder::global().
  std::shared_ptr<TraceRecorder> Trace;
  /// Crash-safety journal. When set, the batch registers it as the
  /// shared cache's completion observer — every finished estimation is
  /// durable (write-then-rename) the moment it lands — and records a
  /// winner summary after each job. To resume an interrupted run, load
  /// the journal, adopt() it into a fresh journal, and replayInto() the
  /// shared cache before runAll(); finished jobs then re-derive their
  /// winners from the warmed cache with zero backend calls, and the
  /// batch verifies each against its journaled record (a note lands in
  /// the result's trace either way).
  std::shared_ptr<EvaluationJournal> Journal;
  /// Per-backend circuit breakers shared by every job that does not
  /// bring its own (see ExplorerOptions::Breakers). Unset: no breakers.
  std::shared_ptr<CircuitBreakerRegistry> Breakers;
};

/// Collects jobs, runs them concurrently, returns ordered results.
class BatchExplorer {
public:
  explicit BatchExplorer(BatchOptions Opts = {});

  /// Queues one job. The convenience overload labels it with the kernel
  /// name and selects the search by registry strategy name.
  void addJob(BatchJob Job);
  void addJob(const Kernel &K, ExplorerOptions Opts,
              std::string Strategy = "guided");

  unsigned numJobs() const { return Jobs.size(); }

  /// Runs every queued job and clears the queue. Results are in
  /// submission order regardless of completion order.
  std::vector<BatchResult> runAll();

  /// The shared cache (for stats reporting and cross-batch reuse).
  const std::shared_ptr<EstimateCache> &estimateCache() const {
    return Cache;
  }

  //===--------------------------------------------------------------===//
  // Live progress, for the metrics gauges: readable from any thread
  // while runAll() executes on another.
  //===--------------------------------------------------------------===//

  /// Jobs the in-progress (or most recent) runAll() call took on.
  uint64_t jobsQueued() const {
    return JobsQueued.load(std::memory_order_relaxed);
  }
  /// Jobs that have finished so far in that call.
  uint64_t jobsCompleted() const {
    return JobsDone.load(std::memory_order_relaxed);
  }

private:
  BatchOptions Opts;
  std::shared_ptr<EstimateCache> Cache; // never null
  std::vector<BatchJob> Jobs;
  std::atomic<uint64_t> JobsQueued{0};
  std::atomic<uint64_t> JobsDone{0};
};

/// One-shot convenience: run \p Jobs with \p Opts.
std::vector<BatchResult> exploreBatch(std::vector<BatchJob> Jobs,
                                      const BatchOptions &Opts = {});

} // namespace defacto

#endif // DEFACTO_CORE_BATCHEXPLORER_H
