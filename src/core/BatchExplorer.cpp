//===- BatchExplorer.cpp --------------------------------------------------===//
//
// Part of the DEFACTO-DSE project, under the MIT License.
//
//===----------------------------------------------------------------------===//

#include "defacto/Core/BatchExplorer.h"

#include "defacto/Core/EvaluationJournal.h"

using namespace defacto;

BatchExplorer::BatchExplorer(BatchOptions Opts) : Opts(std::move(Opts)) {
  Cache = this->Opts.Cache ? this->Opts.Cache
                           : std::make_shared<EstimateCache>();
}

void BatchExplorer::addJob(BatchJob Job) { Jobs.push_back(std::move(Job)); }

void BatchExplorer::addJob(const Kernel &K, ExplorerOptions JobOpts,
                           std::string Strategy) {
  Jobs.emplace_back(K.name(), K.clone(), std::move(JobOpts),
                    std::move(Strategy));
}

namespace {

ExplorationResult runJob(const BatchJob &Job,
                         const std::shared_ptr<ThreadPool> &Pool,
                         const std::shared_ptr<EstimateCache> &Cache,
                         const std::shared_ptr<TraceRecorder> &Trace,
                         const std::shared_ptr<CircuitBreakerRegistry>
                             &Breakers) {
  // A job's parallelism budget is the batch's: every job is lent the
  // batch pool (null for a sequential batch). Only the candidate-list
  // searches fan out onto it, help-waiting on their tasks so nesting
  // cannot deadlock the pool; the walks stay sequential. A job with its
  // own Estimator gets no pool: parallel work needs a thread-safe,
  // deterministic backend. The shared cache lets concurrent jobs feed
  // each other either way.
  ExplorerOptions Opts = Job.Opts;
  Opts.Pool = Opts.Estimator ? nullptr : Pool;
  Opts.Cache = Cache;
  if (!Opts.Trace)
    Opts.Trace = Trace;
  if (!Opts.Breakers)
    Opts.Breakers = Breakers;
  if (Opts.TraceLabel.empty())
    Opts.TraceLabel = Job.Name.empty() ? Job.K.name() : Job.Name;
  if (Expected<ExplorationResult> Res =
          exploreWithStrategy(Job.K, Opts, Job.Strategy))
    return *Res;
  // Unknown strategy: degrade to guided rather than abort the batch.
  ExplorationResult Fallback = DesignSpaceExplorer(Job.K, Opts).run();
  Fallback.Trace = "unknown strategy '" + Job.Strategy +
                   "'; fell back to guided\n" + Fallback.Trace;
  return Fallback;
}

/// Journals \p Result's winner summary; when the journal already held a
/// record for \p Name (an interrupted run finished this job), first
/// verifies the re-derived winner against it and notes the outcome in
/// the result's trace.
void journalJob(EvaluationJournal &Journal, const std::string &Name,
                ExplorationResult &Result) {
  JournalJobRecord Rec;
  Rec.Name = Name;
  Rec.Strategy = Result.Strategy;
  Rec.Selected = unrollVectorToString(Result.Selected);
  Rec.Cycles = Result.SelectedEstimate.Cycles;
  Rec.Slices = Result.SelectedEstimate.Slices;
  Rec.Evaluations = Result.EvaluationsUsed;
  Rec.Degraded = Result.Degraded;
  Rec.Fits = Result.SelectedFits;
  if (std::optional<JournalJobRecord> Prev = Journal.jobRecord(Name)) {
    bool Match = Prev->Selected == Rec.Selected &&
                 Prev->Cycles == Rec.Cycles && Prev->Slices == Rec.Slices &&
                 Prev->Fits == Rec.Fits;
    Result.Trace += Match ? "resume: reproduced journaled winner " +
                                Rec.Selected + "\n"
                          : "resume: journaled winner " + Prev->Selected +
                                " NOT reproduced (got " + Rec.Selected +
                                ")\n";
  }
  Journal.recordJob(Rec);
}

} // namespace

std::vector<BatchResult> BatchExplorer::runAll() {
  std::vector<BatchJob> Pending;
  Pending.swap(Jobs);
  JobsQueued.store(Pending.size(), std::memory_order_relaxed);
  JobsDone.store(0, std::memory_order_relaxed);

  std::vector<BatchResult> Results(Pending.size());
  for (size_t I = 0; I != Pending.size(); ++I)
    Results[I].Name = Pending[I].Name.empty() ? Pending[I].K.name()
                                              : Pending[I].Name;

  // Journal hookup: every estimation fulfilled into the shared cache is
  // recorded (and flushed) the moment it completes, from whichever
  // thread computed it. Replayed (seeded) entries never re-fulfill, so a
  // resumed run re-records nothing.
  if (Opts.Journal)
    Cache->setObserver(
        [Journal = Opts.Journal](const std::string &Key,
                                 const EstimateCache::Result &R) {
          Journal->recordEvaluation(Key, R);
        });

  std::shared_ptr<ThreadPool> Pool = Opts.Pool;
  if (!Pool && Opts.NumThreads > 1)
    Pool = std::make_shared<ThreadPool>(Opts.NumThreads);
  auto Run = [this, &Pool, &Pending, &Results](size_t I) {
    Results[I].Result =
        runJob(Pending[I], Pool, Cache, Opts.Trace, Opts.Breakers);
    if (Opts.Journal)
      journalJob(*Opts.Journal, Results[I].Name, Results[I].Result);
    JobsDone.fetch_add(1, std::memory_order_relaxed);
  };
  if (!Pool) {
    for (size_t I = 0; I != Pending.size(); ++I)
      Run(I);
  } else {
    std::vector<std::future<void>> Done;
    Done.reserve(Pending.size());
    for (size_t I = 0; I != Pending.size(); ++I)
      Done.push_back(Pool->submit([&Run, I] { Run(I); }));
    for (std::future<void> &F : Done)
      F.wait();
  }
  if (Opts.Journal)
    Cache->setObserver({});
  return Results;
}

std::vector<BatchResult> defacto::exploreBatch(std::vector<BatchJob> Jobs,
                                               const BatchOptions &Opts) {
  BatchExplorer Batch(Opts);
  for (BatchJob &Job : Jobs)
    Batch.addJob(std::move(Job));
  return Batch.runAll();
}
