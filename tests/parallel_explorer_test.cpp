//===- parallel_explorer_test.cpp - Parallel == sequential determinism ----===//
//
// Part of the DEFACTO-DSE project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// The concurrent engine's core guarantee: with a deterministic
/// estimation backend, an exploration given a worker pool (which leaves
/// the guided walk sequential), a shared estimate cache, the
/// exhaustive/random candidate fan-out and the batch driver all select
/// the *bit-identical* design the sequential run selects, with the same
/// visit order, trace, and budget accounting. Checked for every paper
/// kernel on both platforms and for a seeded family of randomly
/// generated kernels.
///
//===----------------------------------------------------------------------===//

#include "defacto/Core/BatchExplorer.h"
#include "defacto/Core/Explorer.h"
#include "defacto/Frontend/Parser.h"
#include "defacto/Kernels/Kernels.h"
#include "defacto/Support/Random.h"
#include "defacto/Support/Stats.h"

#include <atomic>
#include <gtest/gtest.h>

#include <cstdlib>
#include <sstream>
#include <thread>

using namespace defacto;

namespace {

/// Asserts two exploration outcomes are indistinguishable.
void expectIdentical(const ExplorationResult &Seq,
                     const ExplorationResult &Par) {
  EXPECT_EQ(Seq.Selected, Par.Selected);
  EXPECT_EQ(Seq.SelectedEstimate.Cycles, Par.SelectedEstimate.Cycles);
  EXPECT_EQ(Seq.SelectedEstimate.Slices, Par.SelectedEstimate.Slices);
  EXPECT_EQ(Seq.SelectedEstimate.Registers, Par.SelectedEstimate.Registers);
  EXPECT_EQ(Seq.SelectedFits, Par.SelectedFits);
  EXPECT_EQ(Seq.Degraded, Par.Degraded);
  EXPECT_EQ(Seq.EvaluationsUsed, Par.EvaluationsUsed);
  EXPECT_EQ(Seq.Trace, Par.Trace);
  ASSERT_EQ(Seq.Visited.size(), Par.Visited.size());
  for (size_t I = 0; I != Seq.Visited.size(); ++I) {
    EXPECT_EQ(Seq.Visited[I].U, Par.Visited[I].U);
    EXPECT_EQ(Seq.Visited[I].Role, Par.Visited[I].Role);
    EXPECT_EQ(Seq.Visited[I].Estimate.Cycles, Par.Visited[I].Estimate.Cycles);
  }
}

ExplorationResult runSequential(const Kernel &K, ExplorerOptions Opts) {
  Opts.Pool = nullptr;
  return DesignSpaceExplorer(K, std::move(Opts)).run();
}

ExplorationResult runParallel(const Kernel &K, ExplorerOptions Opts,
                              unsigned Threads = 4) {
  Opts.Pool = std::make_shared<ThreadPool>(Threads);
  return DesignSpaceExplorer(K, std::move(Opts)).run();
}

/// Random affine kernels through the frontend: randomized nest depth,
/// trip counts, subscript offsets, and operation mix, all inside the
/// paper's input domain so every generated source must parse.
std::string randomKernelSource(uint64_t Seed) {
  SplitMix64 Rng(Seed);
  static const int64_t TripChoices[] = {4, 6, 8, 12, 16, 24};
  int64_t N = TripChoices[Rng.nextBelow(6)];
  int64_t M = TripChoices[Rng.nextBelow(6)];
  int64_t Off = static_cast<int64_t>(Rng.nextBelow(3));
  const char *Op = Rng.nextBelow(2) ? "*" : "+";
  std::ostringstream OS;
  switch (Rng.nextBelow(3)) {
  case 0: // FIR-shaped: inner reduction over a sliding window
    OS << "int a[" << (N + M + 4) << "]; int c[" << (M + 4)
       << "]; int out[" << (N + 4) << "];\n"
       << "for (i = 0; i < " << N << "; i++)\n"
       << "  for (j = 0; j < " << M << "; j++)\n"
       << "    out[i] = out[i] + a[i + j] " << Op << " c[j];\n";
    break;
  case 1: // MM-shaped: 2-D output, rectangular operands
    OS << "int a[" << (N + 4) << "][" << (M + 4) << "]; int b[" << (M + 4)
       << "]; int out[" << (N + 4) << "];\n"
       << "for (i = 0; i < " << N << "; i++)\n"
       << "  for (j = 0; j < " << M << "; j++)\n"
       << "    out[i] = out[i] + a[i][j] " << Op << " b[j];\n";
    break;
  default: // stencil-shaped: offset reads from one array
    OS << "int a[" << (N + 8) << "][" << (N + 8) << "]; int out["
       << (N + 8) << "][" << (N + 8) << "];\n"
       << "for (i = 0; i < " << N << "; i++)\n"
       << "  for (j = 0; j < " << N << "; j++)\n"
       << "    out[i][j] = a[i][j] + a[i + " << Off << "][j + 1];\n";
    break;
  }
  return OS.str();
}

Kernel buildFuzzKernel(uint64_t Seed) {
  DiagnosticEngine Diags;
  std::optional<Kernel> K = parseKernel(randomKernelSource(Seed),
                                        "fuzz" + std::to_string(Seed),
                                        Diags);
  EXPECT_TRUE(K.has_value()) << randomKernelSource(Seed);
  return std::move(*K);
}

uint64_t fuzzSeedCount() {
  if (const char *Env = std::getenv("DEFACTO_FUZZ_SEEDS"))
    if (long V = std::atol(Env); V > 0)
      return static_cast<uint64_t>(V);
  return 32;
}

} // namespace

TEST(ParallelExplorer, PaperKernelsMatchSequentialOnBothPlatforms) {
  for (const KernelSpec &Spec : paperKernels())
    for (bool Pipelined : {true, false}) {
      Kernel K = buildKernel(Spec.Name);
      ExplorerOptions Opts;
      Opts.Platform = Pipelined ? TargetPlatform::wildstarPipelined()
                                : TargetPlatform::wildstarNonPipelined();
      SCOPED_TRACE(Spec.Name + (Pipelined ? "/pipelined" : "/nonpipelined"));
      expectIdentical(runSequential(K, Opts), runParallel(K, Opts));
    }
}

TEST(ParallelExplorer, SharedPoolAcrossRunsMatchesToo) {
  auto Pool = std::make_shared<ThreadPool>(4);
  auto Cache = std::make_shared<EstimateCache>();
  for (const KernelSpec &Spec : paperKernels()) {
    Kernel K = buildKernel(Spec.Name);
    ExplorerOptions Opts;
    ExplorerOptions Par = Opts;
    Par.Pool = Pool;
    Par.Cache = Cache;
    SCOPED_TRACE(Spec.Name);
    expectIdentical(runSequential(K, Opts),
                    DesignSpaceExplorer(K, std::move(Par)).run());
  }
}

TEST(ParallelExplorer, WarmCacheReplayIsIdenticalAndCheap) {
  Kernel K = buildKernel("MM");
  auto Cache = std::make_shared<EstimateCache>();
  ExplorerOptions Opts;
  Opts.Cache = Cache;
  ExplorationResult Cold = DesignSpaceExplorer(K, Opts).run();
  uint64_t HitsBefore = Cache->stats().Hits;
  ExplorationResult Warm = DesignSpaceExplorer(K, Opts).run();
  expectIdentical(Cold, Warm);
  // Every estimate of the warm run came out of the shared cache.
  EXPECT_GT(Cache->stats().Hits, HitsBefore);
}

TEST(ParallelExplorer, ExhaustiveMatchesSequential) {
  for (const char *Name : {"FIR", "MM", "JAC"}) {
    Kernel K = buildKernel(Name);
    ExplorerOptions Seq;
    ExplorerOptions Par;
    Par.Pool = std::make_shared<ThreadPool>(4);
    SCOPED_TRACE(Name);
    ExplorationResult A = exploreExhaustive(K, Seq);
    ExplorationResult B = exploreExhaustive(K, Par);
    expectIdentical(A, B);
  }
}

TEST(ParallelExplorer, RandomMatchesSequential) {
  Kernel K = buildKernel("SOBEL");
  ExplorerOptions Seq;
  ExplorerOptions Par;
  Par.Pool = std::make_shared<ThreadPool>(4);
  expectIdentical(exploreRandom(K, Seq, 12, 42),
                  exploreRandom(K, Par, 12, 42));
}

TEST(ParallelExplorer, RegisterCapRunsMatchSequential) {
  Kernel K = buildKernel("FIR");
  ExplorerOptions Opts;
  Opts.RegisterCap = 24;
  expectIdentical(runSequential(K, Opts), runParallel(K, Opts));
}

class ParallelExplorerFuzz : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ParallelExplorerFuzz, RandomKernelsMatchSequential) {
  Kernel K = buildFuzzKernel(GetParam());
  ExplorerOptions Opts;
  expectIdentical(runSequential(K, Opts),
                  runParallel(K, Opts, 2 + GetParam() % 5));
}

INSTANTIATE_TEST_SUITE_P(Seeds, ParallelExplorerFuzz,
                         ::testing::Range<uint64_t>(0, fuzzSeedCount()));

TEST(BatchExplorer, MatchesIndividualSequentialRuns) {
  BatchOptions Batch;
  Batch.NumThreads = 4;
  BatchExplorer Engine(Batch);
  for (const KernelSpec &Spec : paperKernels())
    Engine.addJob(buildKernel(Spec.Name), ExplorerOptions{});
  std::vector<BatchResult> Results = Engine.runAll();

  ASSERT_EQ(Results.size(), paperKernels().size());
  for (size_t I = 0; I != Results.size(); ++I) {
    const KernelSpec &Spec = paperKernels()[I];
    SCOPED_TRACE(Spec.Name);
    EXPECT_EQ(Results[I].Name, Spec.Name); // submission order preserved
    expectIdentical(runSequential(buildKernel(Spec.Name), {}),
                    Results[I].Result);
  }
}

TEST(BatchExplorer, DuplicateJobsShareTheCache) {
  BatchOptions Batch;
  Batch.NumThreads = 2;
  BatchExplorer Engine(Batch);
  Engine.addJob(buildKernel("FIR"), ExplorerOptions{});
  Engine.addJob(buildKernel("FIR"), ExplorerOptions{});
  std::vector<BatchResult> Results = Engine.runAll();

  ASSERT_EQ(Results.size(), 2u);
  expectIdentical(Results[0].Result, Results[1].Result);
  // The second copy consumed the first's entries (or raced it through
  // the in-flight dedup): the cache saw hits or waits, and nothing was
  // estimated twice.
  EstimateCache::Stats S = Engine.estimateCache()->stats();
  EXPECT_GT(S.Hits + S.Waits, 0u);
  EXPECT_EQ(S.Misses, static_cast<uint64_t>(Engine.estimateCache()->size()));
}

TEST(BatchExplorer, CacheStatsStayConsistentUnderConcurrentSnapshots) {
  // stats() holds every shard lock at once, so any snapshot taken while
  // workers are mid-exploration must already satisfy the accounting
  // identity — a lookup is never half-counted. Run under tsan this also
  // exercises the counters' lock discipline.
  auto Cache = std::make_shared<EstimateCache>();
  BatchOptions Batch;
  Batch.NumThreads = 4;
  Batch.Cache = Cache;
  BatchExplorer Engine(Batch);
  for (int Round = 0; Round != 4; ++Round)
    for (const KernelSpec &Spec : paperKernels())
      Engine.addJob(buildKernel(Spec.Name), ExplorerOptions{});

  std::atomic<bool> Done{false};
  std::thread Snapshotter([&Cache, &Done] {
    while (!Done.load(std::memory_order_relaxed)) {
      EstimateCache::Stats S = Cache->stats();
      EXPECT_EQ(S.Lookups, S.Hits + S.Misses + S.Waits);
      EXPECT_LE(S.Inserts, S.Misses);
      std::this_thread::yield();
    }
  });
  Engine.runAll();
  Done.store(true, std::memory_order_relaxed);
  Snapshotter.join();

  EstimateCache::Stats Final = Cache->stats();
  EXPECT_EQ(Final.Lookups, Final.Hits + Final.Misses + Final.Waits);
  EXPECT_GT(Final.Hits + Final.Waits, 0u);
  // Registry mirror: when enabled it moves with the same events (the
  // mirror is process-global, so only monotonicity is asserted here).
  StatRegistry::instance().setEnabled(true);
  uint64_t MirrorBefore = 0, MirrorAfter = 0;
  for (const StatSnapshot &S : StatRegistry::instance().snapshot())
    if (S.Group == "cache" && S.Name == "lookups")
      MirrorBefore = S.Value;
  DesignSpaceExplorer(buildKernel("FIR"), {}).run();
  for (const StatSnapshot &S : StatRegistry::instance().snapshot())
    if (S.Group == "cache" && S.Name == "lookups")
      MirrorAfter = S.Value;
  StatRegistry::instance().setEnabled(false);
  EXPECT_GT(MirrorAfter, MirrorBefore);
}

TEST(BatchExplorer, ExhaustiveModeAndSequentialBatchAgree) {
  std::vector<BatchJob> Jobs;
  Jobs.emplace_back("fir", buildKernel("FIR"), ExplorerOptions{},
                    "exhaustive");
  Jobs.emplace_back("mm", buildKernel("MM"), ExplorerOptions{},
                    "exhaustive");

  BatchOptions Par;
  Par.NumThreads = 2;
  std::vector<BatchJob> JobsCopy;
  JobsCopy.emplace_back("fir", buildKernel("FIR"), ExplorerOptions{},
                        "exhaustive");
  JobsCopy.emplace_back("mm", buildKernel("MM"), ExplorerOptions{},
                        "exhaustive");

  std::vector<BatchResult> Sequential = exploreBatch(std::move(Jobs), {});
  std::vector<BatchResult> Parallel =
      exploreBatch(std::move(JobsCopy), Par);
  ASSERT_EQ(Sequential.size(), Parallel.size());
  for (size_t I = 0; I != Sequential.size(); ++I)
    expectIdentical(Sequential[I].Result, Parallel[I].Result);
}

namespace {

/// One batch's observable outcome, per job: the result and the job's
/// decision-digest lines (its track in the batch's shared recorder),
/// plus the batch's cache counters.
struct BatchOutcome {
  std::vector<BatchResult> Results;
  std::vector<std::vector<std::string>> Digests;
  EstimateCache::Stats Cache;
};

/// Runs \p Jobs (strategy per job) under \p Opts with a fresh cache and
/// a fresh enabled recorder.
BatchOutcome runTracedBatch(
    const std::vector<std::pair<std::string, std::string>> &Jobs,
    BatchOptions Opts) {
  auto Trace = std::make_shared<TraceRecorder>();
  Trace->setEnabled(true);
  Opts.Trace = Trace;
  Opts.Cache = std::make_shared<EstimateCache>();
  BatchExplorer Engine(Opts);
  for (const auto &[Kernel, Strategy] : Jobs)
    Engine.addJob(BatchJob(Kernel + "/" + Strategy, buildKernel(Kernel),
                           ExplorerOptions{}, Strategy));
  BatchOutcome Out;
  Out.Results = Engine.runAll();
  Out.Cache = Opts.Cache->stats();
  std::vector<std::string> Lines = Trace->decisionDigest();
  for (const BatchResult &R : Out.Results) {
    // A portfolio's members trace on sub-tracks ("job/guided").
    const std::string Prefix = R.Name + "|", SubPrefix = R.Name + "/";
    Out.Digests.emplace_back();
    for (const std::string &L : Lines)
      if (L.compare(0, Prefix.size(), Prefix) == 0 ||
          L.compare(0, SubPrefix.size(), SubPrefix) == 0)
        Out.Digests.back().push_back(L);
  }
  return Out;
}

/// Asserts a traced batch matches the sequential one job by job: result,
/// evaluations and decision digest.
void expectSameBatch(const BatchOutcome &Seq, const BatchOutcome &Par) {
  ASSERT_EQ(Par.Results.size(), Seq.Results.size());
  for (size_t I = 0; I != Seq.Results.size(); ++I) {
    SCOPED_TRACE(Seq.Results[I].Name);
    EXPECT_EQ(Par.Results[I].Name, Seq.Results[I].Name);
    expectIdentical(Seq.Results[I].Result, Par.Results[I].Result);
    EXPECT_FALSE(Seq.Digests[I].empty());
    EXPECT_EQ(Seq.Digests[I], Par.Digests[I]);
  }
}

uint64_t statValue(const char *Group, const char *Name) {
  for (const StatSnapshot &S : StatRegistry::instance().snapshot())
    if (S.Group == Group && S.Name == Name)
      return S.Value;
  return 0;
}

} // namespace

TEST(BatchExplorer, CandidateListJobsFanOutAndMatchTheSequentialBatch) {
  // More jobs than workers, so jobs nest inside each other's helping
  // waits; the 1-thread pool passed explicitly is the case a plain
  // future wait would deadlock.
  const std::vector<std::pair<std::string, std::string>> Jobs = {
      {"FIR", "exhaustive"}, {"FIR", "random"}, {"PAT", "exhaustive"},
      {"PAT", "random"},     {"MM", "random"},  {"JAC", "random"}};
  BatchOutcome Seq = runTracedBatch(Jobs, {});
  ASSERT_EQ(Seq.Results.size(), Jobs.size());

  // {threads, pool passed through BatchOptions::Pool}.
  for (auto [Threads, ExplicitPool] :
       {std::pair{1u, true}, std::pair{2u, false}, std::pair{4u, true}}) {
    SCOPED_TRACE(std::to_string(Threads) + " thread(s)" +
                 (ExplicitPool ? ", explicit pool" : ""));
    BatchOptions Opts;
    Opts.NumThreads = Threads;
    std::shared_ptr<ThreadPool> Pool;
    if (ExplicitPool)
      Opts.Pool = Pool = std::make_shared<ThreadPool>(Threads);
    BatchOutcome Par = runTracedBatch(Jobs, Opts);
    expectSameBatch(Seq, Par);
    // The pool ran the candidates too, not only one task per job.
    if (Pool) {
      EXPECT_GT(Pool->tasksRun(), 2 * Jobs.size());
    }
  }
}

TEST(BatchExplorer, WalkJobsStaySequentialOnALentPool) {
  // Every job is lent the 4-thread batch pool, yet no walk queues a
  // design on it: nothing is prefetched, and the batch estimates exactly
  // the designs the sequential batch does.
  const std::vector<std::pair<std::string, std::string>> Jobs = {
      {"FIR", "guided"},      {"FIR", "guided+tile"}, {"FIR", "hillclimb"},
      {"PAT", "guided"},      {"PAT", "guided+tile"}, {"PAT", "hillclimb"},
      {"JAC", "guided"},      {"JAC", "guided+tile"}, {"JAC", "hillclimb"}};
  BatchOutcome Seq = runTracedBatch(Jobs, {});

  StatRegistry::instance().setEnabled(true);
  uint64_t Before = statValue("explore", "speculated");
  BatchOptions Opts;
  Opts.NumThreads = 4;
  Opts.Pool = std::make_shared<ThreadPool>(4);
  BatchOutcome Par = runTracedBatch(Jobs, Opts);
  uint64_t After = statValue("explore", "speculated");
  StatRegistry::instance().setEnabled(false);

  EXPECT_EQ(After - Before, 0u);
  EXPECT_EQ(Par.Cache.Misses, Seq.Cache.Misses);
  expectSameBatch(Seq, Par);
}

TEST(BatchExplorer, PortfolioJobOnALentPoolMatchesTheSequentialRun) {
  // Only the random member of the portfolio fans out; the winner, the
  // evaluations charged and the digest stay those of the sequential run.
  const std::vector<std::pair<std::string, std::string>> Jobs = {
      {"FIR", "portfolio"}, {"PAT", "portfolio"}};
  BatchOutcome Seq = runTracedBatch(Jobs, {});
  BatchOptions Opts;
  Opts.NumThreads = 4;
  Opts.Pool = std::make_shared<ThreadPool>(4);
  BatchOutcome Par = runTracedBatch(Jobs, Opts);
  expectSameBatch(Seq, Par);
  // The random member's candidates ran on the pool too.
  EXPECT_GT(Opts.Pool->tasksRun(), Jobs.size());
}

TEST(BatchExplorer, InjectedEstimatorJobsStaySingleThreaded) {
  // A custom backend need not be thread-safe, so a job that brings one
  // is never lent the batch pool, even as a candidate-list search.
  auto InFlight = std::make_shared<std::atomic<int>>(0);
  auto MaxInFlight = std::make_shared<std::atomic<int>>(0);
  ExplorerOptions Counted;
  Counted.Estimator = [InFlight, MaxInFlight](const Kernel &K,
                                              const TargetPlatform &P) {
    int Now = ++*InFlight;
    int Seen = MaxInFlight->load();
    while (Now > Seen && !MaxInFlight->compare_exchange_weak(Seen, Now)) {
    }
    Expected<SynthesisEstimate> E = estimateVerifiedDesign(K, P);
    --*InFlight;
    return E;
  };
  BatchOptions Batch;
  Batch.NumThreads = 4;
  BatchExplorer Engine(Batch);
  Engine.addJob(buildKernel("PAT"), Counted, "exhaustive");
  Engine.addJob(buildKernel("FIR"), ExplorerOptions{}, "random");
  Engine.addJob(buildKernel("PAT"), ExplorerOptions{}, "random");
  std::vector<BatchResult> Results = Engine.runAll();
  ASSERT_EQ(Results.size(), 3u);
  EXPECT_GT(Results[0].Result.EvaluationsUsed, 1u);
  EXPECT_EQ(MaxInFlight->load(), 1);
  expectIdentical(exploreExhaustive(buildKernel("PAT"), {}),
                  Results[0].Result);
}
