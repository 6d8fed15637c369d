//===- strategy_parity_test.cpp - Refactor bit-identity guarantees --------===//
//
// Part of the DEFACTO-DSE project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// The SearchStrategy / EvaluationService split must not move a single
/// bit of the guided walk: the same selected design, visit table, walk
/// trace, accounting, and decisionDigest() — across every seed kernel,
/// both platforms, and no pool or a 4- or 8-thread one — whether the
/// walk runs through the DesignSpaceExplorer façade,
/// runWithStrategy("guided"), or a bare strategy over an
/// EvaluationService.
///
//===----------------------------------------------------------------------===//

#include "defacto/Core/Explorer.h"
#include "defacto/Core/SearchStrategy.h"
#include "defacto/Kernels/Kernels.h"

#include <gtest/gtest.h>

using namespace defacto;

namespace {

struct TracedRun {
  ExplorationResult Result;
  std::shared_ptr<TraceRecorder> Recorder;
};

ExplorerOptions makeOptions(const TargetPlatform &Platform, unsigned Threads,
                            std::shared_ptr<TraceRecorder> Trace) {
  ExplorerOptions Opts;
  Opts.Platform = Platform;
  if (Threads > 1)
    Opts.Pool = std::make_shared<ThreadPool>(Threads);
  Opts.Trace = std::move(Trace);
  return Opts;
}

TracedRun runFacade(const std::string &Name, const TargetPlatform &Platform,
                    unsigned Threads) {
  auto Trace = std::make_shared<TraceRecorder>();
  Trace->setEnabled(true);
  Kernel K = buildKernel(Name);
  DesignSpaceExplorer Ex(K, makeOptions(Platform, Threads, Trace));
  return {Ex.run(), Trace};
}

TracedRun runStrategy(const std::string &Name, const TargetPlatform &Platform,
                      unsigned Threads) {
  auto Trace = std::make_shared<TraceRecorder>();
  Trace->setEnabled(true);
  Kernel K = buildKernel(Name);
  Expected<ExplorationResult> R =
      exploreWithStrategy(K, makeOptions(Platform, Threads, Trace), "guided");
  EXPECT_TRUE(static_cast<bool>(R));
  return {*R, Trace};
}

void expectIdentical(const ExplorationResult &A, const ExplorationResult &B) {
  EXPECT_EQ(A.Selected, B.Selected);
  EXPECT_EQ(A.SelectedEstimate.Cycles, B.SelectedEstimate.Cycles);
  EXPECT_EQ(A.SelectedEstimate.Slices, B.SelectedEstimate.Slices);
  EXPECT_EQ(A.BaselineEstimate.Cycles, B.BaselineEstimate.Cycles);
  EXPECT_EQ(A.SelectedFits, B.SelectedFits);
  EXPECT_EQ(A.Degraded, B.Degraded);
  EXPECT_EQ(A.EvaluationsUsed, B.EvaluationsUsed);
  EXPECT_EQ(A.Strategy, B.Strategy);
  EXPECT_EQ(A.Trace, B.Trace);
  ASSERT_EQ(A.Visited.size(), B.Visited.size());
  for (size_t I = 0; I != A.Visited.size(); ++I) {
    EXPECT_EQ(A.Visited[I].U, B.Visited[I].U);
    EXPECT_EQ(A.Visited[I].Role, B.Visited[I].Role);
    EXPECT_EQ(A.Visited[I].Estimate.Cycles, B.Visited[I].Estimate.Cycles);
  }
}

} // namespace

//===----------------------------------------------------------------------===//
// Guided parity: façade vs strategy entry point, at every thread count.
//===----------------------------------------------------------------------===//

TEST(StrategyParity, FacadeAndStrategyEntryPointsAreBitIdentical) {
  for (const KernelSpec &Spec : paperKernels())
    for (bool Pipelined : {true, false})
      for (unsigned Threads : {1u, 4u, 8u}) {
        SCOPED_TRACE(Spec.Name + (Pipelined ? "/pipe" : "/nonpipe") +
                     "/threads=" + std::to_string(Threads));
        TargetPlatform P = Pipelined
                               ? TargetPlatform::wildstarPipelined()
                               : TargetPlatform::wildstarNonPipelined();
        TracedRun Facade = runFacade(Spec.Name, P, Threads);
        TracedRun Strategy = runStrategy(Spec.Name, P, Threads);
        expectIdentical(Facade.Result, Strategy.Result);
        EXPECT_EQ(Facade.Recorder->decisionDigest(),
                  Strategy.Recorder->decisionDigest());
      }
}

TEST(StrategyParity, GuidedDigestIsIdenticalAcrossThreadCounts) {
  for (const KernelSpec &Spec : paperKernels())
    for (bool Pipelined : {true, false}) {
      SCOPED_TRACE(Spec.Name + (Pipelined ? "/pipelined" : "/nonpipelined"));
      TargetPlatform P = Pipelined ? TargetPlatform::wildstarPipelined()
                                   : TargetPlatform::wildstarNonPipelined();
      TracedRun Seq = runStrategy(Spec.Name, P, 1);
      TracedRun Par4 = runStrategy(Spec.Name, P, 4);
      TracedRun Par8 = runStrategy(Spec.Name, P, 8);
      expectIdentical(Seq.Result, Par4.Result);
      expectIdentical(Seq.Result, Par8.Result);
      EXPECT_EQ(Seq.Recorder->decisionDigest(),
                Par4.Recorder->decisionDigest());
      EXPECT_EQ(Seq.Recorder->decisionDigest(),
                Par8.Recorder->decisionDigest());
    }
}

TEST(StrategyParity, RunWithStrategyGuidedMatchesRun) {
  for (const KernelSpec &Spec : paperKernels()) {
    SCOPED_TRACE(Spec.Name);
    Kernel K = buildKernel(Spec.Name);
    ExplorationResult ViaRun = DesignSpaceExplorer(K, {}).run();
    Expected<ExplorationResult> ViaName =
        DesignSpaceExplorer(K, {}).runWithStrategy("guided");
    ASSERT_TRUE(static_cast<bool>(ViaName));
    expectIdentical(ViaRun, *ViaName);
  }
}

TEST(StrategyParity, GuidedResultIsStampedWithItsStrategy) {
  ExplorationResult R = DesignSpaceExplorer(buildKernel("FIR"), {}).run();
  EXPECT_EQ(R.Strategy, "guided");
  EXPECT_NE(R.toString().find("strategy=guided"), std::string::npos);
}

//===----------------------------------------------------------------------===//
// The exhaustive/random baselines survived the move onto strategies.
//===----------------------------------------------------------------------===//

TEST(StrategyParity, ExhaustiveFreeFunctionMatchesStrategy) {
  Kernel K = buildKernel("MM");
  ExplorationResult Free = exploreExhaustive(K, {});
  Expected<ExplorationResult> Named = exploreWithStrategy(K, {}, "exhaustive");
  ASSERT_TRUE(static_cast<bool>(Named));
  expectIdentical(Free, *Named);
  // Exhaustive visits every divisor-valid candidate, far more than any
  // guided walk but still far fewer than the full Cartesian space.
  EXPECT_GT(Free.Visited.size(), 10u);
  EXPECT_LE(Free.Visited.size(), Free.FullSpaceSize);
}

TEST(StrategyParity, RandomFreeFunctionMatchesDefaultStrategy) {
  Kernel K = buildKernel("PAT");
  // The registry's "random" uses the documented defaults (24 samples,
  // seed 2002); the free function with the same parameters must agree.
  ExplorationResult Free = exploreRandom(K, {}, 24, 2002);
  Expected<ExplorationResult> Named = exploreWithStrategy(K, {}, "random");
  ASSERT_TRUE(static_cast<bool>(Named));
  expectIdentical(Free, *Named);
}

//===----------------------------------------------------------------------===//
// Every registered strategy is runnable by name over the seed kernels.
//===----------------------------------------------------------------------===//

TEST(StrategyParity, EveryRegisteredStrategyRunsOnEveryPaperKernel) {
  for (const std::string &Name : StrategyRegistry::instance().names())
    for (const KernelSpec &Spec : paperKernels()) {
      SCOPED_TRACE(Name + "/" + Spec.Name);
      Kernel K = buildKernel(Spec.Name);
      Expected<ExplorationResult> R = exploreWithStrategy(K, {}, Name);
      ASSERT_TRUE(static_cast<bool>(R));
      EXPECT_EQ(R->Strategy, Name);
      EXPECT_FALSE(R->Visited.empty());
      EXPECT_TRUE(R->SelectedFits);
      EXPECT_LE(R->SelectedEstimate.Slices,
                ExplorerOptions{}.Platform.CapacitySlices);
    }
}
