//===- pipeline_parity_test.cpp - Pass-pipeline bit-identity gate ---------===//
//
// Part of the DEFACTO-DSE project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// The pass-pipeline refactor must not move a single bit of the default
/// transformation sequence. This suite replicates the pre-refactor
/// hard-coded pipeline (strip-mine -> unroll-and-jam -> normalize ->
/// scalar replacement -> peeling -> folding -> data layout, inlined here
/// from the legacy Pipeline.cpp) and checks applyPipeline against it:
/// identical printed IR and identical per-pass statistics across the
/// paper kernels and a grid of option combinations. It then proves the
/// explicit default pipeline text equals the implicit default, and that
/// exploration through an explicit text produces the same winners and
/// decision digest as the legacy path at 1 and 8 threads.
///
//===----------------------------------------------------------------------===//

#include "defacto/Core/SearchStrategy.h"
#include "defacto/IR/IRPrinter.h"
#include "defacto/IR/IRUtils.h"
#include "defacto/IR/IRVerifier.h"
#include "defacto/Kernels/Kernels.h"
#include "defacto/Transforms/ConstantFolding.h"
#include "defacto/Transforms/Normalize.h"
#include "defacto/Transforms/PassRegistry.h"
#include "defacto/Transforms/Pipeline.h"
#include "defacto/Transforms/Tiling.h"

#include <gtest/gtest.h>

using namespace defacto;

namespace {

/// The pre-refactor pipeline, verbatim: what runOnNormalized +
/// finishPipeline did before the sequence became a pass pipeline.
TransformResult legacyPipeline(const Kernel &Source,
                               const TransformOptions &Opts) {
  Kernel K = Source.clone();
  normalizeLoops(K);

  if (Opts.StripMine) {
    ForStmt *Top = K.topLoop();
    if (Top) {
      std::vector<ForStmt *> Nest = perfectNest(Top);
      unsigned Pos = Opts.StripMine->first;
      if (Pos < Nest.size())
        stripMine(K, Nest[Pos]->loopId(), Opts.StripMine->second);
    }
  }

  bool UnrollApplied = unrollAndJam(K, Opts.Unroll);
  normalizeLoops(K);

  TransformResult Result(std::move(K));
  Result.UnrollApplied = UnrollApplied;
  Kernel &T = Result.K;

  if (Opts.EnableScalarReplacement)
    Result.SR = scalarReplace(T, Opts.SR);
  if (Opts.EnablePeeling)
    Result.Peeling = peelGuardedIterations(T);
  foldConstants(T.body());
  if (Opts.EnableDataLayout) {
    Expected<DataLayoutStats> Layout = applyDataLayout(T, Opts.Layout);
    if (!Layout) {
      Result.Error = Layout.status();
      Result.K = Source.clone();
      return Result;
    }
    Result.Layout = *Layout;
  }

  if (!isKernelValid(T)) {
    Result.Error = Status::error(
        ErrorCode::MalformedIR,
        "transformation pipeline produced an invalid kernel");
    Result.K = Source.clone();
  }
  return Result;
}

void expectIdenticalResults(const TransformResult &Legacy,
                            const TransformResult &Piped) {
  EXPECT_EQ(printKernel(Legacy.K), printKernel(Piped.K));
  EXPECT_EQ(Legacy.UnrollApplied, Piped.UnrollApplied);
  EXPECT_EQ(Legacy.Error.code(), Piped.Error.code());
  EXPECT_EQ(Legacy.SR.RegistersAllocated, Piped.SR.RegistersAllocated);
  EXPECT_EQ(Legacy.SR.ChainsCreated, Piped.SR.ChainsCreated);
  EXPECT_EQ(Legacy.SR.WindowsCreated, Piped.SR.WindowsCreated);
  EXPECT_EQ(Legacy.SR.LoadsRemoved, Piped.SR.LoadsRemoved);
  EXPECT_EQ(Legacy.SR.StoresRemoved, Piped.SR.StoresRemoved);
  EXPECT_EQ(Legacy.Peeling.LoopsPeeled, Piped.Peeling.LoopsPeeled);
  EXPECT_EQ(Legacy.Layout.ArraysDistributed, Piped.Layout.ArraysDistributed);
  EXPECT_EQ(Legacy.Layout.VirtualMemories, Piped.Layout.VirtualMemories);
}

/// Option grid: unroll shapes x strip-mine x pass toggles, enough to
/// exercise every pass both on and off.
std::vector<TransformOptions> optionGrid(const Kernel &K) {
  std::vector<TransformOptions> Grid;
  ForStmt *Top = const_cast<Kernel &>(K).topLoop();
  size_t Depth = Top ? perfectNest(Top).size() : 0;

  auto WithUnroll = [&](UnrollVector U) {
    TransformOptions O;
    O.Unroll = std::move(U);
    O.Layout.NumMemories = 8;
    return O;
  };

  Grid.push_back(WithUnroll({}));
  Grid.push_back(WithUnroll(UnrollVector(Depth, 2)));
  UnrollVector Mixed(Depth, 1);
  if (!Mixed.empty())
    Mixed.front() = 4;
  Grid.push_back(WithUnroll(Mixed));

  TransformOptions Tiled = WithUnroll(UnrollVector(Depth, 1));
  Tiled.StripMine = {0u, int64_t(4)};
  Grid.push_back(Tiled);

  TransformOptions NoSR = WithUnroll(UnrollVector(Depth, 2));
  NoSR.EnableScalarReplacement = false;
  Grid.push_back(NoSR);

  TransformOptions NoPeel = WithUnroll(UnrollVector(Depth, 2));
  NoPeel.EnablePeeling = false;
  Grid.push_back(NoPeel);

  TransformOptions NoLayout = WithUnroll(UnrollVector(Depth, 2));
  NoLayout.EnableDataLayout = false;
  Grid.push_back(NoLayout);

  TransformOptions Bare = WithUnroll(UnrollVector(Depth, 2));
  Bare.EnableScalarReplacement = false;
  Bare.EnablePeeling = false;
  Bare.EnableDataLayout = false;
  Grid.push_back(Bare);

  return Grid;
}

} // namespace

//===----------------------------------------------------------------------===//
// The pass pipeline reproduces the legacy hard-coded sequence bit for
// bit: printed IR and statistics, across kernels and option combos.
//===----------------------------------------------------------------------===//

TEST(PipelineParity, DefaultPipelineMatchesLegacySequence) {
  for (const KernelSpec &Spec : paperKernels()) {
    Kernel K = buildKernel(Spec.Name);
    std::vector<TransformOptions> Grid = optionGrid(K);
    for (size_t I = 0; I != Grid.size(); ++I) {
      SCOPED_TRACE(Spec.Name + "/option-combo=" + std::to_string(I));
      TransformResult Legacy = legacyPipeline(K, Grid[I]);
      TransformResult Piped = applyPipeline(K, Grid[I]);
      expectIdenticalResults(Legacy, Piped);
    }
  }
}

TEST(PipelineParity, ExtendedKernelsMatchToo) {
  for (const KernelSpec &Spec : extendedKernels()) {
    SCOPED_TRACE(Spec.Name);
    Kernel K = buildKernel(Spec.Name);
    TransformOptions Opts;
    ForStmt *Top = K.topLoop();
    Opts.Unroll = UnrollVector(Top ? perfectNest(Top).size() : 0, 2);
    Opts.Layout.NumMemories = 8;
    expectIdenticalResults(legacyPipeline(K, Opts), applyPipeline(K, Opts));
  }
}

//===----------------------------------------------------------------------===//
// Explicit default text == implicit default: the parser and registry do
// not perturb the sequence.
//===----------------------------------------------------------------------===//

TEST(PipelineParity, ExplicitDefaultTextMatchesImplicitDefault) {
  for (const KernelSpec &Spec : paperKernels()) {
    Kernel K = buildKernel(Spec.Name);
    for (const TransformOptions &Base : optionGrid(K)) {
      SCOPED_TRACE(Spec.Name);
      TransformOptions Explicit = Base;
      Explicit.Pipeline = defaultPipelineText();
      TransformResult Implicit = applyPipeline(K, Base);
      TransformResult Named = applyPipeline(K, Explicit);
      expectIdenticalResults(Implicit, Named);
    }
  }
}

TEST(PipelineParity, InterchangeVariantIsSelectedWhenInterchangeSet) {
  // With Interchange set and no explicit text, the default becomes the
  // interchange variant; spelling that variant out must be identical.
  Kernel K = buildKernel("MM");
  TransformOptions Base;
  Base.Unroll = {2, 2, 1};
  Base.Interchange = {1, 0, 2};
  Base.Layout.NumMemories = 8;
  TransformOptions Explicit = Base;
  Explicit.Pipeline = defaultPipelineTextWithInterchange();
  TransformResult Implicit = applyPipeline(K, Base);
  TransformResult Named = applyPipeline(K, Explicit);
  ASSERT_TRUE(Implicit.ok()) << Implicit.Error.toString();
  expectIdenticalResults(Implicit, Named);
}

//===----------------------------------------------------------------------===//
// Exploration through an explicit pipeline text: same winners, same
// decision digest as the legacy (implicit) path, sequential and 8-way.
//===----------------------------------------------------------------------===//

namespace {

struct TracedRun {
  ExplorationResult Result;
  std::shared_ptr<TraceRecorder> Recorder;
};

TracedRun runGuided(const std::string &Name, const TargetPlatform &Platform,
                    unsigned Threads, const std::string &Pipeline) {
  auto Trace = std::make_shared<TraceRecorder>();
  Trace->setEnabled(true);
  ExplorerOptions Opts;
  Opts.Platform = Platform;
  if (Threads > 1)
    Opts.Pool = std::make_shared<ThreadPool>(Threads);
  Opts.Trace = Trace;
  Opts.BaseTransforms.Pipeline = Pipeline;
  Kernel K = buildKernel(Name);
  Expected<ExplorationResult> R = exploreWithStrategy(K, Opts, "guided");
  EXPECT_TRUE(static_cast<bool>(R));
  return {*R, Trace};
}

} // namespace

TEST(PipelineParity, ExplorationDigestIdenticalUnderExplicitDefaultText) {
  for (const KernelSpec &Spec : paperKernels())
    for (bool Pipelined : {true, false})
      for (unsigned Threads : {1u, 8u}) {
        SCOPED_TRACE(Spec.Name + (Pipelined ? "/pipe" : "/nonpipe") +
                     "/threads=" + std::to_string(Threads));
        TargetPlatform P = Pipelined
                               ? TargetPlatform::wildstarPipelined()
                               : TargetPlatform::wildstarNonPipelined();
        TracedRun Implicit = runGuided(Spec.Name, P, Threads, "");
        TracedRun Explicit =
            runGuided(Spec.Name, P, Threads, defaultPipelineText());
        EXPECT_EQ(Implicit.Result.Selected, Explicit.Result.Selected);
        EXPECT_EQ(Implicit.Result.SelectedEstimate.Cycles,
                  Explicit.Result.SelectedEstimate.Cycles);
        EXPECT_EQ(Implicit.Result.SelectedEstimate.Slices,
                  Explicit.Result.SelectedEstimate.Slices);
        EXPECT_EQ(Implicit.Result.EvaluationsUsed,
                  Explicit.Result.EvaluationsUsed);
        EXPECT_EQ(Implicit.Result.Trace, Explicit.Result.Trace);
        EXPECT_EQ(Implicit.Recorder->decisionDigest(),
                  Explicit.Recorder->decisionDigest());
      }
}
