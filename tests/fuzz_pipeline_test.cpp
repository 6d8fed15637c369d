//===- fuzz_pipeline_test.cpp - Randomized pipeline equivalence -----------===//
//
// Part of the DEFACTO-DSE project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// Property fuzzing: generate random affine loop-nest kernels within the
/// paper's input domain (random nests, random affine accesses, random
/// expression shapes, occasional conditionals) and check that the full
/// transformation pipeline preserves semantics for several unroll
/// vectors, that the verifier stays green, and that estimation never
/// crashes or returns degenerate values.
///
//===----------------------------------------------------------------------===//

#include "KernelFuzzer.h"

#include "defacto/Core/Explorer.h"
#include "defacto/IR/IRPrinter.h"
#include "defacto/IR/IRUtils.h"
#include "defacto/IR/IRVerifier.h"
#include "defacto/Sim/Interpreter.h"
#include "defacto/Transforms/Pipeline.h"
#include "defacto/VHDL/VhdlEmitter.h"

#include <gtest/gtest.h>

using namespace defacto;
using defacto::test::fuzzSeedCount;
using defacto::test::KernelFuzzer;

namespace {

class PipelineFuzz : public ::testing::TestWithParam<uint64_t> {};

} // namespace

TEST_P(PipelineFuzz, RandomKernelsSurviveTheFullPipeline) {
  KernelFuzzer Fuzzer(GetParam());
  Kernel K = Fuzzer.generate();
  ASSERT_TRUE(isKernelValid(K)) << printKernel(K);
  auto Reference = simulate(K, GetParam());

  for (int Trial = 0; Trial != 3; ++Trial) {
    TransformOptions Opts;
    Opts.Unroll = Fuzzer.randomUnroll(K);
    TransformResult R = applyPipeline(K, Opts);
    ASSERT_TRUE(isKernelValid(R.K))
        << printKernel(K) << "\nunroll "
        << unrollVectorToString(Opts.Unroll);
    EXPECT_EQ(simulate(R.K, GetParam()), Reference)
        << printKernel(K) << "\nunroll "
        << unrollVectorToString(Opts.Unroll);

    SynthesisEstimate Est =
        estimateDesign(R.K, TargetPlatform::wildstarPipelined());
    EXPECT_GT(Est.Cycles, 0u);
    EXPECT_GT(Est.Slices, 0.0);

    // The back end must emit well-formed VHDL for anything the pipeline
    // produces.
    EXPECT_EQ(checkVhdlStructure(emitVhdl(R.K)), "");
  }
}

TEST_P(PipelineFuzz, RandomKernelsExplore) {
  KernelFuzzer Fuzzer(GetParam() ^ 0x9E3779B97F4A7C15ULL);
  Kernel K = Fuzzer.generate();
  ExplorerOptions Opts;
  ExplorationResult R = DesignSpaceExplorer(K, Opts).run();
  EXPECT_LE(R.SelectedEstimate.Cycles, R.BaselineEstimate.Cycles);
  EXPECT_LE(R.SelectedEstimate.Slices, Opts.Platform.CapacitySlices);
  // The selected design must still compute the right answer.
  TransformOptions TO;
  TO.Unroll = R.Selected;
  TransformResult Design = applyPipeline(K, TO);
  EXPECT_EQ(simulate(Design.K, 3), simulate(K, 3));
}

INSTANTIATE_TEST_SUITE_P(Seeds, PipelineFuzz,
                         ::testing::Range<uint64_t>(0, fuzzSeedCount()));
