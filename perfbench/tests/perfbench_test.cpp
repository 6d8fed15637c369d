//===- perfbench_test.cpp - Unit tests of the benchmark's own rules -------===//
//
// Part of the DEFACTO-DSE project, under the MIT License.
//
//===----------------------------------------------------------------------===//

#include "Checks.h"
#include "Common.h"
#include "Generator.h"

#include "defacto/Kernels/Kernels.h"

#include <gtest/gtest.h>

using namespace perfbench;

namespace {

std::vector<double> ramp(size_t N) {
  std::vector<double> V;
  for (size_t I = 1; I <= N; ++I)
    V.push_back(static_cast<double>(I));
  return V;
}

TEST(Percentiles, NearestRankIsExact) {
  std::vector<double> V = ramp(1000);
  size_t Beyond = 0;
  EXPECT_EQ(nearestRank(V, 50, &Beyond), 500);
  EXPECT_EQ(Beyond, 500u);
  EXPECT_EQ(nearestRank(V, 99, &Beyond), 990);
  EXPECT_EQ(Beyond, 10u);
  EXPECT_EQ(nearestRank(V, 99.9, &Beyond), 999);
  EXPECT_EQ(Beyond, 1u);
  EXPECT_EQ(nearestRank(ramp(1), 99), 1);
}

TEST(Percentiles, TailIsTheHighestLevelWithTenBeyond) {
  Summary S = summarize(ramp(1000));
  EXPECT_EQ(S.Count, 1000u);
  EXPECT_EQ(S.P50, 500);
  EXPECT_EQ(S.TailLevel, 99);
  EXPECT_EQ(S.Tail, 990);
  EXPECT_EQ(S.Beyond, 10u);
  ASSERT_TRUE(S.at(99).has_value());
  EXPECT_FALSE(S.at(99.9).has_value());

  // One sample fewer leaves 9 beyond p99: the rule falls back to p95.
  S = summarize(ramp(999));
  EXPECT_EQ(S.TailLevel, 95);
  EXPECT_EQ(S.Beyond, 49u);
  EXPECT_FALSE(S.at(99).has_value());

  EXPECT_EQ(summarize(ramp(10000)).TailLevel, 99.9);
  EXPECT_EQ(summarize(ramp(20)).TailLevel, 50);
  EXPECT_EQ(summarize(ramp(19)).TailLevel, 0);
  EXPECT_EQ(summarize({}).Count, 0u);
}

TEST(Percentiles, OrderOfSamplesDoesNotMatter) {
  std::vector<double> V = ramp(500);
  Rng R(7);
  R.shuffle(V);
  Summary S = summarize(V);
  EXPECT_EQ(S.P50, 250);
  EXPECT_EQ(S.TailLevel, 95);
  EXPECT_EQ(S.Tail, 475);
  EXPECT_NE(S.describe("ms").find("n=500"), std::string::npos);
}

TEST(Generator, TemplatesReproduceTheBuiltInKernels) {
  std::vector<defacto::KernelSpec> Specs = defacto::paperKernels();
  for (const defacto::KernelSpec &S : defacto::extendedKernels())
    Specs.push_back(S);
  ASSERT_EQ(Specs.size(), templateNames().size());
  for (const defacto::KernelSpec &S : Specs)
    EXPECT_EQ(renderKernel(S.Name, paperTrips(S.Name)), S.Source) << S.Name;
}

TEST(Generator, EveryVariantParses) {
  std::vector<Variant> All = allVariants(/*ExcludePaper=*/false);
  EXPECT_GT(All.size(), 500u);
  for (const Variant &V : All) {
    std::string Error;
    EXPECT_TRUE(parseSource(V.Source, V.label(), Error).has_value()) << Error;
  }
  EXPECT_EQ(allVariants(true).size() + templateNames().size(), All.size());
}

TEST(Generator, SameSeedGivesIdenticalInputs) {
  for (uint64_t Seed : {DefaultSeed, HeldOutSeed}) {
    CompilePlan A = makeCompilePlan(Seed), B = makeCompilePlan(Seed);
    EXPECT_EQ(describePlan(A, 1000), describePlan(B, 1000));
    for (size_t I = 0; I != A.Variants.size(); ++I)
      EXPECT_EQ(A.Variants[I].Source, B.Variants[I].Source);
    EXPECT_EQ(describePlan(makeServePlan(Seed, 10, 4000)),
              describePlan(makeServePlan(Seed, 10, 4000)));
    EXPECT_EQ(sweepOrder(Seed, 3, 16), sweepOrder(Seed, 3, 16));
  }
  CompilePlan A = makeCompilePlan(DefaultSeed);
  CompilePlan B = makeCompilePlan(HeldOutSeed);
  EXPECT_NE(describePlan(A, 200), describePlan(B, 200));
  EXPECT_NE(describePlan(makeServePlan(DefaultSeed, 5)),
            describePlan(makeServePlan(HeldOutSeed, 5)));
}

TEST(Generator, SchedulesArePrefixStable) {
  // A shorter run sees a prefix of a longer run's schedule, so the
  // reference table holds for any run length it covers.
  std::string Short = describePlan(makeServePlan(DefaultSeed, 10));
  std::string Long = describePlan(makeServePlan(DefaultSeed, 20));
  ASSERT_LT(Short.size(), Long.size());
  EXPECT_EQ(Long.compare(0, Short.size(), Short), 0);

  CompilePlan P = makeCompilePlan(DefaultSeed);
  std::string Ops300 = describePlan(P, 300);
  CompilePlan Q = makeCompilePlan(DefaultSeed);
  EXPECT_EQ(describePlan(Q, 100),
            Ops300.substr(0, describePlan(P, 100).size()));
}

TEST(Generator, ServePlanHasItsShape) {
  ServePlan P = makeServePlan(DefaultSeed, 20, 4000);
  ASSERT_EQ(P.Burst.size(), 4000u);
  // Every kernel on every platform with both strategies is hot.
  ASSERT_EQ(P.HotCount, templateNames().size() * platformNames().size() * 2);
  size_t Hot = 0;
  for (const ServeArrival &A : P.Arrivals)
    Hot += P.Tuples[A.Tuple].Hot;
  double Share = static_cast<double>(Hot) / P.Arrivals.size();
  EXPECT_NEAR(Share, ServeHotShare, 0.05);
  Hot = 0;
  for (unsigned T : P.Burst)
    Hot += P.Tuples[T].Hot;
  EXPECT_NEAR(static_cast<double>(Hot) / P.Burst.size(), ServeHotShare, 0.05);
  EXPECT_NEAR(P.Arrivals.size() / 20.0, ServeRatePerSecond,
              ServeRatePerSecond * 0.1);
  // Novel tuples repeat no (variant, platform) pair until the pool of
  // pairs is spent.
  const size_t Pool = allVariants(true).size() * platformNames().size();
  std::set<std::string> Novel;
  for (size_t I = P.HotCount; I != P.Tuples.size() && I - P.HotCount < Pool;
       ++I)
    EXPECT_TRUE(Novel.insert(P.Tuples[I].Kernel + '@' + P.Tuples[I].Platform)
                    .second);
}

TEST(Generator, CompilePlanIsHalfGuidedHalfTile) {
  CompilePlan P = makeCompilePlan(DefaultSeed);
  size_t Tile = 0;
  for (size_t I = 0; I != P.Ops.size(); ++I)
    Tile += P.Ops[P.indexAt(I)].Strategy == "guided+tile";
  EXPECT_EQ(Tile * 2, P.Ops.size());
  EXPECT_EQ(P.Variants.size(),
            CompileVariantsPerKernel * templateNames().size());
}

} // namespace
