//===- route_parity_test.cpp - The single evaluation route's references ---===//
//
// Part of the DEFACTO-DSE project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// The engine has one evaluation route: applyPipeline (which verifies its
/// output) and then the estimator. This suite pins that route to three
/// independent references:
///
///   * tests/golden/route_parity.golden, written by the two-route engine
///     the single route replaced. For every paperKernels() and
///     extendedKernels() kernel, over a sample of its enumerated
///     DesignSpace (every unroll-only point plus interchange/tile points;
///     see sampledPoints) on both WildStar platforms, one line holds the FNV-1a digest of the printed
///     transformed IR and the estimate fields in hexfloat. Further lines
///     hold the winner and decision-digest hash of exhaustive, guided,
///     guided+tile and one custom-pipeline exploration of each paper
///     kernel.
///   * a verbatim copy of the historical two-walk estimateDesign (below),
///     which estimateDesign must match bit for bit on the same points and
///     on the fuzz_pipeline_test seeds.
///   * the same explorations with no pool and on an 8-thread pool, which
///     must agree with each other and with the golden lines.
///
/// It also checks that every kernel handed to the built-in estimator is
/// verified exactly once.
///
/// Regenerating the golden file (only when a change is meant to move
/// results): run this binary with DEFACTO_WRITE_ROUTE_GOLDEN=PATH and
/// --gtest_filter=RouteParity.WriteGolden.
///
//===----------------------------------------------------------------------===//

#include "KernelFuzzer.h"

#include "defacto/Analysis/ValueRange.h"
#include "defacto/Core/Explorer.h"
#include "defacto/HLS/DFG.h"
#include "defacto/HLS/Estimator.h"
#include "defacto/HLS/OperatorLibrary.h"
#include "defacto/IR/IRPrinter.h"
#include "defacto/IR/IRUtils.h"
#include "defacto/Kernels/Kernels.h"
#include "defacto/Support/Stats.h"
#include "defacto/Support/Trace.h"
#include "defacto/Transforms/Pipeline.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <set>

using namespace defacto;

namespace {

//===----------------------------------------------------------------------===//
// The historical two-walk estimateDesign, verbatim (minus its timers):
// the register set is an ordered set, register area is summed over it,
// and rotation muxes are summed in a second walk of the body.
//===----------------------------------------------------------------------===//

struct Totals {
  double Joint = 0;
  double MemOnly = 0;
  double CompOnly = 0;
  double Bits = 0;
  uint64_t States = 0;
  std::map<OpShape, unsigned> PeakUnits;

  void mergeUnits(const std::map<OpShape, unsigned> &Other) {
    for (const auto &[Shape, N] : Other) {
      unsigned &Slot = PeakUnits[Shape];
      Slot = std::max(Slot, N);
    }
  }
};

class EstimatorWalk {
public:
  EstimatorWalk(const Kernel &K, const TargetPlatform &P) : K(K), P(P) {
    if (P.Widths == TargetPlatform::WidthModel::Inferred)
      Ranges = std::make_unique<ValueRangeAnalysis>(K);
    int Next = 0;
    unsigned M = P.NumMemories == 0 ? 1 : P.NumMemories;
    walkStmts(const_cast<Kernel &>(K).body(), [&](Stmt *S) {
      auto visit = [&](Expr *E) {
        walkExpr(E, [&](Expr *X) {
          auto *A = dyn_cast<ArrayAccessExpr>(X);
          if (!A || Ports.count(A->array()))
            return;
          int Port = A->array()->physicalMemId();
          if (Port < 0)
            Port = Next++ % static_cast<int>(M);
          Ports[A->array()] = Port;
        });
      };
      if (auto *A = dyn_cast<AssignStmt>(S)) {
        visit(A->dest());
        visit(A->value());
      } else if (auto *I = dyn_cast<IfStmt>(S)) {
        visit(I->cond());
      }
    });
  }

  Totals run() { return walkList(K.body()); }

private:
  Totals walkList(const StmtList &Stmts) {
    Totals T;
    std::vector<const Stmt *> Segment;
    auto flush = [&]() {
      if (Segment.empty())
        return;
      std::function<unsigned(const Expr *)> WidthOf;
      if (Ranges)
        WidthOf = [this](const Expr *E) { return Ranges->widthOf(E); };
      else if (P.Widths == TargetPlatform::WidthModel::Uniform32)
        WidthOf = [](const Expr *) { return 32u; };
      std::function<int(const ArrayAccessExpr *)> PortFn =
          [this](const ArrayAccessExpr *A) {
            if (A->steadyStatePort() >= 0)
              return A->steadyStatePort() %
                     static_cast<int>(P.NumMemories ? P.NumMemories : 1);
            auto It = Ports.find(A->array());
            return It == Ports.end() ? 0 : It->second;
          };
      DFG Graph = buildSegmentDFG(Segment, PortFn, WidthOf);
      SegmentSchedule Sched = scheduleSegment(Graph, P);
      T.Joint += Sched.JointCycles;
      T.MemOnly += Sched.MemOnlyCycles;
      T.CompOnly += Sched.CompOnlyCycles;
      T.Bits += Sched.BitsTransferred;
      T.States += Sched.JointCycles;
      T.mergeUnits(Sched.PeakUnits);
      Segment.clear();
    };

    for (const StmtPtr &SP : Stmts) {
      if (const auto *F = dyn_cast<ForStmt>(SP.get())) {
        flush();
        Totals Child = walkList(F->body());
        double Trip = static_cast<double>(F->tripCount());
        T.Joint += Trip * (Child.Joint + P.LoopOverheadCycles);
        T.MemOnly += Trip * Child.MemOnly;
        T.CompOnly += Trip * Child.CompOnly;
        T.Bits += Trip * Child.Bits;
        T.States += Child.States + 2; // Loop entry/exit control states.
        T.mergeUnits(Child.PeakUnits);
        continue;
      }
      Segment.push_back(SP.get());
    }
    flush();
    return T;
  }

  const Kernel &K;
  const TargetPlatform &P;
  std::unique_ptr<ValueRangeAnalysis> Ranges;
  std::map<const ArrayDecl *, int> Ports;
};

SynthesisEstimate twoWalkEstimate(const Kernel &K,
                                  const TargetPlatform &Platform) {
  Totals T = EstimatorWalk(K, Platform).run();

  SynthesisEstimate E;
  E.Cycles = static_cast<uint64_t>(std::llround(T.Joint));
  E.MemOnlyCycles = T.MemOnly;
  E.CompOnlyCycles = T.CompOnly;
  E.BitsTransferred = T.Bits;
  E.FsmStates = T.States;
  E.Units = T.PeakUnits;

  if (T.Bits > 0 && T.MemOnly > 0)
    E.FetchRate = T.Bits / T.MemOnly;
  if (T.Bits > 0 && T.CompOnly > 0)
    E.ConsumeRate = T.Bits / T.CompOnly;
  if (T.MemOnly > 0)
    E.Balance = T.CompOnly / T.MemOnly;
  else
    E.Balance = HUGE_VAL; // No memory traffic: trivially compute bound.

  std::set<const ScalarDecl *> Used;
  walkStmts(const_cast<Kernel &>(K).body(), [&](Stmt *S) {
    auto visit = [&](Expr *Ex) {
      walkExpr(Ex, [&](Expr *X) {
        if (auto *SR = dyn_cast<ScalarRefExpr>(X))
          Used.insert(SR->decl());
      });
    };
    if (auto *A = dyn_cast<AssignStmt>(S)) {
      visit(A->dest());
      visit(A->value());
    } else if (auto *I = dyn_cast<IfStmt>(S)) {
      visit(I->cond());
    } else if (auto *R = dyn_cast<RotateStmt>(S)) {
      for (const ScalarDecl *D : R->chain())
        Used.insert(D);
    }
  });
  E.Registers = Used.size();

  double Area = 0;
  for (const auto &[Shape, N] : T.PeakUnits)
    Area += N * operatorAreaSlices(Shape.first, Shape.second);
  for (const ScalarDecl *D : Used)
    Area += registerAreaSlices(bitWidth(D->type()));
  // Rotation paths add a feedback mux per register in each chain.
  walkStmts(const_cast<Kernel &>(K).body(), [&](Stmt *S) {
    if (auto *R = dyn_cast<RotateStmt>(S))
      for (const ScalarDecl *D : R->chain())
        Area += operatorAreaSlices(OpClass::Mux, bitWidth(D->type()));
  });
  // Memory interfaces: address counters and data registers per port.
  Area += 25.0 * Platform.NumMemories;
  // Control FSM: state register, next-state logic per state.
  Area += 40.0 + 1.5 * static_cast<double>(T.States);
  E.Slices = Area;
  return E;
}

//===----------------------------------------------------------------------===//
// Golden-line encoding.
//===----------------------------------------------------------------------===//

uint64_t fnv1a(const std::string &Bytes) {
  uint64_t H = 1469598103934665603ull;
  for (unsigned char C : Bytes) {
    H ^= C;
    H *= 1099511628211ull;
  }
  return H;
}

std::string hex64(uint64_t V) {
  char Buf[20];
  std::snprintf(Buf, sizeof(Buf), "%016llx",
                static_cast<unsigned long long>(V));
  return Buf;
}

std::string hexDouble(double V) {
  char Buf[40];
  std::snprintf(Buf, sizeof(Buf), "%a", V);
  return Buf;
}

/// Every estimate field, doubles in hexfloat (exact).
std::string encodeEstimate(const SynthesisEstimate &E) {
  std::string Out = "cycles=" + std::to_string(E.Cycles) +
                    " slices=" + hexDouble(E.Slices) +
                    " regs=" + std::to_string(E.Registers) +
                    " fetch=" + hexDouble(E.FetchRate) +
                    " consume=" + hexDouble(E.ConsumeRate) +
                    " balance=" + hexDouble(E.Balance) +
                    " mem=" + hexDouble(E.MemOnlyCycles) +
                    " comp=" + hexDouble(E.CompOnlyCycles) +
                    " bits=" + hexDouble(E.BitsTransferred) +
                    " fsm=" + std::to_string(E.FsmStates) + " units=";
  for (const auto &[Shape, N] : E.Units)
    Out += std::string(opClassName(Shape.first)) +
           std::to_string(Shape.second) + ":" + std::to_string(N) + ",";
  return Out;
}

std::vector<TargetPlatform> wildstarPlatforms() {
  return {TargetPlatform::wildstarPipelined(),
          TargetPlatform::wildstarNonPipelined()};
}

std::vector<const KernelSpec *> allKernels() {
  std::vector<const KernelSpec *> Specs;
  for (const KernelSpec &S : paperKernels())
    Specs.push_back(&S);
  for (const KernelSpec &S : extendedKernels())
    Specs.push_back(&S);
  return Specs;
}

/// The transform configuration EvaluationService builds for \p P under
/// default options.
TransformOptions transformOptionsFor(const DesignPoint &P,
                                     const TargetPlatform &Platform) {
  TransformOptions TO;
  TO.Unroll = P.Unroll;
  TO.Layout.NumMemories = Platform.NumMemories;
  if (P.Tile)
    TO.StripMine = P.Tile;
  if (!P.Interchange.empty())
    TO.Interchange = P.Interchange;
  return TO;
}

/// The points of \p Space the suite evaluates: every unroll-only point,
/// the all-ones unroll vector of every interchange/tile combination, and
/// every 37th point of the rest. The whole enumeration (about 34,000
/// points per platform over the eight kernels, most of them deep
/// unrolls) is far beyond a unit test's budget; this sample keeps every
/// interchange and tile shape and a spread of unroll factors in each.
std::vector<DesignPoint> sampledPoints(const DesignSpace &Space) {
  std::vector<DesignPoint> All = Space.enumerate(), Sample;
  for (size_t I = 0; I != All.size(); ++I) {
    const DesignPoint &P = All[I];
    bool Base = std::all_of(P.Unroll.begin(), P.Unroll.end(),
                            [](int64_t F) { return F == 1; });
    if (P.isUnrollOnly() || Base || I % 37 == 0)
      Sample.push_back(P);
  }
  return Sample;
}

/// Calls \p Fn(Kernel name, platform, point, pipeline result) for every
/// sampled point of every kernel's design space on both platforms.
/// One sampled design space: a kernel on a platform.
struct PointSweep {
  const KernelSpec *Spec;
  TargetPlatform Platform;
};

void PrintTo(const PointSweep &S, std::ostream *OS) {
  *OS << S.Spec->Name << " @ " << S.Platform.Name;
}

std::vector<PointSweep> pointSweeps() {
  std::vector<PointSweep> Sweeps;
  for (const KernelSpec *Spec : allKernels())
    for (const TargetPlatform &Platform : wildstarPlatforms())
      Sweeps.push_back({Spec, Platform});
  return Sweeps;
}

template <typename Fn>
void forEachDesignPoint(const PointSweep &S, Fn &&Visit) {
  Kernel K = buildKernel(S.Spec->Name);
  PipelineContext Ctx(K);
  ExplorerOptions Opts;
  Opts.Platform = S.Platform;
  DesignSpaceExplorer Ex(K, Opts);
  DesignSpace Space(Ex.space());
  for (const DesignPoint &P : sampledPoints(Space))
    Visit(P, applyPipeline(Ctx, transformOptionsFor(P, S.Platform)));
}

/// One golden line per design point.
std::string pointLine(const std::string &Kernel, const TargetPlatform &Platform,
                      const DesignPoint &P, const TransformResult &R) {
  std::string Line = "point\t" + Kernel + "\t" + Platform.Name + "\t" +
                     P.toString() + "\t";
  if (!R.ok())
    return Line + "error=" + R.Error.message();
  return Line + "ir=" + hex64(fnv1a(printKernel(R.K))) + "\t" +
         encodeEstimate(estimateDesign(R.K, Platform));
}

/// An exploration whose winner and decision digest the golden file pins.
struct ExplorationCase {
  std::string Kernel;
  TargetPlatform Platform;
  std::string Strategy;
  std::string Pipeline; // empty: the default pipeline
};

std::vector<ExplorationCase> explorationCases() {
  std::vector<ExplorationCase> Cases;
  for (const KernelSpec &Spec : paperKernels())
    for (const TargetPlatform &Platform : wildstarPlatforms()) {
      for (const char *Strategy : {"exhaustive", "guided", "guided+tile"})
        Cases.push_back({Spec.Name, Platform, Strategy, ""});
      // A custom pass pipeline: the default sequence without peeling.
      Cases.push_back({Spec.Name, Platform, "guided",
                       "normalize,stripmine,unroll,normalize,scalar-repl,"
                       "fold,layout"});
    }
  return Cases;
}

std::string explorationLine(const ExplorationCase &C, unsigned Threads) {
  auto Trace = std::make_shared<TraceRecorder>();
  Trace->setEnabled(true);
  ExplorerOptions Opts;
  Opts.Platform = C.Platform;
  if (Threads > 1)
    Opts.Pool = std::make_shared<ThreadPool>(Threads);
  Opts.Trace = Trace;
  Opts.BaseTransforms.Pipeline = C.Pipeline;
  Kernel K = buildKernel(C.Kernel);
  DesignSpaceExplorer Ex(K, Opts);
  Expected<ExplorationResult> R = Ex.runWithStrategy(C.Strategy);
  std::string Line = "explore\t" + C.Kernel + "\t" + C.Platform.Name + "\t" +
                     C.Strategy + "\t" +
                     (C.Pipeline.empty() ? "default" : C.Pipeline) + "\t";
  if (!R)
    return Line + "error=" + R.status().message();
  std::string Digest;
  for (const std::string &L : Trace->decisionDigest())
    Digest += L + "\n";
  // Unroll-only strategies may leave SelectedPoint defaulted.
  DesignPoint Winner = R->SelectedPoint.isUnrollOnly()
                           ? DesignPoint(R->Selected)
                           : R->SelectedPoint;
  return Line + "selected=" + Winner.toString() +
         " evals=" + std::to_string(R->EvaluationsUsed) +
         " digest=" + hex64(fnv1a(Digest)) + "\t" +
         encodeEstimate(R->SelectedEstimate);
}

std::string goldenPath() {
  return std::string(DEFACTO_TEST_DIR) + "/golden/route_parity.golden";
}

/// The golden lines of \p Kind whose leading fields start with \p Key
/// (every line of the kind when empty).
std::vector<std::string> readGolden(const std::string &Kind,
                                    const std::string &Key = "") {
  std::ifstream In(goldenPath());
  std::vector<std::string> Lines;
  std::string Line;
  while (std::getline(In, Line))
    if (Line.rfind(Kind + "\t" + Key, 0) == 0)
      Lines.push_back(Line);
  return Lines;
}

} // namespace

//===----------------------------------------------------------------------===//
// Design points: printed IR and estimates match the replaced engine's,
// and the single-walk estimator equals the historical two-walk one.
//===----------------------------------------------------------------------===//

static void expectBitEqual(const SynthesisEstimate &A,
                           const SynthesisEstimate &B) {
  EXPECT_EQ(encodeEstimate(A), encodeEstimate(B));
}

/// One pass over a sampled design space checks both references: the
/// golden lines (printed IR and estimate) and the two-walk oracle. One
/// instance per kernel and platform, so tests/CMakeLists.txt can split
/// the sweep into ctest entries that each finish within the per-test
/// timeout under the thread sanitizer.
class RouteParityPoints : public ::testing::TestWithParam<PointSweep> {};

TEST_P(RouteParityPoints, MatchGoldenAndTwoWalkOracle) {
  const PointSweep &S = GetParam();
  std::vector<std::string> Lines;
  forEachDesignPoint(S, [&](const DesignPoint &P, const TransformResult &R) {
    Lines.push_back(pointLine(S.Spec->Name, S.Platform, P, R));
    if (R.ok()) {
      SCOPED_TRACE(P.toString());
      expectBitEqual(estimateDesign(R.K, S.Platform),
                     twoWalkEstimate(R.K, S.Platform));
    }
  });

  std::vector<std::string> Golden =
      readGolden("point", S.Spec->Name + "\t" + S.Platform.Name + "\t");
  ASSERT_EQ(Lines.size(), Golden.size()) << "golden file " << goldenPath();
  size_t Mismatches = 0;
  for (size_t I = 0; I != Lines.size(); ++I)
    if (Lines[I] != Golden[I] && ++Mismatches <= 10)
      ADD_FAILURE() << "got:    " << Lines[I] << "\nwanted: " << Golden[I];
  EXPECT_EQ(Mismatches, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Sweeps, RouteParityPoints, ::testing::ValuesIn(pointSweeps()),
    [](const ::testing::TestParamInfo<PointSweep> &Info) {
      std::string Name = Info.param.Spec->Name + "_" + Info.param.Platform.Name;
      std::replace(Name.begin(), Name.end(), '-', '_');
      return Name;
    });

/// Every golden point line belongs to one of the sweeps above.
TEST(RouteParity, GoldenPointLinesAllBelongToASweep) {
  size_t Covered = 0;
  for (const PointSweep &S : pointSweeps())
    Covered +=
        readGolden("point", S.Spec->Name + "\t" + S.Platform.Name + "\t")
            .size();
  EXPECT_EQ(Covered, readGolden("point").size());
}

/// Regenerates the golden file; skipped unless
/// DEFACTO_WRITE_ROUTE_GOLDEN=PATH is set.
TEST(RouteParity, WriteGolden) {
  const char *WritePath = std::getenv("DEFACTO_WRITE_ROUTE_GOLDEN");
  if (!WritePath)
    GTEST_SKIP() << "set DEFACTO_WRITE_ROUTE_GOLDEN=PATH to regenerate";
  std::vector<std::string> Lines;
  for (const PointSweep &S : pointSweeps())
    forEachDesignPoint(S, [&](const DesignPoint &P, const TransformResult &R) {
      Lines.push_back(pointLine(S.Spec->Name, S.Platform, P, R));
    });
  for (const ExplorationCase &C : explorationCases())
    Lines.push_back(explorationLine(C, 1));
  std::ofstream OS(WritePath);
  for (const std::string &L : Lines)
    OS << L << '\n';
  std::printf("wrote %zu golden lines to %s\n", Lines.size(), WritePath);
}

TEST(RouteParity, EstimatorMatchesTwoWalkOracleOnFuzzSeeds) {
  for (uint64_t Seed = 0; Seed != test::fuzzSeedCount(); ++Seed) {
    test::KernelFuzzer Fuzzer(Seed);
    Kernel K = Fuzzer.generate();
    for (int Trial = 0; Trial != 3; ++Trial) {
      TransformOptions Opts;
      Opts.Unroll = Fuzzer.randomUnroll(K);
      TransformResult R = applyPipeline(K, Opts);
      ASSERT_TRUE(R.ok()) << R.Error.message();
      for (const TargetPlatform &Platform : wildstarPlatforms()) {
        SCOPED_TRACE("seed " + std::to_string(Seed) + " unroll " +
                     unrollVectorToString(Opts.Unroll) + " @ " +
                     Platform.Name);
        expectBitEqual(estimateDesign(R.K, Platform),
                       twoWalkEstimate(R.K, Platform));
      }
    }
  }
}

//===----------------------------------------------------------------------===//
// Winners and decision digests: 1 and 8 threads, against the golden.
//===----------------------------------------------------------------------===//

TEST(RouteParity, ExplorationsMatchGoldenAtOneAndEightThreads) {
  std::vector<std::string> Golden = readGolden("explore");
  std::vector<ExplorationCase> Cases = explorationCases();
  ASSERT_EQ(Golden.size(), Cases.size()) << "golden file " << goldenPath();
  for (size_t I = 0; I != Cases.size(); ++I)
    for (unsigned Threads : {1u, 8u}) {
      SCOPED_TRACE(std::to_string(Threads) + " thread(s)");
      EXPECT_EQ(explorationLine(Cases[I], Threads), Golden[I]);
    }
}

//===----------------------------------------------------------------------===//
// Verification happens once per estimated kernel.
//===----------------------------------------------------------------------===//

static uint64_t verifications() {
  for (const StatSnapshot &S : StatRegistry::instance().snapshot())
    if (S.Group == "ir" && S.Name == "verifications")
      return S.Value;
  return 0;
}

TEST(RouteParity, EachEstimatedKernelIsVerifiedOnce) {
  Kernel K = buildKernel("MM");
  for (const char *Strategy : {"exhaustive", "guided+tile"}) {
    SCOPED_TRACE(Strategy);
    ExplorerOptions Opts;
    DesignSpaceExplorer Ex(K, Opts);
    StatRegistry::instance().setEnabled(true);
    uint64_t Before = verifications();
    Expected<ExplorationResult> R = Ex.runWithStrategy(Strategy);
    uint64_t Verified = verifications() - Before;
    StatRegistry::instance().setEnabled(false);
    ASSERT_TRUE(R);
    // Every charged attempt that did not fail reached the estimator (a
    // failed attempt here is an illegal interchange, rejected by the
    // pipeline before verification). Each of those kernels was verified
    // exactly once: by applyPipeline, never again by the estimator.
    unsigned FailedAttempts = 0;
    for (const EvaluationFailure &F : R->Failures)
      FailedAttempts += F.Attempts;
    EXPECT_GT(R->EvaluationsUsed, FailedAttempts);
    EXPECT_EQ(Verified, R->EvaluationsUsed - FailedAttempts);
  }
}
