//===- GuidedTileStrategy.cpp - Guided walk + tile/interchange refinement -===//
//
// Part of the DEFACTO-DSE project, under the MIT License.
//
//===----------------------------------------------------------------------===//
//
// The multi-dimensional demonstration strategy: run the paper's guided
// walk to its unroll-only optimum, then spend the remaining evaluation
// budget probing the interchange/tile neighborhood of that optimum
// (§5.4: moving a tile loop outside the reuse carrier shrinks the
// localized iteration space, trading fetch rate for registers). The
// selection is upgraded only when a refined point strictly beats the
// unroll-only optimum; otherwise the trace explains why none did.
//
//===----------------------------------------------------------------------===//

#include "defacto/Core/SearchStrategy.h"

#include "defacto/Transforms/Interchange.h"
#include "defacto/Transforms/Normalize.h"

#include <algorithm>
#include <cmath>

using namespace defacto;

namespace {

class GuidedTileStrategy : public SearchStrategy {
public:
  std::string name() const override { return "guided+tile"; }
  ExplorationResult search(const SearchContext &SC) override;
};

/// Up to two deterministic tile sizes per position: the smallest proper
/// divisor and the one closest to sqrt(trip) — a small near-square tile
/// localizes reuse without flooding the budget with every divisor.
std::vector<int64_t> pickTileSizes(const DesignSpace &DS, unsigned Pos,
                                   int64_t Trip) {
  std::vector<int64_t> All = DS.tileSizes(Pos);
  if (All.size() <= 2)
    return All;
  int64_t Root = static_cast<int64_t>(std::sqrt(static_cast<double>(Trip)));
  int64_t Near = All.front();
  for (int64_t T : All)
    if (std::llabs(T - Root) < std::llabs(Near - Root))
      Near = T;
  std::vector<int64_t> Picked{All.front()};
  if (Near != All.front())
    Picked.push_back(Near);
  return Picked;
}

} // namespace

ExplorationResult GuidedTileStrategy::search(const SearchContext &SC) {
  EvaluationService &Eval = SC.Eval;
  const ExplorerOptions &Opts = Eval.options();

  // Stage 1: the unchanged guided walk finds the unroll-only optimum.
  ExplorationResult Res = createGuidedStrategy()->search(SC);
  Res.Strategy = name();
  Res.SelectedPoint = DesignPoint(Res.Selected);

  if (!Res.SelectedFits) {
    Res.Trace += "tile refinement: skipped (no fitting unroll-only design)\n";
    return Res;
  }

  // Stage 2: refinement, under the same global budget — evaluations are
  // cumulative across stages, so re-arming with MaxEvaluations grants
  // only what the walk left over.
  Eval.beginBudget(Opts.MaxEvaluations);

  const DesignSpace &DS = Eval.designSpace();
  const UnrollSpace &Space = Eval.space();
  unsigned N = Space.numLoops();
  double Capacity = Opts.Platform.CapacitySlices;
  const UnrollVector BaseU = Res.Selected;
  const SynthesisEstimate BaseE = Res.SelectedEstimate;

  // Candidate points, deterministic order: legal pairwise interchanges
  // of the winner's unroll first, then tiles of each nest position.
  std::vector<std::pair<DesignPoint, const char *>> Points;

  if (N >= 2) {
    // Dependence legality is checked once on a normalized clone of the
    // source — exactly the nest the pipeline's interchange pass sees.
    Kernel Legal = SC.Source.clone();
    normalizeLoops(Legal);
    for (const std::vector<unsigned> &Perm : DS.pairSwaps()) {
      unsigned A = N, B = N;
      for (unsigned I = 0; I != N; ++I)
        if (Perm[I] != I) {
          A = I;
          B = Perm[I];
          break;
        }
      if (A == N || !canInterchange(Legal, A, B))
        continue;
      DesignPoint P;
      P.Interchange = Perm;
      P.Unroll.resize(N);
      for (unsigned I = 0; I != N; ++I)
        P.Unroll[I] = BaseU[Perm[I]]; // factors travel with their loops
      if (DS.isCandidate(P))
        Points.push_back({P, "interchange"});
    }
  }

  for (unsigned Pos = 0; Pos != N; ++Pos) {
    int64_t Trip = Space.trip(Pos);
    for (int64_t T : pickTileSizes(DS, Pos, Trip)) {
      DesignPoint P;
      P.Tile = std::make_pair(Pos, T);
      // The post-tile nest is one deeper: the outer loop (trip/T) keeps
      // the winner's factor when it still divides, the strip itself
      // stays unrolled by 1 (the tile's purpose is localization, not
      // more parallelism).
      P.Unroll.reserve(N + 1);
      for (unsigned I = 0; I != N; ++I) {
        if (I == Pos) {
          int64_t Outer = Trip / T;
          P.Unroll.push_back(Outer % BaseU[I] == 0 ? BaseU[I] : 1);
          P.Unroll.push_back(1);
        } else {
          P.Unroll.push_back(BaseU[I]);
        }
      }
      if (DS.isCandidate(P))
        Points.push_back({P, "tile"});
    }
  }

  auto isStop = [](const Status &S) {
    return S.code() == ErrorCode::DeadlineExceeded ||
           S.code() == ErrorCode::BudgetExhausted;
  };

  bool Improved = false;
  unsigned Probed = 0;
  Status Stop = Status::ok();
  DesignPoint StoppedAt;
  for (const auto &[P, RoleName] : Points) {
    Expected<SynthesisEstimate> Est = Eval.evaluateChecked(P);
    if (!Est) {
      Res.Trace += "FAIL " + P.toString() + " [" + RoleName + "] " +
                   Est.status().toString() + "\n";
      Eval.traceFailure(P, RoleName, Est.status());
      if (isStop(Est.status())) {
        Stop = Est.status();
        StoppedAt = P;
        break;
      }
      continue; // Illegal or failed point; probe the next one.
    }
    ++Probed;
    Res.Visited.push_back({P.Unroll, *Est, RoleName, P});
    Res.Trace += "eval " + P.toString() + " [" + RoleName +
                 "]: " + Est->toString() + "\n";
    bool Fits = Est->Slices <= Capacity;
    bool Better =
        Fits && (Est->Cycles < Res.SelectedEstimate.Cycles ||
                 (Est->Cycles == Res.SelectedEstimate.Cycles &&
                  Est->Slices < Res.SelectedEstimate.Slices));
    Eval.traceDecision(P, *Est, RoleName,
                       Better ? "refine-accept" : "refine-reject");
    if (Better) {
      Res.SelectedPoint = P;
      Res.Selected = P.Unroll;
      Res.SelectedEstimate = *Est;
      Improved = true;
    }
  }

  if (Improved) {
    Res.Trace += "tile refinement: " + Res.SelectedPoint.toString() +
                 " beats the unroll-only optimum (" +
                 std::to_string(Res.SelectedEstimate.Cycles) + " < " +
                 std::to_string(BaseE.Cycles) + " cycles)\n";
  } else if (Points.empty()) {
    Res.Trace += "tile refinement: no legal interchange or tile exists "
                 "for this nest (depth " +
                 std::to_string(N) + ")\n";
  } else {
    Res.Trace += "tile refinement: none of " + std::to_string(Probed) +
                 " evaluated interchange/tile point(s) beats the "
                 "unroll-only optimum " +
                 unrollVectorToString(BaseU) +
                 " (the saturated fetch rate already bounds them)\n";
  }

  Res.Failures = Eval.failures();
  Res.DroppedFailures = Eval.failuresDropped();
  if (!Stop.isOk())
    Res.Failures.push_back({StoppedAt.Unroll, 0, Stop, StoppedAt});
  Res.Degraded = Res.Degraded || !Stop.isOk() || !Res.Failures.empty();
  Res.EvaluationsUsed = Eval.evaluationsUsed();
  Eval.traceSelection(Res);
  Eval.endBudget();
  return Res;
}

std::unique_ptr<SearchStrategy> defacto::createGuidedTileStrategy() {
  return std::make_unique<GuidedTileStrategy>();
}
