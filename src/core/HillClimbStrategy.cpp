//===- HillClimbStrategy.cpp - Neighborhood search over the lattice -------===//
//
// Part of the DEFACTO-DSE project, under the MIT License.
//
//===----------------------------------------------------------------------===//
//
// Steepest-descent local search the old monolith could not express: start
// from the guided walk's Uinit, evaluate the whole divisor-lattice
// neighborhood of the current design (per-loop steps up/down plus the
// Psat-quantum bisection jumps), and move to the best improving neighbor
// until a local optimum or the budget/deadline. Unlike the balance walk
// it never reasons about balance, so it can escape kernels whose balance
// model is misleading — that complementarity is what the portfolio
// strategy exploits.
//
//===----------------------------------------------------------------------===//

#include "defacto/Core/SearchStrategy.h"

#include "defacto/Support/MathExtras.h"
#include "defacto/Support/Timer.h"

#include <algorithm>
#include <set>

using namespace defacto;

namespace {

class HillClimbStrategy : public SearchStrategy {
public:
  std::string name() const override { return "hillclimb"; }
  ExplorationResult search(const SearchContext &SC) override;
};

} // namespace

ExplorationResult HillClimbStrategy::search(const SearchContext &SC) {
  EvaluationService &Eval = SC.Eval;
  const ExplorerOptions &Opts = Eval.options();
  const UnrollSpace &Space = Eval.space();

  DEFACTO_SCOPED_TIMER("explore.hillclimb");
  ExplorationResult Res;
  Res.Strategy = name();
  Res.Sat = Eval.saturation();
  Res.FullSpaceSize = Space.fullSize();
  Eval.beginBudget(Opts.MaxEvaluations);

  double Capacity = Opts.Platform.CapacitySlices;
  auto fits = [&](const SynthesisEstimate &E) {
    return E.Slices <= Capacity;
  };
  // Fitting beats non-fitting; among fitting designs fewer cycles, then
  // fewer slices, then the lexicographically smaller vector; among
  // non-fitting designs smaller area first (climb toward the device).
  auto better = [&](const UnrollVector &AU, const SynthesisEstimate &AE,
                    const UnrollVector &BU, const SynthesisEstimate &BE) {
    if (fits(AE) != fits(BE))
      return fits(AE);
    if (fits(AE)) {
      if (AE.Cycles != BE.Cycles)
        return AE.Cycles < BE.Cycles;
      if (AE.Slices != BE.Slices)
        return AE.Slices < BE.Slices;
      return AU < BU;
    }
    if (AE.Slices != BE.Slices)
      return AE.Slices < BE.Slices;
    if (AE.Cycles != BE.Cycles)
      return AE.Cycles < BE.Cycles;
    return AU < BU;
  };

  Status Stop = Status::ok();
  auto isStop = [](const Status &S) {
    return S.code() == ErrorCode::DeadlineExceeded ||
           S.code() == ErrorCode::BudgetExhausted;
  };
  auto record = [&](const UnrollVector &U,
                    const char *Role) -> Expected<SynthesisEstimate> {
    Expected<SynthesisEstimate> Est = Eval.evaluateChecked(U);
    if (!Est) {
      Res.Trace += "FAIL " + unrollVectorToString(U) + " [" + Role + "] " +
                   Est.status().toString() + "\n";
      Eval.traceFailure(U, Role, Est.status());
      return Est;
    }
    for (const EvaluatedDesign &D : Res.Visited)
      if (D.U == U)
        return Est;
    Res.Visited.push_back({U, *Est, Role, DesignPoint(U)});
    Res.Trace += "eval " + unrollVectorToString(U) + " [" + Role +
                 "]: " + Est->toString() + "\n";
    return Est;
  };

  bool HaveBaseline = false;
  if (Expected<SynthesisEstimate> Base = record(Space.base(), "baseline")) {
    Res.BaselineEstimate = *Base;
    HaveBaseline = true;
    Eval.traceDecision(Space.base(), *Base, "baseline", "baseline");
  } else if (isStop(Base.status())) {
    Stop = Base.status();
  }

  // The neighborhood of a design: every single-loop divisor step up or
  // down, the preference-ordered Increase, and the Psat-quantum bisection
  // jumps toward the base and the maximum. Deterministic generation
  // order; candidates outside the space are dropped.
  int64_t Quantum = std::max<int64_t>(1, Eval.saturation().Psat);
  auto neighbors = [&](const UnrollVector &U) {
    std::vector<UnrollVector> Out;
    std::set<UnrollVector> Seen{U};
    auto add = [&](UnrollVector N) {
      if (Space.isCandidate(N) && Seen.insert(N).second)
        Out.push_back(std::move(N));
    };
    for (unsigned P = 0; P != Space.numLoops(); ++P) {
      std::vector<int64_t> Divs = divisorsOf(Space.trip(P));
      std::sort(Divs.begin(), Divs.end());
      auto It = std::find(Divs.begin(), Divs.end(), U[P]);
      if (It == Divs.end())
        continue;
      if (std::next(It) != Divs.end()) {
        UnrollVector Up = U;
        Up[P] = *std::next(It);
        add(std::move(Up));
      }
      if (It != Divs.begin()) {
        UnrollVector Down = U;
        Down[P] = *std::prev(It);
        add(std::move(Down));
      }
    }
    add(Space.increase(U, Eval.preference()));
    add(Space.selectBetween(Space.base(), U, Quantum));
    add(Space.selectBetween(U, Space.max(), Quantum));
    return Out;
  };

  UnrollVector Curr = guidedInitialVector(Eval);
  std::optional<SynthesisEstimate> CurrEst;
  if (Stop.isOk()) {
    if (Expected<SynthesisEstimate> Est = record(Curr, "start")) {
      CurrEst = *Est;
      Eval.traceDecision(Curr, *Est, "start", "climb-start");
    } else if (isStop(Est.status())) {
      Stop = Est.status();
    }
  }

  // If Uinit itself failed (non-terminally), fall back to climbing from
  // the baseline.
  if (Stop.isOk() && !CurrEst && HaveBaseline) {
    Curr = Space.base();
    CurrEst = Res.BaselineEstimate;
  }

  while (Stop.isOk() && CurrEst) {
    UnrollVector BestU;
    SynthesisEstimate BestE;
    bool HaveMove = false;
    for (const UnrollVector &N : neighbors(Curr)) {
      Expected<SynthesisEstimate> Est = record(N, "climb");
      if (!Est) {
        if (isStop(Est.status())) {
          Stop = Est.status();
          break;
        }
        continue;
      }
      if (better(N, *Est, Curr, *CurrEst) &&
          (!HaveMove || better(N, *Est, BestU, BestE))) {
        BestU = N;
        BestE = *Est;
        HaveMove = true;
      }
    }
    if (!Stop.isOk())
      break;
    if (!HaveMove) {
      Res.Trace += "local optimum at " + unrollVectorToString(Curr) + "\n";
      Eval.traceDecision(Curr, *CurrEst, "climb", "local-optimum");
      break;
    }
    Res.Trace += "move " + unrollVectorToString(Curr) + " -> " +
                 unrollVectorToString(BestU) + "\n";
    Eval.traceDecision(BestU, BestE, "climb", "move");
    Curr = BestU;
    CurrEst = BestE;
  }

  if (!Stop.isOk())
    Res.Trace += "stop at " + unrollVectorToString(Curr) + ": " +
                 Stop.toString() + "\n";

  // Select the best fitting design ever evaluated (baseline included) —
  // the climb path is monotone, but a fitting design can be beaten by
  // none and the final Curr may not fit.
  UnrollVector SelU;
  SynthesisEstimate SelE;
  bool HaveSel = false;
  auto consider = [&](const UnrollVector &U, const SynthesisEstimate &E) {
    if (!fits(E))
      return;
    if (!HaveSel || better(U, E, SelU, SelE)) {
      SelU = U;
      SelE = E;
      HaveSel = true;
    }
  };
  for (const EvaluatedDesign &D : Res.Visited)
    consider(D.U, D.Estimate);
  if (HaveSel) {
    Res.Selected = SelU;
    Res.SelectedEstimate = SelE;
  } else if (HaveBaseline) {
    Res.Selected = Space.base();
    Res.SelectedEstimate = Res.BaselineEstimate;
    Res.SelectedFits = false;
    Res.Trace += "no design fits this device\n";
  } else {
    Res.Selected = Space.base();
    Res.SelectedFits = false;
    Res.Trace += "no design could be evaluated\n";
  }

  Res.Failures = Eval.failures();
  Res.DroppedFailures = Eval.failuresDropped();
  if (!Stop.isOk() && isStop(Stop))
    Res.Failures.push_back({Curr, 0, Stop, DesignPoint(Curr)});
  Res.Degraded = !Stop.isOk() || !Res.Failures.empty();
  Res.EvaluationsUsed = Eval.evaluationsUsed();
  if (Res.Degraded)
    Res.Trace += "degraded exploration: " +
                 std::to_string(Res.Failures.size()) +
                 " failure(s) logged\n";
  Eval.traceSelection(Res);
  Eval.endBudget();
  return Res;
}

std::unique_ptr<SearchStrategy> defacto::createHillClimbStrategy() {
  return std::make_unique<HillClimbStrategy>();
}
