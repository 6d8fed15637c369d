//===- GuidedStrategy.cpp - The paper's balance-guided walk ---------------===//
//
// Part of the DEFACTO-DSE project, under the MIT License.
//
//===----------------------------------------------------------------------===//
//
// The Figure-2 algorithm as a SearchStrategy. The walk is the historical
// DesignSpaceExplorer::run() body verbatim — every trace string, decision
// event, and selection tie-break is preserved so the engine's
// bit-identical decisionDigest() guarantee carries across the refactor.
//
//===----------------------------------------------------------------------===//

#include "defacto/Core/SearchStrategy.h"

#include "defacto/Support/MathExtras.h"
#include "defacto/Support/Stats.h"
#include "defacto/Support/Table.h"
#include "defacto/Support/Timer.h"

#include <algorithm>
#include <cmath>
#include <set>

using namespace defacto;

DEFACTO_STATISTIC(NumExplorations, "explore", "runs",
                  "guided explorations started");
DEFACTO_STATISTIC(NumEvaluationsSpent, "explore", "evaluations",
                  "estimator attempts charged to exploration budgets");
DEFACTO_STATISTIC(NumDegraded, "explore", "degraded",
                  "explorations that finished degraded");

UnrollVector defacto::guidedInitialVector(const EvaluationService &Eval) {
  const UnrollSpace &Space = Eval.space();
  const SaturationInfo &Sat = Eval.saturation();
  const std::vector<unsigned> &Preference = Eval.preference();
  unsigned N = Space.numLoops();
  UnrollVector U(N, 1);
  if (N == 0)
    return U;
  int64_t Psat = Sat.Psat;

  // Single dependence-free, memory-varying loop that admits the whole
  // saturation product: Sat_i.
  for (unsigned P : Preference) {
    if (P >= Sat.MemoryVarying.size() || !Sat.MemoryVarying[P])
      continue;
    if (Space.trip(P) % Psat == 0) {
      U[P] = Psat;
      return U;
    }
  }

  // Otherwise distribute the product across loops in preference order,
  // larger shares to earlier (larger-distance) loops.
  int64_t Remaining = Psat;
  for (unsigned P : Preference) {
    if (Remaining == 1)
      break;
    int64_t BestDiv = 1;
    for (int64_t D : divisorsOf(Space.trip(P)))
      if (Remaining % D == 0)
        BestDiv = std::max(BestDiv, D);
    U[P] = BestDiv;
    Remaining /= BestDiv;
  }
  return U;
}

namespace {

class GuidedStrategy : public SearchStrategy {
public:
  std::string name() const override { return "guided"; }
  ExplorationResult search(const SearchContext &SC) override;
};

} // namespace

ExplorationResult GuidedStrategy::search(const SearchContext &SC) {
  EvaluationService &Eval = SC.Eval;
  const ExplorerOptions &Opts = Eval.options();
  const UnrollSpace &Space = Eval.space();
  const SaturationInfo &Sat = Eval.saturation();

  DEFACTO_SCOPED_TIMER("explore.run");
  TraceSpan RunSpan(Eval.recorder(), Eval.trackLabel(), "phase",
                    "explore.run");
  ++NumExplorations;
  ExplorationResult Res;
  Res.Strategy = name();
  Res.Sat = Sat;
  Res.FullSpaceSize = Space.fullSize();
  Eval.beginBudget(Opts.MaxEvaluations);

  bool HaveBaseline = false;
  if (Expected<SynthesisEstimate> Base =
          Eval.evaluateChecked(Space.base())) {
    Res.BaselineEstimate = *Base;
    HaveBaseline = true;
    Eval.traceDecision(Space.base(), *Base, "baseline", "baseline");
  } else {
    Res.Trace += "FAIL " + unrollVectorToString(Space.base()) +
                 " [baseline] " + Base.status().toString() + "\n";
    Eval.traceFailure(Space.base(), "baseline", Base.status());
  }

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
  // Deadline or budget exhaustion: the search stops where it is and the
  // best already-evaluated design is selected.
  auto isStop = [](const Status &S) {
    return S.code() == ErrorCode::DeadlineExceeded ||
           S.code() == ErrorCode::BudgetExhausted;
  };

  double Capacity = Opts.Platform.CapacitySlices;
  int64_t Quantum = std::max<int64_t>(1, Sat.Psat);

  UnrollVector Uinit = guidedInitialVector(Eval);
  UnrollVector Ucurr = Uinit;
  UnrollVector Ucb = Space.base();
  UnrollVector Umb = Space.max();
  bool SeenComputeBound = false;
  bool SeenMemoryBound = false;
  bool Ok = false;
  Status Stop = Status::ok();
  std::set<UnrollVector> Visited;
  const char *Role = "Uinit";

  while (!Ok) {
    if (!Visited.insert(Ucurr).second) {
      Res.Trace += "revisit of " + unrollVectorToString(Ucurr) +
                   "; search converged\n";
      Ok = true;
      break;
    }
    const char *VisitRole = Role;
    Expected<SynthesisEstimate> EstOr = record(Ucurr, VisitRole);
    if (!EstOr) {
      // Without an estimate the walk cannot steer by balance; stop here
      // and fall back to the best design evaluated so far.
      Stop = EstOr.status();
      break;
    }
    const SynthesisEstimate Est = *EstOr;
    double B = Est.Balance;

    if (Est.Slices > Capacity) {
      if (Ucurr == Uinit) {
        // FindLargestFit(Ubase, Uinit): the largest design not exceeding
        // the device, regardless of balance.
        Res.Trace += "Uinit exceeds capacity; FindLargestFit\n";
        Eval.traceDecision(Ucurr, Est, VisitRole, "find-largest-fit");
        std::vector<UnrollVector> Candidates;
        for (const UnrollVector &C : Space.allCandidates())
          if (UnrollSpace::between(C, Space.base(), Uinit) && C != Uinit)
            Candidates.push_back(C);
        std::stable_sort(Candidates.begin(), Candidates.end(),
                         [](const UnrollVector &A, const UnrollVector &B2) {
                           return unrollProduct(A) > unrollProduct(B2);
                         });
        Ucurr = Space.base();
        for (const UnrollVector &C : Candidates) {
          Expected<SynthesisEstimate> Fit = record(C, "fit");
          if (!Fit) {
            if (isStop(Fit.status())) {
              Stop = Fit.status();
              break;
            }
            continue; // This candidate failed; try the next smaller one.
          }
          if (Fit->Slices <= Capacity) {
            Eval.traceDecision(C, *Fit, "fit", "fit-accept");
            Ucurr = C;
            break;
          }
          Eval.traceDecision(C, *Fit, "fit", "fit-reject");
        }
        if (!Stop.isOk())
          break;
        Ok = true;
        continue;
      }
      Res.Trace += "exceeds capacity; bisect toward " +
                   unrollVectorToString(Ucb) + "\n";
      Eval.traceDecision(Ucurr, Est, VisitRole, "capacity-select-between");
      UnrollVector Next = Space.selectBetween(Ucb, Ucurr, Quantum);
      if (Next == Ucb)
        Ok = true;
      Ucurr = Next;
      Role = "bisect";
      continue;
    }

    if (std::abs(B - 1.0) <= Opts.BalanceTolerance) {
      Res.Trace += "balanced; done\n";
      Eval.traceDecision(Ucurr, Est, VisitRole, "balanced-stop");
      Ok = true;
      continue;
    }

    if (B < 1.0) {
      SeenMemoryBound = true;
      Umb = Ucurr;
      if (Ucurr == Uinit) {
        // Memory bound at the saturation point: more unrolling cannot
        // raise the fetch rate (Observation 1); stop. Every design above
        // Uinit is pruned by that monotonicity argument.
        Res.Trace += "memory bound at Uinit; done\n";
        Eval.traceDecision(Ucurr, Est, VisitRole, "memory-bound-stop");
        Ok = true;
        continue;
      }
      Eval.traceDecision(Ucurr, Est, VisitRole, "select-between");
      UnrollVector Next = Space.selectBetween(Ucb, Umb, Quantum);
      if (Next == Ucb)
        Ok = true;
      Ucurr = Next;
      Role = "bisect";
      continue;
    }

    // Compute bound.
    SeenComputeBound = true;
    Ucb = Ucurr;
    if (!SeenMemoryBound) {
      UnrollVector Next = Space.increase(Ucurr, Eval.preference());
      if (Next == Ucurr) {
        Res.Trace += "no larger candidate; done\n";
        Eval.traceDecision(Ucurr, Est, VisitRole, "space-exhausted-stop");
        Ok = true;
        continue;
      }
      Eval.traceDecision(Ucurr, Est, VisitRole, "increase");
      Ucurr = Next;
      Role = "increase";
      continue;
    }
    Eval.traceDecision(Ucurr, Est, VisitRole, "select-between");
    UnrollVector Next = Space.selectBetween(Ucb, Umb, Quantum);
    if (Next == Ucb)
      Ok = true;
    Ucurr = Next;
    Role = "bisect";
  }

  (void)SeenComputeBound;
  if (!Stop.isOk())
    Res.Trace += "stop at " + unrollVectorToString(Ucurr) + ": " +
                 Stop.toString() + "\n";

  // Selection. A converged walk selects its final design if that design
  // was successfully evaluated, fits, and no already-evaluated design
  // strictly beats it (the balance walk can legally converge at a point
  // slower than one it passed through — never hand back a design worse
  // than one in hand). Any other outcome — cut-short search, failed or
  // oversized final design — falls back to the best successfully
  // evaluated design, deterministically: fewest cycles, then fewest
  // slices, then lexicographically smallest vector; the baseline
  // competes too.
  auto fits = [&](const SynthesisEstimate &E) {
    return E.Slices <= Capacity;
  };
  UnrollVector BestU;
  SynthesisEstimate BestE;
  bool HaveBest = false;
  auto consider = [&](const UnrollVector &U, const SynthesisEstimate &E) {
    if (!fits(E))
      return;
    bool Better =
        !HaveBest || E.Cycles < BestE.Cycles ||
        (E.Cycles == BestE.Cycles &&
         (E.Slices < BestE.Slices ||
          (E.Slices == BestE.Slices && U < BestU)));
    if (Better) {
      BestU = U;
      BestE = E;
      HaveBest = true;
    }
  };
  for (const EvaluatedDesign &D : Res.Visited)
    consider(D.U, D.Estimate);
  if (HaveBaseline)
    consider(Space.base(), Res.BaselineEstimate);

  bool Selected = false;
  if (Ok) {
    if (std::optional<SynthesisEstimate> SelEst = Eval.evaluated(Ucurr);
        SelEst && fits(*SelEst)) {
      const SynthesisEstimate &Sel = *SelEst;
      if (HaveBest && (BestE.Cycles < Sel.Cycles ||
                       (BestE.Cycles == Sel.Cycles &&
                        BestE.Slices < Sel.Slices))) {
        Res.Trace += "converged design beaten by an evaluated design; "
                     "best evaluated design selected\n";
        Res.Selected = BestU;
        Res.SelectedEstimate = BestE;
      } else {
        Res.Selected = Ucurr;
        Res.SelectedEstimate = Sel;
      }
      Selected = true;
    }
  }
  if (!Selected) {
    if (HaveBest) {
      Res.Trace += Ok ? "selected design does not fit; "
                        "best evaluated design selected\n"
                      : "search cut short; best evaluated design selected\n";
      Res.Selected = BestU;
      Res.SelectedEstimate = BestE;
    } else if (HaveBaseline) {
      Res.Selected = Space.base();
      Res.SelectedEstimate = Res.BaselineEstimate;
      Res.SelectedFits = false;
      Res.Trace += "no design fits this device (baseline alone needs " +
                   formatDouble(Res.BaselineEstimate.Slices, 0) +
                   " slices)\n";
    } else {
      // Not even the baseline could be estimated.
      Res.Selected = Space.base();
      Res.SelectedFits = false;
      Res.Trace += "no design could be evaluated\n";
    }
  }

  Res.Failures = Eval.failures();
  Res.DroppedFailures = Eval.failuresDropped();
  if (!Stop.isOk() && isStop(Stop))
    Res.Failures.push_back({Ucurr, 0, Stop, DesignPoint(Ucurr)});
  Res.Degraded = !Ok || !Res.Failures.empty();
  Res.EvaluationsUsed = Eval.evaluationsUsed();
  if (Res.Degraded) {
    Res.Trace += "degraded exploration: " +
                 std::to_string(Res.Failures.size()) +
                 " failure(s) logged\n";
    ++NumDegraded;
  }
  NumEvaluationsSpent.add(Eval.evaluationsUsed());
  Eval.traceSelection(Res);
  Eval.endBudget();
  return Res;
}

std::unique_ptr<SearchStrategy> defacto::createGuidedStrategy() {
  return std::make_unique<GuidedStrategy>();
}
