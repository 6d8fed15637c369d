//===- Estimator.cpp ------------------------------------------------------===//
//
// Part of the DEFACTO-DSE project, under the MIT License.
//
//===----------------------------------------------------------------------===//

#include "defacto/HLS/Estimator.h"

#include "defacto/Analysis/ValueRange.h"
#include "defacto/IR/IRUtils.h"
#include "defacto/IR/IRVerifier.h"
#include "defacto/Support/Cancellation.h"
#include "defacto/Support/Table.h"
#include "defacto/Support/Timer.h"

#include <cmath>
#include <memory>
#include <unordered_set>

using namespace defacto;

std::string SynthesisEstimate::toString() const {
  std::string Out;
  Out += "cycles=" + std::to_string(Cycles);
  Out += " slices=" + formatDouble(Slices, 0);
  Out += " regs=" + std::to_string(Registers);
  Out += " F=" + formatDouble(FetchRate, 2);
  Out += " C=" + formatDouble(ConsumeRate, 2);
  Out += " balance=" + formatDouble(Balance, 3);
  return Out;
}

namespace {

/// Whole-subtree totals accumulated by the recursive walk.
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
  EstimatorWalk(const Kernel &K, const TargetPlatform &P,
                std::vector<RegionReport> *Breakdown)
      : K(K), P(P), Breakdown(Breakdown) {
    if (P.Widths == TargetPlatform::WidthModel::Inferred)
      Ranges = std::make_unique<ValueRangeAnalysis>(K);
    // Port assignment: the data layout pass records physical ids; for
    // kernels estimated without layout, assign round-robin on first use.
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

  Totals run() { return walkList(K.body(), "", 1); }

private:
  Totals walkList(const StmtList &Stmts, const std::string &Path,
                  uint64_t Executions) {
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
      std::optional<DFG> Graph;
      {
        DEFACTO_SCOPED_TIMER("estimator.dfg");
        Graph.emplace(buildSegmentDFG(Segment, PortFn, WidthOf));
      }
      SegmentSchedule Sched = scheduleSegment(*Graph, P);
      T.Joint += Sched.JointCycles;
      T.MemOnly += Sched.MemOnlyCycles;
      T.CompOnly += Sched.CompOnlyCycles;
      T.Bits += Sched.BitsTransferred;
      T.States += Sched.JointCycles;
      T.mergeUnits(Sched.PeakUnits);
      if (Breakdown)
        Breakdown->push_back({Path.empty() ? "<top>" : Path, Executions,
                              Sched.JointCycles, Sched.MemReads,
                              Sched.MemWrites});
      Segment.clear();
    };

    for (const StmtPtr &SP : Stmts) {
      // Cooperative hang-watchdog poll: once cancelled, stop descending
      // — the partial totals are discarded by estimateDesignChecked.
      if (currentCancelled())
        break;
      if (const auto *F = dyn_cast<ForStmt>(SP.get())) {
        flush();
        std::string ChildPath =
            Path.empty() ? F->indexName() : Path + "/" + F->indexName();
        Totals Child =
            walkList(F->body(), ChildPath,
                     Executions * static_cast<uint64_t>(F->tripCount()));
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
  std::vector<RegionReport> *Breakdown;
  std::unique_ptr<ValueRangeAnalysis> Ranges;
  std::map<const ArrayDecl *, int> Ports;
};

} // namespace

SynthesisEstimate
defacto::estimateDesign(const Kernel &K, const TargetPlatform &Platform,
                        std::vector<RegionReport> *Breakdown) {
  DEFACTO_SCOPED_TIMER("estimator.estimate");
  if (Breakdown)
    Breakdown->clear();
  Totals T = EstimatorWalk(K, Platform, Breakdown).run();

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

  // Registers: every scalar referenced in the body is a datapath
  // register (source scalars and compiler temporaries alike). One walk
  // collects the register set, the register area, and the rotation-mux
  // area (a feedback mux per register in each rotating chain). Every
  // area term is a dyadic rational of modest magnitude, so each partial
  // sum is exact and the summation order cannot change the result.
  std::unordered_set<const ScalarDecl *> Used;
  double RegisterArea = 0;
  double MuxArea = 0;
  auto noteUse = [&](const ScalarDecl *D) {
    if (Used.insert(D).second)
      RegisterArea += registerAreaSlices(bitWidth(D->type()));
  };
  walkStmts(const_cast<Kernel &>(K).body(), [&](Stmt *S) {
    auto visit = [&](Expr *Ex) {
      walkExpr(Ex, [&](Expr *X) {
        if (auto *SR = dyn_cast<ScalarRefExpr>(X))
          noteUse(SR->decl());
      });
    };
    if (auto *A = dyn_cast<AssignStmt>(S)) {
      visit(A->dest());
      visit(A->value());
    } else if (auto *I = dyn_cast<IfStmt>(S)) {
      visit(I->cond());
    } else if (auto *R = dyn_cast<RotateStmt>(S)) {
      for (const ScalarDecl *D : R->chain()) {
        noteUse(D);
        MuxArea += operatorAreaSlices(OpClass::Mux, bitWidth(D->type()));
      }
    }
  });
  E.Registers = Used.size();

  double Area = 0;
  for (const auto &[Shape, N] : T.PeakUnits)
    Area += N * operatorAreaSlices(Shape.first, Shape.second);
  Area += RegisterArea;
  Area += MuxArea;
  // Memory interfaces: address counters and data registers per port.
  Area += 25.0 * Platform.NumMemories;
  // Control FSM: state register, next-state logic per state.
  Area += 40.0 + 1.5 * static_cast<double>(T.States);
  E.Slices = Area;
  return E;
}

Expected<SynthesisEstimate>
defacto::estimateVerifiedDesign(const Kernel &K,
                                const TargetPlatform &Platform) {
  SynthesisEstimate Est = estimateDesign(K, Platform);
  // A watchdog cancellation mid-walk leaves partial totals; report the
  // cancellation rather than a garbage estimate.
  if (Status Cancel = currentCancelStatus(); !Cancel.isOk())
    return Cancel;
  if (Est.Cycles == 0 || Est.Slices <= 0.0)
    return Status::error(ErrorCode::EstimationFailed,
                         "estimator returned a degenerate design (cycles=" +
                             std::to_string(Est.Cycles) + ")");
  return Est;
}

Expected<SynthesisEstimate>
defacto::estimateDesignChecked(const Kernel &K,
                               const TargetPlatform &Platform) {
  std::vector<std::string> Problems = verifyKernel(K);
  if (!Problems.empty())
    return Status::error(ErrorCode::MalformedIR,
                         "cannot estimate invalid kernel: " + Problems.front());
  return estimateVerifiedDesign(K, Platform);
}
