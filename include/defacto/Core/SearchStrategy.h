//===- SearchStrategy.h - Pluggable search policies ------------*- C++ -*-===//
//
// Part of the DEFACTO-DSE project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The policy half of the exploration engine: a SearchStrategy decides
/// *which* designs to look at; the EvaluationService underneath it
/// (EvaluationService.h) decides *how* each look is performed (cache,
/// retries, budget, fan-out, trace). Five strategies ship built in
/// and are selectable by name through the StrategyRegistry:
///
///   guided      the paper's Figure-2 balance-guided walk (the default)
///   exhaustive  every divisor vector, fastest fitting design wins
///   random      deterministic random sampling at a fixed budget
///   hillclimb   steepest-descent neighborhood search on the divisor
///               lattice, with Psat-quantum bisection jumps
///   portfolio   several strategies under split budgets; the per-kernel
///               winner is selected (no single DSE algorithm dominates
///               across kernels, so run a portfolio and keep the best)
///
/// Registering a custom strategy:
///
///   class Annealer : public SearchStrategy { ... };
///   StrategyRegistry::instance().add("anneal", "simulated annealing",
///       [] { return std::make_unique<Annealer>(); });
///
/// after which `exploreWithStrategy(K, Opts, "anneal")`, batch jobs, and
/// the `--strategy=anneal` driver flag all reach it.
///
//===----------------------------------------------------------------------===//

#ifndef DEFACTO_CORE_SEARCHSTRATEGY_H
#define DEFACTO_CORE_SEARCHSTRATEGY_H

#include "defacto/Core/EvaluationService.h"

#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace defacto {

/// One synthesized-and-estimated candidate.
struct EvaluatedDesign {
  UnrollVector U;
  SynthesisEstimate Estimate;
  /// Why the search visited it ("Uinit", "increase", "bisect", "fit").
  std::string Role;
  /// The full design point (DesignPoint(U) for unroll-only designs;
  /// interchange/tile dimensions for guided+tile refinements). Last
  /// member so {U, Estimate, Role} aggregate initializations stay valid.
  DesignPoint Point;
};

/// Outcome of one exploration.
struct ExplorationResult {
  UnrollVector Selected;
  SynthesisEstimate SelectedEstimate;
  /// The selected design as a full point. Unroll-only strategies leave
  /// it defaulted or set it to DesignPoint(Selected); guided+tile
  /// records the winning interchange/tile here (Selected then holds the
  /// point's unroll vector). Check SelectedPoint.isUnrollOnly() before
  /// rendering a result as a bare unroll vector.
  DesignPoint SelectedPoint;
  /// The paper's baseline: no unrolling, all other transformations.
  SynthesisEstimate BaselineEstimate;
  std::vector<EvaluatedDesign> Visited; // in search order, no duplicates
  /// False when no candidate — not even the baseline — fits the device
  /// (the kernel's mandatory registers alone exceed it); Selected then
  /// holds the baseline regardless.
  bool SelectedFits = true;
  /// True when the search did not run to healthy convergence: an
  /// estimation permanently failed, or the deadline or evaluation budget
  /// cut the walk short. Selected then holds the best design that was
  /// successfully evaluated (baseline included).
  bool Degraded = false;
  /// Machine-readable failure log; every entry is also mirrored into
  /// Trace as a "FAIL"/"stop" line. Bounded: the evaluation layer keeps
  /// a ring of the most recent MaxFailureLogEntries failures and counts
  /// the rest in DroppedFailures.
  std::vector<EvaluationFailure> Failures;
  /// Failure-log entries evicted by the ring bound (a fault storm).
  uint64_t DroppedFailures = 0;
  /// Estimator attempts actually spent (retries included; cached results
  /// consumed from a shared EstimateCache charge the attempts their
  /// original computation cost).
  unsigned EvaluationsUsed = 0;
  SaturationInfo Sat;
  uint64_t FullSpaceSize = 0;
  std::string Trace;
  /// Registry name of the strategy that produced this result ("guided",
  /// "portfolio", ...); empty only for hand-built results.
  std::string Strategy;
  /// Portfolio runs: one entry per sub-strategy, in execution order,
  /// each carrying its own Strategy name, visit table, and failure log.
  /// Empty for single-strategy runs.
  std::vector<ExplorationResult> SubResults;

  double speedup() const {
    return SelectedEstimate.Cycles == 0
               ? 0.0
               : static_cast<double>(BaselineEstimate.Cycles) /
                     static_cast<double>(SelectedEstimate.Cycles);
  }
  double fractionSearched() const {
    return FullSpaceSize == 0
               ? 0.0
               : static_cast<double>(Visited.size()) /
                     static_cast<double>(FullSpaceSize);
  }

  /// One-line human-readable summary: strategy, selected design,
  /// estimate, speedup, evaluations, and the degradation flags (which
  /// callers otherwise tend to drop silently). ExplorationReport.h
  /// renders the full multi-line explanation.
  std::string toString() const;
};

/// Everything a strategy needs to search one kernel: the source (to spin
/// up sub-services — the portfolio does), the normalized options, and
/// the evaluation service performing the actual estimations.
struct SearchContext {
  const Kernel &Source;
  const ExplorerOptions &Opts;
  EvaluationService &Eval;
};

/// A search policy over the unroll space. Implementations must be
/// deterministic for a deterministic estimation backend: the selected
/// design, visit order, and trace may depend only on the kernel, the
/// options, and the estimates — never on wall-clock time or thread
/// scheduling.
class SearchStrategy {
public:
  virtual ~SearchStrategy();

  /// The registry name this strategy reports in results.
  virtual std::string name() const = 0;

  /// Runs the search to completion. Implementations stamp
  /// ExplorationResult::Strategy with name().
  virtual ExplorationResult search(const SearchContext &Ctx) = 0;
};

/// Maps strategy names to factories. Built-in strategies are registered
/// on first use; add() extends the set at runtime (thread-safe).
class StrategyRegistry {
public:
  using Factory = std::function<std::unique_ptr<SearchStrategy>()>;

  /// The process-wide registry, with the five built-ins pre-registered.
  static StrategyRegistry &instance();

  /// Registers \p MakeStrategy under \p Name. Returns false (and leaves
  /// the registry unchanged) when the name is already taken.
  bool add(const std::string &Name, const std::string &Description,
           Factory MakeStrategy);

  /// A fresh strategy instance, or nullptr for an unknown name.
  std::unique_ptr<SearchStrategy> create(const std::string &Name) const;

  bool contains(const std::string &Name) const;

  /// Registered names, sorted.
  std::vector<std::string> names() const;

  /// "name  description" lines, sorted by name — the drivers print this
  /// when --strategy gets an unknown name.
  std::string describe() const;

private:
  StrategyRegistry();
  struct RegisteredStrategy {
    std::string Description;
    Factory Make;
  };
  mutable std::mutex M;
  std::map<std::string, RegisteredStrategy> Strategies;
};

//===----------------------------------------------------------------===//
// Built-in strategy factories. The registry uses these; direct
// construction allows non-default parameters (sample counts, seeds,
// portfolio composition).
//===----------------------------------------------------------------===//

std::unique_ptr<SearchStrategy> createGuidedStrategy();
std::unique_ptr<SearchStrategy> createExhaustiveStrategy();
/// \p Samples distinct candidates drawn deterministically from \p Seed.
std::unique_ptr<SearchStrategy> createRandomStrategy(unsigned Samples = 24,
                                                     uint64_t Seed = 2002);
std::unique_ptr<SearchStrategy> createHillClimbStrategy();
/// The guided walk plus a multi-dimensional refinement stage: after the
/// unroll-only optimum is selected, legal pairwise interchanges and §5.4
/// tiles around it are evaluated (within the remaining budget) and the
/// selection is upgraded when a point strictly beats the unroll-only
/// optimum. Registered as "guided+tile".
std::unique_ptr<SearchStrategy> createGuidedTileStrategy();
/// Runs \p Strategies (registry names; the default portfolio is
/// {"guided", "hillclimb", "random"}) under an evenly split evaluation
/// budget and selects the per-kernel winner.
std::unique_ptr<SearchStrategy>
createPortfolioStrategy(std::vector<std::string> Strategies = {});

/// One-call driver: looks \p Name up in the registry, builds a fresh
/// EvaluationService over \p Source, and runs the strategy. Fails with
/// InvalidInput (message lists the registered strategies) for an unknown
/// name.
Expected<ExplorationResult> exploreWithStrategy(const Kernel &Source,
                                                const ExplorerOptions &Opts,
                                                const std::string &Name);

//===----------------------------------------------------------------===//
// Guided-walk helpers, shared by the guided strategy, the hill climb
// (start point), and the explorer façade's public API.
//===----------------------------------------------------------------===//

/// The search's starting point (§5.3's Uinit selection) for \p Eval's
/// kernel: the saturation-point design.
UnrollVector guidedInitialVector(const EvaluationService &Eval);

} // namespace defacto

#endif // DEFACTO_CORE_SEARCHSTRATEGY_H
