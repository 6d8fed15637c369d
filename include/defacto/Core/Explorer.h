//===- Explorer.h - The design space exploration façade --------*- C++ -*-===//
//
// Part of the DEFACTO-DSE project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper's primary contribution: the balance-guided design space
/// exploration of Figure 2, packaged behind the historical one-object
/// API. Since the SearchStrategy / EvaluationService split the explorer
/// is a thin façade over the two layers:
///
///   DesignSpaceExplorer (this header, compatibility façade)
///        │ run() = guided strategy; runWithStrategy(name) = any
///        ▼
///   SearchStrategy (SearchStrategy.h — guided/exhaustive/random/
///        │          hillclimb/portfolio, plus the StrategyRegistry)
///        ▼
///   EvaluationService (EvaluationService.h — estimator seam, cache,
///                      retries/budget/deadline, fan-out, trace)
///
/// run() executes the guided balance walk: starting from a
/// saturation-point design Uinit, the search walks unroll-factor vectors
/// using the monotonicity of balance (Observation 3): while compute
/// bound it doubles the unroll product (Increase); on crossing to memory
/// bound or exceeding capacity it bisects between the last compute-bound
/// design and the current one (SelectBetween), in multiples of Psat.
/// Memory bound at the saturation point stops immediately (no unrolling
/// can help). Capacity overflow at Uinit falls back to the largest
/// fitting design (FindLargestFit).
///
/// Exhaustive and random search baselines are provided for the coverage
/// and quality comparisons of §6.3.
///
/// Concurrency: ExplorerOptions::Pool is the only setting. The walk
/// chooses each next design from the balance of the one before, so the
/// guided, guided+tile and hill-climb searches run sequentially whether
/// or not a pool is set. The exhaustive and random baselines know their
/// whole candidate list upfront and consume every candidate on it: with
/// a pool they queue the list on it, help-wait on each candidate's task
/// (ThreadPool::helpWait) and consume in candidate order. For a
/// deterministic estimation backend the selected design is bit-identical
/// to the sequential run's; estimator attempts are charged to the
/// evaluation budget when the search consumes a result, not when a
/// worker computes it.
///
//===----------------------------------------------------------------------===//

#ifndef DEFACTO_CORE_EXPLORER_H
#define DEFACTO_CORE_EXPLORER_H

#include "defacto/Core/EvaluationService.h"
#include "defacto/Core/SearchStrategy.h"

namespace defacto {

/// Runs design-space explorations over \p Source: the guided walk via
/// run(), any registered strategy via runWithStrategy(). One explorer
/// keeps one EvaluationService, so repeated runs share its memoization
/// and accounting exactly as the pre-split engine did.
class DesignSpaceExplorer {
public:
  DesignSpaceExplorer(const Kernel &Source, ExplorerOptions Opts);
  ~DesignSpaceExplorer();

  /// The Figure-2 algorithm (the "guided" strategy).
  ExplorationResult run();

  /// Runs the named registered strategy over this explorer's evaluation
  /// service. Fails with InvalidInput (message lists the registered
  /// strategies) for an unknown name.
  Expected<ExplorationResult> runWithStrategy(const std::string &Name);

  /// Evaluates one unroll vector (cached). Returns std::nullopt for
  /// non-candidate vectors and for designs whose estimation permanently
  /// failed; evaluateChecked distinguishes the two.
  std::optional<SynthesisEstimate> evaluate(const UnrollVector &U) {
    return Svc.evaluate(U);
  }

  /// Evaluates one unroll vector under the degradation policy: retries
  /// with capped backoff, honors the deadline, caches successes and
  /// permanent failures alike. Deadline/budget errors are global
  /// conditions and are never cached against the vector.
  Expected<SynthesisEstimate> evaluateChecked(const UnrollVector &U) {
    return Svc.evaluateChecked(U);
  }

  const UnrollSpace &space() const { return Svc.space(); }
  const SaturationInfo &saturation() const { return Svc.saturation(); }

  /// The estimate cache this explorer reads and writes (the shared one
  /// from the options, or its private one).
  const std::shared_ptr<EstimateCache> &estimateCache() const {
    return Svc.estimateCache();
  }

  /// Estimator attempts spent so far (retries included).
  unsigned evaluationsUsed() const { return Svc.evaluationsUsed(); }

  /// Designs whose estimation permanently failed, oldest retained first
  /// (the log is a bounded ring; see
  /// ExplorerOptions::MaxFailureLogEntries).
  std::vector<EvaluationFailure> failures() const { return Svc.failures(); }

  /// Failure-log entries the ring bound evicted.
  uint64_t failuresDropped() const { return Svc.failuresDropped(); }

  /// The search's starting point (§5.3's Uinit selection).
  UnrollVector initialVector() const { return guidedInitialVector(Svc); }

  /// The evaluation layer, for callers (custom strategies, tests) that
  /// need the full service API.
  EvaluationService &evaluationService() { return Svc; }

private:
  EvaluationService Svc;
};

/// Exhaustive baseline: evaluates every divisor vector and picks the
/// fastest fitting design, breaking ties by smaller area. Visited lists
/// every candidate. With Opts.Pool set the candidates are estimated
/// concurrently on it; the reduction stays in candidate order, so the
/// result is identical to the sequential one.
ExplorationResult exploreExhaustive(const Kernel &Source,
                                    const ExplorerOptions &Opts);

/// Random-sampling baseline: evaluates \p Samples distinct candidates
/// drawn deterministically from \p Seed and picks the best as above.
ExplorationResult exploreRandom(const Kernel &Source,
                                const ExplorerOptions &Opts,
                                unsigned Samples, uint64_t Seed);

} // namespace defacto

#endif // DEFACTO_CORE_EXPLORER_H
