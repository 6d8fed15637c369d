//===- EvaluationService.cpp ----------------------------------------------===//
//
// Part of the DEFACTO-DSE project, under the MIT License.
//
//===----------------------------------------------------------------------===//

#include "defacto/Core/EvaluationService.h"

#include "defacto/Analysis/DependenceAnalysis.h"
#include "defacto/Core/CircuitBreaker.h"
#include "defacto/Core/SearchStrategy.h"
#include "defacto/IR/IRUtils.h"
#include "defacto/Support/Cancellation.h"
#include "defacto/Support/Histogram.h"
#include "defacto/Support/MathExtras.h"
#include "defacto/Support/Stats.h"
#include "defacto/Support/Table.h"
#include "defacto/Support/Timer.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <thread>

using namespace defacto;

DEFACTO_STATISTIC(NumPrefetched, "explore", "speculated",
                  "candidate designs submitted to the worker pool");
DEFACTO_STATISTIC(NumWatchdogCancels, "explore", "watchdog-cancels",
                  "estimator invocations cancelled by the hang watchdog");
DEFACTO_STATISTIC(NumDroppedFailures, "explore", "dropped-failures",
                  "failure-log entries evicted by the ring bound");

EvaluationService::EvaluationService(const Kernel &Source,
                                     ExplorerOptions Opts)
    : Source(Source), Opts(std::move(Opts)),
      Sat(computeSaturation(Source, this->Opts.Platform.NumMemories)),
      Space(Sat.Trips.empty() ? std::vector<int64_t>{1} : Sat.Trips),
      DSpace(Space), Ctx(Source), SourceFp(kernelFingerprint(Source)) {
  if (!this->Opts.Clock)
    this->Opts.Clock = [] {
      return std::chrono::duration<double>(
                 std::chrono::steady_clock::now().time_since_epoch())
          .count();
    };
  if (!this->Opts.Sleep)
    this->Opts.Sleep = [](double Seconds) {
      if (Seconds > 0)
        std::this_thread::sleep_for(
            std::chrono::duration<double>(Seconds));
    };
  Estimates = this->Opts.Cache ? this->Opts.Cache
                               : std::make_shared<EstimateCache>();
  Track = this->Opts.TraceLabel.empty() ? Source.name()
                                        : this->Opts.TraceLabel;
  StartSeconds = this->Opts.Clock();
  // Build the unroll preference order (§5.3): loops carrying no
  // dependence first (their unrolled iterations are fully parallel),
  // then loops by decreasing minimum carried distance; within a class,
  // loops that add memory parallelism come first. The dependence
  // analysis is unroll-invariant, so it is served from the context's
  // AnalysisManager, warmed once at construction — no clone, no
  // recompute.
  const DependenceInfo &DI = *Ctx.analyses().cachedDependence();
  unsigned N = Sat.Trips.size();
  struct Rank {
    unsigned Pos;
    bool DepFree;
    bool MemVarying;
    int64_t MinDist;
  };
  std::vector<Rank> Ranks;
  for (unsigned P = 0; P != N; ++P) {
    Rank R;
    R.Pos = P;
    R.DepFree = DI.carriesNoDependence(P);
    R.MemVarying = P < Sat.MemoryVarying.size() && Sat.MemoryVarying[P];
    R.MinDist = DI.minCarriedDistance(P).value_or(0);
    Ranks.push_back(R);
  }
  std::stable_sort(Ranks.begin(), Ranks.end(), [](const Rank &A,
                                                  const Rank &B) {
    if (A.DepFree != B.DepFree)
      return A.DepFree;
    if (A.MemVarying != B.MemVarying)
      return A.MemVarying;
    return A.MinDist > B.MinDist;
  });
  for (const Rank &R : Ranks)
    Preference.push_back(R.Pos);
}

EvaluationService::~EvaluationService() {
  // Queued tasks reference this service. Help rather than block: this
  // thread may be a worker of the same pool, and the tasks may still be
  // queued behind it.
  for (std::future<void> &F : Prefetched)
    Opts.Pool->helpWait(F);
}

TransformOptions
EvaluationService::transformOptionsFor(const DesignPoint &P) const {
  TransformOptions TO = Opts.BaseTransforms;
  TO.Unroll = P.Unroll;
  TO.Layout.NumMemories = Opts.Platform.NumMemories;
  if (P.Tile)
    TO.StripMine = P.Tile;
  if (!P.Interchange.empty())
    TO.Interchange = P.Interchange;
  return TO;
}

std::string EvaluationService::cacheKey(const DesignPoint &P) const {
  // For unroll-only points the extra dimensions default and the key is
  // byte-identical to the historical designCacheKey of P.Unroll.
  TransformOptions TO = Opts.BaseTransforms;
  if (P.Tile)
    TO.StripMine = P.Tile;
  if (!P.Interchange.empty())
    TO.Interchange = P.Interchange;
  return designCacheKey(SourceFp, Opts.Platform, TO, P.Unroll,
                        Opts.RegisterCap);
}

TraceRecorder &EvaluationService::recorder() const {
  return Opts.Trace ? *Opts.Trace : TraceRecorder::global();
}

void EvaluationService::traceDecision(const DesignPoint &P,
                                      const SynthesisEstimate &E,
                                      const char *Role,
                                      const char *Decision) {
  TraceRecorder &R = recorder();
  if (!R.enabled())
    return;
  TraceEvent Ev;
  Ev.Track = Track;
  Ev.Category = "dse.decision";
  Ev.Name = P.toString();
  Ev.Ordinal = DecisionOrdinal++;
  // Deterministic payload: for a deterministic backend these values are
  // bit-identical across worker-thread counts. Unroll-only points emit
  // exactly the historical payload, so unroll-only digests are
  // unchanged; the extra dimensions append deterministic args.
  Ev.Args = {{"role", Role},
             {"decision", Decision},
             {"balance", formatDouble(E.Balance, 4)},
             {"psat", std::to_string(Sat.Psat)},
             {"cycles", std::to_string(E.Cycles)},
             {"slices", formatDouble(E.Slices, 1)}};
  if (!P.Interchange.empty()) {
    std::string Perm;
    for (size_t I = 0; I != P.Interchange.size(); ++I)
      Perm += (I ? "," : "") + std::to_string(P.Interchange[I]);
    Ev.Args.push_back({"perm", Perm});
  }
  if (P.Tile)
    Ev.Args.push_back({"tile", std::to_string(P.Tile->first) + "x" +
                                   std::to_string(P.Tile->second)});
  // Run-variant detail: a candidate a sequential run computes is a hit
  // (or wait) on its prefetched entry when a pool fans the list out.
  Ev.Runtime = {{"cache", LastCacheOutcome}};
  R.record(std::move(Ev));
}

void EvaluationService::traceDecision(const UnrollVector &U,
                                      const SynthesisEstimate &E,
                                      const char *Role,
                                      const char *Decision) {
  traceDecision(DesignPoint(U), E, Role, Decision);
}

void EvaluationService::traceFailure(const DesignPoint &P,
                                     const char *Role,
                                     const Status &Err) {
  TraceRecorder &R = recorder();
  if (!R.enabled())
    return;
  TraceEvent Ev;
  Ev.Track = Track;
  Ev.Category = "dse.failure";
  Ev.Name = P.toString();
  Ev.Ordinal = DecisionOrdinal++;
  const char *Decision =
      Err.code() == ErrorCode::BudgetExhausted   ? "budget-exhausted"
      : Err.code() == ErrorCode::DeadlineExceeded ? "deadline-exceeded"
                                                  : "fault-degraded";
  Ev.Args = {{"role", Role}, {"decision", Decision}};
  Ev.Runtime = {{"error", Err.toString()}, {"cache", LastCacheOutcome}};
  R.record(std::move(Ev));
}

void EvaluationService::traceFailure(const UnrollVector &U,
                                     const char *Role,
                                     const Status &Err) {
  traceFailure(DesignPoint(U), Role, Err);
}

void EvaluationService::traceSelection(const ExplorationResult &Res) {
  TraceRecorder &R = recorder();
  if (!R.enabled())
    return;
  TraceEvent Sel;
  Sel.Track = Track;
  Sel.Category = "dse.selection";
  Sel.Name = unrollVectorToString(Res.Selected);
  Sel.Ordinal = DecisionOrdinal;
  Sel.Args = {{"cycles", std::to_string(Res.SelectedEstimate.Cycles)},
              {"slices", formatDouble(Res.SelectedEstimate.Slices, 1)},
              {"fits", Res.SelectedFits ? "1" : "0"},
              {"degraded", Res.Degraded ? "1" : "0"},
              {"evaluations", std::to_string(Used)}};
  R.record(std::move(Sel));
}

Expected<SynthesisEstimate>
EvaluationService::invokeBackend(const Kernel &K,
                                 const DesignPoint &P) const {
  // Estimation backends are arbitrary callables (a real synthesis tool
  // behind a wrapper); time every invocation at this seam. The hang
  // watchdog arms a fresh deadline token per invocation: a cooperative
  // backend (the built-in estimator polls in its walk and scheduling
  // loops; a FaultInjector hang polls between simulated sleeps) observes
  // it thread-locally and returns ErrorCode::Cancelled.
  auto Call = [&]() -> Expected<SynthesisEstimate> {
    if (Opts.Estimator)
      return Opts.Estimator(K, Opts.Platform);
    return estimateVerifiedDesign(K, Opts.Platform);
  };
  DEFACTO_SCOPED_TIMER("estimator.invoke");
  if (Opts.WatchdogSeconds <= 0)
    return Call();
  CancellationToken Watchdog = CancellationToken::withDeadline(
      Opts.Clock() + Opts.WatchdogSeconds, Opts.Clock,
      "estimator watchdog (" + std::to_string(Opts.WatchdogSeconds) +
          "s)");
  CancellationScope Scope(Watchdog);
  Expected<SynthesisEstimate> Est = Call();
  if (!Est && Est.status().code() == ErrorCode::Cancelled) {
    ++NumWatchdogCancels;
    TraceRecorder &R = recorder();
    if (R.enabled()) {
      // Run-variant by nature (real clocks fire at real times), so
      // everything lands in Runtime, never in the decision digest.
      TraceEvent Ev;
      Ev.Track = Track;
      Ev.Category = "dse.cancel";
      Ev.Name = P.toString();
      Ev.Runtime = {{"reason", Est.status().message()},
                    {"watchdog_s", formatDouble(Opts.WatchdogSeconds, 3)}};
      R.record(std::move(Ev));
    }
  }
  return Est;
}

Expected<SynthesisEstimate>
EvaluationService::compute(const DesignPoint &P) const {
  TransformOptions TO = transformOptionsFor(P);

  // applyPipeline verifies its output, so every kernel reaching the
  // backend below has been verified exactly once.
  TransformResult R = applyPipeline(Ctx, TO);
  if (!R.ok())
    return R.Error;
  Expected<SynthesisEstimate> Est = invokeBackend(R.K, P);
  if (!Est)
    return Est;

  // §5.4: shrink reuse chains until the register budget is met. Less
  // reuse is exploited, slowing the fetch rate; the smaller design may
  // then afford more operator parallelism.
  if (Opts.RegisterCap) {
    unsigned ChainLimit = TO.SR.MaxChainLength;
    while (Est->Registers > *Opts.RegisterCap && ChainLimit > 1) {
      ChainLimit /= 2;
      TO.SR.MaxChainLength = ChainLimit;
      TransformResult Capped = applyPipeline(Ctx, TO);
      if (!Capped.ok())
        return Capped.Error;
      Est = invokeBackend(Capped.K, P);
      if (!Est)
        return Est;
    }
  }
  return Est;
}

static std::atomic<uint64_t> InFlightEvals{0};

uint64_t EvaluationService::inFlightEvaluations() {
  return InFlightEvals.load(std::memory_order_relaxed);
}

Expected<SynthesisEstimate>
EvaluationService::computeRaw(const DesignPoint &P) const {
  // The single instrumentation chokepoint for evaluation cost: the
  // sequential walk and the pool workers both come through here.
  // Zero-cost discipline: disabled, this is one relaxed load and a
  // branch on top of compute().
  if (!statsEnabled())
    return compute(P);

  InFlightEvals.fetch_add(1, std::memory_order_relaxed);
  Expected<SynthesisEstimate> Est = [&] {
    DEFACTO_SCOPED_HISTOGRAM_US("eval.latency_us");
    return compute(P);
  }();
  InFlightEvals.fetch_sub(1, std::memory_order_relaxed);

  if (Est) {
    static Histogram &BalanceHist =
        HistogramRegistry::global().histogram("estimate.balance_milli");
    static Histogram &CyclesHist =
        HistogramRegistry::global().histogram("estimate.cycles");
    static Histogram &SlicesHist =
        HistogramRegistry::global().histogram("estimate.slices");
    // Balance is a ratio (1.0 == balanced, HUGE_VAL for memory-free
    // designs); record it in milli-units, clamped into bucket range.
    double B = Est->Balance * 1000.0;
    if (!std::isfinite(B) || B > 1e15)
      B = 1e15;
    BalanceHist.record(static_cast<uint64_t>(std::max(B, 0.0)));
    CyclesHist.record(Est->Cycles);
    SlicesHist.record(static_cast<uint64_t>(std::max(Est->Slices, 0.0)));
  }
  return Est;
}

void EvaluationService::beginBudget(unsigned MaxEvaluations) {
  BudgetCap = MaxEvaluations;
}

void EvaluationService::endBudget() { BudgetCap.reset(); }

Status EvaluationService::checkLimits() const {
  if (Opts.DeadlineSeconds > 0 &&
      Opts.Clock() - StartSeconds >= Opts.DeadlineSeconds)
    return Status::error(ErrorCode::DeadlineExceeded,
                         "exploration deadline of " +
                             std::to_string(Opts.DeadlineSeconds) +
                             "s exceeded");
  if (BudgetCap && Used >= *BudgetCap)
    return Status::error(ErrorCode::BudgetExhausted,
                         "evaluation budget of " +
                             std::to_string(*BudgetCap) + " exhausted");
  return Status::ok();
}

Expected<SynthesisEstimate>
EvaluationService::evaluateChecked(const UnrollVector &U) {
  return evaluateChecked(DesignPoint(U));
}

Expected<SynthesisEstimate>
EvaluationService::evaluateChecked(const DesignPoint &P) {
  // Unroll-only points keep the historical candidate check and error
  // message (strategy traces compare them); multi-dimensional points go
  // through the generalized shape check.
  if (P.isUnrollOnly()) {
    if (!Space.isCandidate(P.Unroll))
      return Status::error(ErrorCode::InvalidInput,
                           unrollVectorToString(P.Unroll) +
                               " is not a candidate unroll vector");
  } else if (!DSpace.isCandidate(P)) {
    return Status::error(ErrorCode::InvalidInput,
                         P.toString() + " is not a candidate design point");
  }
  if (auto It = Cache.find(P); It != Cache.end()) {
    LastCacheOutcome = "local-hit";
    return It->second;
  }
  if (auto It = FailCache.find(P); It != FailCache.end()) {
    LastCacheOutcome = "local-negative";
    return It->second;
  }

  for (;;) {
    EstimateCache::Outcome Served = EstimateCache::Outcome::Miss;
    auto Found = Estimates->lookupOrBegin(cacheKey(P), &Served);
    switch (Served) {
    case EstimateCache::Outcome::Hit:
      LastCacheOutcome = "hit";
      break;
    case EstimateCache::Outcome::NegativeHit:
      LastCacheOutcome = "negative-hit";
      break;
    case EstimateCache::Outcome::Wait:
      LastCacheOutcome = "wait";
      break;
    case EstimateCache::Outcome::Miss:
      LastCacheOutcome = "computed";
      break;
    }
    if (auto *Done = std::get_if<EstimateCache::Result>(&Found)) {
      if (Done->Attempts == 0)
        continue; // A computer abandoned the entry (transient); retry.
      // Replay a memoized result: charge the attempts it originally cost
      // against this run's budget, exactly as if estimated here.
      if (Status Limit = checkLimits(); !Limit.isOk())
        return Limit;
      Used += Done->Attempts;
      if (Done->ok()) {
        Cache.emplace(P, *Done->Estimate);
        return *Done->Estimate;
      }
      Status Err = Done->Estimate.status();
      FailCache.emplace(P, Err);
      logFailure({P.Unroll, Done->Attempts, Err, P});
      return Err;
    }

    // Miss: this run owns the computation (and its retries).
    EstimateCache::Ticket Ticket =
        std::get<EstimateCache::Ticket>(std::move(Found));

    // Circuit-breaker gate. Placed after the ticket so completed cache
    // entries keep being served while a backend is down; only work that
    // would actually reach the backend is failed fast. Fast failures are
    // global conditions, never the design's fault: the ticket is
    // abandoned (no negative caching) and no budget is charged.
    if (Opts.Breakers) {
      CircuitBreakerRegistry::Decision Admit =
          Opts.Breakers->admit(Opts.Platform.Name, Opts.Clock());
      if (Admit == CircuitBreakerRegistry::Decision::FailFast) {
        traceBreaker("fail-fast");
        Status Fast = Status::error(
            ErrorCode::BackendUnavailable,
            "circuit open for backend '" + Opts.Platform.Name + "'");
        Estimates->abandon(std::move(Ticket), Fast);
        logFailure({P.Unroll, 0, Fast, P});
        return Fast;
      }
      if (Admit == CircuitBreakerRegistry::Decision::Probe)
        traceBreaker("probe");
    }

    Status Last = Status::ok();
    double Backoff = Opts.RetryBackoffSeconds;
    unsigned Attempts = 0;
    for (unsigned Attempt = 0; Attempt <= Opts.MaxRetries; ++Attempt) {
      if (Status Limit = checkLimits(); !Limit.isOk()) {
        if (Attempts > 0) // Record what the cut-short retries saw.
          logFailure({P.Unroll, Attempts, Last, P});
        Estimates->abandon(std::move(Ticket), Limit);
        return Limit;
      }
      if (Attempt > 0 && Backoff > 0) {
        Opts.Sleep(std::min(Backoff, Opts.MaxBackoffSeconds));
        Backoff *= 2;
      }
      ++Used;
      ++Attempts;
      Expected<SynthesisEstimate> Est = computeRaw(P);
      if (Est) {
        if (Opts.Breakers)
          if (const char *Transition = Opts.Breakers->recordSuccess(
                  Opts.Platform.Name, Opts.Clock()))
            traceBreaker(Transition);
        Estimates->fulfill(std::move(Ticket),
                           EstimateCache::Result{Est, Attempts});
        Cache.emplace(P, *Est);
        return Est;
      }
      Last = Est.status();
    }
    // Permanent failure: every retry exhausted. This is the granularity
    // the breaker counts — attempt failures a retry recovered never
    // reach it.
    if (Opts.Breakers)
      if (const char *Transition = Opts.Breakers->recordFailure(
              Opts.Platform.Name, Opts.Clock()))
        traceBreaker(Transition);
    Estimates->fulfill(
        std::move(Ticket),
        EstimateCache::Result{Expected<SynthesisEstimate>(Last), Attempts});
    FailCache.emplace(P, Last);
    logFailure({P.Unroll, Attempts, Last, P});
    return Last;
  }
}

void EvaluationService::logFailure(EvaluationFailure F) {
  size_t Cap = std::max(1u, Opts.MaxFailureLogEntries);
  if (FailLog.size() < Cap) {
    FailLog.push_back(std::move(F));
    return;
  }
  FailLog[FailLogStart] = std::move(F);
  FailLogStart = (FailLogStart + 1) % Cap;
  ++DroppedFailures;
  ++NumDroppedFailures;
}

std::vector<EvaluationFailure> EvaluationService::failures() const {
  std::vector<EvaluationFailure> Out;
  Out.reserve(FailLog.size());
  for (size_t I = 0; I != FailLog.size(); ++I)
    Out.push_back(FailLog[(FailLogStart + I) % FailLog.size()]);
  return Out;
}

void EvaluationService::traceBreaker(const char *What) {
  TraceRecorder &R = recorder();
  if (!R.enabled())
    return;
  CircuitBreakerRegistry::Snapshot Snap =
      Opts.Breakers->snapshot(Opts.Platform.Name);
  TraceEvent Ev;
  Ev.Track = Track;
  Ev.Category = "dse.breaker";
  Ev.Name = Opts.Platform.Name;
  // Breaker activity is timing-dependent (cooldowns on a real clock),
  // so the whole payload is run-variant Runtime detail.
  Ev.Runtime = {{"event", What},
                {"state", Snap.Current == CircuitBreakerRegistry::State::Open
                              ? "open"
                          : Snap.Current ==
                                  CircuitBreakerRegistry::State::HalfOpen
                              ? "half-open"
                              : "closed"},
                {"consecutive_failures",
                 std::to_string(Snap.ConsecutiveFailures)},
                {"times_opened", std::to_string(Snap.TimesOpened)},
                {"fast_failures", std::to_string(Snap.FastFailures)}};
  R.record(std::move(Ev));
}

std::optional<SynthesisEstimate>
EvaluationService::evaluate(const UnrollVector &U) {
  return evaluate(DesignPoint(U));
}

std::optional<SynthesisEstimate>
EvaluationService::evaluate(const DesignPoint &P) {
  Expected<SynthesisEstimate> Est = evaluateChecked(P);
  if (!Est)
    return std::nullopt;
  return *Est;
}

std::optional<SynthesisEstimate>
EvaluationService::evaluated(const UnrollVector &U) const {
  return evaluated(DesignPoint(U));
}

std::optional<SynthesisEstimate>
EvaluationService::evaluated(const DesignPoint &P) const {
  if (auto It = Cache.find(P); It != Cache.end())
    return It->second;
  return std::nullopt;
}

void EvaluationService::prefetch(const std::vector<UnrollVector> &Candidates) {
  if (!Opts.Pool)
    return;
  for (const UnrollVector &U : Candidates) {
    if (!Space.isCandidate(U))
      continue;
    // A vector queued once already (the exhaustive list repeats the base
    // vector) needs no second task: it would only wait on the first.
    if (!PrefetchSlot.emplace(U, Prefetched.size()).second)
      continue;
    ++NumPrefetched;
    Prefetched.push_back(Opts.Pool->submit([this, P = DesignPoint(U)] {
      auto Found = Estimates->lookupOrBegin(cacheKey(P));
      if (auto *Ticket = std::get_if<EstimateCache::Ticket>(&Found)) {
        // Spans from worker threads show the estimation overlap in the
        // Perfetto timeline; they are run-variant by nature and excluded
        // from the deterministic decision digest.
        TraceSpan Span(recorder(), Track, "speculate", P.toString());
        // Mirror the sequential retry policy (minus the backoff sleeps)
        // so the attempts recorded — and later charged on consumption —
        // match what the sequential search would have spent.
        unsigned Attempts = 1;
        Expected<SynthesisEstimate> Est = computeRaw(P);
        while (!Est && Attempts <= Opts.MaxRetries) {
          ++Attempts;
          Est = computeRaw(P);
        }
        Span.note("attempts", std::to_string(Attempts));
        Span.note("ok", Est ? "1" : "0");
        Estimates->fulfill(std::move(*Ticket),
                           EstimateCache::Result{std::move(Est), Attempts});
      }
      // A completed or in-flight entry needs no second computation.
    }));
  }
}

void EvaluationService::awaitPrefetched(const UnrollVector &U) {
  auto It = PrefetchSlot.find(U);
  if (It != PrefetchSlot.end())
    Opts.Pool->helpWait(Prefetched[It->second]);
}
