//===- SweepExhaustive.cpp - The sweep-exhaustive workload ----------------===//
//
// Part of the DEFACTO-DSE project, under the MIT License.
//
//===----------------------------------------------------------------------===//
//
// The Figure 4-10 / Table 3 baseline: repeated BatchExplorer sweeps of the
// exhaustive strategy over the eight named kernels at paper sizes on both
// platforms. Each sweep gets a fresh shared EstimateCache; the pool has at
// most nproc threads; the seed sets each sweep's job order. Large unroll
// bodies make the transforms dominate, and the pool, shared-cache waits
// and the slowest job set the sweep time.
//
//===----------------------------------------------------------------------===//

#include "Checks.h"
#include "Generator.h"
#include "Workloads.h"

#include "defacto/Core/BatchExplorer.h"
#include "defacto/Kernels/Kernels.h"
#include "defacto/Serve/Protocol.h"

#include <algorithm>
#include <cstdio>
#include <map>
#include <set>

using namespace defacto;

namespace perfbench {
namespace {

const char *const Workload = "sweep-exhaustive";

struct Job {
  std::string Name; // "FIR@wildstar-pipelined": the reference key
  std::string Kernel;
  ExplorerOptions Opts;
};

std::vector<Job> makeJobs() {
  std::vector<Job> Jobs;
  for (const std::string &K : templateNames())
    for (const std::string &P : platformNames()) {
      Job J;
      J.Name = K + '@' + P;
      J.Kernel = K;
      J.Opts.Platform = *platformByName(P);
      Jobs.push_back(std::move(J));
    }
  return Jobs;
}

struct SweepRecord {
  double Ms = 0;
  double CpuS = 0; // CPU time of the whole process during the sweep
  double Evaluations = 0;
  /// Per job, in makeJobs() order.
  std::vector<uint64_t> Digests;
  std::vector<ExplorationResult> Results;
  EstimateCache::Stats Cache;
};

/// One sweep: every job, in \p Order, on \p Threads workers of \p Pool.
SweepRecord sweep(const std::vector<Job> &Jobs,
                  const std::map<std::string, Kernel> &Kernels,
                  const std::vector<unsigned> &Order,
                  const std::shared_ptr<ThreadPool> &Pool, unsigned Threads,
                  const char *Strategy, SpanRecorder &Spans, uint64_t OpId,
                  std::shared_ptr<TraceRecorder> Trace = nullptr) {
  SweepRecord Rec;
  std::vector<BatchResult> Results;
  double T0 = nowSeconds();
  double Cpu0 = processCpuSeconds();
  {
    Span OpSpan(Spans, "op", OpId);
    std::optional<BatchExplorer> Batch;
    {
      Span S(Spans, "core.init", OpId);
      BatchOptions B;
      B.NumThreads = Threads;
      if (Threads > 1)
        B.Pool = Pool;
      B.Cache = std::make_shared<EstimateCache>();
      B.Trace = std::move(Trace);
      Batch.emplace(std::move(B));
      for (unsigned I : Order)
        Batch->addJob(BatchJob(Jobs[I].Name, Kernels.at(Jobs[I].Kernel).clone(),
                               Jobs[I].Opts, std::string(Strategy)));
    }
    {
      Span S(Spans, "core.explore", OpId);
      Results = Batch->runAll();
    }
    Rec.Cache = Batch->estimateCache()->stats();
  }
  Rec.Ms = (nowSeconds() - T0) * 1000.0;
  Rec.CpuS = processCpuSeconds() - Cpu0;

  std::map<std::string, size_t> Slot;
  for (size_t I = 0; I != Jobs.size(); ++I)
    Slot[Jobs[I].Name] = I;
  Rec.Digests.assign(Jobs.size(), 0);
  Rec.Results.resize(Jobs.size());
  for (BatchResult &R : Results) {
    size_t I = Slot.at(R.Name);
    Rec.Evaluations += R.Result.EvaluationsUsed;
    Rec.Digests[I] = healthy(R.Result) ? resultDigest(R.Result) : 0;
    Rec.Results[I] = std::move(R.Result);
  }
  return Rec;
}

std::map<std::string, Kernel> buildKernels() {
  std::map<std::string, Kernel> Kernels;
  for (const std::string &K : templateNames())
    Kernels.emplace(K, buildKernel(K));
  return Kernels;
}

/// Decision digest of one job's track in a shared recorder.
std::string jobDigest(const TraceRecorder &Trace, const std::string &Job) {
  std::vector<std::string> Lines;
  const std::string Prefix = Job + '|';
  for (std::string &L : Trace.decisionDigest())
    if (L.compare(0, Prefix.size(), Prefix) == 0)
      Lines.push_back(std::move(L));
  return digestHash(Lines);
}

/// The single-threaded sweep in canonical order with the decision
/// recorder on: the reference the timed sweeps are checked against.
struct ReferenceSweep {
  SweepRecord Rec;
  std::vector<std::string> DecisionDigests;
};
ReferenceSweep referenceSweep(const std::vector<Job> &Jobs,
                              const std::map<std::string, Kernel> &Kernels) {
  ReferenceSweep Ref;
  auto Trace = std::make_shared<TraceRecorder>();
  Trace->setEnabled(true);
  std::vector<unsigned> Canonical(Jobs.size());
  for (unsigned I = 0; I != Jobs.size(); ++I)
    Canonical[I] = I;
  SpanRecorder Off(false);
  Ref.Rec = sweep(Jobs, Kernels, Canonical, nullptr, 1, "exhaustive", Off, 0,
                  Trace);
  for (const Job &J : Jobs)
    Ref.DecisionDigests.push_back(jobDigest(*Trace, J.Name));
  return Ref;
}

} // namespace

RunResult runSweepExhaustive(const RunConfig &C) {
  RunResult Out;
  SpanRecorder Off(false);
  const std::vector<Job> Jobs = makeJobs();
  const unsigned Threads =
      std::min<unsigned>(availableCpus(), static_cast<unsigned>(Jobs.size()));

  // Set-up: build the kernels, start the pool, warm up with one guided
  // sweep (every job, a few evaluations each).
  std::vector<double> SetupTimes;
  std::map<std::string, Kernel> Kernels;
  std::shared_ptr<ThreadPool> Pool;
  for (unsigned Round = 0; Round != SetupRounds; ++Round) {
    double T0 = Round == 0 ? C.ProcessStart : nowSeconds();
    Pool.reset();
    Kernels = buildKernels();
    Pool = std::make_shared<ThreadPool>(Threads);
    SweepRecord Warm = sweep(Jobs, Kernels, sweepOrder(C.Seed, 0, Jobs.size()),
                             Pool, Threads, "guided", Off, 0);
    for (size_t I = 0; I != Jobs.size(); ++I)
      if (!Warm.Digests[I])
        Out.problem("warm-up: " + Jobs[I].Name + ": " +
                    Warm.Results[I].toString());
    SetupTimes.push_back(nowSeconds() - T0);
  }

  // Untraced window: whole sweeps until the window has passed. Only the
  // first sweep's results are kept (for the replay and the checks).
  std::vector<SweepRecord> Sweeps;
  const double Window = C.Trace ? C.Seconds / 2 : C.Seconds;
  const double Start = nowSeconds();
  do {
    SweepRecord R =
        sweep(Jobs, Kernels, sweepOrder(C.Seed, Sweeps.size() + 1, Jobs.size()),
              Pool, Threads, "exhaustive", Off, 0);
    if (!Sweeps.empty())
      R.Results.clear();
    Sweeps.push_back(std::move(R));
  } while (nowSeconds() - Start < Window);
  const double Wall = nowSeconds() - Start;

  // Every sweep must decide every job exactly as the first did.
  std::set<size_t> BadJobs;
  for (const SweepRecord &S : Sweeps)
    for (size_t I = 0; I != Jobs.size(); ++I)
      if (!S.Digests[I] || S.Digests[I] != Sweeps[0].Digests[I]) {
        Out.problem(Jobs[I].Name + ": a sweep decided differently or degraded");
        BadJobs.insert(I);
      }

  std::map<std::string, double> Layer;
  SpanRecorder Spans(C.Trace);
  if (C.Trace) {
    // The same sweeps again, traced.
    const double TStart = nowSeconds();
    EstimateCache::Stats Cache;
    for (size_t N = 0; N != Sweeps.size(); ++N) {
      SweepRecord R =
          sweep(Jobs, Kernels, sweepOrder(C.Seed, N + 1, Jobs.size()), Pool,
                Threads, "exhaustive", Spans, N + 1);
      for (size_t I = 0; I != Jobs.size(); ++I) {
        if (R.Digests[I] != Sweeps[0].Digests[I]) {
          Out.problem(Jobs[I].Name + ": the traced sweep decided differently");
          BadJobs.insert(I);
        }
        Layer["core.visited"] += double(R.Results[I].Visited.size());
      }
      Layer["core.evaluations"] += R.Evaluations;
      addStats(Cache, R.Cache);
    }
    const double TracedWall = nowSeconds() - TStart;
    Layer["trace.overhead_pct"] = (TracedWall / Wall - 1.0) * 100.0;
    addCacheLayer(Layer, Cache);

    // Replay every design the first sweep visited.
    ReplayTotals Totals;
    uint64_t ReplayOp = 1000000;
    for (size_t I = 0; I != Jobs.size(); ++I) {
      PipelineContext Ctx(Kernels.at(Jobs[I].Kernel));
      for (const EvaluatedDesign &D : Sweeps[0].Results[I].Visited) {
        std::string Mismatch =
            replayDesign(Ctx, Jobs[I].Opts, D, Spans, ReplayOp++, Totals);
        if (!Mismatch.empty()) {
          Out.problem("replay: " + Mismatch);
          BadJobs.insert(I);
        }
      }
    }
    Layer["transforms.ir_nodes_out"] = Totals.IrNodesOut;
    Out.Notes.push_back("replayed " + std::to_string(Totals.Points) +
                        " distinct designs; a mismatch fails the run");
  }

  // Correctness gate: the single-threaded sweep must pick the same
  // winners as the nproc-thread sweeps, match the committed table, and
  // every winner must compute what its source computes.
  ReferenceSweep Ref = referenceSweep(Jobs, Kernels);
  const uint64_t SimSeed = mixSeed(C.Seed, 5);
  for (size_t I = 0; I != Jobs.size(); ++I) {
    const ExplorationResult &R = Ref.Rec.Results[I];
    std::string Mismatch =
        Ref.Rec.Digests[I] != Sweeps[0].Digests[I]
            ? "winners differ between 1 and " + std::to_string(Threads) +
                  " threads"
            : checkReference(C, Jobs[I].Name, winnerString(R),
                             Ref.DecisionDigests[I]);
    if (Mismatch.empty()) {
      Span S(Spans, "sim.check", 0);
      Mismatch = checkWinnerSimulates(Kernels.at(Jobs[I].Kernel), Jobs[I].Opts,
                                      winnerPoint(R), SimSeed);
    }
    if (!Mismatch.empty()) {
      Out.problem(Jobs[I].Name + ": " + Mismatch);
      BadJobs.insert(I);
    }
  }

  // Results.
  // Rates are medians over sweeps, each sweep's work over its own time.
  std::vector<double> Latencies, JobRates, EvaluationRates, CpuJobRates;
  for (const SweepRecord &S : Sweeps) {
    Latencies.push_back(S.Ms);
    CpuJobRates.push_back(Jobs.size() / std::max(S.CpuS, 1e-9));
    JobRates.push_back(Jobs.size() / (S.Ms / 1000.0));
    EvaluationRates.push_back(S.Evaluations / (S.Ms / 1000.0));
    for (size_t I = 0; I != Jobs.size(); ++I)
      if (!S.Digests[I] || BadJobs.count(I))
        ++Out.Failed;
  }
  Out.Attempted = Sweeps.size() * Jobs.size();
  Summary Lat = summarize(Latencies);
  addEndToEnd(Out, median(SetupTimes), median(JobRates),
              median(EvaluationRates));
  noteLatency(Out,
              "sweep of " + std::to_string(Jobs.size()) + " jobs on " +
                  std::to_string(Threads) + " threads",
              Lat);
  char Buf[120];
  std::snprintf(Buf, sizeof(Buf),
                "process CPU time: %.2f jobs per CPU-second (median over "
                "sweeps)",
                median(CpuJobRates));
  Out.Notes.push_back(Buf);
  noteErrorRatio(Out);

  if (C.Trace) {
    addSpanTotals(Spans, Layer);
    emitPerLayer(Out, Layer);
    Out.ChromeTrace = Spans.chromeTrace(hostRecordJson());
  }
  return Out;
}

std::vector<std::string> sweepReference() {
  std::vector<std::string> Lines;
  const std::vector<Job> Jobs = makeJobs();
  ReferenceSweep Ref = referenceSweep(Jobs, buildKernels());
  for (size_t I = 0; I != Jobs.size(); ++I)
    if (Ref.Rec.Digests[I])
      Lines.push_back(ReferenceTable::line(
          Workload, "*", Jobs[I].Name,
          {winnerString(Ref.Rec.Results[I]), Ref.DecisionDigests[I]}));
  return Lines;
}

} // namespace perfbench
