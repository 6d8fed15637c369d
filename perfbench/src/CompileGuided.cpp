//===- CompileGuided.cpp - The compile-guided workload --------------------===//
//
// Part of the DEFACTO-DSE project, under the MIT License.
//
//===----------------------------------------------------------------------===//
//
// The paper's use: one DSE run per kernel at compile time. A closed loop
// with one client on one thread; each operation parses a seeded kernel
// variant, constructs a fresh explorer (fresh caches, so nothing is reused
// across operations) and runs guided or guided+tile on one platform.
//
//===----------------------------------------------------------------------===//

#include "Checks.h"
#include "Generator.h"
#include "Workloads.h"

#include <cstdio>
#include <map>
#include <set>

using namespace defacto;

namespace perfbench {
namespace {

const char *const Workload = "compile-guided";

/// Kept small: a run holds one per operation, and that memory shows in
/// max_rss_mb.
struct OpRecord {
  unsigned Index = 0;
  unsigned Evaluations = 0;
  unsigned Visited = 0;
  bool Ok = false;
  double Ms = 0;
  double EndS = 0;    // completion, from the window's start
  double CpuEndS = 0; // completion, in thread CPU time from the start
  uint64_t Digest = 0;
};


ExplorerOptions optionsFor(const std::string &Platform) {
  ExplorerOptions O;
  O.Platform = *platformByName(Platform);
  return O;
}

/// One timed operation: parse, explorer construction, search.
std::optional<ExplorationResult> runOp(const std::string &Source,
                                       const std::string &Name,
                                       const std::string &Platform,
                                       const std::string &Strategy,
                                       SpanRecorder &Spans, uint64_t OpId,
                                       OpRecord &Rec, std::string &Error,
                                       EstimateCache::Stats *Cache) {
  std::optional<ExplorationResult> Result;
  double T0 = nowSeconds();
  {
    Span OpSpan(Spans, "op", OpId);
    std::optional<Kernel> K;
    {
      Span S(Spans, "frontend.parse", OpId);
      K = parseSource(Source, Name, Error);
    }
    if (K) {
      std::optional<DesignSpaceExplorer> Explorer;
      {
        Span S(Spans, "core.init", OpId);
        Explorer.emplace(*K, optionsFor(Platform));
      }
      {
        Span S(Spans, "core.explore", OpId);
        Expected<ExplorationResult> R = Explorer->runWithStrategy(Strategy);
        if (R)
          Result = std::move(*R);
        else
          Error = R.status().message();
      }
      if (Cache)
        addStats(*Cache, Explorer->estimateCache()->stats());
    }
  }
  Rec.Ms = (nowSeconds() - T0) * 1000.0;
  if (Result) {
    Rec.Digest = resultDigest(*Result);
    Rec.Evaluations = Result->EvaluationsUsed;
    Rec.Visited = static_cast<unsigned>(Result->Visited.size());
    Rec.Ok = healthy(*Result);
    if (!Rec.Ok)
      Error = Name + " on " + Platform + ": " + Result->toString();
  }
  return Result;
}

std::optional<ExplorationResult>
runPlanned(CompilePlan &Plan, unsigned Index, SpanRecorder &Spans,
           uint64_t OpId, OpRecord &Rec, std::string &Error,
           EstimateCache::Stats *Cache = nullptr) {
  const CompileOp &Op = Plan.Ops[Index];
  const Variant &V = Plan.Variants[Op.Variant];
  Rec.Index = Index;
  return runOp(V.Source, V.label(), Op.Platform, Op.Strategy, Spans, OpId, Rec,
               Error, Cache);
}

} // namespace

RunResult runCompileGuided(const RunConfig &C) {
  RunResult Out;
  SpanRecorder Off(false);

  // Set-up: generate and parse every input, then warm up with a fixed,
  // seed-independent guided exploration of every paper-size kernel on
  // every platform.
  std::vector<double> SetupTimes;
  std::optional<CompilePlan> MaybePlan;
  for (unsigned Round = 0; Round != SetupRounds; ++Round) {
    double T0 = Round == 0 ? C.ProcessStart : nowSeconds();
    CompilePlan P = makeCompilePlan(C.Seed);
    for (const Variant &V : P.Variants) {
      std::string Error;
      if (!parseSource(V.Source, V.label(), Error))
        Out.problem(Error);
    }
    for (const std::string &Name : templateNames())
      for (const std::string &Platform : platformNames()) {
        OpRecord Rec;
        std::string Error;
        runOp(renderKernel(Name, paperTrips(Name)), Name, Platform, "guided",
              Off, 0, Rec, Error, nullptr);
        if (!Rec.Ok)
          Out.problem("warm-up: " + Error);
      }
    SetupTimes.push_back(nowSeconds() - T0);
    MaybePlan = std::move(P);
  }
  CompilePlan &Plan = *MaybePlan;

  // Untraced window.
  std::vector<OpRecord> Recs;
  std::map<unsigned, ExplorationResult> First;
  std::set<unsigned> BadOps;
  const double Window = C.Trace ? C.Seconds / 2 : C.Seconds;
  const double Start = nowSeconds();
  const double CpuStart = threadCpuSeconds();
  while (nowSeconds() - Start < Window) {
    OpRecord Rec;
    std::string Error;
    std::optional<ExplorationResult> R =
        runPlanned(Plan, Plan.indexAt(Recs.size()), Off, 0, Rec, Error);
    Rec.EndS = nowSeconds() - Start;
    Rec.CpuEndS = threadCpuSeconds() - CpuStart;
    if (!Rec.Ok)
      Out.problem(Plan.key(Rec.Index) + ": " + Error);
    if (R && !First.count(Rec.Index))
      First.emplace(Rec.Index, std::move(*R));
    Recs.push_back(Rec);
  }
  const double Wall = nowSeconds() - Start;
  const double Cpu = threadCpuSeconds() - CpuStart;

  // Every repetition of an operation must decide exactly as its first.
  std::map<unsigned, uint64_t> DigestOf;
  for (const OpRecord &Rec : Recs) {
    if (!Rec.Ok) {
      BadOps.insert(Rec.Index);
      continue;
    }
    auto [It, New] = DigestOf.try_emplace(Rec.Index, Rec.Digest);
    if (!New && It->second != Rec.Digest) {
      Out.problem(Plan.key(Rec.Index) + ": a repeated run decided differently");
      BadOps.insert(Rec.Index);
    }
  }

  std::map<std::string, double> Layer;
  SpanRecorder Spans(C.Trace);
  if (C.Trace) {
    // The same operations again, traced.
    const double TStart = nowSeconds();
    EstimateCache::Stats Cache;
    for (size_t I = 0; I != Recs.size(); ++I) {
      OpRecord Rec;
      std::string Error;
      runPlanned(Plan, Recs[I].Index, Spans, I + 1, Rec, Error, &Cache);
      if (Rec.Digest != Recs[I].Digest || !Rec.Ok) {
        Out.problem(Plan.key(Rec.Index) +
                    ": the traced run decided differently");
        BadOps.insert(Rec.Index);
      }
      Layer["core.evaluations"] += Rec.Evaluations;
      Layer["core.visited"] += Rec.Visited;
    }
    const double TracedWall = nowSeconds() - TStart;
    Layer["trace.overhead_pct"] = (TracedWall / Wall - 1.0) * 100.0;
    addCacheLayer(Layer, Cache);

    // Replay every distinct design the run visited, once.
    ReplayTotals Totals;
    std::set<std::string> Replayed;
    uint64_t ReplayOp = 1000000;
    for (const auto &[Index, R] : First) {
      const CompileOp &Op = Plan.Ops[Index];
      const Variant &V = Plan.Variants[Op.Variant];
      std::string Error;
      std::optional<Kernel> K = parseSource(V.Source, V.label(), Error);
      if (!K)
        continue; // reported by the untraced window
      PipelineContext Ctx(*K);
      ExplorerOptions O = optionsFor(Op.Platform);
      for (const EvaluatedDesign &D : R.Visited) {
        DesignPoint P = D.Point.Unroll.empty() ? DesignPoint(D.U) : D.Point;
        if (!Replayed.insert(V.label() + '@' + Op.Platform + ' ' + P.toString())
                 .second)
          continue;
        std::string Mismatch =
            replayDesign(Ctx, O, D, Spans, ReplayOp++, Totals);
        if (!Mismatch.empty()) {
          Out.problem("replay: " + Mismatch);
          BadOps.insert(Index);
        }
      }
    }
    Layer["transforms.ir_nodes_out"] = Totals.IrNodesOut;
    Out.Notes.push_back("replayed " + std::to_string(Totals.Points) +
                        " distinct designs; a mismatch fails the run");
  }

  // Correctness gate: a reference run with the decision recorder on must
  // decide as the timed runs did and match the committed table; every
  // distinct winner must compute what its source computes.
  std::set<std::string> Simulated;
  const uint64_t SimSeed = mixSeed(C.Seed, 5);
  for (const auto &[Index, R] : First) {
    const CompileOp &Op = Plan.Ops[Index];
    const Variant &V = Plan.Variants[Op.Variant];
    const std::string Key = Plan.key(Index);
    std::string Error;
    std::optional<Kernel> K = parseSource(V.Source, V.label(), Error);
    if (!K)
      continue;
    ExplorerOptions O = optionsFor(Op.Platform);
    DigestedExploration Ref = exploreWithDigest(*K, O, Op.Strategy, Key);
    std::string Mismatch =
        !Ref.Error.empty() ? Ref.Error
        : resultDigest(Ref.Result) != resultDigest(R)
            ? "the recorded reference run decided differently"
            : checkReference(C, Key, winnerString(R), Ref.Digest);
    if (!Mismatch.empty()) {
      Out.problem(Key + ": " + Mismatch);
      BadOps.insert(Index);
      continue;
    }
    if (!Simulated.insert(V.label() + '@' + Op.Platform + ' ' + winnerString(R))
             .second)
      continue;
    Span S(Spans, "sim.check", 0);
    Mismatch = checkWinnerSimulates(*K, O, winnerPoint(R), SimSeed);
    if (!Mismatch.empty()) {
      Out.problem(Mismatch);
      BadOps.insert(Index);
    }
  }

  // Results. The loop runs on this one thread, so its rates are taken
  // over the thread's CPU time: on an idle host that equals the wall
  // time, and time the host gives to other tenants does not count.
  Out.Attempted = Recs.size();
  std::vector<double> Latencies;
  std::vector<std::pair<double, double>> Done, Evaluated;
  for (const OpRecord &Rec : Recs) {
    Latencies.push_back(Rec.Ms);
    Done.push_back({Rec.CpuEndS, 1.0});
    Evaluated.push_back({Rec.CpuEndS, double(Rec.Evaluations)});
    if (BadOps.count(Rec.Index))
      ++Out.Failed;
  }
  Summary Lat = summarize(Latencies);
  addEndToEnd(Out, median(SetupTimes), medianRate(Done, Cpu),
              medianRate(Evaluated, Cpu));
  char Buf[160];
  std::snprintf(Buf, sizeof(Buf),
                "wall clock: %zu operations in %.3f s (%.1f/s), %.3f s of "
                "thread CPU time",
                Recs.size(), Wall, double(Recs.size()) / Wall, Cpu);
  Out.Notes.push_back(Buf);
  noteLatency(Out, "exploration", Lat);
  noteErrorRatio(Out);

  if (C.Trace) {
    addSpanTotals(Spans, Layer);
    emitPerLayer(Out, Layer);
    Out.ChromeTrace = Spans.chromeTrace(hostRecordJson());
  }
  return Out;
}

std::vector<std::string> compileReference() {
  // The population does not depend on the seed, so neither does the table.
  std::vector<std::string> Lines;
  CompilePlan Plan = makeCompilePlan(DefaultSeed);
  for (unsigned Index = 0; Index != Plan.Ops.size(); ++Index) {
    const CompileOp &Op = Plan.Ops[Index];
    const Variant &V = Plan.Variants[Op.Variant];
    std::string Error;
    std::optional<Kernel> K = parseSource(V.Source, V.label(), Error);
    if (!K)
      continue;
    const std::string Key = Plan.key(Index);
    DigestedExploration Ref =
        exploreWithDigest(*K, optionsFor(Op.Platform), Op.Strategy, Key);
    if (Ref.Error.empty() && healthy(Ref.Result))
      Lines.push_back(ReferenceTable::line(Workload, "*", Key,
                                           {winnerString(Ref.Result),
                                            Ref.Digest}));
  }
  return Lines;
}

} // namespace perfbench
