//===- Checks.cpp - Correctness gate and layer replay ---------------------===//
//
// Part of the DEFACTO-DSE project, under the MIT License.
//
//===----------------------------------------------------------------------===//

#include "Checks.h"

#include "defacto/Frontend/Parser.h"
#include "defacto/IR/IRUtils.h"
#include "defacto/IR/IRVerifier.h"
#include "defacto/Serve/Protocol.h"
#include "defacto/Sim/Interpreter.h"
#include "defacto/Support/Diagnostics.h"
#include "defacto/Transforms/PassRegistry.h"

#include <cstdio>

using namespace defacto;

namespace perfbench {

std::optional<TargetPlatform> platformByName(const std::string &Name) {
  for (const TargetPlatform &P : {TargetPlatform::wildstarPipelined(),
                                  TargetPlatform::wildstarNonPipelined()})
    if (P.Name == Name)
      return P;
  return std::nullopt;
}

std::optional<Kernel> parseSource(const std::string &Source,
                                  const std::string &Name, std::string &Error) {
  DiagnosticEngine Diags;
  std::optional<Kernel> K = parseKernel(Source, Name, Diags);
  if (!K)
    Error = "parse of " + Name + " failed: " + Diags.toString();
  return K;
}

std::string winnerString(const ExplorationResult &R) {
  return R.SelectedPoint.isUnrollOnly() ? unrollVectorToString(R.Selected)
                                        : R.SelectedPoint.toString();
}

DesignPoint winnerPoint(const ExplorationResult &R) {
  return R.SelectedPoint.isUnrollOnly() ? DesignPoint(R.Selected)
                                        : R.SelectedPoint;
}

bool healthy(const ExplorationResult &R) {
  return !R.Degraded && R.SelectedFits;
}

static std::string estimateText(const SynthesisEstimate &E) {
  char Buf[256];
  std::snprintf(Buf, sizeof(Buf), "%llu/%a/%u/%a/%a/%a/%llu",
                static_cast<unsigned long long>(E.Cycles), E.Slices,
                E.Registers, E.Balance, E.FetchRate, E.ConsumeRate,
                static_cast<unsigned long long>(E.FsmStates));
  return Buf;
}

uint64_t resultDigest(const ExplorationResult &R) {
  std::string S = R.Strategy + '|' + winnerString(R) + '|' +
                  estimateText(R.SelectedEstimate) + '|' +
                  std::to_string(R.EvaluationsUsed) + '|' +
                  (R.Degraded ? "D" : "") + (R.SelectedFits ? "F" : "");
  for (const EvaluatedDesign &D : R.Visited) {
    DesignPoint P = D.Point.Unroll.empty() ? DesignPoint(D.U) : D.Point;
    S += '\n' + P.toString() + ' ' + D.Role + ' ' + estimateText(D.Estimate);
  }
  return fnv1a(S);
}

bool estimatesBitEqual(const SynthesisEstimate &A, const SynthesisEstimate &B) {
  return A.Cycles == B.Cycles && A.Slices == B.Slices &&
         A.Registers == B.Registers && A.Units == B.Units &&
         A.FetchRate == B.FetchRate && A.ConsumeRate == B.ConsumeRate &&
         A.Balance == B.Balance && A.MemOnlyCycles == B.MemOnlyCycles &&
         A.CompOnlyCycles == B.CompOnlyCycles &&
         A.BitsTransferred == B.BitsTransferred && A.FsmStates == B.FsmStates;
}

TransformOptions transformOptionsFor(const ExplorerOptions &O,
                                     const DesignPoint &P) {
  TransformOptions TO = O.BaseTransforms;
  TO.Unroll = P.Unroll;
  TO.Layout.NumMemories = O.Platform.NumMemories;
  if (P.Tile)
    TO.StripMine = P.Tile;
  if (!P.Interchange.empty())
    TO.Interchange = P.Interchange;
  return TO;
}

DigestedExploration exploreWithDigest(const Kernel &K, ExplorerOptions Opts,
                                      const std::string &Strategy,
                                      const std::string &TraceLabel) {
  DigestedExploration Out;
  auto Recorder = std::make_shared<TraceRecorder>();
  Recorder->setEnabled(true);
  Opts.Trace = Recorder;
  Opts.TraceLabel = TraceLabel;
  DesignSpaceExplorer Explorer(K, std::move(Opts));
  Expected<ExplorationResult> R = Explorer.runWithStrategy(Strategy);
  if (!R) {
    Out.Error = R.status().message();
    return Out;
  }
  Out.Result = std::move(*R);
  Out.Digest = digestHash(Recorder->decisionDigest());
  return Out;
}

std::string checkWinnerSimulates(const Kernel &Source,
                                 const ExplorerOptions &Opts,
                                 const DesignPoint &Winner, uint64_t Seed) {
  TransformResult R = applyPipeline(Source, transformOptionsFor(Opts, Winner));
  if (!R.ok())
    return "winner " + Winner.toString() + " failed to transform: " +
           R.Error.message();
  auto Want = simulate(Source, Seed);
  auto Got = simulate(R.K, Seed);
  if (!Want || !Got)
    return "simulation of " + Source.name() + " failed";
  if (*Want != *Got)
    return "winner " + Winner.toString() + " of " + Source.name() +
           " computes different arrays than its source";
  return "";
}

std::string checkReference(const RunConfig &C, const std::string &Key,
                           const std::string &Selected,
                           const std::string &Digest) {
  if (!C.Reference)
    return "";
  std::optional<ReferenceTable::Entry> E =
      C.Reference->lookup(C.Workload, C.Seed, Key);
  if (!E)
    return "reference table has no entry for " + Key;
  if (E->Selected != Selected || E->Digest != Digest)
    return Key + ": selected " + Selected + " digest " + Digest +
           ", reference " + E->Selected + " digest " + E->Digest;
  return "";
}

void addStats(EstimateCache::Stats &Sum, const EstimateCache::Stats &S) {
  Sum.Lookups += S.Lookups;
  Sum.Hits += S.Hits;
  Sum.Misses += S.Misses;
  Sum.Waits += S.Waits;
}

void addCacheLayer(std::map<std::string, double> &Layer,
                   const EstimateCache::Stats &S) {
  Layer["cache.lookups"] = double(S.Lookups);
  Layer["cache.hits"] = double(S.Hits);
  Layer["cache.misses"] = double(S.Misses);
  Layer["cache.waits"] = double(S.Waits);
  Layer["cache.hit_ratio"] = S.hitRate();
}

static double irNodes(Kernel &K) {
  double N = 0;
  walkStmts(K.body(), [&](Stmt *) { ++N; });
  walkExprsInStmts(K.body(), [&](Expr *) { ++N; });
  return N;
}

std::string replayDesign(const PipelineContext &Ctx,
                         const ExplorerOptions &Opts, const EvaluatedDesign &D,
                         SpanRecorder &Spans, uint64_t Op,
                         ReplayTotals &Totals) {
  DesignPoint P = D.Point.Unroll.empty() ? DesignPoint(D.U) : D.Point;
  const std::string What = Ctx.normalized().name() + " " + P.toString();
  TransformOptions TO = transformOptionsFor(Opts, P);
  ++Totals.Points;
  Span Replay(Spans, "replay", Op);

  std::optional<TransformResult> Whole;
  {
    Span S(Spans, "transforms.pipeline", Op);
    Whole.emplace(applyPipeline(Ctx, TO));
  }
  if (!Whole->ok())
    return What + ": applyPipeline failed: " + Whole->Error.message();

  std::optional<Kernel> K;
  {
    Span S(Spans, "ir.clone", Op);
    K.emplace(Ctx.normalized().clone());
  }
  TransformResult Stats(Kernel(Ctx.normalized().name()));
  Expected<std::vector<std::string>> Names =
      parsePipelineText(TO.Interchange.empty()
                            ? defaultPipelineText()
                            : defaultPipelineTextWithInterchange());
  if (!Names)
    return "default pipeline text does not parse: " + Names.status().message();
  AnalysisManager AM;
  for (const std::string &Name : *Names) {
    std::unique_ptr<TransformPass> Pass =
        PassRegistry::instance().create(Name, TO, Stats);
    if (!Pass)
      return "pass " + Name + " is not registered";
    const std::string SpanName = "transforms.pass." + Name;
    Status St;
    {
      Span S(Spans, SpanName.c_str(), Op);
      St = Pass->run(*K, AM);
    }
    if (!St.isOk())
      return What + ": pass " + Name + " failed: " + St.message();
    AM.invalidate(Pass->preserved());
  }
  if (!isKernelValid(*K))
    return What + ": pass-by-pass pipeline produced an invalid kernel";
  if (kernelFingerprint(*K) != kernelFingerprint(Whole->K))
    return What + ": pass-by-pass IR differs from applyPipeline's";
  Totals.IrNodesOut += irNodes(*K);

  std::optional<Expected<SynthesisEstimate>> Est;
  {
    Span S(Spans, "hls.estimate", Op);
    Est.emplace(estimateDesignChecked(*K, Opts.Platform));
  }
  if (!*Est)
    return What + ": estimate failed: " + Est->status().message();
  if (!estimatesBitEqual(**Est, D.Estimate))
    return What + ": replayed estimate " + (*Est)->toString() +
           " differs from explored " + D.Estimate.toString();
  return "";
}

} // namespace perfbench
