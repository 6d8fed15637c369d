//===- Checks.h - Correctness gate and layer replay -----------*- C++ -*-===//
//
// Part of the DEFACTO-DSE project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Engine-facing helpers the workloads share: reading an exploration's
/// winner, the reference exploration that yields a decision digest, the
/// simulate() equivalence check of a winner against its source, and the
/// replay that splits a visited design's cost into IR clone, transform
/// passes and estimator.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_CHECKS_H
#define PERFBENCH_CHECKS_H

#include "Common.h"

#include "defacto/Core/Explorer.h"

#include <map>
#include <optional>
#include <string>

namespace perfbench {

std::optional<defacto::TargetPlatform> platformByName(const std::string &Name);

/// Parses \p Source; on failure returns nullopt and sets \p Error.
std::optional<defacto::Kernel> parseSource(const std::string &Source,
                                           const std::string &Name,
                                           std::string &Error);

/// The winner as the daemon prints it (ServeResponse::Selected).
std::string winnerString(const defacto::ExplorationResult &R);
/// The winner as a full design point.
defacto::DesignPoint winnerPoint(const defacto::ExplorationResult &R);

/// A completed, healthy exploration: not degraded, and its winner fits.
bool healthy(const defacto::ExplorationResult &R);

/// FNV-1a over everything an exploration decided: strategy, winner,
/// every visited design with its role and estimate, evaluations used.
uint64_t resultDigest(const defacto::ExplorationResult &R);

/// Field-by-field bit equality of two estimates.
bool estimatesBitEqual(const defacto::SynthesisEstimate &A,
                       const defacto::SynthesisEstimate &B);

/// The transform configuration the engine evaluates \p P under.
defacto::TransformOptions transformOptionsFor(const defacto::ExplorerOptions &O,
                                              const defacto::DesignPoint &P);

/// One standalone exploration with the engine's decision recorder on.
/// Digest is the daemon's hash (digestHash) of its decision lines, so it
/// is comparable with a served reply's decision_digest.
struct DigestedExploration {
  defacto::ExplorationResult Result;
  std::string Digest;
  std::string Error; // non-empty when the strategy could not run
};
DigestedExploration exploreWithDigest(const defacto::Kernel &K,
                                      defacto::ExplorerOptions Opts,
                                      const std::string &Strategy,
                                      const std::string &TraceLabel);

/// Simulates \p Source and its \p Winner design on the same seeded memory
/// images; "" when every array matches, else what differed.
std::string checkWinnerSimulates(const defacto::Kernel &Source,
                                 const defacto::ExplorerOptions &Opts,
                                 const defacto::DesignPoint &Winner,
                                 uint64_t Seed);

/// Compares a result with its committed table entry; "" on a match.
std::string checkReference(const RunConfig &C, const std::string &Key,
                           const std::string &Selected,
                           const std::string &Digest);

/// Adds \p S's lookups, hits, misses and waits to \p Sum.
void addStats(defacto::EstimateCache::Stats &Sum,
              const defacto::EstimateCache::Stats &S);

/// Sets the cache.* per-layer figures from \p S.
void addCacheLayer(std::map<std::string, double> &Layer,
                   const defacto::EstimateCache::Stats &S);

struct ReplayTotals {
  uint64_t Points = 0;
  double IrNodesOut = 0;
};

/// Re-runs one visited design: through applyPipeline, then pass by pass
/// through the default pipeline built from PassRegistry (after an IR
/// clone of the normalized kernel), then estimateDesignChecked. Spans:
/// replay, enclosing transforms.pipeline, ir.clone, transforms.pass.<name>
/// and hls.estimate.
/// Returns "" when both routes reproduce \p D's explored estimate bit for
/// bit, else what differed.
std::string replayDesign(const defacto::PipelineContext &Ctx,
                         const defacto::ExplorerOptions &Opts,
                         const defacto::EvaluatedDesign &D, SpanRecorder &Spans,
                         uint64_t Op, ReplayTotals &Totals);

} // namespace perfbench

#endif // PERFBENCH_CHECKS_H
