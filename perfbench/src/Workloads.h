//===- Workloads.h - The benchmark's three workloads ----------*- C++ -*-===//
//
// Part of the DEFACTO-DSE project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Each workload sets itself up several times (set-up time is the median),
/// measures for the configured seconds untraced, optionally repeats the
/// same work traced for the per-layer figures, and then checks every
/// result. See README.md for why each workload exists.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_WORKLOADS_H
#define PERFBENCH_WORKLOADS_H

#include "Common.h"

#include <string>
#include <vector>

namespace perfbench {

/// Set-up repetitions per run; set-up time is their median.
inline constexpr unsigned SetupRounds = 9;

RunResult runCompileGuided(const RunConfig &C);
RunResult runSweepExhaustive(const RunConfig &C);
RunResult runServeMixed(const RunConfig &C);

/// Reference-table lines (ReferenceTable::line) for the committed table.
/// Every entry holds for any seed: compile and sweep cover every operation
/// their populations hold, serve every hot-set candidate.
std::vector<std::string> compileReference();
std::vector<std::string> sweepReference();
std::vector<std::string> serveReference();

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_H
