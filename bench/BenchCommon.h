//===- BenchCommon.h - Shared benchmark harness helpers --------*- C++ -*-===//
//
// Part of the DEFACTO-DSE project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Helpers shared by the benchmark binaries: the unroll sweep that
/// regenerates the balance / execution-cycles / area panels of
/// Figures 4-10, with the DSE-selected design and the device capacity
/// marked the way the paper's plots mark them.
///
//===----------------------------------------------------------------------===//

#ifndef DEFACTO_BENCH_BENCHCOMMON_H
#define DEFACTO_BENCH_BENCHCOMMON_H

#include "defacto/Core/Explorer.h"
#include "defacto/Kernels/Kernels.h"
#include "defacto/Support/CommandLine.h"

#include <string>

namespace defacto {
namespace bench {

/// Runs the full divisor sweep for \p KernelName on \p Platform and
/// prints the three panels of one paper figure:
///   (a) Balance vs unroll factors,
///   (b) Execution cycles,
///   (c) Design area in slices (with the device capacity marked).
/// The DSE-selected design is marked with '*'; designs exceeding the
/// device capacity with '!'. Rows are inner-loop unroll factors (the
/// paper's x axis); columns are outer-loop factors (the paper's curves).
/// With \p Csv the panels print as CSV blocks for downstream plotting.
/// \p Pipeline overrides the transformation pass pipeline (a
/// comma-separated PassRegistry list; empty keeps the default). Returns
/// 0 on success, 2 on a bad pipeline.
int runFigureSweep(const std::string &FigureName,
                   const std::string &KernelName,
                   const TargetPlatform &Platform, bool Csv = false,
                   const std::string &Pipeline = "");

/// Peels the shared observability flags (cl::consumeObservabilityFlags)
/// out of (\p Argc, \p Argv), compacting the remaining arguments in
/// place, for binaries that hand argv on to another parser. Finish the
/// run with cl::finishObservability.
cl::ObservabilityConfig parseObservabilityFlags(int &Argc, char **Argv);

} // namespace bench
} // namespace defacto

#endif // DEFACTO_BENCH_BENCHCOMMON_H
