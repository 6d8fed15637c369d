//===- paper_figures.cpp - Figures 4-10 reproduction ----------------------===//
//
// Part of the DEFACTO-DSE project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// Regenerates Figures 4-10 of the paper: for each, balance, execution
/// cycles, and design area of one kernel as a function of its inner and
/// outer unroll factors.
///
///   paper_figures [--figure=N] [--csv] [--pipeline=p1,p2,...]
///
/// Without --figure it prints all seven figures in order. --csv prints
/// the panels as CSV blocks; --pipeline overrides the transformation pass
/// pipeline (a comma-separated PassRegistry list). An unknown figure, an
/// unknown flag, or a bad pipeline exits 2.
///
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include "defacto/Support/CommandLine.h"

#include <cstdio>
#include <string>

using namespace defacto;

namespace {

struct PaperFigure {
  unsigned Number;
  const char *Kernel;
  bool Pipelined; // memory accesses pipelined (Wildstar) or not
};

constexpr PaperFigure Figures[] = {
    {4, "FIR", false}, {5, "FIR", true},  {6, "MM", false},
    {7, "MM", true},   {8, "JAC", true},  {9, "PAT", true},
    {10, "SOBEL", true}};

int usage() {
  std::fprintf(stderr, "usage: paper_figures [--figure=N] [--csv] "
                       "[--pipeline=p1,p2,...]\n");
  for (const PaperFigure &F : Figures)
    std::fprintf(stderr, "  %2u  %s, %s\n", F.Number, F.Kernel,
                 F.Pipelined ? "pipelined" : "non-pipelined");
  return 2;
}

} // namespace

int main(int argc, char **argv) {
  cl::ArgList Args(argc, argv);
  std::optional<std::string> Figure = Args.consumeValue("--figure");
  bool Csv = Args.consumeFlag("--csv");
  std::string Pipeline = Args.consumeValue("--pipeline").value_or("");
  if (!Args.empty())
    return usage();
  bool Found = false;
  for (const PaperFigure &F : Figures) {
    if (Figure && *Figure != std::to_string(F.Number))
      continue;
    Found = true;
    if (int Rc = bench::runFigureSweep(
            "Figure " + std::to_string(F.Number), F.Kernel,
            F.Pipelined ? TargetPlatform::wildstarPipelined()
                        : TargetPlatform::wildstarNonPipelined(),
            Csv, Pipeline))
      return Rc;
  }
  return Found ? 0 : usage();
}
