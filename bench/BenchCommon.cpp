//===- BenchCommon.cpp ----------------------------------------------------===//
//
// Part of the DEFACTO-DSE project, under the MIT License.
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include "defacto/Support/MathExtras.h"
#include "defacto/Support/Table.h"
#include "defacto/Transforms/PassRegistry.h"

#include <cstdio>

using namespace defacto;

cl::ObservabilityConfig defacto::bench::parseObservabilityFlags(int &Argc,
                                                                char **Argv) {
  cl::ArgList Args(Argc, Argv);
  cl::ObservabilityConfig Config = cl::consumeObservabilityFlags(Args);
  Args.compactInto(Argc, Argv);
  return Config;
}

int defacto::bench::runFigureSweep(const std::string &FigureName,
                                   const std::string &KernelName,
                                   const TargetPlatform &Platform,
                                   bool Csv, const std::string &Pipeline) {
  if (!Pipeline.empty()) {
    if (Expected<std::vector<std::string>> Parsed =
            parsePipelineText(Pipeline);
        !Parsed) {
      std::fprintf(stderr, "bad pipeline: %s\n",
                   Parsed.status().message().c_str());
      return 2;
    }
  }
  Kernel K = buildKernel(KernelName);
  ExplorerOptions Opts;
  Opts.Platform = Platform;
  Opts.BaseTransforms.Pipeline = Pipeline;
  DesignSpaceExplorer Ex(K, Opts);
  ExplorationResult Dse = Ex.run();

  // Sweep the two outermost memory-relevant loops, as the paper's plots
  // do (MM's innermost loop carries no memory parallelism and stays 1).
  const SaturationInfo &Sat = Ex.saturation();
  int OuterPos = -1, InnerPos = -1;
  for (unsigned P = 0; P != Sat.MemoryVarying.size(); ++P) {
    if (!Sat.MemoryVarying[P])
      continue;
    if (OuterPos < 0)
      OuterPos = static_cast<int>(P);
    else if (InnerPos < 0)
      InnerPos = static_cast<int>(P);
  }
  if (OuterPos < 0)
    OuterPos = 0;
  if (InnerPos < 0)
    InnerPos = Sat.Trips.size() > 1 ? 1 : 0;

  std::vector<int64_t> OuterFactors = divisorsOf(Sat.Trips[OuterPos]);
  std::vector<int64_t> InnerFactors = divisorsOf(Sat.Trips[InnerPos]);

  std::printf("==== %s: %s on %s ====\n", FigureName.c_str(),
              KernelName.c_str(), Platform.Name.c_str());
  std::printf("rows: unroll of loop %d (inner axis); columns: unroll of "
              "loop %d (curves)\n",
              InnerPos, OuterPos);
  std::printf("'*' marks the DSE-selected design %s; '!' marks designs "
              "exceeding the %s-slice device\n\n",
              unrollVectorToString(Dse.Selected).c_str(),
              formatWithCommas(
                  static_cast<int64_t>(Platform.CapacitySlices))
                  .c_str());

  std::vector<std::string> Header{"inner\\outer"};
  for (int64_t Fo : OuterFactors)
    Header.push_back(std::to_string(Fo));
  Table Balance(Header), Cycles(Header), Area(Header);

  for (int64_t Fi : InnerFactors) {
    std::vector<std::string> BRow{std::to_string(Fi)};
    std::vector<std::string> CRow{std::to_string(Fi)};
    std::vector<std::string> ARow{std::to_string(Fi)};
    for (int64_t Fo : OuterFactors) {
      UnrollVector U(Sat.Trips.size(), 1);
      U[OuterPos] = Fo;
      U[InnerPos] = Fi;
      auto Est = Ex.evaluate(U);
      if (!Est) {
        BRow.push_back("-");
        CRow.push_back("-");
        ARow.push_back("-");
        continue;
      }
      std::string Mark;
      if (U == Dse.Selected)
        Mark = "*";
      if (Est->Slices > Platform.CapacitySlices)
        Mark += "!";
      BRow.push_back(formatDouble(Est->Balance, 3) + Mark);
      CRow.push_back(std::to_string(Est->Cycles) + Mark);
      ARow.push_back(formatDouble(Est->Slices, 0) + Mark);
    }
    Balance.addRow(BRow);
    Cycles.addRow(CRow);
    Area.addRow(ARow);
  }

  if (Csv) {
    std::printf("# panel,balance\n%s", Balance.toCsv().c_str());
    std::printf("# panel,cycles\n%s", Cycles.toCsv().c_str());
    std::printf("# panel,area\n%s", Area.toCsv().c_str());
  } else {
    std::printf("(a) Balance (F/C; >1 compute bound, <1 memory bound)\n%s\n",
                Balance.toString(2).c_str());
    std::printf("(b) Execution cycles\n%s\n", Cycles.toString(2).c_str());
    std::printf("(c) Design area [slices], capacity %s\n%s\n",
                formatWithCommas(
                    static_cast<int64_t>(Platform.CapacitySlices))
                    .c_str(),
                Area.toString(2).c_str());
  }

  std::printf("DSE: selected %s, cycles %llu, slices %.0f, speedup over "
              "baseline %.2fx, searched %zu of %llu designs (%.2f%%)\n\n",
              unrollVectorToString(Dse.Selected).c_str(),
              static_cast<unsigned long long>(Dse.SelectedEstimate.Cycles),
              Dse.SelectedEstimate.Slices, Dse.speedup(),
              Dse.Visited.size(),
              static_cast<unsigned long long>(Dse.FullSpaceSize),
              100.0 * Dse.fractionSearched());
  return 0;
}
