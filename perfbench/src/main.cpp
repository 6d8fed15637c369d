//===- main.cpp - The benchmark program -----------------------------------===//
//
// Part of the DEFACTO-DSE project, under the MIT License.
//
//===----------------------------------------------------------------------===//
//
// perfbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//           --reference TABLE [--work-dir DIR]
// perfbench --write-reference TABLE
//
// Runs one workload and prints, in order: the host record, notes (figures
// reported with their sample counts), one "metric" line per metric, and
// as the last line a JSON object with the keys correct, attempted, failed
// and metrics (end-to-end metrics untraced, per-layer metrics with
// --trace 1). Exits 1 when any output fails its check, 2 on a usage error.
//
//===----------------------------------------------------------------------===//

#include "Workloads.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>

using namespace perfbench;

namespace {

int usage(const char *Why) {
  std::fprintf(stderr,
               "perfbench: %s\n"
               "usage: perfbench --workload compile-guided|sweep-exhaustive|"
               "serve-mixed [--seed N] [--seconds S] [--trace 0|1]\n"
               "                 --reference TABLE [--work-dir DIR]\n"
               "       perfbench --write-reference TABLE\n",
               Why);
  return 2;
}

int writeReference(const std::string &Path) {
  std::vector<std::string> Lines;
  for (auto *Make : {compileReference, sweepReference, serveReference})
    for (std::string &L : Make())
      Lines.push_back(std::move(L));
  std::sort(Lines.begin(), Lines.end());
  std::ofstream Out(Path);
  Out << "# workload\tseed\tkey\tselected\tdecision_digest\n"
         "# Written by `perfbench --write-reference`; seed * = any seed.\n";
  for (const std::string &L : Lines)
    Out << L << '\n';
  Out.close();
  if (!Out) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", Path.c_str());
    return 1;
  }
  std::fprintf(stderr, "perfbench: wrote %zu reference lines to %s\n",
               Lines.size(), Path.c_str());
  return 0;
}

std::string number(double V) {
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%.17g", std::isfinite(V) ? V : 0.0);
  return Buf;
}

} // namespace

int main(int argc, char **argv) {
  RunConfig C;
  C.ProcessStart = nowSeconds();
  std::string ReferencePath, WriteReference;
  C.WorkDir = ".bench_build/perfbench/run";
  for (int I = 1; I < argc; ++I) {
    std::string A = argv[I];
    if (I + 1 >= argc)
      return usage(("missing value for " + A).c_str());
    std::string V = argv[++I];
    char *End = nullptr;
    if (A == "--workload") {
      C.Workload = V;
    } else if (A == "--seed") {
      C.Seed = std::strtoull(V.c_str(), &End, 10);
      if (V.empty() || *End)
        return usage("--seed takes a whole number");
    } else if (A == "--seconds") {
      C.Seconds = std::strtod(V.c_str(), &End);
      if (V.empty() || *End || !(C.Seconds > 0 && C.Seconds <= 3600))
        return usage("--seconds takes a number in (0, 3600]");
    } else if (A == "--trace") {
      if (V != "0" && V != "1")
        return usage("--trace takes 0 or 1");
      C.Trace = V == "1";
    } else if (A == "--reference") {
      ReferencePath = V;
    } else if (A == "--work-dir") {
      C.WorkDir = V;
    } else if (A == "--write-reference") {
      WriteReference = V;
    } else {
      return usage(("unknown argument " + A).c_str());
    }
  }
  if (!WriteReference.empty())
    return writeReference(WriteReference);

  ReferenceTable Table;
  std::string Error;
  if (ReferencePath.empty())
    return usage("--reference is required");
  if (!Table.load(ReferencePath, Error))
    return usage(Error.c_str());
  C.Reference = &Table;

  std::error_code EC;
  std::filesystem::create_directories(C.WorkDir, EC);
  if (EC)
    return usage(("cannot create work directory " + C.WorkDir).c_str());

  RunResult R;
  if (C.Workload == "compile-guided")
    R = runCompileGuided(C);
  else if (C.Workload == "sweep-exhaustive")
    R = runSweepExhaustive(C);
  else if (C.Workload == "serve-mixed")
    R = runServeMixed(C);
  else
    return usage(("unknown workload '" + C.Workload + "'").c_str());

  std::printf("host %s\n", hostRecordJson().c_str());
  std::printf("workload %s seed %llu seconds %g trace %d\n",
              C.Workload.c_str(), static_cast<unsigned long long>(C.Seed),
              C.Seconds, C.Trace ? 1 : 0);
  if (!R.ChromeTrace.empty()) {
    std::string Path = C.WorkDir + "/trace-" + C.Workload + "-" +
                       std::to_string(C.Seed) + ".json";
    std::ofstream(Path) << R.ChromeTrace;
    std::printf("trace written to %s\n", Path.c_str());
  }
  for (const std::string &N : R.Notes)
    std::printf("note %s\n", N.c_str());
  const std::vector<Metric> &Metrics = C.Trace ? R.PerLayer : R.EndToEnd;
  for (const Metric &M : Metrics)
    std::printf("metric %s = %s %s\n", M.Name.c_str(), number(M.Value).c_str(),
                M.Unit.c_str());
  for (size_t I = 0; I != R.Problems.size() && I != 20; ++I)
    std::fprintf(stderr, "perfbench: FAILED CHECK: %s\n",
                 R.Problems[I].c_str());
  if (R.Problems.size() > 20)
    std::fprintf(stderr, "perfbench: ... %zu more failed checks\n",
                 R.Problems.size() - 20);

  const bool Correct = R.Problems.empty() && R.Failed == 0 && R.Attempted > 0;
  std::string Json = std::string("{\"correct\": ") +
                     (Correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(R.Attempted) +
                     ", \"failed\": " + std::to_string(R.Failed) +
                     ", \"metrics\": {";
  for (size_t I = 0; I != Metrics.size(); ++I)
    Json += (I ? ", " : "") + jsonQuote(Metrics[I].Name) + ": {\"value\": " +
            number(Metrics[I].Value) +
            ", \"unit\": " + jsonQuote(Metrics[I].Unit) + "}";
  Json += "}}";
  std::printf("%s\n", Json.c_str());
  std::fflush(stdout);
  return Correct ? 0 : 1;
}
