//===- perf_eval_fastpath.cpp - Evaluation throughput benchmark -----------===//
//
// Part of the DEFACTO-DSE project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// Measures the evaluation engine — transform pipeline plus the built-in
/// estimator, one route for every design point — on the paper's Figure 6
/// matrix-multiply kernel, exhaustive strategy, default unroll caps: one
/// sweep per worker-thread count (1, 4, 8).
///
/// Every sweep uses a fresh EstimateCache, so each of the 90 candidates
/// is genuinely evaluated every time: the numbers are evaluations per
/// second of the engine, never cache replay of estimates.
///
/// The run is also a parity gate: the winner, its estimate, and the
/// decision digest must be identical at 1 and 8 threads. The process
/// exits nonzero only when parity fails — never on a slow machine — so
/// CI can run it as a smoke test (--quick caps the repetitions).
///
/// Writes BENCH_eval.json (override with --json=PATH): the host record
/// (nproc, CPU model, compiler, build type, and the commit passed with
/// --commit=SHA), per-sweep evaluations/sec, the parity verdicts, the
/// eval.latency_us percentiles, and the per-phase timer split
/// (pipeline.pass.*, pipeline.verify, estimator.dfg, scheduler.schedule)
/// of one instrumented single-thread sweep.
///
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include "defacto/Core/Explorer.h"
#include "defacto/Kernels/Kernels.h"
#include "defacto/Support/CommandLine.h"
#include "defacto/Support/Histogram.h"
#include "defacto/Support/Json.h"
#include "defacto/Support/Stats.h"
#include "defacto/Support/Timer.h"
#include "defacto/Support/Trace.h"

#include <chrono>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#ifndef DEFACTO_BUILD_TYPE
#define DEFACTO_BUILD_TYPE "unknown"
#endif
#ifndef DEFACTO_COMPILER
#define DEFACTO_COMPILER "unknown"
#endif

using namespace defacto;

namespace {

double now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct SweepOutcome {
  double Seconds = 0;
  unsigned Evaluations = 0;
  UnrollVector Selected;
  SynthesisEstimate Estimate;
  std::vector<std::string> Digest;
};

/// One exhaustive sweep with a fresh estimate cache, its candidates
/// fanned out over \p Pool (sequential when null).
SweepOutcome runSweep(const Kernel &K, std::shared_ptr<ThreadPool> Pool,
                      bool WantDigest = false) {
  ExplorerOptions Opts;
  Opts.Pool = std::move(Pool);
  Opts.Cache = std::make_shared<EstimateCache>();

  TraceRecorder &R = TraceRecorder::global();
  if (WantDigest) {
    R.clear();
    R.setEnabled(true);
  }
  double T0 = now();
  ExplorationResult Res = exploreExhaustive(K, Opts);
  SweepOutcome Out;
  Out.Seconds = now() - T0;
  Out.Evaluations = Res.EvaluationsUsed;
  Out.Selected = Res.Selected;
  Out.Estimate = Res.SelectedEstimate;
  if (WantDigest) {
    Out.Digest = R.decisionDigest();
    R.setEnabled(false);
    R.clear();
  }
  return Out;
}

bool sameEstimate(const SynthesisEstimate &A, const SynthesisEstimate &B) {
  return A.Cycles == B.Cycles && A.Slices == B.Slices &&
         A.Registers == B.Registers && A.Balance == B.Balance;
}

struct SweepRow {
  unsigned Threads = 0;
  unsigned Repetitions = 0;
  double BestSeconds = 0;
  unsigned Evaluations = 0;

  double evalsPerSec() const {
    return BestSeconds > 0 ? Evaluations / BestSeconds : 0;
  }
};

std::string cpuModel() {
  std::ifstream In("/proc/cpuinfo");
  std::string Line;
  while (std::getline(In, Line))
    if (Line.rfind("model name", 0) == 0) {
      size_t Colon = Line.find(':');
      if (Colon != std::string::npos)
        return Line.substr(Line.find_first_not_of(' ', Colon + 1));
    }
  return "unknown";
}

} // namespace

int main(int argc, char **argv) {
  cl::ObservabilityConfig Obs = bench::parseObservabilityFlags(argc, argv);
  // The timed sweeps run with recording off; the instrumented phase-split
  // pass below enables it explicitly.
  StatRegistry::instance().setEnabled(false);
  TraceRecorder::global().setEnabled(false);

  cl::ArgList Args(argc, argv);
  std::string JsonPath = Args.consumeValue("--json").value_or("BENCH_eval.json");
  std::string Commit = Args.consumeValue("--commit").value_or("unknown");
  bool Quick = Args.consumeFlag("--quick");
  if (!Args.empty()) {
    std::fprintf(stderr,
                 "usage: perf_eval_fastpath [--quick] [--json=PATH] "
                 "[--commit=SHA] [--stats] [--trace-out=PATH]\n");
    return 2;
  }

  const Kernel K = buildKernel("MM");
  const unsigned Reps = Quick ? 2 : 5;
  const std::vector<unsigned> ThreadCounts = {1, 4, 8};
  // One pool per thread count, spawned outside the timed sweeps; one
  // thread is the sequential engine, no pool at all.
  auto poolOf = [](unsigned T) {
    return T > 1 ? std::make_shared<ThreadPool>(T) : nullptr;
  };

  //===------------------------------------------------------------===//
  // Timed sweeps.
  //===------------------------------------------------------------===//
  std::vector<SweepRow> Rows;
  for (unsigned T : ThreadCounts) {
    SweepRow Row{T, Reps};
    std::shared_ptr<ThreadPool> Pool = poolOf(T);
    for (unsigned I = 0; I != Reps; ++I) {
      SweepOutcome O = runSweep(K, Pool);
      if (I == 0 || O.Seconds < Row.BestSeconds)
        Row.BestSeconds = O.Seconds;
      Row.Evaluations = O.Evaluations;
    }
    Rows.push_back(Row);
  }

  //===------------------------------------------------------------===//
  // Parity gate: 1 vs 8 threads.
  //===------------------------------------------------------------===//
  SweepOutcome One = runSweep(K, nullptr, /*WantDigest=*/true);
  SweepOutcome Eight = runSweep(K, poolOf(8), /*WantDigest=*/true);
  bool DigestMatch = !One.Digest.empty() && One.Digest == Eight.Digest;
  bool WinnerMatch = One.Selected == Eight.Selected &&
                     sameEstimate(One.Estimate, Eight.Estimate);
  if (!DigestMatch)
    std::fprintf(stderr, "PARITY VIOLATION: decision digest differs at 1 "
                         "vs 8 threads\n");
  if (!WinnerMatch)
    std::fprintf(stderr, "PARITY VIOLATION: selected design differs at 1 "
                         "vs 8 threads\n");

  //===------------------------------------------------------------===//
  // One instrumented single-thread sweep, outside the timed
  // measurements: the phase split and the eval.latency_us percentiles.
  //===------------------------------------------------------------===//
  StatRegistry::instance().setEnabled(true);
  TimerGroup::global().reset();
  HistogramRegistry::global().reset();
  runSweep(K, nullptr);
  std::string Phases = TimerGroup::global().toJson();
  HistogramSnapshot Lat;
  for (const HistogramSnapshot &S : HistogramRegistry::global().snapshot())
    if (S.Name == "eval.latency_us")
      Lat = S;
  StatRegistry::instance().setEnabled(false);

  //===------------------------------------------------------------===//
  // Report.
  //===------------------------------------------------------------===//
  std::printf("%8s %6s %14s %14s\n", "threads", "reps", "best_wall_ms",
              "evals/sec");
  for (const SweepRow &R : Rows)
    std::printf("%8u %6u %14.2f %14.1f\n", R.Threads, R.Repetitions,
                R.BestSeconds * 1e3, R.evalsPerSec());
  std::printf("parity (1 vs 8 threads): digest %s, winner %s\n",
              DigestMatch ? "OK" : "VIOLATED",
              WinnerMatch ? "OK" : "VIOLATED");
  std::printf("eval latency p50 %llu us, p95 %llu us, p99 %llu us, max %llu "
              "us (%llu evaluations)\n",
              static_cast<unsigned long long>(Lat.quantile(0.50)),
              static_cast<unsigned long long>(Lat.quantile(0.95)),
              static_cast<unsigned long long>(Lat.quantile(0.99)),
              static_cast<unsigned long long>(Lat.Max),
              static_cast<unsigned long long>(Lat.Count));

  std::ostringstream OS;
  OS << "{\n";
  OS << "  \"kernel\": \"MM\",\n  \"strategy\": \"exhaustive\",\n"
     << "  \"platform\": \"wildstar-pipelined\",\n"
     << "  \"quick\": " << (Quick ? "true" : "false") << ",\n";
  OS << "  \"host\": {\"nproc\": " << std::thread::hardware_concurrency()
     << ", \"cpu_model\": " << jsonQuote(cpuModel())
     << ", \"compiler\": " << jsonQuote(DEFACTO_COMPILER)
     << ", \"build_type\": " << jsonQuote(DEFACTO_BUILD_TYPE)
     << ", \"commit\": " << jsonQuote(Commit) << "},\n";
  OS << "  \"sweeps\": [\n";
  for (size_t I = 0; I != Rows.size(); ++I) {
    const SweepRow &R = Rows[I];
    OS << "    {\"mode\": \"exhaustive\", \"threads\": " << R.Threads
       << ", \"repetitions\": " << R.Repetitions
       << ", \"best_wall_seconds\": " << R.BestSeconds
       << ", \"evaluations\": " << R.Evaluations
       << ", \"evals_per_sec\": " << R.evalsPerSec() << "}"
       << (I + 1 == Rows.size() ? "\n" : ",\n");
  }
  OS << "  ],\n";
  OS << "  \"parity\": {\"digest_match_1_vs_8_threads\": "
     << (DigestMatch ? "true" : "false")
     << ", \"winner_match_1_vs_8_threads\": "
     << (WinnerMatch ? "true" : "false") << "},\n";
  OS << "  \"latency_percentiles\": {\"histogram\": \"eval.latency_us\", "
     << "\"threads\": 1, \"exhaustive\": {\"count\": " << Lat.Count
     << ", \"p50_us\": " << Lat.quantile(0.50)
     << ", \"p95_us\": " << Lat.quantile(0.95)
     << ", \"p99_us\": " << Lat.quantile(0.99) << ", \"max_us\": " << Lat.Max
     << "}},\n";
  OS << "  \"phase_timings_ms\": " << Phases << "\n";
  OS << "}\n";
  if (!JsonPath.empty()) {
    std::ofstream Out(JsonPath);
    Out << OS.str();
  }

  if (!cl::finishObservability(Obs))
    return 1;
  return DigestMatch && WinnerMatch ? 0 : 1;
}
