//===- perf_dse_throughput.cpp - DSE wall-clock benchmarks ----------------===//
//
// Part of the DEFACTO-DSE project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// Google-benchmark timings of the exploration itself. The paper reports
/// the algorithm completing "in less than 5 minutes for each
/// application" with Monet-in-the-loop estimation; with the built-in
/// estimator the whole exploration runs in milliseconds, making the
/// comparison points the number of synthesis estimations and the
/// engine's throughput across worker-thread counts.
///
/// The parallel benchmarks sweep threads = 1/2/4/8 over the exhaustive
/// baseline (candidate fan-out on ExplorerOptions::Pool) and the
/// multi-kernel batch driver; the guided walk is sequential and is timed
/// once per kernel. Every parallel case runs on a fresh estimate cache
/// per iteration, so the numbers measure cold exploration throughput,
/// not cache replay.
///
/// Counters: "estimations" is the per-iteration mean of estimator
/// attempts actually spent; "cache_hit_rate" the per-iteration mean of
/// the estimate cache's hit rate. Besides the normal benchmark output
/// the binary writes a machine-readable summary (wall time, estimations
/// and cache hits per kernel and thread count) to BENCH_dse.json;
/// --json=PATH redirects it. After the timed benchmarks one instrumented
/// exploration pass over the paper kernels fills the report's "cache",
/// "phase_timings_ms" and "trace_event_count" blocks; --trace-out=PATH
/// additionally writes that pass's Chrome trace and --stats prints the
/// counter registry (BenchCommon.h).
///
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include "defacto/Core/BatchExplorer.h"
#include "defacto/Core/Explorer.h"
#include "defacto/Kernels/Kernels.h"
#include "defacto/Support/Json.h"
#include "defacto/Support/Stats.h"
#include "defacto/Support/Timer.h"
#include "defacto/Support/Trace.h"

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <fstream>
#include <mutex>
#include <sstream>
#include <string>
#include <vector>

using namespace defacto;

namespace {

/// One row of the BENCH_dse.json report.
struct JsonRecord {
  std::string Benchmark;
  std::string Kernel; // "ALL" for the batch driver
  std::string Mode;   // guided / exhaustive / batch / ...
  unsigned Threads = 1;
  uint64_t Iterations = 0;
  double WallSecondsMean = 0;
  double EstimationsMean = 0;
  double CacheHitRateMean = 0;
  uint64_t CacheHitsTotal = 0;
};

std::mutex RecordsMutex;
std::vector<JsonRecord> Records;

/// Per-benchmark accumulator: sums per-iteration observations, reports
/// the means as counters, and files one JsonRecord at teardown.
class StatsSink {
public:
  StatsSink(benchmark::State &State, std::string Kernel, std::string Mode,
            unsigned Threads)
      : State(State), Kernel(std::move(Kernel)), Mode(std::move(Mode)),
        Threads(Threads) {}

  void observe(double Seconds, unsigned Estimations,
               const EstimateCache::Stats &Cache) {
    ++Iterations;
    Seconds_ += Seconds;
    Estimations_ += Estimations;
    HitRate_ += Cache.hitRate();
    Hits_ += Cache.Hits;
  }

  ~StatsSink() {
    if (Iterations == 0)
      return;
    double N = static_cast<double>(Iterations);
    // kAvgIterations would divide by the framework's iteration count;
    // feed it per-iteration means directly so partial final batches
    // cannot skew the counters.
    State.counters["estimations"] =
        benchmark::Counter(Estimations_ / N);
    State.counters["cache_hit_rate"] = benchmark::Counter(HitRate_ / N);

    JsonRecord R;
    R.Benchmark = Kernel + "/" + Mode + "/threads:" +
                  std::to_string(Threads);
    R.Kernel = Kernel;
    R.Mode = Mode;
    R.Threads = Threads;
    R.Iterations = Iterations;
    R.WallSecondsMean = Seconds_ / N;
    R.EstimationsMean = Estimations_ / N;
    R.CacheHitRateMean = HitRate_ / N;
    R.CacheHitsTotal = Hits_;
    std::lock_guard<std::mutex> Lock(RecordsMutex);
    Records.push_back(std::move(R));
  }

private:
  benchmark::State &State;
  std::string Kernel, Mode;
  unsigned Threads;
  uint64_t Iterations = 0;
  double Seconds_ = 0, Estimations_ = 0, HitRate_ = 0;
  uint64_t Hits_ = 0;
};

double now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void BM_Exploration(benchmark::State &State, const char *Name,
                    bool Pipelined) {
  Kernel K = buildKernel(Name);
  ExplorerOptions Opts;
  Opts.Platform = Pipelined ? TargetPlatform::wildstarPipelined()
                            : TargetPlatform::wildstarNonPipelined();
  StatsSink Sink(State, Name, Pipelined ? "guided" : "guided-nonpipelined",
                 1);
  for (auto _ : State) {
    double T0 = now();
    DesignSpaceExplorer Ex(K, Opts);
    ExplorationResult R = Ex.run();
    benchmark::DoNotOptimize(R.SelectedEstimate.Cycles);
    Sink.observe(now() - T0, R.EvaluationsUsed,
                 Ex.estimateCache()->stats());
  }
}

void BM_ExhaustiveThreads(benchmark::State &State, const char *Name) {
  Kernel K = buildKernel(Name);
  unsigned Threads = static_cast<unsigned>(State.range(0));
  auto Pool = std::make_shared<ThreadPool>(Threads);
  StatsSink Sink(State, Name, "exhaustive", Threads);
  for (auto _ : State) {
    ExplorerOptions Opts;
    if (Threads > 1)
      Opts.Pool = Pool;
    Opts.Cache = std::make_shared<EstimateCache>();
    double T0 = now();
    ExplorationResult R = exploreExhaustive(K, Opts);
    benchmark::DoNotOptimize(R.SelectedEstimate.Cycles);
    Sink.observe(now() - T0, R.EvaluationsUsed, Opts.Cache->stats());
  }
}

void BM_BatchThreads(benchmark::State &State) {
  unsigned Threads = static_cast<unsigned>(State.range(0));
  auto Pool = std::make_shared<ThreadPool>(Threads);
  StatsSink Sink(State, "ALL", "batch", Threads);
  for (auto _ : State) {
    BatchOptions Batch;
    Batch.NumThreads = Threads;
    if (Threads > 1)
      Batch.Pool = Pool;
    Batch.Cache = std::make_shared<EstimateCache>();
    BatchExplorer Engine(Batch);
    for (const KernelSpec &Spec : paperKernels())
      Engine.addJob(buildKernel(Spec.Name), ExplorerOptions{});
    double T0 = now();
    std::vector<BatchResult> Results = Engine.runAll();
    double Elapsed = now() - T0;
    unsigned Evals = 0;
    for (const BatchResult &R : Results)
      Evals += R.Result.EvaluationsUsed;
    benchmark::DoNotOptimize(Results.size());
    Sink.observe(Elapsed, Evals, Batch.Cache->stats());
  }
}

void BM_SingleEstimate(benchmark::State &State, const char *Name) {
  Kernel K = buildKernel(Name);
  ExplorerOptions Opts;
  for (auto _ : State) {
    DesignSpaceExplorer Ex(K, Opts);
    auto Est = Ex.evaluate(Ex.initialVector());
    benchmark::DoNotOptimize(Est->Cycles);
  }
}

void BM_TransformPipeline(benchmark::State &State, const char *Name) {
  Kernel K = buildKernel(Name);
  TransformOptions Opts;
  Opts.Unroll = {2, 2};
  for (auto _ : State) {
    TransformResult R = applyPipeline(K, Opts);
    benchmark::DoNotOptimize(R.K.body().size());
  }
}

/// Observability data for the JSON report, gathered by one instrumented
/// exploration pass after the timed benchmarks finish (the benchmarks
/// themselves run with recording off, so the timings never measure the
/// instrumentation).
struct ObservedPass {
  EstimateCache::Stats Cache;
  std::string PhaseTimingsJson = "{}";
  size_t TraceEvents = 0;
};

ObservedPass runObservedPass() {
  StatRegistry::instance().setEnabled(true);
  TraceRecorder::global().setEnabled(true);
  TimerGroup::global().reset();
  auto Cache = std::make_shared<EstimateCache>();
  for (const KernelSpec &Spec : paperKernels()) {
    ExplorerOptions Opts;
    Opts.Cache = Cache;
    DesignSpaceExplorer Ex(buildKernel(Spec.Name), Opts);
    ExplorationResult R = Ex.run();
    benchmark::DoNotOptimize(R.EvaluationsUsed);
  }
  ObservedPass P;
  P.Cache = Cache->stats();
  P.PhaseTimingsJson = TimerGroup::global().toJson();
  P.TraceEvents = TraceRecorder::global().eventCount();
  return P;
}

void writeJsonReport(const std::string &Path, const ObservedPass &Obs) {
  // The framework's warmup and iteration-count probe runs each file a
  // record too; keep only the real measurement (the most iterations)
  // per benchmark.
  std::vector<JsonRecord> Final;
  for (const JsonRecord &R : Records) {
    auto It = std::find_if(Final.begin(), Final.end(),
                           [&R](const JsonRecord &F) {
                             return F.Benchmark == R.Benchmark;
                           });
    if (It == Final.end())
      Final.push_back(R);
    else if (R.Iterations > It->Iterations)
      *It = R;
  }

  std::ostringstream OS;
  OS << "{\n  \"benchmarks\": [\n";
  for (size_t I = 0; I != Final.size(); ++I) {
    const JsonRecord &R = Final[I];
    OS << "    {\"benchmark\": " << jsonQuote(R.Benchmark)
       << ", \"kernel\": " << jsonQuote(R.Kernel)
       << ", \"mode\": " << jsonQuote(R.Mode)
       << ", \"threads\": " << R.Threads
       << ", \"iterations\": " << R.Iterations
       << ", \"wall_seconds_mean\": " << R.WallSecondsMean
       << ", \"estimations_mean\": " << R.EstimationsMean
       << ", \"cache_hit_rate_mean\": " << R.CacheHitRateMean
       << ", \"cache_hits_total\": " << R.CacheHitsTotal << "}"
       << (I + 1 == Final.size() ? "\n" : ",\n");
  }
  OS << "  ],\n";
  OS << "  \"cache\": {\"lookups\": " << Obs.Cache.Lookups
     << ", \"hits\": " << Obs.Cache.Hits
     << ", \"negative_hits\": " << Obs.Cache.NegativeHits
     << ", \"misses\": " << Obs.Cache.Misses
     << ", \"waits\": " << Obs.Cache.Waits
     << ", \"inserts\": " << Obs.Cache.Inserts
     << ", \"hit_rate\": " << Obs.Cache.hitRate() << "},\n";
  OS << "  \"phase_timings_ms\": " << Obs.PhaseTimingsJson << ",\n";
  OS << "  \"trace_event_count\": " << Obs.TraceEvents << "\n";
  OS << "}\n";
  std::ofstream Out(Path);
  Out << OS.str();
}

} // namespace

BENCHMARK_CAPTURE(BM_Exploration, fir_pipelined, "FIR", true);
BENCHMARK_CAPTURE(BM_Exploration, fir_nonpipelined, "FIR", false);
BENCHMARK_CAPTURE(BM_Exploration, mm_pipelined, "MM", true);
BENCHMARK_CAPTURE(BM_Exploration, pat_pipelined, "PAT", true);
BENCHMARK_CAPTURE(BM_Exploration, jac_pipelined, "JAC", true);
BENCHMARK_CAPTURE(BM_Exploration, sobel_pipelined, "SOBEL", true);
BENCHMARK_CAPTURE(BM_ExhaustiveThreads, fir, "FIR")
    ->Arg(1)->Arg(2)->Arg(4)->Arg(8);
BENCHMARK_CAPTURE(BM_ExhaustiveThreads, mm, "MM")
    ->Arg(1)->Arg(2)->Arg(4)->Arg(8);
BENCHMARK(BM_BatchThreads)->Arg(1)->Arg(2)->Arg(4)->Arg(8);
BENCHMARK_CAPTURE(BM_SingleEstimate, fir, "FIR");
BENCHMARK_CAPTURE(BM_SingleEstimate, mm, "MM");
BENCHMARK_CAPTURE(BM_TransformPipeline, fir, "FIR");
BENCHMARK_CAPTURE(BM_TransformPipeline, sobel, "SOBEL");

int main(int argc, char **argv) {
  // Peel --trace-out=/--stats first, then our --json flag, before
  // google-benchmark sees the argv.
  cl::ObservabilityConfig Obs = bench::parseObservabilityFlags(argc, argv);
  // The timed benchmarks always run with recording off: counters, timers
  // and a trace of every iteration would measure the instrumentation.
  // The flags apply to the instrumented pass that follows the benchmarks.
  StatRegistry::instance().setEnabled(false);
  TraceRecorder::global().setEnabled(false);

  std::string JsonPath = "BENCH_dse.json";
  std::vector<char *> Args;
  for (int I = 0; I < argc; ++I) {
    if (std::strncmp(argv[I], "--json=", 7) == 0) {
      JsonPath = argv[I] + 7;
      continue;
    }
    Args.push_back(argv[I]);
  }
  int Argc = static_cast<int>(Args.size());
  benchmark::Initialize(&Argc, Args.data());
  if (benchmark::ReportUnrecognizedArguments(Argc, Args.data()))
    return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();

  ObservedPass Observed = runObservedPass();
  if (!JsonPath.empty())
    writeJsonReport(JsonPath, Observed);
  if (!cl::finishObservability(Obs))
    return 1;
  return 0;
}
