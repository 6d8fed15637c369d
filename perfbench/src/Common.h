//===- Common.h - Benchmark-wide utilities --------------------*- C++ -*-===//
//
// Part of the DEFACTO-DSE project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// What every workload of the benchmark shares: the seeded generator's
/// random source, the percentile rule, the in-memory span recorder behind
/// the traced run, the host record, the committed reference table, and
/// the result of one run.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_COMMON_H
#define PERFBENCH_COMMON_H

#include <cstddef>
#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// The seed a run uses when --seed is not given; the reference table
/// holds its winners and digests.
inline constexpr uint64_t DefaultSeed = 1;
/// The held-out seed: never used while tuning the engine, so a claimed
/// gain must also hold on it. The reference table covers it too.
inline constexpr uint64_t HeldOutSeed = 20021;

/// splitmix64: small, fast, and identical on every platform, so a seed
/// names the same inputs everywhere.
class Rng {
public:
  explicit Rng(uint64_t Seed) : State(Seed) {}
  uint64_t next();
  /// Uniform in [0, N); N > 0.
  uint64_t below(uint64_t N) { return next() % N; }
  /// Uniform in [0, 1).
  double uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }
  template <typename T> void shuffle(std::vector<T> &V) {
    for (size_t I = V.size(); I > 1; --I)
      std::swap(V[I - 1], V[below(I)]);
  }

private:
  uint64_t State;
};

/// Derives an independent stream seed for one purpose of one run.
uint64_t mixSeed(uint64_t Seed, uint64_t Stream);

//===----------------------------------------------------------------------===//
// Percentiles
//===----------------------------------------------------------------------===//

/// Samples that must lie beyond a percentile for it to be reported.
inline constexpr size_t MinSamplesBeyond = 10;

/// Nearest-rank percentile of \p Sorted (ascending) at \p Level percent;
/// \p Beyond receives how many samples lie above it.
double nearestRank(const std::vector<double> &Sorted, double Level,
                   size_t *Beyond = nullptr);

/// The percentile rule, implemented once: the median plus the highest
/// of the levels 99.9, 99, 95, 90, 75 and 50 that has at least
/// MinSamplesBeyond samples beyond it. Always reported with the count.
struct Summary {
  size_t Count = 0;
  double P50 = 0;
  /// 0 when no level qualifies (fewer than 20 samples).
  double TailLevel = 0;
  double Tail = 0;
  size_t Beyond = 0;

  /// The value at \p Level, when that level qualifies under the rule.
  std::optional<double> at(double Level) const;
  /// "p50 1.23 ms, p99 4.56 ms (n=1000, 10 beyond)".
  std::string describe(const std::string &Unit) const;

  std::vector<double> Sorted;
};
Summary summarize(std::vector<double> Values);

//===----------------------------------------------------------------------===//
// Spans for the traced run
//===----------------------------------------------------------------------===//

/// Records named spans in memory: start, end, parent (the innermost open
/// span of the recording thread) and the operation they belong to. A
/// disabled recorder records nothing and costs one branch per span.
class SpanRecorder {
public:
  explicit SpanRecorder(bool Enabled) : On(Enabled) {}
  bool enabled() const { return On; }

  size_t begin(const char *Name, uint64_t Op);
  void end(size_t Index);

  struct Totals {
    double SelfMs = 0;
    uint64_t Calls = 0;
    std::vector<double> DurationsUs;
  };
  /// Per span name: summed self time (duration minus the time its child
  /// spans cover), call count and every duration.
  std::map<std::string, Totals> totals() const;

  /// Chrome trace_event JSON (loads in Perfetto and chrome://tracing);
  /// \p Metadata is embedded verbatim as the "metadata" object.
  std::string chromeTrace(const std::string &Metadata) const;

private:
  struct Record {
    std::string Name;
    uint64_t Op = 0;
    double StartUs = 0;
    double EndUs = 0;
    int64_t Parent = -1;
    uint32_t Thread = 0;
  };
  bool On;
  mutable std::mutex M;
  std::vector<Record> Records;
  std::map<size_t, uint32_t> Threads; // hashed thread id -> dense id
};

/// RAII span; a no-op on a disabled recorder.
class Span {
public:
  Span(SpanRecorder &Recorder, const char *Name, uint64_t Op)
      : R(Recorder.enabled() ? &Recorder : nullptr),
        Index(R ? R->begin(Name, Op) : 0) {}
  ~Span() {
    if (R)
      R->end(Index);
  }
  Span(const Span &) = delete;
  Span &operator=(const Span &) = delete;

private:
  SpanRecorder *R;
  size_t Index;
};

//===----------------------------------------------------------------------===//
// Runs and results
//===----------------------------------------------------------------------===//

/// The committed winners-and-digests table (reference/winners.tsv):
/// workload, seed ("*": the entry holds for every seed), key, selected
/// design, decision digest.
class ReferenceTable {
public:
  /// Loads \p Path; an unreadable file leaves the table empty and sets
  /// \p Error.
  bool load(const std::string &Path, std::string &Error);

  struct Entry {
    std::string Selected;
    std::string Digest;
  };
  /// The committed entry for \p Key under \p Seed or "*", if any.
  std::optional<Entry> lookup(const std::string &Workload, uint64_t Seed,
                              const std::string &Key) const;

  static std::string line(const std::string &Workload, const std::string &Seed,
                          const std::string &Key, const Entry &E);

private:
  std::map<std::string, Entry> Entries; // "workload\tseed\tkey"
};

struct RunConfig {
  std::string Workload;
  uint64_t Seed = DefaultSeed;
  double Seconds = 10;
  bool Trace = false;
  std::string WorkDir;
  const ReferenceTable *Reference = nullptr;
  /// Steady-clock seconds at process start (set-up is timed from it).
  double ProcessStart = 0;
};

struct Metric {
  std::string Name;
  double Value = 0;
  std::string Unit;
};

struct RunResult {
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  /// One line per failed check; any entry makes the run incorrect.
  std::vector<std::string> Problems;
  /// Untraced end-to-end metrics (the JSON result with --trace 0).
  std::vector<Metric> EndToEnd;
  /// Traced per-layer metrics (the JSON result with --trace 1).
  std::vector<Metric> PerLayer;
  /// Human-readable lines printed before the result (metrics that are
  /// reported with their sample counts, or are 0 on a healthy run).
  std::vector<std::string> Notes;
  /// Spans of the traced run, written out as a Chrome trace.
  std::string ChromeTrace;

  void problem(std::string Text);
};

/// Steady-clock seconds.
double nowSeconds();
/// CPU seconds the calling thread has run (CLOCK_THREAD_CPUTIME_ID). Time
/// the host gives to other work or steals from a virtual CPU is not in it.
double threadCpuSeconds();
/// CPU seconds all threads of this process have run.
double processCpuSeconds();
/// Peak resident set of this process, in MiB.
double maxRssMb();
/// CPUs this process may run on (the nproc figure).
unsigned availableCpus();
/// The host and build record, as one JSON object.
std::string hostRecordJson();
/// Median of \p V (0 when empty).
double median(std::vector<double> V);
/// JSON string literal.
std::string jsonQuote(const std::string &S);
/// FNV-1a 64 over \p Bytes, chained from \p Hash.
uint64_t fnv1a(const std::string &Bytes, uint64_t Hash = 0xcbf29ce484222325ULL);
std::string hex64(uint64_t V);

/// The per-layer metric names every traced run reports, in order, with
/// units; a layer a workload does not exercise reads 0.
const std::vector<std::pair<std::string, std::string>> &perLayerMetricNames();

/// Fills \p Out.PerLayer from \p Values in perLayerMetricNames() order
/// (names missing from \p Values read 0).
void emitPerLayer(RunResult &Out, const std::map<std::string, double> &Values);

/// Adds the span-derived layer figures (self time and calls of every
/// span name, per-call p50 of hls.estimate) to \p Values.
void addSpanTotals(const SpanRecorder &Spans,
                   std::map<std::string, double> &Values);

/// Median over the whole seconds of a window of the work completed in
/// each, from (completion offset in seconds, amount) pairs: a rate that a
/// transient stall of the host moves less than total over elapsed does.
/// Falls back to total over \p WindowSeconds for windows under 2 s.
double medianRate(const std::vector<std::pair<double, double>> &Completions,
                  double WindowSeconds);

/// Adds the end-to-end metrics every workload reports.
void addEndToEnd(RunResult &Out, double SetupSeconds, double ExplorationsPerS,
                 double EvaluationsPerS);

/// Adds the human-readable latency lines: latency_ms_p50, the percentile
/// rule's summary, and latency_ms_p99 when at least 10 samples lie beyond
/// it.
void noteLatency(RunResult &Out, const std::string &What, const Summary &Lat);

/// Adds the human-readable error-ratio line.
void noteErrorRatio(RunResult &Out);

} // namespace perfbench

#endif // PERFBENCH_COMMON_H
