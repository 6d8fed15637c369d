//===- Common.cpp - Benchmark-wide utilities ------------------------------===//
//
// Part of the DEFACTO-DSE project, under the MIT License.
//
//===----------------------------------------------------------------------===//

#include "Common.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <sched.h>
#include <sstream>
#include <sys/resource.h>
#include <thread>
#include <time.h>

namespace perfbench {

uint64_t Rng::next() {
  uint64_t Z = (State += 0x9E3779B97F4A7C15ULL);
  Z = (Z ^ (Z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  Z = (Z ^ (Z >> 27)) * 0x94D049BB133111EBULL;
  return Z ^ (Z >> 31);
}

uint64_t mixSeed(uint64_t Seed, uint64_t Stream) {
  Rng R(Seed ^ (Stream * 0xD1B54A32D192ED03ULL));
  return R.next();
}

//===----------------------------------------------------------------------===//
// Percentiles
//===----------------------------------------------------------------------===//

double nearestRank(const std::vector<double> &Sorted, double Level,
                   size_t *Beyond) {
  if (Sorted.empty()) {
    if (Beyond)
      *Beyond = 0;
    return 0;
  }
  // Rank = ceil(Level/100 * n), computed on integers (Level in
  // thousandths of a percent) so 99 * 1000 / 100 is exactly 990.
  const uint64_t Milli = static_cast<uint64_t>(std::llround(Level * 1000));
  const uint64_t N = Sorted.size();
  uint64_t Rank = (Milli * N + 100000 - 1) / 100000;
  Rank = std::clamp<uint64_t>(Rank, 1, N);
  if (Beyond)
    *Beyond = N - Rank;
  return Sorted[Rank - 1];
}

static constexpr double TailLevels[] = {99.9, 99, 95, 90, 75, 50};

Summary summarize(std::vector<double> Values) {
  Summary S;
  std::sort(Values.begin(), Values.end());
  S.Count = Values.size();
  S.P50 = nearestRank(Values, 50);
  for (double Level : TailLevels) {
    size_t Beyond = 0;
    double V = nearestRank(Values, Level, &Beyond);
    if (Beyond >= MinSamplesBeyond) {
      S.TailLevel = Level;
      S.Tail = V;
      S.Beyond = Beyond;
      break;
    }
  }
  S.Sorted = std::move(Values);
  return S;
}

std::optional<double> Summary::at(double Level) const {
  size_t Beyond = 0;
  double V = nearestRank(Sorted, Level, &Beyond);
  if (Sorted.empty() || Beyond < MinSamplesBeyond)
    return std::nullopt;
  return V;
}

std::string Summary::describe(const std::string &Unit) const {
  char Buf[160];
  if (TailLevel > 0)
    std::snprintf(Buf, sizeof(Buf),
                  "p50 %.4g %s, p%g %.4g %s (n=%zu, %zu beyond)", P50,
                  Unit.c_str(), TailLevel, Tail, Unit.c_str(), Count, Beyond);
  else
    std::snprintf(Buf, sizeof(Buf),
                  "p50 %.4g %s (n=%zu; too few samples for a tail)", P50,
                  Unit.c_str(), Count);
  return Buf;
}

//===----------------------------------------------------------------------===//
// Spans
//===----------------------------------------------------------------------===//

namespace {
thread_local std::vector<size_t> OpenSpans;

double monotonicUs() {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}
} // namespace

size_t SpanRecorder::begin(const char *Name, uint64_t Op) {
  Record R;
  R.Name = Name;
  R.Op = Op;
  R.Parent = OpenSpans.empty() ? -1 : static_cast<int64_t>(OpenSpans.back());
  size_t ThreadKey = std::hash<std::thread::id>()(std::this_thread::get_id());
  size_t Index;
  {
    std::lock_guard<std::mutex> Lock(M);
    auto [It, Inserted] =
        Threads.try_emplace(ThreadKey, static_cast<uint32_t>(Threads.size()));
    R.Thread = It->second;
    Index = Records.size();
    Records.push_back(std::move(R));
  }
  OpenSpans.push_back(Index);
  double Now = monotonicUs();
  std::lock_guard<std::mutex> Lock(M);
  Records[Index].StartUs = Now;
  return Index;
}

void SpanRecorder::end(size_t Index) {
  double Now = monotonicUs();
  if (!OpenSpans.empty() && OpenSpans.back() == Index)
    OpenSpans.pop_back();
  std::lock_guard<std::mutex> Lock(M);
  Records[Index].EndUs = Now;
}

std::map<std::string, SpanRecorder::Totals> SpanRecorder::totals() const {
  std::lock_guard<std::mutex> Lock(M);
  std::vector<double> ChildUs(Records.size(), 0.0);
  for (const Record &R : Records)
    if (R.Parent >= 0)
      ChildUs[R.Parent] += R.EndUs - R.StartUs;
  std::map<std::string, Totals> Out;
  for (size_t I = 0; I != Records.size(); ++I) {
    const Record &R = Records[I];
    Totals &T = Out[R.Name];
    double Us = R.EndUs - R.StartUs;
    T.SelfMs += (Us - ChildUs[I]) / 1000.0;
    ++T.Calls;
    T.DurationsUs.push_back(Us);
  }
  return Out;
}

std::string SpanRecorder::chromeTrace(const std::string &Metadata) const {
  std::lock_guard<std::mutex> Lock(M);
  double Epoch = Records.empty() ? 0 : Records.front().StartUs;
  for (const Record &R : Records)
    Epoch = std::min(Epoch, R.StartUs);
  std::ostringstream OS;
  OS.precision(3);
  OS << std::fixed << "{\"metadata\": " << Metadata
     << ",\n\"displayTimeUnit\": \"ms\",\n\"traceEvents\": [";
  for (size_t I = 0; I != Records.size(); ++I) {
    const Record &R = Records[I];
    OS << (I ? ",\n" : "\n") << "{\"name\": " << jsonQuote(R.Name)
       << ", \"cat\": \"perfbench\", \"ph\": \"X\", \"pid\": 1, \"tid\": "
       << R.Thread << ", \"ts\": " << R.StartUs - Epoch
       << ", \"dur\": " << R.EndUs - R.StartUs << ", \"args\": {\"op\": "
       << R.Op << ", \"span\": " << I << ", \"parent\": " << R.Parent << "}}";
  }
  OS << "\n]}\n";
  return OS.str();
}

//===----------------------------------------------------------------------===//
// Reference table
//===----------------------------------------------------------------------===//

bool ReferenceTable::load(const std::string &Path, std::string &Error) {
  std::ifstream In(Path);
  if (!In) {
    Error = "cannot read reference table " + Path;
    return false;
  }
  std::string Line;
  while (std::getline(In, Line)) {
    if (Line.empty() || Line[0] == '#')
      continue;
    std::vector<std::string> F;
    std::stringstream SS(Line);
    std::string Field;
    while (std::getline(SS, Field, '\t'))
      F.push_back(Field);
    if (F.size() != 5) {
      Error = "malformed reference line: " + Line;
      return false;
    }
    Entries[F[0] + '\t' + F[1] + '\t' + F[2]] = {F[3], F[4]};
  }
  return true;
}

std::optional<ReferenceTable::Entry>
ReferenceTable::lookup(const std::string &Workload, uint64_t Seed,
                       const std::string &Key) const {
  for (const std::string &S : {std::to_string(Seed), std::string("*")}) {
    auto It = Entries.find(Workload + '\t' + S + '\t' + Key);
    if (It != Entries.end())
      return It->second;
  }
  return std::nullopt;
}

std::string ReferenceTable::line(const std::string &Workload,
                                 const std::string &Seed,
                                 const std::string &Key, const Entry &E) {
  return Workload + '\t' + Seed + '\t' + Key + '\t' + E.Selected + '\t' +
         E.Digest;
}

//===----------------------------------------------------------------------===//
// Host, time, formatting
//===----------------------------------------------------------------------===//

void RunResult::problem(std::string Text) {
  Problems.push_back(std::move(Text));
}

double nowSeconds() { return monotonicUs() / 1e6; }

static double cpuClockSeconds(clockid_t Clock) {
  timespec T{};
  clock_gettime(Clock, &T);
  return static_cast<double>(T.tv_sec) + static_cast<double>(T.tv_nsec) / 1e9;
}

double threadCpuSeconds() { return cpuClockSeconds(CLOCK_THREAD_CPUTIME_ID); }

double processCpuSeconds() {
  return cpuClockSeconds(CLOCK_PROCESS_CPUTIME_ID);
}

double maxRssMb() {
  // VmHWM is this program image's peak; getrusage's ru_maxrss would also
  // count whatever ran in the process before it was exec'ed (run.py).
  std::ifstream In("/proc/self/status");
  std::string Line;
  while (std::getline(In, Line))
    if (Line.rfind("VmHWM:", 0) == 0)
      return std::strtod(Line.c_str() + 6, nullptr) / 1024.0; // kB
  struct rusage U;
  getrusage(RUSAGE_SELF, &U);
  return static_cast<double>(U.ru_maxrss) / 1024.0;
}

unsigned availableCpus() {
  cpu_set_t Set;
  if (sched_getaffinity(0, sizeof(Set), &Set) == 0)
    return std::max(1, CPU_COUNT(&Set));
  return std::max(1u, std::thread::hardware_concurrency());
}

static std::string cpuModel() {
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

static std::string envOr(const char *Name, const char *Fallback) {
  const char *V = std::getenv(Name);
  return V && *V ? V : Fallback;
}

std::string hostRecordJson() {
  double Load[3] = {0, 0, 0};
  if (getloadavg(Load, 3) != 3)
    Load[0] = Load[1] = Load[2] = -1;
  std::ostringstream OS;
  OS << "{\"nproc\": " << availableCpus()
     << ", \"cpu_model\": " << jsonQuote(cpuModel())
     << ", \"compiler\": " << jsonQuote(PERFBENCH_COMPILER)
     << ", \"build_type\": " << jsonQuote(PERFBENCH_BUILD_TYPE)
     << ", \"git_commit\": " << jsonQuote(envOr("PERFBENCH_COMMIT", "unknown"))
     << ", \"source_sha256\": "
     << jsonQuote(envOr("PERFBENCH_SOURCE_SHA256", "unknown"))
     << ", \"loadavg_at_start\": [" << Load[0] << ", " << Load[1] << ", "
     << Load[2] << "]}";
  return OS.str();
}

double median(std::vector<double> V) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  size_t N = V.size();
  return N % 2 ? V[N / 2] : (V[N / 2 - 1] + V[N / 2]) / 2;
}

std::string jsonQuote(const std::string &S) {
  std::string Out = "\"";
  for (char C : S) {
    switch (C) {
    case '"': Out += "\\\""; break;
    case '\\': Out += "\\\\"; break;
    case '\n': Out += "\\n"; break;
    case '\t': Out += "\\t"; break;
    default:
      if (static_cast<unsigned char>(C) < 0x20) {
        char Buf[8];
        std::snprintf(Buf, sizeof(Buf), "\\u%04x", C);
        Out += Buf;
      } else {
        Out += C;
      }
    }
  }
  return Out + "\"";
}

uint64_t fnv1a(const std::string &Bytes, uint64_t Hash) {
  for (unsigned char C : Bytes) {
    Hash ^= C;
    Hash *= 0x100000001b3ULL;
  }
  return Hash;
}

std::string hex64(uint64_t V) {
  char Buf[20];
  std::snprintf(Buf, sizeof(Buf), "%016llx",
                static_cast<unsigned long long>(V));
  return Buf;
}

//===----------------------------------------------------------------------===//
// Per-layer metrics
//===----------------------------------------------------------------------===//

const std::vector<std::pair<std::string, std::string>> &perLayerMetricNames() {
  static const std::vector<std::pair<std::string, std::string>> Names = {
      {"frontend.parse.self_ms", "ms"},
      {"frontend.parse.calls", "count"},
      {"core.init.self_ms", "ms"},
      {"core.init.calls", "count"},
      {"core.explore.self_ms", "ms"},
      {"core.evaluations", "count"},
      {"core.visited", "count"},
      {"cache.lookups", "count"},
      {"cache.hits", "count"},
      {"cache.misses", "count"},
      {"cache.waits", "count"},
      {"cache.hit_ratio", "ratio"},
      {"transforms.pipeline.self_ms", "ms"},
      {"transforms.pass.normalize.self_ms", "ms"},
      {"transforms.pass.interchange.self_ms", "ms"},
      {"transforms.pass.stripmine.self_ms", "ms"},
      {"transforms.pass.unroll.self_ms", "ms"},
      {"transforms.pass.scalar-repl.self_ms", "ms"},
      {"transforms.pass.peel.self_ms", "ms"},
      {"transforms.pass.fold.self_ms", "ms"},
      {"transforms.pass.layout.self_ms", "ms"},
      {"transforms.ir_nodes_out", "count"},
      {"ir.clone.self_ms", "ms"},
      {"hls.estimate.self_ms", "ms"},
      {"hls.estimate.calls", "count"},
      {"hls.estimate.us_p50", "us"},
      {"serve.rtt_ms_p50", "ms"},
      {"serve.rtt_ms_p99", "ms"},
      {"serve.server_ms_p50", "ms"},
      {"serve.server_ms_p99", "ms"},
      {"serve.wire_ms_p50", "ms"},
      {"serve.batch_size_mean", "count"},
      {"serve.warm_ratio", "ratio"},
      {"serve.overloaded", "count"},
      {"serve.queue_depth_max", "count"},
      {"sim.check.self_ms", "ms"},
      {"loadgen.late_ms_p99", "ms"},
      {"trace.overhead_pct", "%"},
  };
  return Names;
}

void emitPerLayer(RunResult &Out, const std::map<std::string, double> &Values) {
  for (const auto &[Name, Unit] : perLayerMetricNames()) {
    auto It = Values.find(Name);
    Out.PerLayer.push_back({Name, It == Values.end() ? 0.0 : It->second, Unit});
  }
}

void addSpanTotals(const SpanRecorder &Spans,
                   std::map<std::string, double> &Values) {
  for (const auto &[Name, T] : Spans.totals()) {
    Values[Name + ".self_ms"] += T.SelfMs;
    Values[Name + ".calls"] += static_cast<double>(T.Calls);
    if (Name == "hls.estimate")
      Values["hls.estimate.us_p50"] = summarize(T.DurationsUs).P50;
  }
}

double medianRate(const std::vector<std::pair<double, double>> &Completions,
                  double WindowSeconds) {
  const size_t Seconds = static_cast<size_t>(WindowSeconds);
  if (Seconds < 2) {
    double Total = 0;
    for (const auto &[At, Amount] : Completions)
      Total += Amount;
    return Total / std::max(WindowSeconds, 1e-9);
  }
  std::vector<double> PerSecond(Seconds, 0.0);
  for (const auto &[At, Amount] : Completions)
    if (At >= 0 && At < static_cast<double>(Seconds))
      PerSecond[static_cast<size_t>(At)] += Amount;
  return median(PerSecond);
}

void addEndToEnd(RunResult &Out, double SetupSeconds, double ExplorationsPerS,
                 double EvaluationsPerS) {
  Out.EndToEnd = {{"setup_s", SetupSeconds, "s"},
                  {"explorations_per_s", ExplorationsPerS, "1/s"},
                  {"evaluations_per_s", EvaluationsPerS, "1/s"},
                  {"max_rss_mb", maxRssMb(), "MB"}};
}

void noteLatency(RunResult &Out, const std::string &What, const Summary &Lat) {
  char P50[64];
  std::snprintf(P50, sizeof(P50), "%.17g", Lat.P50);
  Out.Notes.push_back("latency_ms_p50 = " + std::string(P50) + " ms");
  Out.Notes.push_back("latency per " + What + ": " + Lat.describe("ms"));
  if (std::optional<double> P99 = Lat.at(99))
    Out.Notes.push_back("latency_ms_p99 = " + std::to_string(*P99) +
                        " ms (n=" + std::to_string(Lat.Count) + ")");
  else
    Out.Notes.push_back("latency_ms_p99 not reported: " +
                        std::to_string(Lat.Count) +
                        " samples leave fewer than 10 beyond p99");
}

void noteErrorRatio(RunResult &Out) {
  char Buf[128];
  std::snprintf(Buf, sizeof(Buf), "error_ratio = %.6f ratio (%llu of %llu)",
                Out.Attempted ? double(Out.Failed) / double(Out.Attempted)
                              : 0.0,
                static_cast<unsigned long long>(Out.Failed),
                static_cast<unsigned long long>(Out.Attempted));
  Out.Notes.push_back(Buf);
}

} // namespace perfbench
