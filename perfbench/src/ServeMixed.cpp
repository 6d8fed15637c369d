//===- ServeMixed.cpp - The serve-mixed workload --------------------------===//
//
// Part of the DEFACTO-DSE project, under the MIT License.
//
//===----------------------------------------------------------------------===//
//
// An in-process DseServer with default options, driven over its Unix
// socket and JSONL protocol by up to nproc persistent client connections.
// An open-loop phase sends a seeded Poisson schedule at a fixed rate, each
// request timed from when it was due; a closed-loop phase then sends
// requests back to back and measures the replies per CPU-second the
// daemon sustains. About 80% of requests draw Zipf-style from a hot set of
// (kernel, platform, strategy, budget) tuples warmed during set-up (cache
// reads); the rest are novel inline-source variants that take the
// frontend and fill the caches (writes). This is the only workload that
// pays socket, queue and batch overhead.
//
//===----------------------------------------------------------------------===//

#include "Checks.h"
#include "Generator.h"
#include "Workloads.h"

#include "defacto/Kernels/Kernels.h"
#include "defacto/Serve/Server.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <filesystem>
#include <iterator>
#include <map>
#include <set>
#include <thread>
#include <unistd.h>

using namespace defacto;

namespace perfbench {
namespace {

const char *const Workload = "serve-mixed";
/// The fixed latency limit behind slo_miss_ratio.
constexpr double SloLimitMs = 50;
/// Client connections: at most nproc.
constexpr unsigned MaxClients = 4;

ServeRequest requestFor(const ServeTuple &T, uint64_t Id) {
  ServeRequest R;
  R.Id = std::to_string(Id);
  R.Kernel = T.Kernel;
  R.Source = T.Source;
  R.Platform = T.Platform;
  R.Strategy = T.Strategy;
  R.Budget = T.Budget;
  R.WantDigest = true;
  return R;
}

struct Sample {
  size_t Index = 0; // in the phase's sends
  unsigned Tuple = 0;
  double DueS = 0, SentS = 0, ReplyS = 0;
  bool Sent = false, Replied = false;
  ServeResponse Resp;
};

/// One round trip over \p Conn; false on a transport or decoding failure.
bool roundTrip(UnixConnection &Conn, const ServeRequest &Req,
               ServeResponse &Resp, SpanRecorder &Spans, uint64_t Op) {
  std::string Line;
  {
    Span S(Spans, "protocol.encode", Op);
    Line = Req.toJson();
  }
  Expected<std::optional<std::string>> Reply = std::optional<std::string>();
  {
    Span S(Spans, "protocol.wait", Op);
    if (!Conn.sendLine(Line).isOk())
      return false;
    Reply = Conn.recvLine();
  }
  if (!Reply || !*Reply)
    return false;
  Span S(Spans, "protocol.decode", Op);
  Expected<ServeResponse> R = parseServeResponse(**Reply);
  if (!R)
    return false;
  Resp = std::move(*R);
  return true;
}

/// A started daemon and the client connections to it.
class Harness {
public:
  Harness() = default;
  Harness(const Harness &) = delete;
  Harness &operator=(const Harness &) = delete;

  Status start(const std::string &SocketPath, unsigned Clients) {
    ServeOptions Opts;
    Opts.SocketPath = SocketPath;
    Server = std::make_unique<DseServer>(std::move(Opts));
    if (Status S = Server->start(); !S.isOk())
      return S;
    for (unsigned I = 0; I != Clients; ++I) {
      Expected<UnixConnection> C = UnixConnection::connectTo(SocketPath);
      if (!C)
        return C.status();
      Conns.push_back(std::move(*C));
    }
    return Status::ok();
  }
  ~Harness() {
    Conns.clear();
    if (Server)
      Server->stop();
  }

  std::unique_ptr<DseServer> Server;
  std::vector<UnixConnection> Conns;
};

/// Sends \p Sends[First, Last) on their schedule, each on whichever
/// connection is free first; send I has request and operation id
/// \p IdBase + I. No request is sent after \p StopAfter seconds; the
/// samples hold the sent ones.
std::vector<Sample> runWindow(Harness &H, const ServePlan &Plan,
                              const std::vector<ServeArrival> &Sends,
                              size_t First, size_t Last, uint64_t IdBase,
                              double StopAfter, SpanRecorder &Spans,
                              uint64_t *QueueDepthMax = nullptr) {
  std::vector<Sample> Samples(Last - First);
  std::atomic<size_t> Next{First};
  const double Base = nowSeconds();
  const double Stop = Base + StopAfter;
  std::atomic<bool> Done{false};
  std::thread Sampler;
  if (QueueDepthMax)
    Sampler = std::thread([&] {
      while (!Done.load()) {
        *QueueDepthMax = std::max(*QueueDepthMax, H.Server->queueDepth());
        std::this_thread::sleep_for(std::chrono::microseconds(500));
      }
    });
  auto Client = [&](UnixConnection &Conn) {
    for (size_t I; (I = Next.fetch_add(1)) < Last;) {
      Sample &S = Samples[I - First];
      const ServeArrival &A = Sends[I];
      S.Index = I;
      S.Tuple = A.Tuple;
      S.DueS = Base + A.DueSeconds;
      double Wait = S.DueS - nowSeconds();
      if (Wait > 0)
        std::this_thread::sleep_for(std::chrono::duration<double>(Wait));
      S.SentS = nowSeconds();
      if (S.SentS >= Stop)
        break;
      S.Sent = true;
      const uint64_t Id = IdBase + I;
      Span Request(Spans, "serve.request", Id);
      S.Replied = roundTrip(Conn, requestFor(Plan.Tuples[A.Tuple], Id),
                            S.Resp, Spans, Id);
      S.ReplyS = nowSeconds();
    }
  };
  std::vector<std::thread> Clients;
  for (UnixConnection &Conn : H.Conns)
    Clients.emplace_back(Client, std::ref(Conn));
  for (std::thread &T : Clients)
    T.join();
  Done.store(true);
  if (Sampler.joinable())
    Sampler.join();
  Samples.erase(std::remove_if(Samples.begin(), Samples.end(),
                               [](const Sample &S) { return !S.Sent; }),
                Samples.end());
  return Samples;
}

bool served(const Sample &S) {
  return S.Replied && S.Resp.RStatus == ServeStatus::Ok;
}

std::string socketPath(const RunConfig &C, unsigned Round) {
  // sockaddr_un holds about 100 bytes: prefer the path relative to the
  // working directory (the checkout root).
  std::error_code EC;
  std::filesystem::path Dir = std::filesystem::relative(C.WorkDir, EC);
  if (EC || Dir.empty())
    Dir = C.WorkDir;
  return (Dir / ("serve-" + std::to_string(::getpid()) + "-" +
                 std::to_string(Round) + ".sock"))
      .string();
}

/// The standalone exploration a served tuple must agree with.
struct TupleCheck {
  std::optional<Kernel> K;
  ExplorerOptions Opts;
  DigestedExploration Ref;
  std::string Error;
};
TupleCheck checkTuple(const ServeTuple &T, SpanRecorder &Spans) {
  TupleCheck Out;
  if (T.Hot) {
    Out.K = buildKernel(T.Kernel);
  } else {
    Span S(Spans, "frontend.parse", 0);
    Out.K = parseSource(T.Source, T.Kernel, Out.Error);
  }
  if (!Out.K)
    return Out;
  Out.Opts.Platform = *platformByName(T.Platform);
  Out.Opts.MaxEvaluations = std::max(1u, T.Budget);
  Out.Ref = exploreWithDigest(
      *Out.K, Out.Opts, T.Strategy,
      DseServer::requestJobName(requestFor(T, 0), *Out.K));
  Out.Error = Out.Ref.Error;
  return Out;
}

/// The closed loop: every connection sends its next request as soon as
/// its last reply is in.
struct ClosedLoop {
  std::vector<Sample> Samples;
  size_t End = 0; // the first send not taken
  double Served = 0, CpuS = 0, WallS = 0, Misses = 0, BatchSum = 0;

  /// Ok replies per second of the process's CPU time.
  double rate() const { return Served / std::max(CpuS, 1e-9); }

  void add(ClosedLoop &&Part) {
    Samples.insert(Samples.end(), std::make_move_iterator(Part.Samples.begin()),
                   std::make_move_iterator(Part.Samples.end()));
    End = Part.End;
    Served += Part.Served;
    CpuS += Part.CpuS;
    WallS += Part.WallS;
    Misses += Part.Misses;
    BatchSum += Part.BatchSum;
  }
};
ClosedLoop runClosedLoop(Harness &H, const ServePlan &Plan,
                         const std::vector<ServeArrival> &Sends, size_t First,
                         double Seconds, SpanRecorder &Spans) {
  ClosedLoop Out;
  EstimateCache &Cache = *H.Server->estimateCache();
  const uint64_t Misses = Cache.stats().Misses;
  const double Start = nowSeconds(), Cpu = processCpuSeconds();
  const size_t Last = std::min(
      Sends.size(), First + static_cast<size_t>(
                                std::ceil(Seconds * ServeBurstPerSecond)));
  Out.Samples = runWindow(H, Plan, Sends, First, Last, Plan.Arrivals.size(),
                          Seconds, Spans);
  Out.CpuS = processCpuSeconds() - Cpu;
  Out.Misses = double(Cache.stats().Misses - Misses);
  Out.End = First;
  for (const Sample &S : Out.Samples) {
    Out.End = std::max(Out.End, S.Index + 1);
    Out.WallS = std::max(Out.WallS, S.ReplyS - Start);
    Out.Served += served(S);
    Out.BatchSum += S.Resp.BatchSize;
  }
  return Out;
}

} // namespace

RunResult runServeMixed(const RunConfig &C) {
  RunResult Out;
  SpanRecorder Off(false);
  const unsigned Clients = std::min(availableCpus(), MaxClients);
  // The open loop runs for the first half of the window, the closed loop
  // for the second. A traced run traces the open loop and half of the
  // closed loop; the other half of the closed loop is its untraced
  // counterpart.
  const double Window = C.Seconds / 2;

  // Set-up: generate the schedule, start the daemon, connect the clients,
  // and warm the hot set (each hot tuple once).
  std::vector<double> SetupTimes;
  std::optional<ServePlan> MaybePlan;
  std::unique_ptr<Harness> H;
  std::map<unsigned, ServeResponse> WarmReplies;
  for (unsigned Round = 0; Round != SetupRounds; ++Round) {
    double T0 = Round == 0 ? C.ProcessStart : nowSeconds();
    H.reset();
    MaybePlan = makeServePlan(C.Seed, Window,
                              static_cast<size_t>(Window * ServeBurstPerSecond));
    H = std::make_unique<Harness>();
    if (Status S = H->start(socketPath(C, Round), Clients); !S.isOk()) {
      Out.problem("daemon start: " + S.message());
      return Out;
    }
    WarmReplies.clear();
    for (unsigned T = 0; T != MaybePlan->HotCount; ++T) {
      ServeResponse Resp;
      if (!roundTrip(H->Conns[0], requestFor(MaybePlan->Tuples[T], T), Resp,
                     Off, 0) ||
          Resp.RStatus != ServeStatus::Ok)
        Out.problem("warm-up of " + MaybePlan->Tuples[T].key() + " failed: " +
                    Resp.Reason);
      WarmReplies[T] = Resp;
    }
    SetupTimes.push_back(nowSeconds() - T0);
  }
  const ServePlan &Plan = *MaybePlan;

  // Open loop. The novel requests in it spend the pool of generated
  // variants once, so each is a cold exploration.
  SpanRecorder Spans(C.Trace);
  uint64_t DepthMax = 0;
  EstimateCache &Cache = *H->Server->estimateCache();
  const EstimateCache::Stats Before = Cache.stats();
  const double Start = nowSeconds();
  std::vector<Sample> Samples =
      runWindow(*H, Plan, Plan.Arrivals, 0, Plan.Arrivals.size(), 0,
                2 * Window, Spans, &DepthMax);
  double LastReply = Start;
  for (const Sample &S : Samples)
    LastReply = std::max(LastReply, S.ReplyS);
  const double Wall = LastReply - Start;
  const EstimateCache::Stats After = Cache.stats();

  // Closed loop: what the daemon sustains, per second of the process's
  // CPU time (daemon and load generator). The loop waits on round trips
  // more than on CPUs, so its wall-clock rate follows how fast the host
  // wakes threads rather than how much work a request takes. A reply's
  // evaluation count includes designs read from the daemon's cache; the
  // designs it actually evaluated are the cache's misses. Its novel
  // requests revisit the pool with fresh strategy and budget draws.
  std::vector<ServeArrival> Sends;
  for (unsigned T : Plan.Burst)
    Sends.push_back({0.0, T});
  ClosedLoop Burst, TracedBurst;
  if (!C.Trace) {
    Burst = runClosedLoop(*H, Plan, Sends, 0, Window, Off);
  } else {
    // Half-second slices, untraced and traced in turn: the requests get
    // cheaper as the caches warm, and alternating keeps that drift out of
    // the comparison.
    const unsigned Slices = std::max(2u, static_cast<unsigned>(Window * 2));
    for (unsigned Slice = 0; Slice != Slices; ++Slice) {
      const size_t Next = std::max(Burst.End, TracedBurst.End);
      (Slice % 2 ? TracedBurst : Burst)
          .add(runClosedLoop(*H, Plan, Sends, Next, Window / Slices,
                             Slice % 2 ? Spans : Off));
    }
  }
  H.reset(); // stops the daemon and joins its threads

  // Correctness gate. Every reply of a tuple must agree with the others
  // (warm-up replies included), with a standalone exploration of the same
  // request, and with the committed table; every distinct winner must
  // compute what its source computes.
  std::set<unsigned> BadTuples;
  std::map<unsigned, const ServeResponse *> FirstReply;
  for (const auto &[T, Resp] : WarmReplies)
    FirstReply[T] = &Resp;
  for (const std::vector<Sample> *Phase :
       {&Samples, &Burst.Samples, &TracedBurst.Samples})
    for (const Sample &S : *Phase) {
      if (!served(S))
        continue;
      auto [It, New] = FirstReply.try_emplace(S.Tuple, &S.Resp);
      if (!New && (It->second->Selected != S.Resp.Selected ||
                   It->second->Cycles != S.Resp.Cycles ||
                   It->second->Digest != S.Resp.Digest)) {
        Out.problem(Plan.Tuples[S.Tuple].key() +
                    ": replies to the same request disagree");
        BadTuples.insert(S.Tuple);
      }
    }
  std::map<unsigned, size_t> VisitedOf;
  std::set<std::string> Simulated;
  const uint64_t SimSeed = mixSeed(C.Seed, 5);
  for (const auto &[T, Resp] : FirstReply) {
    const ServeTuple &Tu = Plan.Tuples[T];
    TupleCheck Check = checkTuple(Tu, Spans);
    std::string Mismatch =
        !Check.Error.empty() || !Check.K
            ? "standalone run failed: " + Check.Error
        : winnerString(Check.Ref.Result) != Resp->Selected ||
                Check.Ref.Digest != Resp->Digest
            ? "served " + Resp->Selected + " digest " + Resp->Digest +
                  ", standalone " + winnerString(Check.Ref.Result) +
                  " digest " + Check.Ref.Digest
        : Tu.Hot ? checkReference(C, Tu.key(), Resp->Selected, Resp->Digest)
                 : "";
    if (Mismatch.empty() &&
        Simulated.insert(Tu.Kernel + '@' + Tu.Platform + ' ' + Resp->Selected)
            .second) {
      Span S(Spans, "sim.check", 0);
      Mismatch = checkWinnerSimulates(*Check.K, Check.Opts,
                                      winnerPoint(Check.Ref.Result), SimSeed);
    }
    if (!Mismatch.empty()) {
      Out.problem(Tu.key() + ": " + Mismatch);
      BadTuples.insert(T);
    }
    VisitedOf[T] = Check.Ref.Result.Visited.size();
  }

  // Results. Throughput comes from the closed loop, latency from the open
  // loop.
  for (const std::vector<Sample> *Phase :
       {&Samples, &Burst.Samples, &TracedBurst.Samples})
    for (const Sample &S : *Phase)
      Out.Failed += !served(S) || BadTuples.count(S.Tuple);
  std::vector<double> Latencies;
  uint64_t SloMisses = 0;
  for (const Sample &S : Samples) {
    double Ms = (S.ReplyS - S.DueS) * 1000.0;
    Latencies.push_back(Ms);
    SloMisses += !served(S) || BadTuples.count(S.Tuple) || Ms > SloLimitMs;
  }
  Out.Attempted =
      Samples.size() + Burst.Samples.size() + TracedBurst.Samples.size();
  Summary Lat = summarize(Latencies);
  addEndToEnd(Out, median(SetupTimes), Burst.rate(),
              Burst.Misses / std::max(Burst.CpuS, 1e-9));
  char Buf[200];
  std::snprintf(Buf, sizeof(Buf),
                "closed loop on %u connections: %.0f ok replies in %.3f s "
                "(%.1f/s wall clock) and %.3f CPU-s, mean batch %.2f",
                Clients, Burst.Served, Burst.WallS,
                Burst.Served / std::max(Burst.WallS, 1e-9), Burst.CpuS,
                Burst.BatchSum / std::max<double>(Burst.Samples.size(), 1));
  Out.Notes.push_back(Buf);
  std::snprintf(Buf, sizeof(Buf),
                "open loop at %g requests/s on %u connections, %u hot "
                "tuples: %zu replies in %.3f s",
                ServeRatePerSecond, Clients, Plan.HotCount, Samples.size(),
                Wall);
  Out.Notes.push_back(Buf);
  noteLatency(Out, "request, from its due time", Lat);
  std::snprintf(Buf, sizeof(Buf),
                "slo_miss_ratio = %.6f ratio (%llu of %zu over %g ms or "
                "failed)",
                Samples.empty() ? 0.0
                                : double(SloMisses) / double(Samples.size()),
                static_cast<unsigned long long>(SloMisses), Samples.size(),
                SloLimitMs);
  Out.Notes.push_back(Buf);
  noteErrorRatio(Out);

  if (C.Trace) {
    // The serve layer, from the traced open loop.
    std::map<std::string, double> Layer;
    EstimateCache::Stats Delta;
    Delta.Lookups = After.Lookups - Before.Lookups;
    Delta.Hits = After.Hits - Before.Hits;
    Delta.Misses = After.Misses - Before.Misses;
    Delta.Waits = After.Waits - Before.Waits;
    addCacheLayer(Layer, Delta);
    Layer["serve.queue_depth_max"] = double(DepthMax);
    std::vector<double> Rtt, Server, Wire, Late;
    double BatchSum = 0, WarmCount = 0, Overloaded = 0;
    for (const Sample &S : Samples) {
      Late.push_back((S.SentS - S.DueS) * 1000.0);
      if (!S.Replied)
        continue;
      double RttMs = (S.ReplyS - S.SentS) * 1000.0;
      Rtt.push_back(RttMs);
      Server.push_back(S.Resp.LatencyUs / 1000.0);
      Wire.push_back(RttMs - S.Resp.LatencyUs / 1000.0);
      BatchSum += S.Resp.BatchSize;
      WarmCount += S.Resp.Warm;
      Overloaded += S.Resp.RStatus == ServeStatus::Overloaded;
      Layer["core.evaluations"] += S.Resp.Evaluations;
      Layer["core.visited"] += double(VisitedOf[S.Tuple]);
    }
    Summary RttS = summarize(Rtt), ServerS = summarize(Server);
    Layer["serve.rtt_ms_p50"] = RttS.P50;
    Layer["serve.rtt_ms_p99"] = RttS.at(99).value_or(0);
    Layer["serve.server_ms_p50"] = ServerS.P50;
    Layer["serve.server_ms_p99"] = ServerS.at(99).value_or(0);
    Layer["serve.wire_ms_p50"] = summarize(Wire).P50;
    Layer["serve.batch_size_mean"] = Rtt.empty() ? 0 : BatchSum / Rtt.size();
    Layer["serve.warm_ratio"] = Rtt.empty() ? 0 : WarmCount / Rtt.size();
    Layer["serve.overloaded"] = Overloaded;
    Layer["loadgen.late_ms_p99"] = summarize(Late).at(99).value_or(0);
    // Tracing's cost: the closed loop's rate untraced over its rate traced.
    Layer["trace.overhead_pct"] =
        (Burst.rate() / std::max(TracedBurst.rate(), 1e-9) - 1.0) * 100.0;
    Out.Notes.push_back("traced round trip: " + RttS.describe("ms"));
    Out.Notes.push_back("traced daemon-side latency: " +
                        ServerS.describe("ms"));
    addSpanTotals(Spans, Layer);
    emitPerLayer(Out, Layer);
    Out.ChromeTrace = Spans.chromeTrace(hostRecordJson());
  }
  return Out;
}

std::vector<std::string> serveReference() {
  // Novel requests are not in the table (a run draws thousands of them);
  // the standalone exploration and simulate() check those.
  std::vector<std::string> Lines;
  SpanRecorder Off(false);
  for (const ServeTuple &Tu : hotCandidates()) {
    TupleCheck Check = checkTuple(Tu, Off);
    if (Check.Error.empty() && Check.K && healthy(Check.Ref.Result))
      Lines.push_back(ReferenceTable::line(
          Workload, "*", Tu.key(),
          {winnerString(Check.Ref.Result), Check.Ref.Digest}));
  }
  return Lines;
}

} // namespace perfbench
