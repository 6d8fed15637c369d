//===- trace_test.cpp - Observability primitives and trace invariants -----===//
//
// Part of the DEFACTO-DSE project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// The observability stack's contracts: counters and timers record only
/// while the registry is enabled; the trace recorder's Chrome export is
/// valid JSON; every evaluated design of an exploration appears exactly
/// once as a decision event; and the decision digest — the deterministic
/// payload of the trace — is bit-identical across worker-thread counts.
///
//===----------------------------------------------------------------------===//

#include "defacto/Core/BatchExplorer.h"
#include "defacto/Core/ExplorationReport.h"
#include "defacto/Core/Explorer.h"
#include "defacto/Kernels/Kernels.h"
#include "defacto/Support/Json.h"
#include "defacto/Support/Stats.h"
#include "defacto/Support/Timer.h"
#include "defacto/Support/Trace.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>

using namespace defacto;

namespace {

/// Restores the registry enable bit (tests toggle it).
struct StatsEnabledGuard {
  bool Saved = StatRegistry::instance().enabled();
  ~StatsEnabledGuard() { StatRegistry::instance().setEnabled(Saved); }
};

DEFACTO_STATISTIC(TestCounter, "test", "counter", "trace_test scratch");

/// Runs one guided exploration with an enabled private recorder.
std::pair<ExplorationResult, std::shared_ptr<TraceRecorder>>
tracedRun(const std::string &Name, unsigned Threads,
          const TargetPlatform &Platform) {
  ExplorerOptions Opts;
  Opts.Platform = Platform;
  if (Threads > 1)
    Opts.Pool = std::make_shared<ThreadPool>(Threads);
  Opts.Trace = std::make_shared<TraceRecorder>();
  Opts.Trace->setEnabled(true);
  DesignSpaceExplorer Ex(buildKernel(Name), Opts);
  return {Ex.run(), Opts.Trace};
}

} // namespace

//===----------------------------------------------------------------------===//
// Stats
//===----------------------------------------------------------------------===//

TEST(Stats, CountersAreGatedByTheRegistryEnableBit) {
  StatsEnabledGuard Guard;
  StatRegistry::instance().setEnabled(false);
  uint64_t Before = TestCounter.value();
  ++TestCounter;
  TestCounter.add(41);
  EXPECT_EQ(TestCounter.value(), Before) << "disabled counter moved";

  StatRegistry::instance().setEnabled(true);
  ++TestCounter;
  TestCounter.add(41);
  EXPECT_EQ(TestCounter.value(), Before + 42);
}

TEST(Stats, SnapshotIsSortedAndExportsParse) {
  StatsEnabledGuard Guard;
  StatRegistry::instance().setEnabled(true);
  ++TestCounter;
  std::vector<StatSnapshot> Snap = StatRegistry::instance().snapshot();
  ASSERT_FALSE(Snap.empty());
  EXPECT_TRUE(std::is_sorted(Snap.begin(), Snap.end(),
                             [](const StatSnapshot &A, const StatSnapshot &B) {
                               return std::tie(A.Group, A.Name) <
                                      std::tie(B.Group, B.Name);
                             }));
  std::string Err;
  EXPECT_TRUE(isValidJson(StatRegistry::instance().toJson(), &Err)) << Err;
  EXPECT_NE(StatRegistry::instance().toText().find("test.counter"),
            std::string::npos);
}

TEST(Timer, ScopedTimerRecordsOnlyWhileEnabled) {
  StatsEnabledGuard Guard;
  PhaseTimer &T = TimerGroup::global().timer("test.scope");
  uint64_t Before = T.count();

  StatRegistry::instance().setEnabled(false);
  { DEFACTO_SCOPED_TIMER("test.scope"); }
  EXPECT_EQ(T.count(), Before);

  StatRegistry::instance().setEnabled(true);
  { DEFACTO_SCOPED_TIMER("test.scope"); }
  EXPECT_EQ(T.count(), Before + 1);

  std::string Err;
  EXPECT_TRUE(isValidJson(TimerGroup::global().toJson(), &Err)) << Err;
}

//===----------------------------------------------------------------------===//
// TraceRecorder
//===----------------------------------------------------------------------===//

TEST(Trace, DisabledRecorderDropsEvents) {
  TraceRecorder R;
  TraceEvent E;
  E.Track = "t";
  E.Category = "c";
  E.Name = "n";
  R.record(E);
  EXPECT_EQ(R.eventCount(), 0u);
  R.setEnabled(true);
  R.record(E);
  EXPECT_EQ(R.eventCount(), 1u);
}

TEST(Trace, ChromeExportIsValidJsonWithTraceEvents) {
  TraceRecorder R;
  R.setEnabled(true);
  for (uint64_t I = 0; I != 3; ++I) {
    TraceEvent E;
    E.Track = "k";
    E.Category = "dse.decision";
    E.Name = "(1, " + std::to_string(I) + ")";
    E.Ordinal = I;
    E.Args.emplace_back("role", "increase");
    E.Args.emplace_back("quote", "needs \"escaping\"\\");
    R.record(E);
  }
  std::string Chrome = R.toChromeTrace();
  std::string Err;
  EXPECT_TRUE(isValidJson(Chrome, &Err)) << Err << "\n" << Chrome;
  EXPECT_NE(Chrome.find("\"traceEvents\""), std::string::npos);

  // JSONL: one object per event, each line parses on its own.
  std::string Lines = R.toJsonLines();
  size_t Count = 0, Pos = 0;
  while (Pos < Lines.size()) {
    size_t End = Lines.find('\n', Pos);
    ASSERT_NE(End, std::string::npos);
    EXPECT_TRUE(isValidJson(Lines.substr(Pos, End - Pos), &Err)) << Err;
    ++Count;
    Pos = End + 1;
  }
  EXPECT_EQ(Count, R.eventCount());
}

//===----------------------------------------------------------------------===//
// Exploration trace invariants
//===----------------------------------------------------------------------===//

TEST(Trace, EveryEvaluatedDesignAppearsExactlyOnce) {
  for (const KernelSpec &Spec : paperKernels()) {
    SCOPED_TRACE(Spec.Name);
    auto [Result, Recorder] =
        tracedRun(Spec.Name, 1, TargetPlatform::wildstarPipelined());

    // Decision events with a non-baseline role map 1:1 onto Visited.
    std::map<std::string, unsigned> Seen;
    for (const TraceEvent &E : Recorder->sortedEvents()) {
      if (E.Category != "dse.decision")
        continue;
      auto Role = std::find_if(E.Args.begin(), E.Args.end(),
                               [](const auto &KV) {
                                 return KV.first == "role";
                               });
      ASSERT_NE(Role, E.Args.end());
      if (Role->second == "baseline")
        continue;
      ++Seen[E.Name];
    }
    ASSERT_EQ(Seen.size(), Result.Visited.size());
    for (const EvaluatedDesign &D : Result.Visited) {
      auto It = Seen.find(unrollVectorToString(D.U));
      ASSERT_NE(It, Seen.end()) << unrollVectorToString(D.U);
      EXPECT_EQ(It->second, 1u) << unrollVectorToString(D.U)
                                << " appeared more than once";
    }

    std::string Err;
    EXPECT_TRUE(isValidJson(Recorder->toChromeTrace(), &Err)) << Err;
  }
}

TEST(Trace, DecisionDigestIsIdenticalAcrossThreadCounts) {
  for (const KernelSpec &Spec : paperKernels())
    for (bool Pipelined : {true, false}) {
      SCOPED_TRACE(Spec.Name + (Pipelined ? "/pipelined" : "/nonpipelined"));
      TargetPlatform P = Pipelined ? TargetPlatform::wildstarPipelined()
                                   : TargetPlatform::wildstarNonPipelined();
      auto [SeqR, SeqT] = tracedRun(Spec.Name, 1, P);
      auto [Par4R, Par4T] = tracedRun(Spec.Name, 4, P);
      auto [Par8R, Par8T] = tracedRun(Spec.Name, 8, P);
      EXPECT_EQ(SeqT->decisionDigest(), Par4T->decisionDigest());
      EXPECT_EQ(SeqT->decisionDigest(), Par8T->decisionDigest());
      EXPECT_EQ(SeqR.Selected, Par8R.Selected);
    }
}

TEST(Trace, BatchJobsLandOnTheirOwnTracks) {
  BatchOptions Batch;
  Batch.NumThreads = 2;
  Batch.Trace = std::make_shared<TraceRecorder>();
  Batch.Trace->setEnabled(true);
  BatchExplorer Engine(Batch);
  Engine.addJob(BatchJob("alpha", buildKernel("FIR"), ExplorerOptions{}));
  Engine.addJob(BatchJob("beta", buildKernel("MM"), ExplorerOptions{}));
  Engine.runAll();

  bool SawAlpha = false, SawBeta = false;
  for (const TraceEvent &E : Batch.Trace->sortedEvents()) {
    SawAlpha |= E.Track == "alpha";
    SawBeta |= E.Track == "beta";
  }
  EXPECT_TRUE(SawAlpha);
  EXPECT_TRUE(SawBeta);
}

//===----------------------------------------------------------------------===//
// Cache stats snapshot
//===----------------------------------------------------------------------===//

TEST(Trace, CacheStatsSnapshotIsInternallyConsistent) {
  auto Cache = std::make_shared<EstimateCache>();
  BatchOptions Batch;
  Batch.NumThreads = 4;
  Batch.Cache = Cache;
  BatchExplorer Engine(Batch);
  for (int I = 0; I != 3; ++I)
    for (const KernelSpec &Spec : paperKernels())
      Engine.addJob(buildKernel(Spec.Name), ExplorerOptions{});
  Engine.runAll();

  EstimateCache::Stats S = Cache->stats();
  EXPECT_EQ(S.Lookups, S.Hits + S.Misses + S.Waits);
  EXPECT_LE(S.NegativeHits, S.Hits);
  EXPECT_LE(S.Inserts, S.Misses);
  EXPECT_GT(S.Hits + S.Waits, 0u) << "repeated jobs shared nothing";
}

//===----------------------------------------------------------------------===//
// Report rendering
//===----------------------------------------------------------------------===//

TEST(Report, ToStringAndExplainSurfaceDegradation) {
  Kernel K = buildKernel("FIR");
  ExplorerOptions Opts;
  unsigned Calls = 0;
  // A backend that permanently fails one mid-walk design degrades the
  // run and leaves a failure-log entry.
  Opts.Estimator = [&Calls](const Kernel &Design,
                            const TargetPlatform &Platform) {
    if (++Calls == 3)
      return Expected<SynthesisEstimate>(
          Status::error(ErrorCode::EstimationFailed, "synthetic crash"));
    return estimateDesignChecked(Design, Platform);
  };
  Opts.MaxRetries = 0;
  ExplorationResult R = DesignSpaceExplorer(K, Opts).run();
  ASSERT_TRUE(R.Degraded);
  ASSERT_FALSE(R.Failures.empty());

  std::string OneLine = R.toString();
  EXPECT_NE(OneLine.find("DEGRADED"), std::string::npos) << OneLine;
  EXPECT_NE(OneLine.find("selected="), std::string::npos);

  std::string Report = renderExplorationReport(R, "fir-degraded");
  EXPECT_NE(Report.find("DEGRADED"), std::string::npos) << Report;
  EXPECT_NE(Report.find("synthetic crash"), std::string::npos) << Report;
  EXPECT_NE(Report.find("Failure log"), std::string::npos) << Report;
}

TEST(Report, HealthyRunExplainsTheStop) {
  ExplorerOptions Opts;
  ExplorationResult R =
      DesignSpaceExplorer(buildKernel("MM"), Opts).run();
  std::string Report = renderExplorationReport(R, "MM");
  EXPECT_NE(Report.find("Selected "), std::string::npos);
  EXPECT_NE(Report.find("Why it stopped:"), std::string::npos);
  EXPECT_NE(Report.find("Psat="), std::string::npos);
  EXPECT_EQ(Report.find("DEGRADED"), std::string::npos) << Report;
  EXPECT_EQ(R.toString().find("DEGRADED"), std::string::npos);
}
