//===- journal_property_test.cpp - Journal round-trip fuzzing -------------===//
//
// Part of the DEFACTO-DSE project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Property-based tests for the schema-v2 evaluation journal. Seeded
/// generators build evaluation records over the full generalized design
/// space — unroll-only keys, interchange permutations, strip-mined
/// tiles, explicit pipelines, register caps — carrying adversarial
/// doubles (infinities, signed zero, denormals, full-mantissa values)
/// and error results with hostile messages. The properties:
///
///  * write -> load -> replay recovers every double bit-for-bit;
///  * truncating the file at ANY byte offset (a torn write from a dying
///    filesystem) still loads: the intact prefix comes back bit-exact
///    and at most the one torn line is skipped;
///  * records from unknown schema versions are skipped, never fatal.
///
//===----------------------------------------------------------------------===//

#include "defacto/Core/EstimateCache.h"
#include "defacto/Core/EvaluationJournal.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <limits>
#include <map>
#include <random>
#include <sstream>
#include <string>
#include <vector>

using namespace defacto;

namespace {

std::string tempPath(const std::string &Name) {
  return testing::TempDir() + "defacto_" + Name;
}

bool sameBits(double A, double B) {
  return std::memcmp(&A, &B, sizeof(double)) == 0;
}

std::string readFile(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  std::ostringstream OS;
  OS << In.rdbuf();
  return OS.str();
}

void writeFile(const std::string &Path, const std::string &Bytes) {
  std::ofstream Out(Path, std::ios::binary | std::ios::trunc);
  Out << Bytes;
}

/// Seeded generator of adversarial journal records. Deterministic: a
/// failing seed reproduces byte-for-byte.
class Fuzzer {
public:
  explicit Fuzzer(uint64_t Seed) : Rng(Seed) {}

  /// Doubles hexfloat round-tripping must not mangle: the edges of the
  /// IEEE-754 lattice plus random bit patterns (NaN excluded — the
  /// journal never produces one, and its payload has no total order).
  double nastyDouble() {
    static const double Pool[] = {
        0.0,
        -0.0,
        std::numeric_limits<double>::infinity(),
        std::numeric_limits<double>::denorm_min(),
        -std::numeric_limits<double>::denorm_min(),
        std::numeric_limits<double>::min(),
        std::numeric_limits<double>::max(),
        -std::numeric_limits<double>::max(),
        std::numeric_limits<double>::epsilon(),
        6183.0000000000009, // the serve-protocol regression value
        1.0 / 3.0,
        std::nextafter(1.0, 2.0),
        -1e-300,
    };
    if (draw(4) != 0)
      return Pool[draw(sizeof(Pool) / sizeof(Pool[0]))];
    for (;;) {
      uint64_t Bits = Rng();
      double D;
      std::memcpy(&D, &Bits, sizeof(D));
      if (!std::isnan(D))
        return D;
    }
  }

  /// A cache key somewhere in the generalized design space: every
  /// optional dimension toggled independently.
  std::string designKey() {
    uint64_t Fp = Rng();
    TargetPlatform Platform = draw(2) ? TargetPlatform::wildstarPipelined()
                                      : TargetPlatform::wildstarNonPipelined();
    TransformOptions Opts;
    if (draw(3) == 0)
      Opts.Interchange = {1, 0};
    if (draw(3) == 0)
      Opts.StripMine = {{static_cast<unsigned>(draw(2)),
                         static_cast<int64_t>(2 + draw(14))}};
    if (draw(4) == 0)
      Opts.Pipeline = "normalize,unroll";
    UnrollVector U;
    for (uint64_t P = 0, N = 1 + draw(3); P != N; ++P)
      U.push_back(static_cast<int64_t>(1 + draw(63)));
    std::optional<unsigned> Cap;
    if (draw(3) == 0)
      Cap = static_cast<unsigned>(1 + draw(4096));
    return designCacheKey(Fp, Platform, Opts, U, Cap);
  }

  SynthesisEstimate estimate() {
    SynthesisEstimate E;
    E.Cycles = Rng();
    E.Slices = nastyDouble();
    E.Registers = static_cast<unsigned>(Rng());
    for (uint64_t I = 0, N = draw(4); I != N; ++I)
      E.Units[{static_cast<OpClass>(draw(8)),
               static_cast<unsigned>(1 + draw(64))}] =
          static_cast<unsigned>(1 + draw(512));
    E.FetchRate = nastyDouble();
    E.ConsumeRate = nastyDouble();
    E.Balance = nastyDouble();
    E.MemOnlyCycles = nastyDouble();
    E.CompOnlyCycles = nastyDouble();
    E.BitsTransferred = nastyDouble();
    E.FsmStates = Rng();
    return E;
  }

  /// Messages exercising every jsonQuote escape class.
  std::string hostileMessage() {
    static const char *Pool[] = {
        "plain failure",
        "quote \" backslash \\ brace { bracket [",
        "newline\nand\ttab\rand\x01control",
        "trailing backslash \\",
        "{\"type\":\"eval\"} — a message that looks like a record",
    };
    return Pool[draw(sizeof(Pool) / sizeof(Pool[0]))];
  }

  EstimateCache::Result result() {
    if (draw(4) == 0) {
      static const ErrorCode Codes[] = {ErrorCode::EstimationFailed,
                                        ErrorCode::InvalidInput,
                                        ErrorCode::MalformedIR};
      return {Expected<SynthesisEstimate>(
                  Status::error(Codes[draw(3)], hostileMessage())),
              static_cast<unsigned>(1 + draw(7))};
    }
    return {Expected<SynthesisEstimate>(estimate()),
            static_cast<unsigned>(1 + draw(7))};
  }

  JournalJobRecord job(unsigned Index) {
    JournalJobRecord J;
    J.Name = "job \"" + std::to_string(Index) + "\" \\ " + hostileMessage();
    J.Strategy = draw(2) ? "guided" : "random";
    J.Selected = "(16, 8)";
    J.Cycles = Rng();
    J.Slices = nastyDouble();
    J.Evaluations = static_cast<unsigned>(draw(5000));
    J.Degraded = draw(2) != 0;
    J.Fits = draw(2) != 0;
    return J;
  }

  uint64_t draw(uint64_t Bound) { return Rng() % Bound; }

private:
  std::mt19937_64 Rng;
};

void expectResultsBitIdentical(const EstimateCache::Result &Got,
                               const EstimateCache::Result &Want,
                               const std::string &Key) {
  EXPECT_EQ(Got.Attempts, Want.Attempts) << Key;
  ASSERT_EQ(Got.ok(), Want.ok()) << Key;
  if (!Want.ok()) {
    EXPECT_EQ(Got.Estimate.status().code(), Want.Estimate.status().code())
        << Key;
    EXPECT_EQ(Got.Estimate.status().message(),
              Want.Estimate.status().message())
        << Key;
    return;
  }
  const SynthesisEstimate &G = Got.Estimate.value();
  const SynthesisEstimate &W = Want.Estimate.value();
  EXPECT_EQ(G.Cycles, W.Cycles) << Key;
  EXPECT_TRUE(sameBits(G.Slices, W.Slices)) << Key;
  EXPECT_EQ(G.Registers, W.Registers) << Key;
  EXPECT_EQ(G.Units, W.Units) << Key;
  EXPECT_TRUE(sameBits(G.FetchRate, W.FetchRate)) << Key;
  EXPECT_TRUE(sameBits(G.ConsumeRate, W.ConsumeRate)) << Key;
  EXPECT_TRUE(sameBits(G.Balance, W.Balance)) << Key;
  EXPECT_TRUE(sameBits(G.MemOnlyCycles, W.MemOnlyCycles)) << Key;
  EXPECT_TRUE(sameBits(G.CompOnlyCycles, W.CompOnlyCycles)) << Key;
  EXPECT_TRUE(sameBits(G.BitsTransferred, W.BitsTransferred)) << Key;
  EXPECT_EQ(G.FsmStates, W.FsmStates) << Key;
}

/// Populates \p J with \p NumEvals unique evaluations and \p NumJobs
/// jobs from \p Fz; returns the evaluation records in insertion order.
std::vector<std::pair<std::string, EstimateCache::Result>>
populate(EvaluationJournal &J, Fuzzer &Fz, unsigned NumEvals,
         unsigned NumJobs) {
  std::vector<std::pair<std::string, EstimateCache::Result>> Written;
  std::map<std::string, bool> Seen;
  while (Written.size() != NumEvals) {
    std::string Key = Fz.designKey();
    if (Seen.count(Key))
      continue; // Random collision: the journal keeps first-write-wins.
    Seen[Key] = true;
    EstimateCache::Result R = Fz.result();
    J.recordEvaluation(Key, R);
    Written.emplace_back(std::move(Key), std::move(R));
  }
  for (unsigned I = 0; I != NumJobs; ++I)
    J.recordJob(Fz.job(I));
  return Written;
}

//===----------------------------------------------------------------------===//
// Property 1: write -> load -> replay is bit-exact
//===----------------------------------------------------------------------===//

TEST(JournalProperty, RoundTripIsBitExactAcrossTheDesignSpace) {
  for (uint64_t Seed : {1ull, 7ull, 20260808ull}) {
    SCOPED_TRACE("seed " + std::to_string(Seed));
    std::string Path =
        tempPath("journal_prop_rt_" + std::to_string(Seed) + ".jsonl");
    std::remove(Path.c_str());
    Fuzzer Fz(Seed);
    std::vector<std::pair<std::string, EstimateCache::Result>> Written;
    std::vector<JournalJobRecord> Jobs;
    {
      EvaluationJournal J(Path);
      Written = populate(J, Fz, 40, 6);
      Fuzzer JobFz(Seed ^ 0x9e3779b97f4a7c15ull);
      for (unsigned I = 0; I != 6; ++I)
        Jobs.push_back(JobFz.job(I));
      for (const JournalJobRecord &Job : Jobs)
        J.recordJob(Job); // Same-name records replace: last write wins.
    }

    Expected<EvaluationJournal::Contents> Loaded =
        EvaluationJournal::load(Path);
    ASSERT_TRUE(Loaded.hasValue()) << Loaded.status().message();
    const EvaluationJournal::Contents &C = Loaded.value();
    EXPECT_EQ(C.SkippedLines, 0u);
    ASSERT_EQ(C.Evaluations.size(), Written.size());
    for (size_t I = 0; I != Written.size(); ++I) {
      EXPECT_EQ(C.Evaluations[I].first, Written[I].first)
          << "insertion order not preserved at " << I;
      expectResultsBitIdentical(C.Evaluations[I].second, Written[I].second,
                                Written[I].first);
    }
    for (const JournalJobRecord &Want : Jobs) {
      const JournalJobRecord *Got = nullptr;
      for (const JournalJobRecord &J : C.Jobs)
        if (J.Name == Want.Name)
          Got = &J;
      ASSERT_NE(Got, nullptr) << Want.Name;
      EXPECT_EQ(Got->Strategy, Want.Strategy);
      EXPECT_EQ(Got->Selected, Want.Selected);
      EXPECT_EQ(Got->Cycles, Want.Cycles);
      EXPECT_TRUE(sameBits(Got->Slices, Want.Slices)) << Want.Name;
      EXPECT_EQ(Got->Evaluations, Want.Evaluations);
      EXPECT_EQ(Got->Degraded, Want.Degraded);
      EXPECT_EQ(Got->Fits, Want.Fits);
    }

    // Replay seeds every record exactly once; a second replay into the
    // same cache inserts nothing (first write wins).
    EvaluationJournal Resumed(Path + ".resumed");
    Resumed.adopt(C);
    EstimateCache Cache;
    EXPECT_EQ(Resumed.replayInto(Cache), Written.size());
    EXPECT_EQ(Resumed.replayInto(Cache), 0u);
    std::remove(Path.c_str());
    std::remove((Path + ".resumed").c_str());
  }
}

//===----------------------------------------------------------------------===//
// Property 2: torn-write truncation never corrupts the prefix
//===----------------------------------------------------------------------===//

TEST(JournalProperty, TornTailTruncationNeverCorruptsThePrefix) {
  std::string Path = tempPath("journal_prop_torn.jsonl");
  std::string TornPath = tempPath("journal_prop_torn_cut.jsonl");
  std::remove(Path.c_str());
  Fuzzer Fz(0xfeedull);
  std::vector<std::pair<std::string, EstimateCache::Result>> Written;
  {
    EvaluationJournal J(Path);
    Written = populate(J, Fz, 25, 3);
  }
  std::string Bytes = readFile(Path);
  ASSERT_FALSE(Bytes.empty());

  // Every structurally interesting offset plus a seeded random sample:
  // 0 (empty file), each newline boundary (clean prefixes), mid-line
  // cuts, and the full file.
  std::vector<size_t> Offsets = {0, Bytes.size()};
  for (size_t I = 0; I != Bytes.size(); ++I)
    if (Bytes[I] == '\n')
      Offsets.push_back(I + 1);
  std::mt19937_64 Rng(0xc0ffeeull);
  for (int I = 0; I != 64; ++I)
    Offsets.push_back(Rng() % Bytes.size());

  for (size_t Offset : Offsets) {
    SCOPED_TRACE("truncated at byte " + std::to_string(Offset) + " of " +
                 std::to_string(Bytes.size()));
    writeFile(TornPath, Bytes.substr(0, Offset));
    Expected<EvaluationJournal::Contents> Loaded =
        EvaluationJournal::load(TornPath);
    ASSERT_TRUE(Loaded.hasValue()) << Loaded.status().message();
    const EvaluationJournal::Contents &C = Loaded.value();
    // At most the one torn line is lost — never a parsed-but-wrong
    // record, never a hard failure.
    EXPECT_LE(C.SkippedLines, 1u);
    ASSERT_LE(C.Evaluations.size(), Written.size());
    for (size_t I = 0; I != C.Evaluations.size(); ++I) {
      EXPECT_EQ(C.Evaluations[I].first, Written[I].first)
          << "recovered set is not a prefix";
      expectResultsBitIdentical(C.Evaluations[I].second, Written[I].second,
                                Written[I].first);
    }
  }

  // Truncating at the full size is the identity load.
  writeFile(TornPath, Bytes);
  Expected<EvaluationJournal::Contents> Full =
      EvaluationJournal::load(TornPath);
  ASSERT_TRUE(Full.hasValue());
  EXPECT_EQ(Full.value().Evaluations.size(), Written.size());
  EXPECT_EQ(Full.value().SkippedLines, 0u);
  std::remove(Path.c_str());
  std::remove(TornPath.c_str());
}

TEST(JournalProperty, AdoptingATornLoadCompactsToACleanJournal) {
  std::string Path = tempPath("journal_prop_compact.jsonl");
  std::string CleanPath = tempPath("journal_prop_compact_clean.jsonl");
  std::remove(Path.c_str());
  Fuzzer Fz(0xdadull);
  std::vector<std::pair<std::string, EstimateCache::Result>> Written;
  {
    EvaluationJournal J(Path);
    Written = populate(J, Fz, 12, 2);
  }
  // Tear the file mid-final-line.
  std::string Bytes = readFile(Path);
  writeFile(Path, Bytes.substr(0, Bytes.size() - 7));

  Expected<EvaluationJournal::Contents> Torn = EvaluationJournal::load(Path);
  ASSERT_TRUE(Torn.hasValue());
  ASSERT_EQ(Torn.value().SkippedLines, 1u);

  // Adopt + flush = compaction: the rewritten journal re-loads with
  // zero skipped lines and the identical records.
  EvaluationJournal Clean(CleanPath);
  Clean.adopt(Torn.value());
  ASSERT_TRUE(Clean.flush().isOk());
  Expected<EvaluationJournal::Contents> Reloaded =
      EvaluationJournal::load(CleanPath);
  ASSERT_TRUE(Reloaded.hasValue());
  EXPECT_EQ(Reloaded.value().SkippedLines, 0u);
  ASSERT_EQ(Reloaded.value().Evaluations.size(),
            Torn.value().Evaluations.size());
  for (size_t I = 0; I != Reloaded.value().Evaluations.size(); ++I) {
    EXPECT_EQ(Reloaded.value().Evaluations[I].first,
              Torn.value().Evaluations[I].first);
    expectResultsBitIdentical(Reloaded.value().Evaluations[I].second,
                              Torn.value().Evaluations[I].second,
                              Reloaded.value().Evaluations[I].first);
  }
  std::remove(Path.c_str());
  std::remove(CleanPath.c_str());
}

//===----------------------------------------------------------------------===//
// Property 3: unknown schema versions skip, never fail
//===----------------------------------------------------------------------===//

TEST(JournalProperty, UnknownVersionAndShapeLinesAreSkippedNotFatal) {
  std::string Path = tempPath("journal_prop_version.jsonl");
  std::remove(Path.c_str());
  Fuzzer Fz(0xabcull);
  std::vector<std::pair<std::string, EstimateCache::Result>> Written;
  {
    EvaluationJournal J(Path);
    Written = populate(J, Fz, 5, 1);
  }
  std::vector<std::string> Lines;
  {
    std::ifstream In(Path);
    for (std::string Line; std::getline(In, Line);)
      Lines.push_back(Line);
  }
  ASSERT_FALSE(Lines.empty());
  // A journal written by some future build: its header version is
  // unknown, and it carries a record type this build has never seen.
  Lines[0] = "{\"type\":\"header\",\"version\":\"3\"}";
  Lines.insert(Lines.begin() + 1, "{\"type\":\"wizard\",\"spell\":\"fireball\"}");
  Lines.insert(Lines.begin() + 2, ""); // Blank lines are ignored outright.
  {
    std::ofstream Out(Path, std::ios::trunc);
    for (const std::string &L : Lines)
      Out << L << '\n';
  }

  Expected<EvaluationJournal::Contents> Loaded = EvaluationJournal::load(Path);
  ASSERT_TRUE(Loaded.hasValue()) << Loaded.status().message();
  // The v3 header and the wizard record are skipped; every record shape
  // this build knows still loads bit-exact.
  EXPECT_EQ(Loaded.value().SkippedLines, 2u);
  ASSERT_EQ(Loaded.value().Evaluations.size(), Written.size());
  for (size_t I = 0; I != Written.size(); ++I)
    expectResultsBitIdentical(Loaded.value().Evaluations[I].second,
                              Written[I].second, Written[I].first);
  EXPECT_EQ(Loaded.value().Jobs.size(), 1u);
  std::remove(Path.c_str());
}

TEST(JournalProperty, OutOfRangeCountsAreSkippedNotWrapped) {
  std::string Path = tempPath("journal_prop_range.jsonl");
  std::remove(Path.c_str());
  Fuzzer Fz(0x5eedull);
  std::vector<std::pair<std::string, EstimateCache::Result>> Written;
  {
    EvaluationJournal J(Path);
    Written = populate(J, Fz, 3, 0);
  }
  std::vector<std::string> Lines;
  {
    std::ifstream In(Path);
    for (std::string Line; std::getline(In, Line);)
      Lines.push_back(Line);
  }
  ASSERT_EQ(Lines.size(), 4u); // Header plus three evaluations.
  // Copies of the first evaluation whose attempt count does not fit an
  // unsigned (or is negative, or fractional): each must be skipped as
  // corrupt, never wrapped into a small count.
  const std::string Field = "\"attempts\":\"";
  size_t Begin = Lines[1].find(Field);
  ASSERT_NE(Begin, std::string::npos) << Lines[1];
  Begin += Field.size();
  size_t End = Lines[1].find('"', Begin);
  for (const char *Bad : {"4294967296", "-1", "2.5"}) {
    std::string Line = Lines[1];
    Line.replace(Begin, End - Begin, Bad);
    Lines.push_back(Line);
  }
  {
    std::ofstream Out(Path, std::ios::trunc);
    for (const std::string &L : Lines)
      Out << L << '\n';
  }
  Expected<EvaluationJournal::Contents> Loaded = EvaluationJournal::load(Path);
  ASSERT_TRUE(Loaded.hasValue()) << Loaded.status().message();
  EXPECT_EQ(Loaded.value().SkippedLines, 3u);
  ASSERT_EQ(Loaded.value().Evaluations.size(), Written.size());
  for (size_t I = 0; I != Written.size(); ++I)
    expectResultsBitIdentical(Loaded.value().Evaluations[I].second,
                              Written[I].second, Written[I].first);
  std::remove(Path.c_str());
}

TEST(JournalProperty, OutOfRangeEstimateFieldsAreSkippedNotNarrowed) {
  // Every integer of an estimate and of a job record is decoded exactly:
  // an unknown operator class, a width or count that does not fit an
  // unsigned, a cycle or FSM-state count that is negative, fractional
  // or past 2^64 - 1 each make the record corrupt, never a wrapped or
  // truncated value in the cache.
  auto evalLine = [](const std::string &Key, const std::string &Cycles,
                     const std::string &Units, const std::string &Fsm) {
    return "{\"type\":\"eval\",\"key\":\"" + Key +
           "\",\"attempts\":\"1\",\"est\":{\"cycles\":" + Cycles +
           ",\"slices\":\"0x1p+3\",\"registers\":\"4\",\"units\":[" +
           Units + "],\"fsm\":" + Fsm + "}}";
  };
  auto jobLine = [](const std::string &Name, const std::string &Cycles) {
    return "{\"type\":\"job\",\"name\":\"" + Name +
           "\",\"strategy\":\"guided\",\"selected\":\"(1, 1)\","
           "\"cycles\":" +
           Cycles + ",\"slices\":\"0x1p+3\",\"evals\":\"3\"}";
  };
  const std::string Max64 = "\"18446744073709551615\"";
  std::vector<std::string> Good = {
      evalLine("ok-edges", Max64, "[7,4294967295,4294967295]", Max64),
      evalLine("ok-plain", "\"12\"", "[0,32,2],[1,16,1]", "\"3\""),
      jobLine("ok-job", Max64),
  };
  std::vector<std::string> Bad = {
      evalLine("class-99", "\"12\"", "[99,32,1]", "\"3\""),
      evalLine("class-past-wire", "\"12\"", "[8,32,1]", "\"3\""),
      evalLine("class-negative", "\"12\"", "[-1,32,1]", "\"3\""),
      evalLine("width-negative", "\"12\"", "[0,-1,1]", "\"3\""),
      evalLine("width-2^32", "\"12\"", "[0,4294967296,1]", "\"3\""),
      evalLine("count-negative", "\"12\"", "[0,32,-1]", "\"3\""),
      evalLine("count-2^32", "\"12\"", "[0,32,4294967296]", "\"3\""),
      evalLine("count-fraction", "\"12\"", "[0,32,2.5]", "\"3\""),
      evalLine("cycles-negative", "\"-1\"", "", "\"3\""),
      evalLine("cycles-fraction", "\"2.9\"", "", "\"3\""),
      evalLine("cycles-2^64", "\"18446744073709551616\"", "", "\"3\""),
      evalLine("fsm-negative", "\"12\"", "", "\"-1\""),
      evalLine("fsm-fraction", "\"12\"", "", "2.9"),
      jobLine("job-cycles-negative", "\"-1\""),
      jobLine("job-cycles-fraction", "2.9"),
  };
  std::string Path = tempPath("journal_prop_narrow.jsonl");
  std::string Bytes = "{\"type\":\"header\",\"version\":\"2\"}\n";
  for (const std::string &L : Good)
    Bytes += L + "\n";
  for (const std::string &L : Bad)
    Bytes += L + "\n";
  writeFile(Path, Bytes);

  Expected<EvaluationJournal::Contents> Loaded = EvaluationJournal::load(Path);
  ASSERT_TRUE(Loaded.hasValue()) << Loaded.status().message();
  const EvaluationJournal::Contents &C = Loaded.value();
  EXPECT_EQ(C.SkippedLines, Bad.size());
  ASSERT_EQ(C.Evaluations.size(), 2u);
  ASSERT_EQ(C.Jobs.size(), 1u);

  const SynthesisEstimate &Edges = C.Evaluations[0].second.Estimate.value();
  EXPECT_EQ(C.Evaluations[0].first, "ok-edges");
  EXPECT_EQ(Edges.Cycles, std::numeric_limits<uint64_t>::max());
  EXPECT_EQ(Edges.FsmStates, std::numeric_limits<uint64_t>::max());
  ASSERT_EQ(Edges.Units.size(), 1u);
  EXPECT_EQ(Edges.Units.begin()->first.first, OpClass::Wire);
  EXPECT_EQ(Edges.Units.begin()->first.second,
            std::numeric_limits<unsigned>::max());
  EXPECT_EQ(Edges.Units.begin()->second, std::numeric_limits<unsigned>::max());
  const SynthesisEstimate &Plain = C.Evaluations[1].second.Estimate.value();
  EXPECT_EQ(Plain.Cycles, 12u);
  EXPECT_EQ(Plain.FsmStates, 3u);
  EXPECT_EQ(Plain.Units.size(), 2u);
  EXPECT_EQ(C.Jobs[0].Cycles, std::numeric_limits<uint64_t>::max());
  std::remove(Path.c_str());
}

TEST(JournalProperty, VersionOneJournalsLoadWithoutSkips) {
  // Unroll-only keys are byte-identical across v1 and v2; a v1 header
  // must load clean so pre-upgrade journals keep resuming.
  std::string Path = tempPath("journal_prop_v1.jsonl");
  std::remove(Path.c_str());
  Fuzzer Fz(0x11ull);
  {
    EvaluationJournal J(Path);
    populate(J, Fz, 4, 0);
  }
  std::vector<std::string> Lines;
  {
    std::ifstream In(Path);
    for (std::string Line; std::getline(In, Line);)
      Lines.push_back(Line);
  }
  Lines[0] = "{\"type\":\"header\",\"version\":\"1\"}";
  {
    std::ofstream Out(Path, std::ios::trunc);
    for (const std::string &L : Lines)
      Out << L << '\n';
  }
  Expected<EvaluationJournal::Contents> Loaded = EvaluationJournal::load(Path);
  ASSERT_TRUE(Loaded.hasValue());
  EXPECT_EQ(Loaded.value().SkippedLines, 0u);
  EXPECT_EQ(Loaded.value().Evaluations.size(), 4u);
  std::remove(Path.c_str());
}

TEST(JournalProperty, MissingJournalLoadsEmpty) {
  Expected<EvaluationJournal::Contents> Loaded =
      EvaluationJournal::load(tempPath("journal_prop_never_written.jsonl"));
  ASSERT_TRUE(Loaded.hasValue());
  EXPECT_TRUE(Loaded.value().Evaluations.empty());
  EXPECT_TRUE(Loaded.value().Jobs.empty());
  EXPECT_EQ(Loaded.value().SkippedLines, 0u);
}

} // namespace
