//===- support_test.cpp - Unit tests for the support library -------------===//
//
// Part of the DEFACTO-DSE project, under the MIT License.
//
//===----------------------------------------------------------------------===//

#include "defacto/Support/CommandLine.h"
#include "defacto/Support/Diagnostics.h"
#include "defacto/Support/MathExtras.h"
#include "defacto/Support/Random.h"
#include "defacto/Support/Table.h"

#include <gtest/gtest.h>

#include <climits>
#include <optional>
#include <string>

using namespace defacto;

TEST(MathExtras, Gcd) {
  EXPECT_EQ(gcd64(12, 18), 6);
  EXPECT_EQ(gcd64(18, 12), 6);
  EXPECT_EQ(gcd64(-12, 18), 6);
  EXPECT_EQ(gcd64(12, -18), 6);
  EXPECT_EQ(gcd64(0, 7), 7);
  EXPECT_EQ(gcd64(7, 0), 7);
  EXPECT_EQ(gcd64(0, 0), 0);
  EXPECT_EQ(gcd64(1, 999), 1);
  EXPECT_EQ(gcd64(64, 32), 32);
}

TEST(MathExtras, Lcm) {
  EXPECT_EQ(lcm64(4, 6), 12);
  EXPECT_EQ(lcm64(1, 4), 4);
  EXPECT_EQ(lcm64(3, 5), 15);
  EXPECT_EQ(lcm64(0, 5), 0);
  EXPECT_EQ(lcm64(-4, 6), 12);
}

TEST(MathExtras, Divisors) {
  EXPECT_EQ(divisorsOf(1), (std::vector<int64_t>{1}));
  EXPECT_EQ(divisorsOf(12), (std::vector<int64_t>{1, 2, 3, 4, 6, 12}));
  EXPECT_EQ(divisorsOf(16), (std::vector<int64_t>{1, 2, 4, 8, 16}));
  EXPECT_EQ(divisorsOf(7), (std::vector<int64_t>{1, 7}));
  // Perfect square: the root appears once.
  EXPECT_EQ(divisorsOf(36),
            (std::vector<int64_t>{1, 2, 3, 4, 6, 9, 12, 18, 36}));
}

TEST(MathExtras, CeilFloorDiv) {
  EXPECT_EQ(ceilDiv(7, 2), 4);
  EXPECT_EQ(ceilDiv(8, 2), 4);
  EXPECT_EQ(ceilDiv(0, 3), 0);
  EXPECT_EQ(ceilDiv(-7, 2), -3);
  EXPECT_EQ(floorDiv(7, 2), 3);
  EXPECT_EQ(floorDiv(-7, 2), -4);
  EXPECT_EQ(floorDiv(8, 4), 2);
}

TEST(MathExtras, IsPowerOf2) {
  EXPECT_TRUE(isPowerOf2(1));
  EXPECT_TRUE(isPowerOf2(2));
  EXPECT_TRUE(isPowerOf2(1024));
  EXPECT_FALSE(isPowerOf2(0));
  EXPECT_FALSE(isPowerOf2(-4));
  EXPECT_FALSE(isPowerOf2(6));
}

TEST(Random, Deterministic) {
  SplitMix64 A(42), B(42);
  for (int I = 0; I != 100; ++I)
    EXPECT_EQ(A.next(), B.next());
}

TEST(Random, SeedsDiffer) {
  SplitMix64 A(1), B(2);
  bool AnyDifferent = false;
  for (int I = 0; I != 16; ++I)
    AnyDifferent |= A.next() != B.next();
  EXPECT_TRUE(AnyDifferent);
}

TEST(Random, RangeBounds) {
  SplitMix64 Rng(7);
  for (int I = 0; I != 1000; ++I) {
    int64_t V = Rng.nextInRange(-5, 5);
    EXPECT_GE(V, -5);
    EXPECT_LE(V, 5);
  }
  for (int I = 0; I != 1000; ++I)
    EXPECT_LT(Rng.nextBelow(10), 10u);
  for (int I = 0; I != 100; ++I) {
    double D = Rng.nextDouble();
    EXPECT_GE(D, 0.0);
    EXPECT_LT(D, 1.0);
  }
}

TEST(Table, Alignment) {
  Table T({"name", "value"});
  T.addRow({"x", "1"});
  T.addRow({"longer", "23"});
  std::string S = T.toString();
  // Header, rule, two rows.
  EXPECT_EQ(std::count(S.begin(), S.end(), '\n'), 4);
  EXPECT_NE(S.find("name"), std::string::npos);
  EXPECT_NE(S.find("------"), std::string::npos);
  EXPECT_EQ(T.numRows(), 2u);
  EXPECT_EQ(T.numColumns(), 2u);
}

TEST(Table, CsvEscaping) {
  Table T({"a", "b"});
  T.addRow({"plain", "has,comma"});
  T.addRow({"has\"quote", "x"});
  std::string Csv = T.toCsv();
  EXPECT_NE(Csv.find("\"has,comma\""), std::string::npos);
  EXPECT_NE(Csv.find("\"has\"\"quote\""), std::string::npos);
}

TEST(Table, FormatHelpers) {
  EXPECT_EQ(formatDouble(3.14159, 2), "3.14");
  EXPECT_EQ(formatDouble(2.0, 0), "2");
  EXPECT_EQ(formatWithCommas(12288), "12,288");
  EXPECT_EQ(formatWithCommas(999), "999");
  EXPECT_EQ(formatWithCommas(-1234567), "-1,234,567");
  EXPECT_EQ(formatWithCommas(0), "0");
}

TEST(Diagnostics, CollectsAndCounts) {
  DiagnosticEngine Diags;
  EXPECT_FALSE(Diags.hasErrors());
  Diags.warning({1, 2}, "a warning");
  EXPECT_FALSE(Diags.hasErrors());
  Diags.error({3, 4}, "an error");
  Diags.note({}, "a note");
  EXPECT_TRUE(Diags.hasErrors());
  EXPECT_EQ(Diags.errorCount(), 1u);
  EXPECT_EQ(Diags.diagnostics().size(), 3u);
  std::string Text = Diags.toString();
  EXPECT_NE(Text.find("3:4: error: an error"), std::string::npos);
  EXPECT_NE(Text.find("1:2: warning: a warning"), std::string::npos);
  EXPECT_NE(Text.find("note: a note"), std::string::npos);
  Diags.clear();
  EXPECT_FALSE(Diags.hasErrors());
  EXPECT_TRUE(Diags.diagnostics().empty());
}

TEST(Diagnostics, LocationRendering) {
  SourceLocation None;
  EXPECT_FALSE(None.isValid());
  EXPECT_EQ(None.toString(), "<no-loc>");
  SourceLocation Loc{10, 3};
  EXPECT_TRUE(Loc.isValid());
  EXPECT_EQ(Loc.toString(), "10:3");
}

namespace {

/// Parses "--threads <Value>" the way a driver does.
std::optional<unsigned> parseThreads(const std::string &Value) {
  std::string Argv0 = "driver", Flag = "--threads", Arg = Value;
  char *Argv[] = {Argv0.data(), Flag.data(), Arg.data()};
  cl::ArgList Args(3, Argv);
  std::optional<unsigned> Parsed = Args.consumeUnsigned("--threads");
  EXPECT_TRUE(Args.empty()); // the flag is consumed even when it is bad
  return Parsed;
}

} // namespace

TEST(CommandLine, ConsumeUnsignedAcceptsDigitsUpToUintMax) {
  EXPECT_EQ(parseThreads("0"), 0u);
  EXPECT_EQ(parseThreads("7"), 7u);
  EXPECT_EQ(parseThreads("4294967295"), static_cast<unsigned>(UINT_MAX));
}

TEST(CommandLine, ConsumeUnsignedRejectsSignsBlanksOverflowAndJunk) {
  EXPECT_EQ(parseThreads("-1"), std::nullopt);         // no wrap to UINT_MAX
  EXPECT_EQ(parseThreads("+1"), std::nullopt);
  EXPECT_EQ(parseThreads("4294967296"), std::nullopt); // UINT_MAX + 1
  EXPECT_EQ(parseThreads("4294967297"), std::nullopt); // no narrowing to 1
  EXPECT_EQ(parseThreads(" 7"), std::nullopt);
  EXPECT_EQ(parseThreads("7 "), std::nullopt);
  EXPECT_EQ(parseThreads("12abc"), std::nullopt);
  EXPECT_EQ(parseThreads(""), std::nullopt);
}

TEST(CommandLine, ConsumeUnsignedAbsentFlagIsNullopt) {
  std::string Argv0 = "driver", Other = "--csv";
  char *Argv[] = {Argv0.data(), Other.data()};
  cl::ArgList Args(2, Argv);
  EXPECT_EQ(Args.consumeUnsigned("--threads"), std::nullopt);
  EXPECT_EQ(Args.rest().size(), 1u);
}
