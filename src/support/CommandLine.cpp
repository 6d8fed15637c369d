//===- CommandLine.cpp ----------------------------------------------------===//
//
// Part of the DEFACTO-DSE project, under the MIT License.
//
//===----------------------------------------------------------------------===//

#include "defacto/Support/CommandLine.h"

#include "defacto/Support/Histogram.h"
#include "defacto/Support/Json.h"
#include "defacto/Support/Stats.h"
#include "defacto/Support/Timer.h"
#include "defacto/Support/Trace.h"

#include <charconv>
#include <cstdio>
#include <fstream>

using namespace defacto;
using namespace defacto::cl;

ArgList::ArgList(int Argc, char **Argv) {
  for (int I = 1; I < Argc; ++I) {
    Args.emplace_back(Argv[I]);
    Raw.push_back(Argv[I]);
  }
}

bool ArgList::consumeFlag(const std::string &Name) {
  bool Found = false;
  for (size_t I = 0; I != Args.size();) {
    if (Args[I] == Name) {
      Found = true;
      Args.erase(Args.begin() + I);
      Raw.erase(Raw.begin() + I);
      continue;
    }
    ++I;
  }
  return Found;
}

std::optional<std::string> ArgList::consumeValue(const std::string &Name) {
  std::optional<std::string> Value;
  const std::string Prefix = Name + "=";
  for (size_t I = 0; I != Args.size();) {
    if (Args[I].rfind(Prefix, 0) == 0) {
      Value = Args[I].substr(Prefix.size());
      Args.erase(Args.begin() + I);
      Raw.erase(Raw.begin() + I);
      continue;
    }
    if (Args[I] == Name && I + 1 < Args.size()) {
      Value = Args[I + 1];
      Args.erase(Args.begin() + I, Args.begin() + I + 2);
      Raw.erase(Raw.begin() + I, Raw.begin() + I + 2);
      continue;
    }
    ++I;
  }
  return Value;
}

std::optional<unsigned> ArgList::consumeUnsigned(const std::string &Name) {
  std::optional<std::string> Value = consumeValue(Name);
  if (!Value)
    return std::nullopt;
  // Digits only, in range: std::stoul would take a sign ("-1" wraps to
  // UINT_MAX) and leading blanks, and narrowing would fold 2^32 + 1 to 1.
  unsigned Parsed = 0;
  const char *End = Value->data() + Value->size();
  auto [Ptr, Err] = std::from_chars(Value->data(), End, Parsed);
  if (Err != std::errc() || Ptr != End)
    return std::nullopt;
  return Parsed;
}

std::vector<std::string> ArgList::consumeList(const std::string &Name) {
  std::vector<std::string> Items;
  std::optional<std::string> Value = consumeValue(Name);
  if (!Value)
    return Items;
  size_t Start = 0;
  while (Start <= Value->size()) {
    size_t Comma = Value->find(',', Start);
    if (Comma == std::string::npos)
      Comma = Value->size();
    if (Comma > Start)
      Items.push_back(Value->substr(Start, Comma - Start));
    Start = Comma + 1;
  }
  return Items;
}

void ArgList::compactInto(int &Argc, char **Argv) const {
  int Out = 1;
  for (char *Arg : Raw)
    Argv[Out++] = Arg;
  Argc = Out;
}

ObservabilityConfig defacto::cl::consumeObservabilityFlags(ArgList &Args) {
  ObservabilityConfig Config;
  Config.TraceOutPath = Args.consumeValue("--trace-out").value_or("");
  Config.Stats = Args.consumeFlag("--stats");
  Config.StatsOutPath = Args.consumeValue("--stats-out").value_or("");
  if (!Config.TraceOutPath.empty())
    TraceRecorder::global().setEnabled(true);
  if (Config.any())
    StatRegistry::instance().setEnabled(true);
  return Config;
}

bool defacto::cl::writeStatsFile(const std::string &Path) {
  std::string Doc = "{\"counters\": " + StatRegistry::instance().toJson() +
                    ", \"timers\": " + TimerGroup::global().toJson() +
                    ", \"histograms\": " +
                    HistogramRegistry::global().toJson() + "}\n";
  std::string Error;
  if (!isValidJson(Doc, &Error)) {
    std::fprintf(stderr, "stats export is not valid JSON (%s); not writing %s\n",
                 Error.c_str(), Path.c_str());
    return false;
  }
  // Write-then-rename, same as the journal: a concurrent reader never
  // sees a torn document.
  std::string Tmp = Path + ".tmp";
  {
    std::ofstream Out(Tmp);
    if (!Out) {
      std::fprintf(stderr, "failed to open stats output '%s'\n", Tmp.c_str());
      return false;
    }
    Out << Doc;
    if (!Out.good()) {
      std::fprintf(stderr, "failed to write stats output '%s'\n", Tmp.c_str());
      return false;
    }
  }
  if (std::rename(Tmp.c_str(), Path.c_str()) != 0) {
    std::fprintf(stderr, "failed to rename '%s' to '%s'\n", Tmp.c_str(),
                 Path.c_str());
    return false;
  }
  return true;
}

bool defacto::cl::finishObservability(const ObservabilityConfig &Config) {
  bool Ok = true;
  if (!Config.TraceOutPath.empty()) {
    std::ofstream Out(Config.TraceOutPath);
    if (Out) {
      Out << TraceRecorder::global().toChromeTrace();
      std::printf("wrote %zu trace events to %s (load in chrome://tracing "
                  "or ui.perfetto.dev)\n",
                  TraceRecorder::global().eventCount(),
                  Config.TraceOutPath.c_str());
    } else {
      std::fprintf(stderr, "failed to open trace output '%s'\n",
                   Config.TraceOutPath.c_str());
      Ok = false;
    }
  }
  if (Config.Stats) {
    std::printf("%s", StatRegistry::instance().toText().c_str());
    std::printf("%s", TimerGroup::global().toText().c_str());
  }
  if (!Config.StatsOutPath.empty()) {
    if (writeStatsFile(Config.StatsOutPath))
      std::printf("wrote stats to %s\n", Config.StatsOutPath.c_str());
    else
      Ok = false;
  }
  return Ok;
}
