//===- CommandLine.h - Shared driver flag parsing --------------*- C++ -*-===//
//
// Part of the DEFACTO-DSE project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// One flag parser for every driver binary (examples/, bench/), replacing
/// the per-binary argv loops that grew in lockstep. ArgList consumes
/// recognized flags and keeps the rest, so a driver can layer its own
/// flags over the shared observability set:
///
///   cl::ArgList Args(Argc, Argv);
///   cl::ObservabilityConfig Obs = cl::consumeObservabilityFlags(Args);
///   bool Csv = Args.consumeFlag("--csv");
///   std::string Strategy = Args.consumeValue("--strategy")
///                              .value_or("guided");
///   if (!Args.empty()) { /* print usage; Args.rest() names the extras */ }
///   ...
///   cl::finishObservability(Obs);
///
//===----------------------------------------------------------------------===//

#ifndef DEFACTO_SUPPORT_COMMANDLINE_H
#define DEFACTO_SUPPORT_COMMANDLINE_H

#include <optional>
#include <string>
#include <vector>

namespace defacto {
namespace cl {

/// A consumable view of argv (argv[0] is skipped). Consume methods remove
/// the matched arguments; rest() is what no parser claimed.
class ArgList {
public:
  ArgList(int Argc, char **Argv);

  /// Consumes a boolean flag ("--stats"). True when present.
  bool consumeFlag(const std::string &Name);

  /// Consumes a valued flag, accepting both "--name=value" and
  /// "--name value". std::nullopt when absent.
  std::optional<std::string> consumeValue(const std::string &Name);

  /// consumeValue parsed as a non-negative integer: decimal digits only
  /// (no sign, no blanks), at most UINT_MAX. std::nullopt when the flag
  /// is absent or its value is anything else.
  std::optional<unsigned> consumeUnsigned(const std::string &Name);

  /// consumeValue split on commas, empty pieces dropped. Empty when the
  /// flag is absent.
  std::vector<std::string> consumeList(const std::string &Name);

  /// Arguments no consume call claimed, in their original order.
  const std::vector<std::string> &rest() const { return Args; }
  bool empty() const { return Args.empty(); }

  /// Rewrites (\p Argc, \p Argv) to hold only the unconsumed arguments —
  /// for callers that hand argv on to another parser. \p Argv must be the
  /// array this ArgList was built from (the kept pointers are reused).
  void compactInto(int &Argc, char **Argv) const;

private:
  std::vector<std::string> Args;
  std::vector<char *> Raw; // original pointers, parallel to Args
};

/// The observability flag set every driver shares:
///   --trace-out=PATH   write a Chrome trace_event file (chrome://tracing
///                      / Perfetto) of the run's decision/phase events
///   --stats            print the counter registry and phase timings at
///                      exit
///   --stats-out=PATH   write counters + timers + histograms as one JSON
///                      document at exit (machine-readable --stats)
struct ObservabilityConfig {
  std::string TraceOutPath; // empty: tracing stays off
  bool Stats = false;
  std::string StatsOutPath; // empty: no stats file

  bool any() const {
    return Stats || !TraceOutPath.empty() || !StatsOutPath.empty();
  }
};

/// Consumes --trace-out=/--stats/--stats-out from \p Args and enables the
/// global TraceRecorder / StatRegistry accordingly.
ObservabilityConfig consumeObservabilityFlags(ArgList &Args);

/// Finishes an observed run: writes the Chrome trace when a path was
/// given, prints counters plus phase timings when --stats was, and writes
/// the stats JSON file when --stats-out was. Returns false when any
/// output file could not be written.
bool finishObservability(const ObservabilityConfig &Config);

/// Writes {"counters": ..., "timers": ..., "histograms": ...} — the
/// StatRegistry, TimerGroup, and HistogramRegistry JSON exports — to
/// \p Path (write-then-rename), validating the document with
/// Support/Json first. Returns false on validation or I/O failure.
bool writeStatsFile(const std::string &Path);

} // namespace cl
} // namespace defacto

#endif // DEFACTO_SUPPORT_COMMANDLINE_H
