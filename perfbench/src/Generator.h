//===- Generator.h - Seeded benchmark inputs ------------------*- C++ -*-===//
//
// Part of the DEFACTO-DSE project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Every input the benchmark hands the engine comes from here, as a pure
/// function of the seed: kernel sources instantiated from templates of the
/// eight built-in kernels (paperKernels() and extendedKernels()) over a
/// fixed grid of trip counts, the compile-time operation schedule, the
/// sweep's job orders, and the daemon's request schedule. The seed draws
/// the daemon's novel kernels, hot-set budgets and arrival times; the
/// compile population and the sweep's kernels are the same for every seed,
/// which sets only the order they run in. The engine sees only the
/// generated text and requests.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_GENERATOR_H
#define PERFBENCH_GENERATOR_H

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// The two target platforms, by the names the engine's protocol uses.
const std::vector<std::string> &platformNames();

/// The eight template kernel names, paper set first.
const std::vector<std::string> &templateNames();

/// The paper's trip counts for \p Kernel (outermost loop first).
std::vector<int64_t> paperTrips(const std::string &Kernel);

/// C source of \p Kernel at \p Trips. At paperTrips() the text equals the
/// built-in KernelSpec source byte for byte.
std::string renderKernel(const std::string &Kernel,
                         const std::vector<int64_t> &Trips);

/// One generated kernel.
struct Variant {
  std::string Kernel;
  std::vector<int64_t> Trips;
  std::string Source;
  /// "FIR_64x32": the kernel name given to the parser.
  std::string label() const;
};

/// Every (kernel, trip counts) combination the generator can draw, in a
/// fixed order; \p ExcludePaper drops the paper-size ones.
std::vector<Variant> allVariants(bool ExcludePaper);

//===----------------------------------------------------------------------===//
// compile-guided
//===----------------------------------------------------------------------===//

/// One compile-time exploration: a kernel variant, a platform, and the
/// strategy (guided or guided+tile).
struct CompileOp {
  unsigned Variant = 0;
  std::string Platform;
  std::string Strategy;
};

struct CompilePlan {
  std::vector<Variant> Variants;
  /// Every distinct operation: each variant on each platform with each
  /// strategy, so exactly half run guided and half guided+tile.
  std::vector<CompileOp> Ops;

  /// Index into Ops of the \p I-th operation of the schedule: successive
  /// seeded permutations of Ops.
  unsigned indexAt(size_t I);
  /// Stable identity of Ops[Index] (reference-table key).
  std::string key(unsigned Index) const;

  uint64_t Seed = 0;
  std::vector<unsigned> Order;
};

/// Variants per template in the compile population: evenly spaced over
/// the template's trip-count grid. The population is the same for every
/// seed and a run visits all of it several times, so the cost of the
/// average operation does not depend on the seed; the seed sets the order
/// in which operations are drawn.
inline constexpr unsigned CompileVariantsPerKernel = 12;

/// The same seed always gives the same plan.
CompilePlan makeCompilePlan(uint64_t Seed);

//===----------------------------------------------------------------------===//
// sweep-exhaustive
//===----------------------------------------------------------------------===//

/// Job order of the \p Sweep-th sweep over \p NumJobs jobs.
std::vector<unsigned> sweepOrder(uint64_t Seed, unsigned Sweep,
                                 unsigned NumJobs);

//===----------------------------------------------------------------------===//
// serve-mixed
//===----------------------------------------------------------------------===//

/// One distinct request content. Hot tuples name a built-in kernel;
/// novel ones carry generated inline source.
struct ServeTuple {
  std::string Kernel;
  std::string Source; // empty for hot tuples
  std::string Platform;
  std::string Strategy;
  unsigned Budget = 100;
  bool Hot = false;
  /// Stable identity (reference-table key).
  std::string key() const;
};

struct ServeArrival {
  double DueSeconds = 0; // offset from the window start
  unsigned Tuple = 0;
};

struct ServePlan {
  std::vector<ServeTuple> Tuples; // the hot set first
  unsigned HotCount = 0;
  /// The open-loop phase.
  std::vector<ServeArrival> Arrivals;
  /// The closed-loop phase, after the open loop: tuples in the order they
  /// are sent, each as soon as a connection is free.
  std::vector<unsigned> Burst;
};

/// Every hot-set candidate: each kernel at paper size on each platform
/// with each strategy and each budget.
std::vector<ServeTuple> hotCandidates();

/// The serve workload's fixed shape (README.md, "The serve traffic"). The
/// open-loop rate is the highest at which a 10-second open loop's novel
/// requests do not run out of generated variants, and about a quarter of
/// the closed-loop capacity measured on the reference host: enough for
/// requests to queue and batch. The hot share, the Zipf exponent and the
/// budgets are chosen, not measured.
inline constexpr double ServeRatePerSecond = 500;
inline constexpr double ServeHotShare = 0.8;
/// Zipf exponent of the hot-set draw: rank r has weight 1 / r^s.
inline constexpr double ServeZipfExponent = 0.6;
/// Burst requests drawn per second of the closed-loop phase: above the
/// highest closed-loop rate measured (2,900 replies/s), so the phase does
/// not run out.
inline constexpr double ServeBurstPerSecond = 4000;
/// Burst requests per popularity epoch.
inline constexpr size_t ServeBurstEpoch = 1000;

/// Poisson arrivals at ServeRatePerSecond over \p Seconds, then
/// \p BurstCount closed-loop requests. Each request draws Zipf-style from
/// the hot set with probability ServeHotShare (in a popularity order
/// reshuffled every epoch) and is otherwise a novel tuple no earlier
/// request used.
ServePlan makeServePlan(uint64_t Seed, double Seconds, size_t BurstCount = 0);

/// Canonical text of a plan (for determinism checks).
std::string describePlan(const ServePlan &Plan);
std::string describePlan(CompilePlan &Plan, size_t Ops);

} // namespace perfbench

#endif // PERFBENCH_GENERATOR_H
