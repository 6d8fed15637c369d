//===- Generator.cpp - Seeded benchmark inputs ----------------------------===//
//
// Part of the DEFACTO-DSE project, under the MIT License.
//
//===----------------------------------------------------------------------===//

#include "Generator.h"

#include "Common.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <functional>
#include <map>
#include <sstream>

namespace perfbench {

const std::vector<std::string> &platformNames() {
  static const std::vector<std::string> Names = {"wildstar-pipelined",
                                                 "wildstar-nonpipelined"};
  return Names;
}

namespace {

using Trips = std::vector<int64_t>;

struct Template {
  std::string Name;
  Trips Paper;
  /// Trip-count choices per loop, outermost first; each includes the
  /// paper's value. Sizes stay within a few times the paper's, so every
  /// variant explores in milliseconds and simulates cheaply.
  std::vector<Trips> Choices;
  std::function<std::string(const Trips &)> Render;
};

std::string fmt(const char *Pattern, std::initializer_list<long long> Args) {
  // Substitutes each "%d" in order; the templates contain no other '%'.
  std::string Out;
  auto Arg = Args.begin();
  for (const char *P = Pattern; *P; ++P) {
    if (P[0] == '%' && P[1] == 'd') {
      Out += std::to_string(*Arg++);
      ++P;
    } else {
      Out += *P;
    }
  }
  return Out;
}

/// The 2-deep stencil templates share a shape: arrays padded by one on
/// each side, loops over the interior.
std::string stencil(const char *Decls, const char *Body, const Trips &T) {
  long long I = T[0], J = T[1];
  return fmt(Decls, {I + 2, J + 2, I + 2, J + 2}) +
         fmt("for (i = 1; i < %d; i++)\n  for (j = 1; j < %d; j++)\n",
             {I + 1, J + 1}) +
         Body;
}

const Trips Stencil = {12, 16, 20, 24, 28, 32};

const std::vector<Template> &templates() {
  static const std::vector<Template> T = {
      {"FIR", {64, 32}, {{24, 32, 40, 48, 56, 64, 80, 96}, {8, 12, 16, 24, 32}},
       [](const Trips &T) {
         return fmt("int S[%d];\nint C[%d];\nint D[%d];\n"
                    "for (j = 0; j < %d; j++)\n"
                    "  for (i = 0; i < %d; i++)\n"
                    "    D[j] = D[j] + (S[i + j] * C[i]);\n",
                    {T[0] + T[1], T[1], T[0], T[0], T[1]});
       }},
      {"MM",
       {32, 4, 16},
       {{8, 16, 24, 32, 40, 48}, {2, 4, 6, 8}, {8, 12, 16, 20, 24}},
       [](const Trips &T) {
         return fmt("int A[%d][%d];\nint B[%d][%d];\nint Z[%d][%d];\n"
                    "for (i = 0; i < %d; i++)\n"
                    "  for (j = 0; j < %d; j++)\n"
                    "    for (k = 0; k < %d; k++)\n"
                    "      Z[i][j] = Z[i][j] + A[i][k] * B[k][j];\n",
                    {T[0], T[2], T[2], T[1], T[0], T[1], T[0], T[1], T[2]});
       }},
      {"PAT", {64, 16}, {{24, 32, 40, 48, 56, 64, 80, 96}, {4, 8, 12, 16}},
       [](const Trips &T) {
         return fmt("char T[%d];\nchar P[%d];\nint M[%d];\n"
                    "for (i = 0; i < %d; i++)\n"
                    "  for (j = 0; j < %d; j++)\n"
                    "    M[i] = M[i] + (T[i + j] == P[j]);\n",
                    {T[0] + T[1], T[1], T[0], T[0], T[1]});
       }},
      {"JAC", {32, 32}, {Stencil, Stencil},
       [](const Trips &T) {
         return stencil("short A[%d][%d];\nshort B[%d][%d];\n",
                        "    B[i][j] = (A[i - 1][j] + A[i + 1][j] + "
                        "A[i][j - 1] + A[i][j + 1]) / 4;\n",
                        T);
       }},
      {"SOBEL", {32, 32}, {Stencil, Stencil},
       [](const Trips &T) {
         return stencil(
             "char I[%d][%d];\nshort E[%d][%d];\n",
             "    E[i][j] = min(255,\n"
             "      abs(I[i - 1][j - 1] + 2 * I[i - 1][j] + I[i - 1][j + 1]\n"
             "        - I[i + 1][j - 1] - 2 * I[i + 1][j] - I[i + 1][j + 1])\n"
             "      + abs(I[i - 1][j - 1] + 2 * I[i][j - 1] + I[i + 1][j - 1]\n"
             "        - I[i - 1][j + 1] - 2 * I[i][j + 1] "
             "- I[i + 1][j + 1]));\n",
             T);
       }},
      {"CORR",
       {16, 16, 4, 4},
       {{8, 10, 12, 14, 16}, {8, 10, 12, 14, 16}, {2, 3, 4}, {2, 3, 4}},
       [](const Trips &T) {
         return fmt("short I[%d][%d];\nshort T[%d][%d];\nint R[%d][%d];\n"
                    "for (x = 0; x < %d; x++)\n"
                    "  for (y = 0; y < %d; y++)\n"
                    "    for (u = 0; u < %d; u++)\n"
                    "      for (v = 0; v < %d; v++)\n"
                    "        R[x][y] = R[x][y] + I[x + u][y + v] * T[u][v];\n",
                    {T[0] + T[2] - 1, T[1] + T[3] - 1, T[2], T[3], T[0], T[1],
                     T[0], T[1], T[2], T[3]});
       }},
      {"DILATE", {32, 32}, {Stencil, Stencil},
       [](const Trips &T) {
         return stencil(
             "char I[%d][%d];\nchar D[%d][%d];\n",
             "    D[i][j] = max(max(max(I[i - 1][j - 1], I[i - 1][j]),\n"
             "                      max(I[i - 1][j + 1], I[i][j - 1])),\n"
             "                  max(max(I[i][j], I[i][j + 1]),\n"
             "                      max(I[i + 1][j - 1],\n"
             "                          max(I[i + 1][j], "
             "I[i + 1][j + 1]))));\n",
             T);
       }},
      {"ERODE", {32, 32}, {Stencil, Stencil},
       [](const Trips &T) {
         return stencil(
             "char I[%d][%d];\nchar E[%d][%d];\n",
             "    E[i][j] = min(min(min(I[i - 1][j - 1], I[i - 1][j]),\n"
             "                      min(I[i - 1][j + 1], I[i][j - 1])),\n"
             "                  min(min(I[i][j], I[i][j + 1]),\n"
             "                      min(I[i + 1][j - 1],\n"
             "                          min(I[i + 1][j], "
             "I[i + 1][j + 1]))));\n",
             T);
       }},
  };
  return T;
}

const Template &templateFor(const std::string &Kernel) {
  for (const Template &T : templates())
    if (T.Name == Kernel)
      return T;
  std::fprintf(stderr, "perfbench: no template named %s\n", Kernel.c_str());
  std::abort();
}

/// Every combination of \p Choices, first position slowest.
std::vector<Trips> product(const std::vector<Trips> &Choices) {
  std::vector<Trips> Out = {{}};
  for (const Trips &C : Choices) {
    std::vector<Trips> Next;
    for (const Trips &Prefix : Out)
      for (int64_t V : C) {
        Next.push_back(Prefix);
        Next.back().push_back(V);
      }
    Out = std::move(Next);
  }
  return Out;
}

Variant makeVariant(const Template &T, Trips Tr) {
  Variant V;
  V.Kernel = T.Name;
  V.Source = T.Render(Tr);
  V.Trips = std::move(Tr);
  return V;
}

const std::vector<std::string> Strategies = {"guided", "guided+tile"};
const std::vector<unsigned> Budgets = {32, 64, 100};

} // namespace

const std::vector<std::string> &templateNames() {
  static const std::vector<std::string> Names = [] {
    std::vector<std::string> N;
    for (const Template &T : templates())
      N.push_back(T.Name);
    return N;
  }();
  return Names;
}

std::vector<int64_t> paperTrips(const std::string &Kernel) {
  return templateFor(Kernel).Paper;
}

std::string renderKernel(const std::string &Kernel,
                         const std::vector<int64_t> &Trips) {
  return templateFor(Kernel).Render(Trips);
}

std::string Variant::label() const {
  std::string L = Kernel + '_';
  for (size_t I = 0; I != Trips.size(); ++I)
    L += (I ? "x" : "") + std::to_string(Trips[I]);
  return L;
}

std::vector<Variant> allVariants(bool ExcludePaper) {
  std::vector<Variant> Out;
  for (const Template &T : templates())
    for (Trips &Tr : product(T.Choices))
      if (!ExcludePaper || Tr != T.Paper)
        Out.push_back(makeVariant(T, std::move(Tr)));
  return Out;
}

//===----------------------------------------------------------------------===//
// compile-guided
//===----------------------------------------------------------------------===//

CompilePlan makeCompilePlan(uint64_t Seed) {
  CompilePlan Plan;
  Plan.Seed = Seed;
  for (const Template &T : templates()) {
    std::vector<Trips> All = product(T.Choices);
    const size_t N = All.size(), K = CompileVariantsPerKernel;
    for (size_t I = 0; I != K; ++I)
      Plan.Variants.push_back(makeVariant(T, All[(2 * I + 1) * N / (2 * K)]));
  }
  for (unsigned V = 0; V != Plan.Variants.size(); ++V)
    for (const std::string &P : platformNames())
      for (const std::string &S : Strategies)
        Plan.Ops.push_back({V, P, S});
  return Plan;
}

unsigned CompilePlan::indexAt(size_t I) {
  while (Order.size() <= I) {
    // Permutation k depends only on (Seed, k), so any prefix of the
    // schedule is the same however far it is extended.
    std::vector<unsigned> Perm(Ops.size());
    for (unsigned J = 0; J != Perm.size(); ++J)
      Perm[J] = J;
    Rng R(mixSeed(Seed, 1000 + Order.size() / Ops.size()));
    R.shuffle(Perm);
    Order.insert(Order.end(), Perm.begin(), Perm.end());
  }
  return Order[I];
}

std::string CompilePlan::key(unsigned Index) const {
  const CompileOp &Op = Ops[Index];
  return Variants[Op.Variant].label() + '@' + Op.Platform + ';' + Op.Strategy;
}

//===----------------------------------------------------------------------===//
// sweep-exhaustive
//===----------------------------------------------------------------------===//

std::vector<unsigned> sweepOrder(uint64_t Seed, unsigned Sweep,
                                 unsigned NumJobs) {
  std::vector<unsigned> Order(NumJobs);
  for (unsigned I = 0; I != NumJobs; ++I)
    Order[I] = I;
  Rng R(mixSeed(Seed, 2000 + Sweep));
  R.shuffle(Order);
  return Order;
}

//===----------------------------------------------------------------------===//
// serve-mixed
//===----------------------------------------------------------------------===//

std::string ServeTuple::key() const {
  return (Hot ? "" : "src:") + Kernel + '@' + Platform + ';' + Strategy +
         ";b" + std::to_string(Budget);
}

std::vector<ServeTuple> hotCandidates() {
  std::vector<ServeTuple> Out;
  for (const Template &T : templates())
    for (const std::string &P : platformNames())
      for (const std::string &S : Strategies)
        for (unsigned B : Budgets) {
          ServeTuple Tu;
          Tu.Kernel = T.Name;
          Tu.Platform = P;
          Tu.Strategy = S;
          Tu.Budget = B;
          Tu.Hot = true;
          Out.push_back(std::move(Tu));
        }
  return Out;
}

ServePlan makeServePlan(uint64_t Seed, double Seconds, size_t BurstCount) {
  ServePlan Plan;
  Rng R(mixSeed(Seed, 3));

  // The hot set holds every kernel on every platform with every strategy
  // once, each at a seeded budget.
  std::vector<ServeTuple> Candidates = hotCandidates();
  for (size_t I = 0; I < Candidates.size(); I += Budgets.size())
    Plan.Tuples.push_back(Candidates[I + R.below(Budgets.size())]);
  Plan.HotCount = static_cast<unsigned>(Plan.Tuples.size());

  // Popularity drifts: every epoch (a second of the schedule, or
  // ServeBurstEpoch requests of the burst) ranks the hot set in a fresh
  // seeded order, so no single tuple's cost sets a run's figures.
  std::map<size_t, std::vector<unsigned>> Orders;
  auto popularity = [&](size_t Epoch) -> const std::vector<unsigned> & {
    std::vector<unsigned> &Order = Orders[Epoch];
    if (Order.empty()) {
      for (unsigned I = 0; I != Plan.HotCount; ++I)
        Order.push_back(I);
      Rng(mixSeed(Seed, 5000 + Epoch)).shuffle(Order);
    }
    return Order;
  };

  // Zipf over the hot set: rank r (from 1) has weight 1 / r^s.
  std::vector<double> Cdf;
  double Sum = 0;
  for (unsigned Rank = 1; Rank <= Plan.HotCount; ++Rank)
    Cdf.push_back(Sum += 1.0 / std::pow(Rank, ServeZipfExponent));
  for (double &C : Cdf)
    C /= Sum;

  // Novel requests walk a seeded shuffle of every (variant, platform)
  // pair: each is a cold exploration of a kernel the daemon has not seen
  // on that platform. The open loop takes them first.
  std::vector<Variant> Novel = allVariants(/*ExcludePaper=*/true);
  std::vector<std::pair<unsigned, unsigned>> NovelPairs;
  for (unsigned V = 0; V != Novel.size(); ++V)
    for (unsigned P = 0; P != platformNames().size(); ++P)
      NovelPairs.push_back({V, P});
  Rng NovelRng(mixSeed(Seed, 4));
  NovelRng.shuffle(NovelPairs);
  size_t NextNovel = 0;

  auto draw = [&](Rng &From, size_t Epoch) -> unsigned {
    if (From.uniform() < ServeHotShare) {
      size_t Rank = std::min<size_t>(
          std::lower_bound(Cdf.begin(), Cdf.end(), From.uniform()) -
              Cdf.begin(),
          Plan.HotCount - 1);
      return popularity(Epoch)[Rank];
    }
    // Past the pool a pair returns with a fresh strategy/budget draw: a
    // new request tuple, though its kernel's caches are then partly warm.
    auto [V, P] = NovelPairs[NextNovel++ % NovelPairs.size()];
    ServeTuple Tu;
    Tu.Kernel = Novel[V].label();
    Tu.Source = Novel[V].Source;
    Tu.Platform = platformNames()[P];
    Tu.Strategy = Strategies[From.below(2)];
    Tu.Budget = Budgets[From.below(Budgets.size())];
    Plan.Tuples.push_back(std::move(Tu));
    return static_cast<unsigned>(Plan.Tuples.size() - 1);
  };

  double T = 0;
  for (;;) {
    T += -std::log(1.0 - R.uniform()) / ServeRatePerSecond;
    if (T >= Seconds)
      break;
    ServeArrival A;
    A.DueSeconds = T;
    A.Tuple = draw(R, static_cast<size_t>(T));
    Plan.Arrivals.push_back(A);
  }
  Rng BurstRng(mixSeed(Seed, 6));
  for (size_t I = 0; I != BurstCount; ++I)
    Plan.Burst.push_back(draw(BurstRng, 1000000 + I / ServeBurstEpoch));
  return Plan;
}

std::string describePlan(const ServePlan &Plan) {
  std::ostringstream OS;
  char Due[32];
  for (const ServeArrival &A : Plan.Arrivals) {
    const ServeTuple &Tu = Plan.Tuples[A.Tuple];
    std::snprintf(Due, sizeof(Due), "%.9f", A.DueSeconds);
    OS << Due << ' ' << Tu.key() << ' ' << hex64(fnv1a(Tu.Source)) << '\n';
  }
  for (unsigned T : Plan.Burst) {
    const ServeTuple &Tu = Plan.Tuples[T];
    OS << "burst " << Tu.key() << ' ' << hex64(fnv1a(Tu.Source)) << '\n';
  }
  return OS.str();
}

std::string describePlan(CompilePlan &Plan, size_t Ops) {
  std::ostringstream OS;
  for (size_t I = 0; I != Ops; ++I) {
    unsigned Index = Plan.indexAt(I);
    OS << Plan.key(Index) << ' '
       << hex64(fnv1a(Plan.Variants[Plan.Ops[Index].Variant].Source)) << '\n';
  }
  return OS.str();
}

} // namespace perfbench
