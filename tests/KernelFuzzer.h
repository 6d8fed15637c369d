//===- KernelFuzzer.h - Random affine kernels for property tests -*- C++ -*-===//
//
// Part of the DEFACTO-DSE project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The seeded kernel generator behind fuzz_pipeline_test, shared with the
/// suites that replay its seeds (route_parity_test).
///
//===----------------------------------------------------------------------===//

#ifndef DEFACTO_TESTS_KERNELFUZZER_H
#define DEFACTO_TESTS_KERNELFUZZER_H

#include "defacto/IR/IRUtils.h"
#include "defacto/IR/Kernel.h"
#include "defacto/Support/MathExtras.h"
#include "defacto/Support/Random.h"
#include "defacto/Transforms/UnrollAndJam.h"

#include <cstdlib>
#include <memory>
#include <vector>

namespace defacto {
namespace test {

/// Generates a random kernel in the affine domain:
///  - a perfect nest of 1-3 loops with trip counts in {4, 6, 8, 12, 16},
///  - 2-4 arrays (rank 1-2), one designated output,
///  - 1-3 statements accumulating affine-indexed reads into the output,
///  - subscripts a*loop + b with a in {1, 2} and small offsets,
///  - dimensions sized from the maximum subscript value, so every
///    access is in bounds by construction.
class KernelFuzzer {
public:
  explicit KernelFuzzer(uint64_t Seed) : Rng(Seed) {}

  Kernel generate() {
    Kernel K("fuzz");
    unsigned Depth = 1 + Rng.nextBelow(3);
    static const int64_t TripChoices[] = {4, 6, 8, 12, 16};
    std::vector<int> LoopIds;
    std::vector<int64_t> Trips;
    for (unsigned D = 0; D != Depth; ++D) {
      LoopIds.push_back(K.allocateLoopId());
      Trips.push_back(TripChoices[Rng.nextBelow(5)]);
    }

    // Random affine subscript over a subset of the loops.
    auto randomSubscript = [&](int64_t &MaxValue) {
      AffineExpr Sub;
      MaxValue = 0;
      for (unsigned D = 0; D != Depth; ++D) {
        if (Rng.nextBelow(2) == 0 && Sub.numTerms() != 0)
          continue;
        int64_t Coeff = 1 + Rng.nextBelow(2);
        Sub = Sub.add(AffineExpr::term(LoopIds[D], Coeff));
        MaxValue += Coeff * (Trips[D] - 1);
      }
      int64_t Offset = Rng.nextBelow(4);
      Sub = Sub.addConstant(Offset);
      MaxValue += Offset;
      return Sub;
    };

    // Input arrays with one or two dimensions.
    unsigned NumInputs = 1 + Rng.nextBelow(3);
    struct Input {
      ArrayDecl *Array;
      std::vector<AffineExpr> Subs;
    };
    std::vector<Input> Inputs;
    static const ScalarType Types[] = {ScalarType::Int8, ScalarType::Int16,
                                       ScalarType::Int32};
    for (unsigned I = 0; I != NumInputs; ++I) {
      unsigned Rank = 1 + Rng.nextBelow(2);
      std::vector<AffineExpr> Subs;
      std::vector<int64_t> Dims;
      for (unsigned D = 0; D != Rank; ++D) {
        int64_t MaxValue = 0;
        Subs.push_back(randomSubscript(MaxValue));
        Dims.push_back(MaxValue + 1);
      }
      ArrayDecl *A = K.makeArray("in" + std::to_string(I),
                                 Types[Rng.nextBelow(3)], Dims);
      Inputs.push_back({A, std::move(Subs)});
    }

    // Output array indexed by the outermost loop only (uniformly
    // generated writes, like the paper's kernels).
    ArrayDecl *Out = K.makeArray("out", ScalarType::Int32,
                                 {Trips[0] + 4});
    std::vector<AffineExpr> OutSubs{AffineExpr::term(LoopIds[0], 1)};

    // Build the nest.
    std::vector<ForStmt *> Nest;
    for (unsigned D = 0; D != Depth; ++D) {
      auto Loop = std::make_unique<ForStmt>(
          LoopIds[D], "i" + std::to_string(D), 0, Trips[D], 1);
      ForStmt *Raw = Loop.get();
      if (D == 0)
        K.body().push_back(std::move(Loop));
      else
        Nest.back()->body().push_back(std::move(Loop));
      Nest.push_back(Raw);
    }

    // Random accumulation statements.
    unsigned NumStmts = 1 + Rng.nextBelow(3);
    for (unsigned S = 0; S != NumStmts; ++S) {
      const Input &In = Inputs[Rng.nextBelow(Inputs.size())];
      ExprPtr Value = std::make_unique<ArrayAccessExpr>(In.Array, In.Subs);
      switch (Rng.nextBelow(4)) {
      case 0: {
        const Input &Rhs = Inputs[Rng.nextBelow(Inputs.size())];
        Value = std::make_unique<BinaryExpr>(
            BinaryOp::Mul, std::move(Value),
            std::make_unique<ArrayAccessExpr>(Rhs.Array, Rhs.Subs));
        break;
      }
      case 1:
        Value = std::make_unique<UnaryExpr>(UnaryOp::Abs,
                                            std::move(Value));
        break;
      case 2:
        Value = std::make_unique<BinaryExpr>(
            BinaryOp::Max, std::move(Value),
            std::make_unique<IntLitExpr>(
                Rng.nextInRange(-8, 8)));
        break;
      default:
        break;
      }
      Value = std::make_unique<BinaryExpr>(
          BinaryOp::Add,
          std::make_unique<ArrayAccessExpr>(Out, OutSubs),
          std::move(Value));
      Nest.back()->body().push_back(std::make_unique<AssignStmt>(
          std::make_unique<ArrayAccessExpr>(Out, OutSubs),
          std::move(Value)));
    }

    // Occasionally wrap the last statement in a data-dependent guard.
    if (Rng.nextBelow(4) == 0 && !Inputs.empty()) {
      StmtList &Body = Nest.back()->body();
      StmtPtr Last = std::move(Body.back());
      Body.pop_back();
      const Input &In = Inputs.front();
      auto Guard = std::make_unique<IfStmt>(std::make_unique<BinaryExpr>(
          BinaryOp::CmpGt,
          std::make_unique<ArrayAccessExpr>(In.Array, In.Subs),
          std::make_unique<IntLitExpr>(0)));
      Guard->thenBody().push_back(std::move(Last));
      Body.push_back(std::move(Guard));
    }
    return K;
  }

  /// A random valid unroll vector for the kernel's nest.
  UnrollVector randomUnroll(Kernel &K) {
    UnrollVector U;
    for (ForStmt *F : perfectNest(K.topLoop())) {
      std::vector<int64_t> Divs = divisorsOf(F->tripCount());
      U.push_back(Divs[Rng.nextBelow(Divs.size())]);
    }
    return U;
  }

private:
  SplitMix64 Rng;
};

/// Seed count, raisable for deeper runs (the sanitizer CI preset sets
/// DEFACTO_FUZZ_SEEDS=96).
inline uint64_t fuzzSeedCount() {
  if (const char *Env = std::getenv("DEFACTO_FUZZ_SEEDS"))
    if (long N = std::atol(Env); N > 0)
      return static_cast<uint64_t>(N);
  return 24;
}

} // namespace test
} // namespace defacto

#endif // DEFACTO_TESTS_KERNELFUZZER_H
