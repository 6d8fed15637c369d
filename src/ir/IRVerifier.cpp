//===- IRVerifier.cpp -----------------------------------------------------===//
//
// Part of the DEFACTO-DSE project, under the MIT License.
//
//===----------------------------------------------------------------------===//

#include "defacto/IR/IRVerifier.h"

#include "defacto/IR/IRUtils.h"
#include "defacto/Support/Stats.h"

#include <set>

using namespace defacto;

DEFACTO_STATISTIC(NumVerifications, "ir", "verifications",
                  "whole-kernel verifier runs");

namespace {

/// Walks the kernel carrying the set of enclosing loop ids.
class Verifier {
public:
  explicit Verifier(const Kernel &K) : K(K) {
    for (const auto &A : K.arrays())
      OwnedArrays.insert(A.get());
    for (const auto &S : K.scalars())
      OwnedScalars.insert(S.get());
  }

  std::vector<std::string> run() {
    checkStmts(K.body());
    return std::move(Problems);
  }

private:
  void problem(std::string Msg) { Problems.push_back(std::move(Msg)); }

  void checkExpr(const Expr *E) {
    walkExpr(E, [this](const Expr *X) {
      if (const auto *LI = dyn_cast<LoopIndexExpr>(X)) {
        if (!ActiveLoops.count(LI->loopId()))
          problem("loop-index expression references loop id " +
                  std::to_string(LI->loopId()) +
                  " which is not an enclosing loop");
        return;
      }
      if (const auto *SR = dyn_cast<ScalarRefExpr>(X)) {
        if (!OwnedScalars.count(SR->decl()))
          problem("scalar reference to declaration not owned by kernel");
        return;
      }
      const auto *AA = dyn_cast<ArrayAccessExpr>(X);
      if (!AA)
        return;
      if (!OwnedArrays.count(AA->array())) {
        problem("array access to declaration not owned by kernel");
        return;
      }
      if (AA->numSubscripts() != AA->array()->numDims())
        problem("array '" + AA->array()->name() + "' accessed with " +
                std::to_string(AA->numSubscripts()) + " subscripts but has " +
                std::to_string(AA->array()->numDims()) + " dimensions");
      for (const AffineExpr &Sub : AA->subscripts())
        for (int Id : Sub.loopIds())
          if (!ActiveLoops.count(Id))
            problem("subscript of '" + AA->array()->name() +
                    "' references loop id " + std::to_string(Id) +
                    " which is not an enclosing loop");
    });
  }

  void checkStmts(const StmtList &Stmts) {
    for (const StmtPtr &SP : Stmts) {
      const Stmt *S = SP.get();
      switch (S->kind()) {
      case Stmt::Kind::Assign: {
        const auto *A = cast<AssignStmt>(S);
        if (!isa<ScalarRefExpr>(A->dest()) &&
            !isa<ArrayAccessExpr>(A->dest()))
          problem("assignment destination is not a scalar or array access");
        checkExpr(A->dest());
        checkExpr(A->value());
        break;
      }
      case Stmt::Kind::For: {
        const auto *F = cast<ForStmt>(S);
        if (F->step() <= 0)
          problem("loop '" + F->indexName() + "' has nonpositive step");
        if (F->loopId() >= K.nextLoopId())
          problem("loop '" + F->indexName() +
                  "' has an unallocated loop id");
        if (!SeenLoopIds.insert(F->loopId()).second)
          problem("duplicate loop id " + std::to_string(F->loopId()));
        ActiveLoops.insert(F->loopId());
        checkStmts(F->body());
        ActiveLoops.erase(F->loopId());
        break;
      }
      case Stmt::Kind::If: {
        const auto *I = cast<IfStmt>(S);
        checkExpr(I->cond());
        checkStmts(I->thenBody());
        checkStmts(I->elseBody());
        break;
      }
      case Stmt::Kind::Rotate: {
        const auto *R = cast<RotateStmt>(S);
        if (R->chain().size() < 2)
          problem("rotate statement with fewer than two registers");
        std::set<const ScalarDecl *> Unique;
        for (const ScalarDecl *D : R->chain()) {
          if (!OwnedScalars.count(D))
            problem("rotate register not owned by kernel");
          if (!Unique.insert(D).second)
            problem("rotate chain contains a duplicate register");
        }
        break;
      }
      }
    }
  }

  const Kernel &K;
  std::set<const ArrayDecl *> OwnedArrays;
  std::set<const ScalarDecl *> OwnedScalars;
  std::set<int> ActiveLoops;
  std::set<int> SeenLoopIds;
  std::vector<std::string> Problems;
};

} // namespace

std::vector<std::string> defacto::verifyKernel(const Kernel &K) {
  ++NumVerifications;
  return Verifier(K).run();
}

bool defacto::isKernelValid(const Kernel &K) {
  return verifyKernel(K).empty();
}
