//===- Kernel.cpp ---------------------------------------------------------===//
//
// Part of the DEFACTO-DSE project, under the MIT License.
//
//===----------------------------------------------------------------------===//

#include "defacto/IR/Kernel.h"

#include "defacto/IR/IRUtils.h"
#include "defacto/Support/ErrorHandling.h"

#include <cassert>

using namespace defacto;

ArrayDecl *Kernel::makeArray(std::string ArrName, ScalarType ElemTy,
                             std::vector<int64_t> Dims) {
  Expected<ArrayDecl *> A =
      tryMakeArray(std::move(ArrName), ElemTy, std::move(Dims));
  if (!A)
    reportFatalError("makeArray: invalid declaration (duplicate name or "
                     "bad dimensions)");
  return *A;
}

ScalarDecl *Kernel::makeScalar(std::string VarName, ScalarType Ty,
                               bool IsCompilerTemp) {
  Expected<ScalarDecl *> S =
      tryMakeScalar(std::move(VarName), Ty, IsCompilerTemp);
  if (!S)
    reportFatalError("makeScalar: duplicate declaration name");
  return *S;
}

Expected<ArrayDecl *> Kernel::tryMakeArray(std::string ArrName,
                                           ScalarType ElemTy,
                                           std::vector<int64_t> Dims) {
  if (findArray(ArrName) || findScalar(ArrName))
    return Status::error(ErrorCode::InvalidInput,
                         "redeclaration of '" + ArrName + "'");
  if (Dims.empty())
    return Status::error(ErrorCode::InvalidInput,
                         "array '" + ArrName + "' has no dimensions");
  for (int64_t D : Dims)
    if (D <= 0)
      return Status::error(ErrorCode::InvalidInput,
                           "array '" + ArrName +
                               "' has a non-positive dimension");
  Arrays.push_back(std::make_unique<ArrayDecl>(std::move(ArrName), ElemTy,
                                               std::move(Dims)));
  ArrayIndex.emplace(Arrays.back()->name(), Arrays.back().get());
  return Arrays.back().get();
}

Expected<ScalarDecl *> Kernel::tryMakeScalar(std::string VarName,
                                             ScalarType Ty,
                                             bool IsCompilerTemp) {
  if (findArray(VarName) || findScalar(VarName))
    return Status::error(ErrorCode::InvalidInput,
                         "redeclaration of '" + VarName + "'");
  Scalars.push_back(
      std::make_unique<ScalarDecl>(std::move(VarName), Ty, IsCompilerTemp));
  ScalarIndex.emplace(Scalars.back()->name(), Scalars.back().get());
  return Scalars.back().get();
}

ScalarDecl *Kernel::makeTempScalar(const std::string &Prefix, ScalarType Ty) {
  std::string TempName;
  do {
    TempName = Prefix + "_" + std::to_string(NextTempId++);
  } while (findScalar(TempName) || findArray(TempName));
  return makeScalar(TempName, Ty, /*IsCompilerTemp=*/true);
}

ArrayDecl *Kernel::findArray(const std::string &ArrName) const {
  auto It = ArrayIndex.find(ArrName);
  return It == ArrayIndex.end() ? nullptr : It->second;
}

ScalarDecl *Kernel::findScalar(const std::string &VarName) const {
  auto It = ScalarIndex.find(VarName);
  return It == ScalarIndex.end() ? nullptr : It->second;
}

void Kernel::reserveLoopIdsThrough(int Id) {
  if (NextLoopId <= Id)
    NextLoopId = Id + 1;
}

ForStmt *Kernel::topLoop() const {
  if (Body.size() != 1)
    return nullptr;
  return dyn_cast<ForStmt>(Body.front().get());
}

Kernel Kernel::clone() const {
  Kernel New(Name);
  New.NextLoopId = NextLoopId;
  New.NextTempId = NextTempId;
  New.Arrays.reserve(Arrays.size());
  New.Scalars.reserve(Scalars.size());
  New.ArrayIndex.reserve(Arrays.size());
  New.ScalarIndex.reserve(Scalars.size());

  std::unordered_map<const ArrayDecl *, ArrayDecl *> ArrayMap;
  std::unordered_map<const ScalarDecl *, ScalarDecl *> ScalarMap;
  ArrayMap.reserve(Arrays.size());
  ScalarMap.reserve(Scalars.size());

  for (const auto &A : Arrays) {
    ArrayDecl *NewA = New.makeArray(A->name(), A->elementType(), A->dims());
    NewA->setVirtualMemId(A->virtualMemId());
    NewA->setPhysicalMemId(A->physicalMemId());
    ArrayMap[A.get()] = NewA;
  }
  // Renaming origins must be remapped after all arrays exist.
  for (const auto &A : Arrays) {
    if (const ArrayDecl *Origin = A->renamedFrom()) {
      auto It = ArrayMap.find(Origin);
      assert(It != ArrayMap.end() && "renaming origin not owned by kernel");
      ArrayMap[A.get()]->setRenaming(It->second, A->bankDim(),
                                     A->bankOffset(), A->bankStride());
    }
  }
  for (const auto &S : Scalars)
    ScalarMap[S.get()] = New.makeScalar(S->name(), S->type(),
                                        S->isCompilerTemp());

  New.Body = cloneStmtList(Body);

  // Remap declaration pointers in the cloned tree.
  walkExprsInStmts(New.Body, [&](Expr *E) {
    if (auto *SR = dyn_cast<ScalarRefExpr>(E)) {
      auto It = ScalarMap.find(SR->decl());
      assert(It != ScalarMap.end() && "scalar not owned by kernel");
      SR->setDecl(It->second);
    } else if (auto *AA = dyn_cast<ArrayAccessExpr>(E)) {
      auto It = ArrayMap.find(AA->array());
      assert(It != ArrayMap.end() && "array not owned by kernel");
      AA->setArray(It->second);
    }
  });
  walkStmts(New.Body, [&](Stmt *S) {
    auto *R = dyn_cast<RotateStmt>(S);
    if (!R)
      return;
    for (const ScalarDecl *&D : R->chain()) {
      auto It = ScalarMap.find(D);
      assert(It != ScalarMap.end() && "rotate register not owned by kernel");
      D = It->second;
    }
  });
  return New;
}
