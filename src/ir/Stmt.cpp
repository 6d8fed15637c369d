//===- Stmt.cpp -----------------------------------------------------------===//
//
// Part of the DEFACTO-DSE project, under the MIT License.
//
//===----------------------------------------------------------------------===//

#include "defacto/IR/Stmt.h"

#include "defacto/Support/ErrorHandling.h"
#include "defacto/Support/MathExtras.h"

using namespace defacto;

Stmt::~Stmt() = default;

StmtList defacto::cloneStmtList(const StmtList &Stmts) {
  StmtList Out;
  Out.reserve(Stmts.size());
  for (const StmtPtr &S : Stmts)
    Out.push_back(S->clone());
  return Out;
}

StmtPtr Stmt::clone() const {
  switch (TheKind) {
  case Kind::Assign: {
    const auto *S = cast<AssignStmt>(this);
    return std::make_unique<AssignStmt>(S->dest()->clone(),
                                        S->value()->clone());
  }
  case Kind::For: {
    const auto *S = cast<ForStmt>(this);
    auto New = std::make_unique<ForStmt>(S->loopId(), S->indexName(),
                                         S->lower(), S->upper(), S->step());
    New->body() = cloneStmtList(S->body());
    return New;
  }
  case Kind::If: {
    const auto *S = cast<IfStmt>(this);
    auto New = std::make_unique<IfStmt>(S->cond()->clone());
    New->thenBody() = cloneStmtList(S->thenBody());
    New->elseBody() = cloneStmtList(S->elseBody());
    return New;
  }
  case Kind::Rotate: {
    const auto *S = cast<RotateStmt>(this);
    return std::make_unique<RotateStmt>(S->chain());
  }
  }
  defacto_unreachable("unknown statement kind");
}

int64_t ForStmt::tripCount() const {
  if (Upper <= Lower)
    return 0;
  return ceilDiv(Upper - Lower, Step);
}
