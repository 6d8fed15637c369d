//===- Stmt.h - Statement tree nodes ---------------------------*- C++ -*-===//
//
// Part of the DEFACTO-DSE project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Statement nodes: assignments (scalar or array destination), counted
/// `for` loops with constant bounds, `if`, and the register-rotation
/// pseudo-op produced by scalar replacement (Figure 1(c) of the paper).
///
//===----------------------------------------------------------------------===//

#ifndef DEFACTO_IR_STMT_H
#define DEFACTO_IR_STMT_H

#include "defacto/IR/Expr.h"

#include <memory>
#include <vector>

namespace defacto {

class Stmt;
using StmtPtr = std::unique_ptr<Stmt>;
using StmtList = std::vector<StmtPtr>;

/// Base of the statement hierarchy.
class Stmt {
public:
  enum class Kind { Assign, For, If, Rotate };

  virtual ~Stmt();

  Kind kind() const { return TheKind; }

  /// Deep copy; declaration pointers are shared (see Expr::clone).
  StmtPtr clone() const;

protected:
  explicit Stmt(Kind K) : TheKind(K) {}

private:
  const Kind TheKind;
};

/// Deep-copies a statement list.
StmtList cloneStmtList(const StmtList &Stmts);

/// An assignment. The destination must be a ScalarRefExpr or an
/// ArrayAccessExpr; this is enforced by the verifier.
class AssignStmt : public Stmt {
public:
  AssignStmt(ExprPtr Dest, ExprPtr Value)
      : Stmt(Kind::Assign), Dest(std::move(Dest)), Value(std::move(Value)) {}

  const Expr *dest() const { return Dest.get(); }
  Expr *dest() { return Dest.get(); }
  const Expr *value() const { return Value.get(); }
  Expr *value() { return Value.get(); }
  void setDest(ExprPtr E) { Dest = std::move(E); }
  void setValue(ExprPtr E) { Value = std::move(E); }
  /// Mutable owning slots, for rewriting traversals.
  ExprPtr &destRef() { return Dest; }
  ExprPtr &valueRef() { return Value; }

  static bool classof(const Stmt *S) { return S->kind() == Kind::Assign; }

private:
  ExprPtr Dest, Value;
};

/// A counted loop `for (i = Lower; i < Upper; i += Step)`. The index
/// variable is identified by a kernel-unique loop id; affine expressions
/// refer to it by that id.
class ForStmt : public Stmt {
public:
  ForStmt(int LoopId, std::string IndexName, int64_t Lower, int64_t Upper,
          int64_t Step)
      : Stmt(Kind::For), LoopId(LoopId), IndexName(std::move(IndexName)),
        Lower(Lower), Upper(Upper), Step(Step) {}

  int loopId() const { return LoopId; }
  /// Reassigns the loop id; used when cloned code (e.g. a peeled
  /// iteration) must not share ids with the original loops.
  void setLoopId(int Id) { LoopId = Id; }
  const std::string &indexName() const { return IndexName; }
  void setIndexName(std::string N) { IndexName = std::move(N); }

  int64_t lower() const { return Lower; }
  int64_t upper() const { return Upper; }
  int64_t step() const { return Step; }
  void setBounds(int64_t L, int64_t U, int64_t S) {
    Lower = L;
    Upper = U;
    Step = S;
  }

  /// Number of iterations executed (0 if the range is empty).
  int64_t tripCount() const;

  StmtList &body() { return Body; }
  const StmtList &body() const { return Body; }

  static bool classof(const Stmt *S) { return S->kind() == Kind::For; }

private:
  int LoopId;
  std::string IndexName;
  int64_t Lower, Upper, Step;
  StmtList Body;
};

/// A two-armed conditional.
class IfStmt : public Stmt {
public:
  explicit IfStmt(ExprPtr Cond) : Stmt(Kind::If), Cond(std::move(Cond)) {}

  const Expr *cond() const { return Cond.get(); }
  Expr *cond() { return Cond.get(); }
  void setCond(ExprPtr E) { Cond = std::move(E); }
  /// Mutable owning slot, for rewriting traversals.
  ExprPtr &condRef() { return Cond; }

  StmtList &thenBody() { return Then; }
  const StmtList &thenBody() const { return Then; }
  StmtList &elseBody() { return Else; }
  const StmtList &elseBody() const { return Else; }

  static bool classof(const Stmt *S) { return S->kind() == Kind::If; }

private:
  ExprPtr Cond;
  StmtList Then, Else;
};

/// Rotates a register chain left by one position:
///   (r0, r1, ..., rN-1) <- (r1, ..., rN-1, r0).
/// Produced by scalar replacement when reuse is carried by an outer loop;
/// hardware implements it as a parallel register shift in a single cycle.
class RotateStmt : public Stmt {
public:
  explicit RotateStmt(std::vector<const ScalarDecl *> Chain)
      : Stmt(Kind::Rotate), Chain(std::move(Chain)) {}

  const std::vector<const ScalarDecl *> &chain() const { return Chain; }
  std::vector<const ScalarDecl *> &chain() { return Chain; }

  static bool classof(const Stmt *S) { return S->kind() == Kind::Rotate; }

private:
  std::vector<const ScalarDecl *> Chain;
};

} // namespace defacto

#endif // DEFACTO_IR_STMT_H
