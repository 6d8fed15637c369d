//===- Expr.h - Expression tree nodes --------------------------*- C++ -*-===//
//
// Part of the DEFACTO-DSE project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Expression nodes for loop-nest bodies: integer literals, scalar
/// references, affine array accesses, unary and binary operators, and a
/// select (ternary) node used for conditional values such as SOBEL's
/// clamping. Nodes use kind-based RTTI (Casting.h) and own their children.
///
//===----------------------------------------------------------------------===//

#ifndef DEFACTO_IR_EXPR_H
#define DEFACTO_IR_EXPR_H

#include "defacto/IR/AffineExpr.h"
#include "defacto/IR/Decl.h"
#include "defacto/Support/Casting.h"

#include <memory>
#include <vector>

namespace defacto {

class Expr;
using ExprPtr = std::unique_ptr<Expr>;

/// Base of the expression hierarchy.
class Expr {
public:
  enum class Kind {
    IntLit,
    LoopIndex,
    ScalarRef,
    ArrayAccess,
    Unary,
    Binary,
    Select,
  };

  virtual ~Expr();

  Kind kind() const { return TheKind; }

  /// Deep copy. Decl pointers are shared (declarations are owned by the
  /// Kernel); use Kernel::clone for a whole-program copy that remaps them.
  ExprPtr clone() const;

protected:
  explicit Expr(Kind K) : TheKind(K) {}

private:
  const Kind TheKind;
};

/// A signed integer literal.
class IntLitExpr : public Expr {
public:
  explicit IntLitExpr(int64_t Value) : Expr(Kind::IntLit), Value(Value) {}

  int64_t value() const { return Value; }

  static bool classof(const Expr *E) { return E->kind() == Kind::IntLit; }

private:
  int64_t Value;
};

/// A use of a loop index variable in a general (non-subscript) expression,
/// e.g. the `j == 0` guard of a conditional register load. Inside array
/// subscripts loop indices appear as AffineExpr terms instead.
class LoopIndexExpr : public Expr {
public:
  explicit LoopIndexExpr(int LoopId) : Expr(Kind::LoopIndex), LoopId(LoopId) {}

  int loopId() const { return LoopId; }

  static bool classof(const Expr *E) { return E->kind() == Kind::LoopIndex; }

private:
  int LoopId;
};

/// A read of a scalar variable.
class ScalarRefExpr : public Expr {
public:
  explicit ScalarRefExpr(const ScalarDecl *Decl)
      : Expr(Kind::ScalarRef), Decl(Decl) {}

  const ScalarDecl *decl() const { return Decl; }
  void setDecl(const ScalarDecl *D) { Decl = D; }

  static bool classof(const Expr *E) { return E->kind() == Kind::ScalarRef; }

private:
  const ScalarDecl *Decl;
};

/// An affine access to an array: A[f1(i..)][f2(i..)]... with one affine
/// subscript per dimension.
class ArrayAccessExpr : public Expr {
public:
  ArrayAccessExpr(const ArrayDecl *Array, std::vector<AffineExpr> Subscripts)
      : Expr(Kind::ArrayAccess), Array(Array),
        Subscripts(std::move(Subscripts)) {}

  const ArrayDecl *array() const { return Array; }
  void setArray(const ArrayDecl *A) { Array = A; }

  unsigned numSubscripts() const { return Subscripts.size(); }
  const AffineExpr &subscript(unsigned I) const { return Subscripts[I]; }
  const std::vector<AffineExpr> &subscripts() const { return Subscripts; }
  void setSubscript(unsigned I, AffineExpr E) {
    Subscripts[I] = std::move(E);
  }
  void setSubscripts(std::vector<AffineExpr> S) {
    Subscripts = std::move(S);
  }

  /// Physical memory port under a steady-state (iteration-rotating)
  /// cyclic layout, assigned by the data layout pass when array renaming
  /// is not applicable; -1 when the access uses its array's memory id.
  /// Purely a scheduling annotation: functional semantics are unchanged.
  int steadyStatePort() const { return SteadyPort; }
  void setSteadyStatePort(int Port) { SteadyPort = Port; }

  static bool classof(const Expr *E) {
    return E->kind() == Kind::ArrayAccess;
  }

private:
  const ArrayDecl *Array;
  std::vector<AffineExpr> Subscripts;
  int SteadyPort = -1;
};

/// Unary operator codes.
enum class UnaryOp { Neg, Abs, Not };

/// Application of a unary operator.
class UnaryExpr : public Expr {
public:
  UnaryExpr(UnaryOp Op, ExprPtr Operand)
      : Expr(Kind::Unary), Op(Op), Operand(std::move(Operand)) {}

  UnaryOp op() const { return Op; }
  const Expr *operand() const { return Operand.get(); }
  Expr *operand() { return Operand.get(); }
  ExprPtr takeOperand() { return std::move(Operand); }
  void setOperand(ExprPtr E) { Operand = std::move(E); }
  /// Mutable owning slot, for rewriting traversals.
  ExprPtr &operandRef() { return Operand; }

  static bool classof(const Expr *E) { return E->kind() == Kind::Unary; }

private:
  UnaryOp Op;
  ExprPtr Operand;
};

/// Binary operator codes. Comparisons produce 0/1.
enum class BinaryOp {
  Add,
  Sub,
  Mul,
  Div,
  Mod,
  Min,
  Max,
  And,
  Or,
  Xor,
  Shl,
  Shr,
  CmpEq,
  CmpNe,
  CmpLt,
  CmpLe,
  CmpGt,
  CmpGe,
};

/// True for the six comparison opcodes.
bool isComparisonOp(BinaryOp Op);

/// C spelling of \p Op ("+", "=="...; Min/Max render as "min"/"max").
const char *binaryOpSpelling(BinaryOp Op);

/// Application of a binary operator.
class BinaryExpr : public Expr {
public:
  BinaryExpr(BinaryOp Op, ExprPtr Lhs, ExprPtr Rhs)
      : Expr(Kind::Binary), Op(Op), Lhs(std::move(Lhs)),
        Rhs(std::move(Rhs)) {}

  BinaryOp op() const { return Op; }
  const Expr *lhs() const { return Lhs.get(); }
  Expr *lhs() { return Lhs.get(); }
  const Expr *rhs() const { return Rhs.get(); }
  Expr *rhs() { return Rhs.get(); }
  void setLhs(ExprPtr E) { Lhs = std::move(E); }
  void setRhs(ExprPtr E) { Rhs = std::move(E); }
  /// Mutable owning slots, for rewriting traversals.
  ExprPtr &lhsRef() { return Lhs; }
  ExprPtr &rhsRef() { return Rhs; }

  static bool classof(const Expr *E) { return E->kind() == Kind::Binary; }

private:
  BinaryOp Op;
  ExprPtr Lhs, Rhs;
};

/// Conditional value: Cond != 0 ? TrueValue : FalseValue. Behavioral
/// synthesis maps this to a multiplexer.
class SelectExpr : public Expr {
public:
  SelectExpr(ExprPtr Cond, ExprPtr TrueValue, ExprPtr FalseValue)
      : Expr(Kind::Select), Cond(std::move(Cond)),
        TrueValue(std::move(TrueValue)), FalseValue(std::move(FalseValue)) {}

  const Expr *cond() const { return Cond.get(); }
  Expr *cond() { return Cond.get(); }
  const Expr *trueValue() const { return TrueValue.get(); }
  Expr *trueValue() { return TrueValue.get(); }
  const Expr *falseValue() const { return FalseValue.get(); }
  Expr *falseValue() { return FalseValue.get(); }
  /// Mutable owning slots, for rewriting traversals.
  ExprPtr &condRef() { return Cond; }
  ExprPtr &trueValueRef() { return TrueValue; }
  ExprPtr &falseValueRef() { return FalseValue; }

  static bool classof(const Expr *E) { return E->kind() == Kind::Select; }

private:
  ExprPtr Cond, TrueValue, FalseValue;
};

} // namespace defacto

#endif // DEFACTO_IR_EXPR_H
