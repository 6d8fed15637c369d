//===- Expr.cpp -----------------------------------------------------------===//
//
// Part of the DEFACTO-DSE project, under the MIT License.
//
//===----------------------------------------------------------------------===//

#include "defacto/IR/Expr.h"

#include "defacto/Support/ErrorHandling.h"

using namespace defacto;

Expr::~Expr() = default;

ExprPtr Expr::clone() const {
  switch (TheKind) {
  case Kind::IntLit: {
    const auto *E = cast<IntLitExpr>(this);
    return std::make_unique<IntLitExpr>(E->value());
  }
  case Kind::LoopIndex: {
    const auto *E = cast<LoopIndexExpr>(this);
    return std::make_unique<LoopIndexExpr>(E->loopId());
  }
  case Kind::ScalarRef: {
    const auto *E = cast<ScalarRefExpr>(this);
    return std::make_unique<ScalarRefExpr>(E->decl());
  }
  case Kind::ArrayAccess: {
    const auto *E = cast<ArrayAccessExpr>(this);
    auto Clone =
        std::make_unique<ArrayAccessExpr>(E->array(), E->subscripts());
    Clone->setSteadyStatePort(E->steadyStatePort());
    return Clone;
  }
  case Kind::Unary: {
    const auto *E = cast<UnaryExpr>(this);
    return std::make_unique<UnaryExpr>(E->op(), E->operand()->clone());
  }
  case Kind::Binary: {
    const auto *E = cast<BinaryExpr>(this);
    return std::make_unique<BinaryExpr>(E->op(), E->lhs()->clone(),
                                        E->rhs()->clone());
  }
  case Kind::Select: {
    const auto *E = cast<SelectExpr>(this);
    return std::make_unique<SelectExpr>(E->cond()->clone(),
                                        E->trueValue()->clone(),
                                        E->falseValue()->clone());
  }
  }
  defacto_unreachable("unknown expression kind");
}

bool defacto::isComparisonOp(BinaryOp Op) {
  switch (Op) {
  case BinaryOp::CmpEq:
  case BinaryOp::CmpNe:
  case BinaryOp::CmpLt:
  case BinaryOp::CmpLe:
  case BinaryOp::CmpGt:
  case BinaryOp::CmpGe:
    return true;
  default:
    return false;
  }
}

const char *defacto::binaryOpSpelling(BinaryOp Op) {
  switch (Op) {
  case BinaryOp::Add:
    return "+";
  case BinaryOp::Sub:
    return "-";
  case BinaryOp::Mul:
    return "*";
  case BinaryOp::Div:
    return "/";
  case BinaryOp::Mod:
    return "%";
  case BinaryOp::Min:
    return "min";
  case BinaryOp::Max:
    return "max";
  case BinaryOp::And:
    return "&";
  case BinaryOp::Or:
    return "|";
  case BinaryOp::Xor:
    return "^";
  case BinaryOp::Shl:
    return "<<";
  case BinaryOp::Shr:
    return ">>";
  case BinaryOp::CmpEq:
    return "==";
  case BinaryOp::CmpNe:
    return "!=";
  case BinaryOp::CmpLt:
    return "<";
  case BinaryOp::CmpLe:
    return "<=";
  case BinaryOp::CmpGt:
    return ">";
  case BinaryOp::CmpGe:
    return ">=";
  }
  defacto_unreachable("unknown binary op");
}
