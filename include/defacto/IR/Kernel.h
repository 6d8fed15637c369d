//===- Kernel.h - A loop-nest computation ----------------------*- C++ -*-===//
//
// Part of the DEFACTO-DSE project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A Kernel is one loop-nest computation to be mapped to hardware: the set
/// of array and scalar declarations plus a top-level statement list
/// (typically a single perfectly nested loop before transformation). The
/// Kernel owns all declarations and statements.
///
//===----------------------------------------------------------------------===//

#ifndef DEFACTO_IR_KERNEL_H
#define DEFACTO_IR_KERNEL_H

#include "defacto/IR/Stmt.h"
#include "defacto/Support/Error.h"

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

namespace defacto {

/// One loop-nest computation plus its variable declarations.
class Kernel {
public:
  explicit Kernel(std::string Name) : Name(std::move(Name)) {}

  Kernel(const Kernel &) = delete;
  Kernel &operator=(const Kernel &) = delete;
  Kernel(Kernel &&) = default;
  Kernel &operator=(Kernel &&) = default;

  const std::string &name() const { return Name; }
  void setName(std::string N) { Name = std::move(N); }

  /// Creates and owns a new array declaration. Names must be unique
  /// across arrays and scalars; fatal on violation (use tryMakeArray for
  /// the recoverable channel).
  ArrayDecl *makeArray(std::string ArrName, ScalarType ElemTy,
                       std::vector<int64_t> Dims);

  /// Creates and owns a new scalar declaration.
  ScalarDecl *makeScalar(std::string VarName, ScalarType Ty,
                         bool IsCompilerTemp = false);

  /// Recoverable variants: fail with ErrorCode::InvalidInput on a
  /// duplicate name or a non-positive array dimension instead of
  /// aborting. For callers handling untrusted declarations.
  Expected<ArrayDecl *> tryMakeArray(std::string ArrName, ScalarType ElemTy,
                                     std::vector<int64_t> Dims);
  Expected<ScalarDecl *> tryMakeScalar(std::string VarName, ScalarType Ty,
                                       bool IsCompilerTemp = false);

  /// Creates a scalar with a unique name derived from \p Prefix.
  ScalarDecl *makeTempScalar(const std::string &Prefix, ScalarType Ty);

  /// Looks up a declaration by name; null if absent.
  ArrayDecl *findArray(const std::string &ArrName) const;
  ScalarDecl *findScalar(const std::string &VarName) const;

  const std::vector<std::unique_ptr<ArrayDecl>> &arrays() const {
    return Arrays;
  }
  const std::vector<std::unique_ptr<ScalarDecl>> &scalars() const {
    return Scalars;
  }

  StmtList &body() { return Body; }
  const StmtList &body() const { return Body; }

  /// Allocates a kernel-unique loop id for a new ForStmt.
  int allocateLoopId() { return NextLoopId++; }
  int nextLoopId() const { return NextLoopId; }
  /// Ensures future ids are > \p Id (used when importing loops).
  void reserveLoopIdsThrough(int Id);

  /// Deep copy: clones declarations and statements, remapping all
  /// declaration pointers into the new kernel.
  Kernel clone() const;

  /// Outermost ForStmt of the kernel body if the body is a single loop,
  /// else null.
  ForStmt *topLoop() const;

private:
  std::string Name;
  std::vector<std::unique_ptr<ArrayDecl>> Arrays;
  std::vector<std::unique_ptr<ScalarDecl>> Scalars;
  /// Name -> declaration indexes kept in lockstep with Arrays/Scalars so
  /// findArray/findScalar (and the name-uniqueness probes in tryMake*)
  /// are O(1); scalar replacement mints hundreds of temps per candidate
  /// and the linear scans were quadratic in practice. Decl pointers are
  /// stable (unique_ptr), so moves of the Kernel keep the index valid.
  std::unordered_map<std::string, ArrayDecl *> ArrayIndex;
  std::unordered_map<std::string, ScalarDecl *> ScalarIndex;
  StmtList Body;
  int NextLoopId = 0;
  unsigned NextTempId = 0;
};

} // namespace defacto

#endif // DEFACTO_IR_KERNEL_H
