//===- ir/Expr.h - Expression trees of the scalar loop IR ----------------===//
//
// Part of the simdize project (PLDI 2004 alignment-constrained simdization).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Right-hand-side expressions of loop statements. Three node kinds match
/// the paper's assumptions (Section 4.1): stride-one array references
/// A[i+c], loop-invariant scalars (which simdize to vsplat), and binary
/// arithmetic. LLVM-style isa<>/cast<>-via-kind dispatch is used instead of
/// RTTI.
///
//===----------------------------------------------------------------------===//

#ifndef SIMDIZE_IR_EXPR_H
#define SIMDIZE_IR_EXPR_H

#include "ir/Array.h"

#include <cassert>
#include <cstdint>
#include <functional>
#include <memory>

namespace simdize {
namespace ir {

/// Discriminator for Expr subclasses.
enum class ExprKind {
  ArrayRef,
  Splat,
  Param,
  BinOp,
};

/// A loop-invariant runtime scalar (a kernel parameter such as a blend
/// factor). The simdizer sees only its name; ActualValue exists so the
/// simulator can run the program, exactly like a runtime trip count.
class Param {
public:
  Param(std::string Name, int64_t ActualValue)
      : Name(std::move(Name)), ActualValue(ActualValue) {}

  const std::string &getName() const { return Name; }
  int64_t getActualValue() const { return ActualValue; }

private:
  std::string Name;
  int64_t ActualValue;
};

/// Base class of all RHS expression nodes.
class Expr {
public:
  virtual ~Expr() = default;

  ExprKind getKind() const { return Kind; }

  /// Deep-copies this expression tree.
  virtual std::unique_ptr<Expr> clone() const = 0;

  /// Structural equality (same shape, arrays, offsets, constants).
  virtual bool equals(const Expr &Other) const = 0;

  /// Invokes \p Fn on this node and every descendant, preorder.
  void walk(const std::function<void(const Expr &)> &Fn) const;

protected:
  explicit Expr(ExprKind Kind) : Kind(Kind) {}

private:
  ExprKind Kind;
};

/// A stride-one array reference A[i + Offset], where i is the loop counter.
class ArrayRefExpr : public Expr {
public:
  ArrayRefExpr(const Array *Arr, int64_t Offset)
      : Expr(ExprKind::ArrayRef), Arr(Arr), Offset(Offset) {
    assert(Arr && "array reference needs an array");
  }

  const Array *getArray() const { return Arr; }
  int64_t getOffset() const { return Offset; }

  std::unique_ptr<Expr> clone() const override;
  bool equals(const Expr &Other) const override;

  static bool classof(const Expr *E) {
    return E->getKind() == ExprKind::ArrayRef;
  }

private:
  const Array *Arr;
  int64_t Offset;
};

/// A loop-invariant scalar value, replicated across all vector slots when
/// simdized (stream offset ⊥ in the data reorganization graph).
class SplatExpr : public Expr {
public:
  explicit SplatExpr(int64_t Value) : Expr(ExprKind::Splat), Value(Value) {}

  int64_t getValue() const { return Value; }

  std::unique_ptr<Expr> clone() const override;
  bool equals(const Expr &Other) const override;

  static bool classof(const Expr *E) {
    return E->getKind() == ExprKind::Splat;
  }

private:
  int64_t Value;
};

/// A loop-invariant runtime scalar used as a register stream; simdizes to
/// vsplat of a parameter register (stream offset ⊥, like SplatExpr).
class ParamExpr : public Expr {
public:
  explicit ParamExpr(const Param *P) : Expr(ExprKind::Param), P(P) {
    assert(P && "parameter reference needs a parameter");
  }

  const Param *getParam() const { return P; }

  std::unique_ptr<Expr> clone() const override;
  bool equals(const Expr &Other) const override;

  static bool classof(const Expr *E) {
    return E->getKind() == ExprKind::Param;
  }

private:
  const Param *P;
};

/// Element-wise binary operations. All but Sub are associative and
/// commutative, which the common-offset reassociation optimization
/// exploits. Min/Max compare lanes as signed values (AltiVec's vec_min /
/// vec_max); And/Or/Xor are bitwise (vec_and / vec_or / vec_xor).
enum class BinOpKind {
  Add,
  Sub,
  Mul,
  Min,
  Max,
  And,
  Or,
  Xor,
};

/// Returns a printable operator ("+", "-", "*", "min", ...).
const char *binOpSpelling(BinOpKind Op);

/// Returns an instruction-style mnemonic ("add", "sub", "mul", "min",
/// "max", "and", "or", "xor") used by the vector IR printer and the
/// native kernel emitter.
const char *binOpMnemonic(BinOpKind Op);

/// Returns true for operators that may be freely regrouped and reordered.
bool isAssociativeCommutative(BinOpKind Op);

/// A binary arithmetic node.
class BinOpExpr : public Expr {
public:
  BinOpExpr(BinOpKind Op, std::unique_ptr<Expr> LHS, std::unique_ptr<Expr> RHS)
      : Expr(ExprKind::BinOp), Op(Op), LHS(std::move(LHS)),
        RHS(std::move(RHS)) {
    assert(this->LHS && this->RHS && "binop needs two operands");
  }

  BinOpKind getOp() const { return Op; }
  const Expr &getLHS() const { return *LHS; }
  const Expr &getRHS() const { return *RHS; }

  /// Replaces the operands; used by the reassociation pass.
  void setLHS(std::unique_ptr<Expr> E) { LHS = std::move(E); }
  void setRHS(std::unique_ptr<Expr> E) { RHS = std::move(E); }
  std::unique_ptr<Expr> takeLHS() { return std::move(LHS); }
  std::unique_ptr<Expr> takeRHS() { return std::move(RHS); }

  std::unique_ptr<Expr> clone() const override;
  bool equals(const Expr &Other) const override;

  static bool classof(const Expr *E) {
    return E->getKind() == ExprKind::BinOp;
  }

private:
  BinOpKind Op;
  std::unique_ptr<Expr> LHS;
  std::unique_ptr<Expr> RHS;
};

/// LLVM-style isa<> over ExprKind.
template <typename T> bool isa(const Expr &E) { return T::classof(&E); }

/// LLVM-style cast<>; asserts on kind mismatch.
template <typename T> const T &cast(const Expr &E) {
  assert(T::classof(&E) && "cast to wrong expression kind");
  return static_cast<const T &>(E);
}

/// LLVM-style dyn_cast<>; returns nullptr on kind mismatch.
template <typename T> const T *dyn_cast(const Expr &E) {
  return T::classof(&E) ? static_cast<const T *>(&E) : nullptr;
}

/// Mutable variants.
template <typename T> T &cast(Expr &E) {
  assert(T::classof(&E) && "cast to wrong expression kind");
  return static_cast<T &>(E);
}
template <typename T> T *dyn_cast(Expr &E) {
  return T::classof(&E) ? static_cast<T *>(&E) : nullptr;
}

} // namespace ir
} // namespace simdize

#endif // SIMDIZE_IR_EXPR_H
