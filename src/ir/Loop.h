//===- ir/Loop.h - The innermost loop being simdized ----------------------===//
//
// Part of the simdize project (PLDI 2004 alignment-constrained simdization).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The top-level IR object: a normalized innermost loop
///   for (i = 0; i < ub; ++i) { stmt_1; ...; stmt_s; }
/// owning its arrays and statements. The trip count may be compile-time
/// known or a runtime value (Section 4.4 handles unknown bounds).
///
//===----------------------------------------------------------------------===//

#ifndef SIMDIZE_IR_LOOP_H
#define SIMDIZE_IR_LOOP_H

#include "ir/Array.h"
#include "ir/Stmt.h"

#include <memory>
#include <unordered_map>
#include <vector>

namespace simdize {
namespace ir {

/// A normalized loop with counter i in [0, ub).
class Loop {
public:
  Loop() = default;
  Loop(const Loop &) = delete;
  Loop &operator=(const Loop &) = delete;
  Loop(Loop &&) = default;
  Loop &operator=(Loop &&) = default;

  /// Creates and owns a new array; its index is its declaration position.
  Array *createArray(std::string Name, ElemType Ty, int64_t NumElems,
                     unsigned Alignment, bool AlignmentKnown);

  /// Creates and owns a new runtime scalar parameter.
  Param *createParam(std::string Name, int64_t ActualValue);

  /// Appends a plain assignment StoreArray[i+StoreOffset] = RHS.
  Stmt &addStmt(const Array *StoreArray, int64_t StoreOffset,
                std::unique_ptr<Expr> RHS);

  /// Appends a guarded assignment
  ///   if (GuardLHS <Cmp> GuardRHS) StoreArray[i+StoreOffset] = RHS.
  Stmt &addIfStmt(const Array *StoreArray, int64_t StoreOffset,
                  std::unique_ptr<Expr> RHS, std::unique_ptr<Expr> GuardLHS,
                  CmpKind Cmp, std::unique_ptr<Expr> GuardRHS);

  /// Appends a reduction AccArray[AccIndex] <Op>= RHS (AccIndex absolute).
  Stmt &addReduceStmt(const Array *AccArray, int64_t AccIndex, BinOpKind Op,
                      std::unique_ptr<Expr> RHS);

  /// Sets the trip count; \p Known selects compile-time vs. runtime bound.
  void setUpperBound(int64_t UB, bool Known) {
    UpperBound = UB;
    UBKnown = Known;
  }

  int64_t getUpperBound() const { return UpperBound; }
  bool isUpperBoundKnown() const { return UBKnown; }

  const std::vector<std::unique_ptr<Array>> &getArrays() const {
    return Arrays;
  }
  const std::vector<std::unique_ptr<Param>> &getParams() const {
    return Params;
  }
  const std::vector<std::unique_ptr<Stmt>> &getStmts() const { return Stmts; }
  std::vector<std::unique_ptr<Stmt>> &getStmts() { return Stmts; }

  /// The common element size D of every reference in the loop, in bytes.
  /// Requires at least one array.
  unsigned getElemSize() const;

  /// The common element type of every reference in the loop.
  ElemType getElemType() const;

private:
  std::vector<std::unique_ptr<Array>> Arrays;
  std::vector<std::unique_ptr<Param>> Params;
  std::vector<std::unique_ptr<Stmt>> Stmts;
  int64_t UpperBound = 0;
  bool UBKnown = true;
};

/// Deep-copies \p L: fresh arrays and params with identical properties,
/// statements cloned with references remapped onto the copies. Loop itself
/// is move-only (statements hold raw Array pointers), so this is the one
/// way to duplicate a loop — the fuzzer's shrinker uses it to derive
/// reduced candidates without destroying the original.
Loop cloneLoop(const Loop &L);

/// Clones \p E with every array and parameter reference remapped through
/// the given tables; entries missing from a table keep the original
/// pointer. Exposed for IR rewriters that graft expression trees from one
/// loop into another.
std::unique_ptr<Expr>
cloneExprRemap(const Expr &E,
               const std::unordered_map<const Array *, const Array *> &Arrays,
               const std::unordered_map<const Param *, const Param *> &Params);

} // namespace ir
} // namespace simdize

#endif // SIMDIZE_IR_LOOP_H
