//===- ir/Loop.cpp --------------------------------------------------------===//
//
// Part of the simdize project (PLDI 2004 alignment-constrained simdization).
//
//===----------------------------------------------------------------------===//

#include "ir/Loop.h"

#include <cassert>

using namespace simdize;
using namespace simdize::ir;

Array *Loop::createArray(std::string Name, ElemType Ty, int64_t NumElems,
                         unsigned Alignment, bool AlignmentKnown) {
  Arrays.push_back(std::make_unique<Array>(
      std::move(Name), Ty, NumElems, Alignment, AlignmentKnown,
      static_cast<unsigned>(Arrays.size())));
  return Arrays.back().get();
}

Param *Loop::createParam(std::string Name, int64_t ActualValue) {
  Params.push_back(std::make_unique<Param>(std::move(Name), ActualValue));
  return Params.back().get();
}

Stmt &Loop::addStmt(const Array *StoreArray, int64_t StoreOffset,
                    std::unique_ptr<Expr> RHS) {
  Stmts.push_back(
      std::make_unique<Stmt>(StoreArray, StoreOffset, std::move(RHS)));
  return *Stmts.back();
}

Stmt &Loop::addIfStmt(const Array *StoreArray, int64_t StoreOffset,
                      std::unique_ptr<Expr> RHS,
                      std::unique_ptr<Expr> GuardLHS, CmpKind Cmp,
                      std::unique_ptr<Expr> GuardRHS) {
  Stmts.push_back(std::make_unique<Stmt>(StoreArray, StoreOffset,
                                         std::move(RHS), std::move(GuardLHS),
                                         Cmp, std::move(GuardRHS)));
  return *Stmts.back();
}

Stmt &Loop::addReduceStmt(const Array *AccArray, int64_t AccIndex, BinOpKind Op,
                          std::unique_ptr<Expr> RHS) {
  Stmts.push_back(
      std::make_unique<Stmt>(AccArray, AccIndex, Op, std::move(RHS)));
  return *Stmts.back();
}

std::unique_ptr<Expr> ir::cloneExprRemap(
    const Expr &E,
    const std::unordered_map<const Array *, const Array *> &Arrays,
    const std::unordered_map<const Param *, const Param *> &Params) {
  switch (E.getKind()) {
  case ExprKind::ArrayRef: {
    const auto &Ref = cast<ArrayRefExpr>(E);
    const Array *A = Ref.getArray();
    if (auto It = Arrays.find(A); It != Arrays.end())
      A = It->second;
    return std::make_unique<ArrayRefExpr>(A, Ref.getOffset());
  }
  case ExprKind::Splat:
    return E.clone();
  case ExprKind::Param: {
    const Param *P = cast<ParamExpr>(E).getParam();
    if (auto It = Params.find(P); It != Params.end())
      P = It->second;
    return std::make_unique<ParamExpr>(P);
  }
  case ExprKind::BinOp: {
    const auto &BO = cast<BinOpExpr>(E);
    return std::make_unique<BinOpExpr>(
        BO.getOp(), cloneExprRemap(BO.getLHS(), Arrays, Params),
        cloneExprRemap(BO.getRHS(), Arrays, Params));
  }
  }
  assert(false && "unknown expression kind");
  return nullptr;
}

Loop ir::cloneLoop(const Loop &L) {
  Loop Copy;
  std::unordered_map<const Array *, const Array *> ArrayMap;
  std::unordered_map<const Param *, const Param *> ParamMap;
  for (const auto &A : L.getArrays())
    ArrayMap[A.get()] =
        Copy.createArray(A->getName(), A->getElemType(), A->getNumElems(),
                         A->getAlignment(), A->isAlignmentKnown());
  for (const auto &P : L.getParams())
    ParamMap[P.get()] = Copy.createParam(P->getName(), P->getActualValue());
  for (const auto &S : L.getStmts()) {
    const Array *Store = ArrayMap.at(S->getStoreArray());
    auto RHS = cloneExprRemap(S->getRHS(), ArrayMap, ParamMap);
    switch (S->getKind()) {
    case StmtKind::Assign:
      Copy.addStmt(Store, S->getStoreOffset(), std::move(RHS));
      break;
    case StmtKind::If:
      Copy.addIfStmt(Store, S->getStoreOffset(), std::move(RHS),
                     cloneExprRemap(S->getGuardLHS(), ArrayMap, ParamMap),
                     S->getCmpKind(),
                     cloneExprRemap(S->getGuardRHS(), ArrayMap, ParamMap));
      break;
    case StmtKind::Reduce:
      Copy.addReduceStmt(Store, S->getStoreOffset(), S->getReduceOp(),
                         std::move(RHS));
      break;
    }
  }
  Copy.setUpperBound(L.getUpperBound(), L.isUpperBoundKnown());
  return Copy;
}

unsigned Loop::getElemSize() const {
  assert(!Arrays.empty() && "loop references no arrays");
  return Arrays.front()->getElemSize();
}

ElemType Loop::getElemType() const {
  assert(!Arrays.empty() && "loop references no arrays");
  return Arrays.front()->getElemType();
}
