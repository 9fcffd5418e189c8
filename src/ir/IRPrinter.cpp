//===- ir/IRPrinter.cpp ---------------------------------------------------===//
//
// Part of the simdize project (PLDI 2004 alignment-constrained simdization).
//
//===----------------------------------------------------------------------===//

#include "ir/IRPrinter.h"

#include "ir/Loop.h"
#include "support/Debug.h"
#include "support/Format.h"

#include <sstream>

using namespace simdize;
using namespace simdize::ir;

static std::string printIndex(int64_t Offset) {
  if (Offset == 0)
    return "i";
  if (Offset > 0)
    return strf("i+%lld", static_cast<long long>(Offset));
  return strf("i-%lld", static_cast<long long>(-Offset));
}

std::string ir::printExpr(const Expr &E) {
  switch (E.getKind()) {
  case ExprKind::ArrayRef: {
    const auto &Ref = cast<ArrayRefExpr>(E);
    return strf("%s[%s]", Ref.getArray()->getName().c_str(),
                printIndex(Ref.getOffset()).c_str());
  }
  case ExprKind::Splat:
    return strf("%lld", static_cast<long long>(cast<SplatExpr>(E).getValue()));
  case ExprKind::Param:
    return cast<ParamExpr>(E).getParam()->getName();
  case ExprKind::BinOp: {
    const auto &BO = cast<BinOpExpr>(E);
    // Min/Max print as calls; everything else infix, with nested binops
    // parenthesized for unambiguous golden-test output.
    if (BO.getOp() == BinOpKind::Min || BO.getOp() == BinOpKind::Max)
      return strf("%s(%s, %s)", binOpSpelling(BO.getOp()),
                  printExpr(BO.getLHS()).c_str(),
                  printExpr(BO.getRHS()).c_str());
    auto Operand = [](const Expr &Op) {
      std::string S = printExpr(Op);
      // Call-syntax operands (min/max) are already unambiguous.
      if (const auto *Nested = dyn_cast<BinOpExpr>(Op);
          Nested && Nested->getOp() != BinOpKind::Min &&
          Nested->getOp() != BinOpKind::Max)
        return "(" + S + ")";
      return S;
    };
    return strf("%s %s %s", Operand(BO.getLHS()).c_str(),
                binOpSpelling(BO.getOp()), Operand(BO.getRHS()).c_str());
  }
  }
  simdize_unreachable("unknown expression kind");
}

/// One statement in the loop parser's dialect, without a terminator; the
/// C-like print adds ';', the parseable print a newline.
static std::string stmtText(const Stmt &S) {
  switch (S.getKind()) {
  case StmtKind::Assign:
    return strf("%s[%s] = %s", S.getStoreArray()->getName().c_str(),
                printIndex(S.getStoreOffset()).c_str(),
                printExpr(S.getRHS()).c_str());
  case StmtKind::If:
    return strf("if (%s %s %s) %s[%s] = %s",
                printExpr(S.getGuardLHS()).c_str(),
                cmpSpelling(S.getCmpKind()), printExpr(S.getGuardRHS()).c_str(),
                S.getStoreArray()->getName().c_str(),
                printIndex(S.getStoreOffset()).c_str(),
                printExpr(S.getRHS()).c_str());
  case StmtKind::Reduce:
    // The accumulator index is absolute (no loop counter).
    return strf("%s[%lld] %s= %s", S.getStoreArray()->getName().c_str(),
                static_cast<long long>(S.getStoreOffset()),
                binOpSpelling(S.getReduceOp()), printExpr(S.getRHS()).c_str());
  }
  simdize_unreachable("unknown statement kind");
}

std::string ir::printStmt(const Stmt &S) { return stmtText(S) + ";"; }

std::string ir::printLoop(const Loop &L) {
  std::string Out = "// ";
  bool First = true;
  for (const auto &A : L.getArrays()) {
    if (!First)
      Out += ", ";
    First = false;
    Out += strf("%s: %s[%lld] @align %s", A->getName().c_str(),
                elemTypeName(A->getElemType()),
                static_cast<long long>(A->getNumElems()),
                A->isAlignmentKnown() ? strf("%u", A->getAlignment()).c_str()
                                      : "?");
  }
  Out += "\n";
  Out += strf("for (i = 0; i < %s; ++i) {\n",
              L.isUpperBoundKnown()
                  ? strf("%lld", static_cast<long long>(L.getUpperBound()))
                        .c_str()
                  : "ub");
  for (const auto &S : L.getStmts())
    Out += "  " + printStmt(*S) + "\n";
  Out += "}\n";
  return Out;
}

std::string ir::printParseable(const Loop &L, const std::string &Header) {
  std::string Out;
  std::istringstream In(Header);
  for (std::string Line; std::getline(In, Line);)
    Out += "# " + Line + "\n";

  for (const auto &A : L.getArrays()) {
    // The "byte" marker is required exactly when the base is not an
    // element-size multiple (the Section 7 extension).
    std::string Align = A->isNaturallyAligned() ? "" : "byte ";
    if (A->isAlignmentKnown())
      Align += strf("%u", A->getAlignment());
    else
      Align += strf("? %u", A->getAlignment());
    Out += strf("array %s %s %lld align %s\n", A->getName().c_str(),
                elemTypeName(A->getElemType()),
                static_cast<long long>(A->getNumElems()), Align.c_str());
  }
  for (const auto &P : L.getParams())
    Out += strf("param %s %lld\n", P->getName().c_str(),
                static_cast<long long>(P->getActualValue()));
  Out += strf("loop %s%lld\n", L.isUpperBoundKnown() ? "" : "runtime ",
              static_cast<long long>(L.getUpperBound()));
  for (const auto &S : L.getStmts())
    Out += stmtText(*S) + "\n";
  return Out;
}
