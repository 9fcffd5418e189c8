//===- ir/IRPrinter.cpp ---------------------------------------------------===//
//
// Part of the simdize project (PLDI 2004 alignment-constrained simdization).
//
//===----------------------------------------------------------------------===//

#include "ir/IRPrinter.h"

#include "ir/Loop.h"
#include "support/Debug.h"
#include "support/Format.h"

#include <algorithm>
#include <string_view>

using namespace simdize;
using namespace simdize::ir;

// printExpr, printStmt and printParseable append into one string: the
// server prints a loop's parseable text on every request that misses its
// raw-text memo.

/// "a[i]", "a[i+3]", "a[i-2]".
static void appendElem(std::string &Out, const Array *A, int64_t Offset) {
  append(Out, A->getName(), Offset > 0 ? "[i+" : "[i");
  if (Offset != 0)
    append(Out, Offset);
  Out += ']';
}

static bool isCallSyntax(BinOpKind Op) {
  return Op == BinOpKind::Min || Op == BinOpKind::Max;
}

static void appendExpr(std::string &Out, const Expr &E) {
  switch (E.getKind()) {
  case ExprKind::ArrayRef: {
    const auto &Ref = cast<ArrayRefExpr>(E);
    appendElem(Out, Ref.getArray(), Ref.getOffset());
    return;
  }
  case ExprKind::Splat:
    append(Out, cast<SplatExpr>(E).getValue());
    return;
  case ExprKind::Param:
    Out += cast<ParamExpr>(E).getParam()->getName();
    return;
  case ExprKind::BinOp: {
    const auto &BO = cast<BinOpExpr>(E);
    // Min/Max print as calls; everything else infix, with nested binops
    // parenthesized for unambiguous golden-test output.
    if (isCallSyntax(BO.getOp())) {
      append(Out, binOpSpelling(BO.getOp()), '(');
      appendExpr(Out, BO.getLHS());
      Out += ", ";
      appendExpr(Out, BO.getRHS());
      Out += ')';
      return;
    }
    auto Operand = [&Out](const Expr &Op) {
      // Call-syntax operands (min/max) are already unambiguous.
      const auto *Nested = dyn_cast<BinOpExpr>(Op);
      bool Paren = Nested && !isCallSyntax(Nested->getOp());
      if (Paren)
        Out += '(';
      appendExpr(Out, Op);
      if (Paren)
        Out += ')';
    };
    Operand(BO.getLHS());
    append(Out, ' ', binOpSpelling(BO.getOp()), ' ');
    Operand(BO.getRHS());
    return;
  }
  }
  simdize_unreachable("unknown expression kind");
}

std::string ir::printExpr(const Expr &E) {
  std::string Out;
  appendExpr(Out, E);
  return Out;
}

/// One statement in the loop parser's dialect, without a terminator; the
/// C-like print adds ';', the parseable print a newline.
static void appendStmt(std::string &Out, const Stmt &S) {
  switch (S.getKind()) {
  case StmtKind::Assign:
    break;
  case StmtKind::If:
    Out += "if (";
    appendExpr(Out, S.getGuardLHS());
    append(Out, ' ', cmpSpelling(S.getCmpKind()), ' ');
    appendExpr(Out, S.getGuardRHS());
    Out += ") ";
    break;
  case StmtKind::Reduce:
    // The accumulator index is absolute (no loop counter).
    append(Out, S.getStoreArray()->getName(), '[', S.getStoreOffset(), "] ",
           binOpSpelling(S.getReduceOp()), "= ");
    appendExpr(Out, S.getRHS());
    return;
  }
  appendElem(Out, S.getStoreArray(), S.getStoreOffset());
  Out += " = ";
  appendExpr(Out, S.getRHS());
}

std::string ir::printStmt(const Stmt &S) {
  std::string Out;
  appendStmt(Out, S);
  Out += ';';
  return Out;
}

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
  std::string_view Lines = Header;
  for (size_t Pos = 0; Pos < Lines.size();) {
    size_t End = std::min(Lines.find('\n', Pos), Lines.size());
    append(Out, "# ", Lines.substr(Pos, End - Pos), '\n');
    Pos = End + 1;
  }

  // The "byte" marker is required exactly when the base is not an
  // element-size multiple (the Section 7 extension).
  for (const auto &A : L.getArrays())
    append(Out, "array ", A->getName(), ' ', elemTypeName(A->getElemType()),
           ' ', A->getNumElems(), " align ",
           A->isNaturallyAligned() ? "" : "byte ",
           A->isAlignmentKnown() ? "" : "? ", A->getAlignment(), '\n');
  for (const auto &P : L.getParams())
    append(Out, "param ", P->getName(), ' ', P->getActualValue(), '\n');
  append(Out, L.isUpperBoundKnown() ? "loop " : "loop runtime ",
         L.getUpperBound(), '\n');
  for (const auto &S : L.getStmts()) {
    appendStmt(Out, *S);
    Out += '\n';
  }
  return Out;
}
