//===- ir/IRPrinter.h - Textual form of the scalar loop IR ---------------===//
//
// Part of the simdize project (PLDI 2004 alignment-constrained simdization).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Prints loops in a C-like syntax for diagnostics, golden tests, and the
/// examples:
///
///   // a: i32[128] @align 12, b: i32[128] @align 4, c: i32[128] @align 8
///   for (i = 0; i < 100; ++i)
///     a[i+3] = b[i+1] + c[i+2];
///
/// and in the loop parser's dialect (printParseable).
///
//===----------------------------------------------------------------------===//

#ifndef SIMDIZE_IR_IRPRINTER_H
#define SIMDIZE_IR_IRPRINTER_H

#include <string>

namespace simdize {
namespace ir {

class Expr;
class Loop;
class Stmt;

/// Renders an expression as C-like text.
std::string printExpr(const Expr &E);

/// Renders one statement as C-like text (no trailing newline).
std::string printStmt(const Stmt &S);

/// Renders the whole loop, including an array-declaration comment header.
/// It elides runtime values, so it is for people, never an identity.
std::string printLoop(const Loop &L);

/// Renders \p L in the parser::parseLoop dialect, the parser's exact
/// inverse, and so a loop's identity (server cache keys, corpus files).
/// \p Header lines, if any, come first as '#' comments.
std::string printParseable(const Loop &L, const std::string &Header = "");

} // namespace ir
} // namespace simdize

#endif // SIMDIZE_IR_IRPRINTER_H
