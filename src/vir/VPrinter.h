//===- vir/VPrinter.h - Textual form of vector IR programs ---------------===//
//
// Part of the simdize project (PLDI 2004 alignment-constrained simdization).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Prints vector IR programs in an assembly-like syntax for diagnostics
/// and golden tests:
///
///   setup:
///     v0 = vload &b[(0)+1]
///   loop i = 4, i < 97, i += 4:
///     v1 = vload &b[(i)+5]
///     v2 = vshiftpair v0, v1, 4
///     ...
///
//===----------------------------------------------------------------------===//

#ifndef SIMDIZE_VIR_VPRINTER_H
#define SIMDIZE_VIR_VPRINTER_H

#include <string>

namespace simdize {
namespace vir {

struct VInst;
class VProgram;

/// Renders one instruction (no trailing newline).
std::string printInst(const VInst &I);

/// The text of \p I's annotation: the comment literal followed by the name
/// of the array or parameter it points at, if any. Empty without a comment.
std::string commentText(const VInst &I);

/// Renders the whole program.
std::string printProgram(const VProgram &P);

} // namespace vir
} // namespace simdize

#endif // SIMDIZE_VIR_VPRINTER_H
