//===- vir/VVerifier.h - Structural checks on vector IR programs ---------===//
//
// Part of the simdize project (PLDI 2004 alignment-constrained simdization).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Validates a VProgram before execution: registers in range and defined
/// before use (accounting for loop-carried values initialized in Setup),
/// immediate shift amounts within [0, V), splice points within [0, V],
/// consistent lane widths, an unclobbered loop counter, and the steady-body
/// contract: no predicated instruction, no scalar definition, and every
/// vload/vstore indexed by the loop counter. Every simdized program in the
/// test suite and every synthesized benchmark goes through this before it
/// is simulated.
///
//===----------------------------------------------------------------------===//

#ifndef SIMDIZE_VIR_VVERIFIER_H
#define SIMDIZE_VIR_VVERIFIER_H

#include <optional>
#include <string>

namespace simdize {
namespace vir {

class VProgram;

/// Verifies \p P. \returns std::nullopt on success, or a description of the
/// first violation found.
std::optional<std::string> verifyProgram(const VProgram &P);

} // namespace vir
} // namespace simdize

#endif // SIMDIZE_VIR_VVERIFIER_H
