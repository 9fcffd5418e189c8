//===- simdize/Target.h - Parametric vector-width target descriptor ------===//
//
// Part of the simdize project (PLDI 2004 alignment-constrained simdization).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper's algorithms (stream offsets, vshiftstream placement, the
/// prologue/steady/epilogue codegen of Figures 7 and 10) are written in
/// terms of a symbolic vector byte-width V; only each hardware ISA of the
/// native tier pins one width (SSE2 16, AVX2 32, AVX-512 64). Target
/// captures everything the simdizer needs to know about the machine it is
/// compiling for: the vector byte-width, which element sizes it can pack,
/// and the alignment-truncation rule that maps an arbitrary byte address
/// onto a vector-boundary offset (Section 2.1, "the memory architecture
/// only supports V-byte aligned accesses").
///
/// Every compile-path layer consumes a Target (or its VectorLen) instead
/// of a hard-coded 16: the reorg graph, the shift policies, codegen, the
/// VM, the synthesizer, the property oracles, and the fuzzer's config
/// matrix. The two execution engines size their registers statically at
/// Target::MaxVectorLen and execute dynamically at the program's V.
///
//===----------------------------------------------------------------------===//

#ifndef SIMDIZE_TARGET_H
#define SIMDIZE_TARGET_H

#include "support/MathExtras.h"

#include <cstdint>
#include <string>

namespace simdize {

/// Describes a SIMD target for the simdizer: the vector byte-width V and
/// the rules derived from it. Default-constructed it is the paper's
/// machine (V = 16, AltiVec-class); V = 32 and V = 64 model AVX2- and
/// AVX-512-class widths.
struct Target {
  /// Vector register width in bytes (the paper's V).
  unsigned VectorLen = 16;

  /// The widest vector any target may request: the static register size
  /// of both execution engines. Raising this is a recompile, not a
  /// redesign.
  static constexpr unsigned MaxVectorLen = 64;

  Target() = default;
  explicit Target(unsigned V) : VectorLen(V) {}

  /// A usable target has a power-of-2 width between one full i32 element
  /// and the engines' register size. Power-of-2 is load-bearing: the
  /// runtime-alignment codegen computes offsets with `addr & (V - 1)`.
  bool valid() const {
    return VectorLen >= 4 && VectorLen <= MaxVectorLen &&
           (VectorLen & (VectorLen - 1)) == 0;
  }

  /// Whether D-byte elements pack evenly into a vector. All supported
  /// element sizes divide any valid power-of-2 width, but codegen checks
  /// against the target rather than assuming it.
  bool supportsElemSize(unsigned D) const {
    return D > 0 && VectorLen % D == 0;
  }

  /// The paper's truncation rule: an arbitrary byte offset reduced to its
  /// position within a vector register. Used for array base alignment
  /// (memory layout) and stream-offset computation alike.
  int64_t truncateAlignment(int64_t Offset) const {
    return nonNegMod(Offset, VectorLen);
  }

  /// Blocking factor B = V / D (Section 4.1): elements per vector.
  int64_t blockingFactor(unsigned D) const { return VectorLen / D; }

  bool operator==(const Target &O) const { return VectorLen == O.VectorLen; }
  bool operator!=(const Target &O) const { return VectorLen != O.VectorLen; }

  /// "v16" / "v32" / "v64" — used in config names and diagnostics.
  std::string str() const {
    std::string S = "v";
    S += std::to_string(VectorLen);
    return S;
  }
};

} // namespace simdize

#endif // SIMDIZE_TARGET_H
