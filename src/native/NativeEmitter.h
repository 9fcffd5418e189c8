//===- native/NativeEmitter.h - vir::VProgram -> x86 intrinsic C++ --------===//
//
// Part of the simdize project (PLDI 2004 alignment-constrained simdization).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The target half of the SIMD code generation phase: renders compiled
/// programs as C++ over the vx_* wrapper layer (simdize_x86.h), one
/// translation unit per (vector width, ISA) pair, many kernels per unit
/// so batch consumers (the differential ctest, the benches, the fuzzer)
/// amortize one system-compiler invocation over a whole work list.
///
/// A steady-loop shift whose operands the emitter proves are two
/// consecutive chunks of one load stream is emitted as vx_sld_at /
/// vx_shiftpair_at with the first chunk's address, which x86 headers may
/// realize as one unaligned load; the choice never depends on the ISA.
///
/// Each kernel has the signature
///
///   void FnName(unsigned char *<array0>, ..., long <param0>, ..., long ub)
///
/// — one byte pointer per array of the loop in declaration order, one
/// `long` per scalar parameter, then the trip count — and, on request, an
/// `extern "C"` memory-image wrapper
///
///   void FnName_image(unsigned char *Image, const long *Args)
///
/// that bakes in the sim::MemoryLayout base offsets and forwards
/// Args = [<param0>, ..., ub], so a dlopen'd kernel can run directly on a
/// dumped sim::Memory image.
///
//===----------------------------------------------------------------------===//

#ifndef SIMDIZE_NATIVE_NATIVEEMITTER_H
#define SIMDIZE_NATIVE_NATIVEEMITTER_H

#include "native/NativeISA.h"

#include <cstdint>
#include <string>
#include <vector>

namespace simdize {

namespace ir {
class Loop;
} // namespace ir
namespace vir {
class VProgram;
} // namespace vir

namespace native {

/// Outcome of lowering: the translation unit, or the reason the request
/// has no rendering.
struct LowerResult {
  std::string Code;
  std::string Error;
  bool ok() const { return Error.empty(); }
};

/// One kernel of a generated module.
struct KernelSpec {
  const vir::VProgram *Program = nullptr;
  const ir::Loop *Loop = nullptr;
  /// Function name inside the module; must be unique per module.
  std::string Name;
  /// Byte offsets of Loop's arrays inside a sim::Memory image, in array
  /// declaration order (sim::MemoryLayout::baseOf). When non-empty an
  /// `extern "C" <Name>_image(unsigned char *Image, const long *Args)`
  /// adapter is emitted alongside the kernel; when empty the kernel is
  /// emitted standalone (the `--lower=native` file/stdout path).
  std::vector<int64_t> ArrayBases;
};

/// Renders one self-contained translation unit containing every kernel of
/// \p Kernels, targeting \p Isa at width \p VectorLen. Fails (with a
/// diagnostic, never a miscompile) when the ISA cannot realize the width
/// or any program was simdized for a different width.
LowerResult emitNativeModule(const std::vector<KernelSpec> &Kernels,
                             unsigned VectorLen, ISA Isa);

/// Single-kernel convenience over emitNativeModule, no image adapter.
LowerResult emitNativeKernel(const vir::VProgram &P, const ir::Loop &L,
                             const std::string &FnName, ISA Isa);

} // namespace native
} // namespace simdize

#endif // SIMDIZE_NATIVE_NATIVEEMITTER_H
