//===- opt/Pipeline.h - Post-codegen optimization pipeline ---------------===//
//
// Part of the simdize project (PLDI 2004 alignment-constrained simdization).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Drives the code generation optimizations the evaluation toggles
/// (Section 5.5): CSE (baseline redundancy elimination, always realistic to
/// assume), memory normalization (chunk-level load unification inside CSE
/// and PC), predictive commoning, the copy-removing unroll, and DCE.
/// Software pipelining is a *code generation* option
/// (codegen::SimdizeOptions), not a pass; its back-edge copies are removed
/// by the same unroll pass used for PC's.
///
//===----------------------------------------------------------------------===//

#ifndef SIMDIZE_OPT_PIPELINE_H
#define SIMDIZE_OPT_PIPELINE_H

namespace simdize {
namespace vir {
class VProgram;
} // namespace vir

namespace opt {

/// Which optional optimizations to run after code generation. CSE, the
/// copy-removing unroll, and DCE always run.
struct OptConfig {
  bool MemNorm = true; ///< Chunk-normalized load keys (Section 5.5).
  bool PC = false;     ///< Predictive commoning.
};

/// Statistics of one pipeline run.
struct OptStats {
  unsigned CSERemoved = 0;
  unsigned PCReplaced = 0;
  unsigned CopiesRemoved = 0;
  unsigned DCERemoved = 0;
};

/// Runs the configured passes over \p P in order CSE, PC, unroll, DCE.
OptStats runOptPipeline(vir::VProgram &P, const OptConfig &Config);

} // namespace opt
} // namespace simdize

#endif // SIMDIZE_OPT_PIPELINE_H
