//===- perfbench/src/LoopGen.h - Seeded loop texts ------------------------===//
///
/// \file
/// The serve and kernels workloads hand the program loop *text* in the
/// parser's dialect, generated here from the benchmark's own randomness,
/// so the inputs depend on the seed and on nothing in the program.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_LOOPGEN_H
#define PERFBENCH_LOOPGEN_H

#include "Bench.h"

#include <string>
#include <vector>

namespace perfbench {

enum class StmtShape { Assign, If, Reduce };

struct LoopShape {
  unsigned ElemBytes = 4; ///< 1, 2 or 4: i8, i16, i32.
  std::vector<StmtShape> Stmts;
  int64_t Trip = 256;
  unsigned LoadsPerStmt = 3;
  /// Alignments are element-size multiples drawn in [0, MaxAlign).
  unsigned MaxAlign = 16;
  /// Declares the load and store arrays' alignment as runtime ('?').
  bool RuntimeAlign = false;
  /// Draws operators, comparisons and constants too; when false they are
  /// fixed by position, so only offsets and alignments vary with the seed.
  bool RandomOps = true;
};

/// One loop of \p Shape with offsets, alignments, operators and constants
/// drawn from \p R. Every array is naturally aligned; accumulators have a
/// compile-time alignment, as reductions require.
std::string makeLoopText(Rand &R, const LoopShape &Shape);

/// A different spelling of the same loop: whitespace and comments only, so
/// the canonical print, and every answer about it, is unchanged.
/// Variant 0 is the text itself.
std::string respell(const std::string &Text, unsigned Variant);

} // namespace perfbench

#endif // PERFBENCH_LOOPGEN_H
