//===- sim/Machine.h - Generic SIMD machine executing vector IR ----------===//
//
// Part of the simdize project (PLDI 2004 alignment-constrained simdization).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The evaluation target of Section 5.1: a generic 16-byte-wide SIMD unit
/// whose load-store unit supports only 16-byte aligned accesses (addresses
/// are truncated, AltiVec-style) and whose data reorganization is a
/// byte-granular two-source permute. The machine executes a VProgram over a
/// Memory image and counts every dynamic operation, categorized, to produce
/// the paper's operations-per-datum metric.
///
/// runProgram is the byte-at-a-time reference implementation of that
/// machine. Every check runs on the decoded engine (Decoder.h) instead;
/// the differential tests (tests/EngineEquivalenceTest.cpp) call
/// runProgram directly and require the same memory, op counts, iteration
/// count and chunk counts from both.
///
/// Overhead model (documented in DESIGN.md): vector memory operations use
/// register+register addressing (base materialization is a one-time Setup
/// cost), the steady loop costs 2 scalar operations per iteration
/// (counter update + branch), and one call/return pair is charged per
/// program — matching "a single function call and return, address
/// computation, and loop overhead" (Section 5.3).
///
//===----------------------------------------------------------------------===//

#ifndef SIMDIZE_SIM_MACHINE_H
#define SIMDIZE_SIM_MACHINE_H

#include "vir/VProgram.h"

#include <cstdint>
#include <limits>
#include <vector>

namespace simdize {
namespace sim {

class Memory;
class MemoryLayout;

/// Dynamic operation counts, one bucket per instruction category plus the
/// loop-control and call overhead charged by the machine itself.
struct OpCounts {
  int64_t Loads = 0;
  int64_t Stores = 0;
  int64_t Reorg = 0;   ///< vshiftpair + vsplice + vsplat
  int64_t Compute = 0; ///< vector arithmetic
  int64_t Copies = 0;  ///< software-pipelining register copies
  int64_t Scalar = 0;  ///< alignment/bound computation, predicates
  int64_t LoopCtl = 0; ///< 2 per steady iteration
  int64_t CallRet = 0; ///< 2 per program

  int64_t total() const {
    return Loads + Stores + Reorg + Compute + Copies + Scalar + LoopCtl +
           CallRet;
  }

  /// Operations per datum for a loop producing \p Datums elements. NaN
  /// when no data was produced: an empty loop has no meaningful OPD, and
  /// returning 0.0 would make it look infinitely efficient in aggregates.
  /// Consumers that average OPDs must skip NaN explicitly (the harness,
  /// the fuzzer's metrics, and obs::Registry::observe all do).
  double opd(int64_t Datums) const {
    return Datums > 0 ? static_cast<double>(total()) /
                            static_cast<double>(Datums)
                      : std::numeric_limits<double>::quiet_NaN();
  }

  OpCounts &operator+=(const OpCounts &O);

  /// Adds \p O scaled by \p N to every bucket — how the decoded engine
  /// batches steady-state accounting (static per-iteration counts times
  /// the iteration count).
  OpCounts &addScaled(const OpCounts &O, int64_t N);

  bool operator==(const OpCounts &O) const {
    return Loads == O.Loads && Stores == O.Stores && Reorg == O.Reorg &&
           Compute == O.Compute && Copies == O.Copies && Scalar == O.Scalar &&
           LoopCtl == O.LoopCtl && CallRet == O.CallRet;
  }
};

/// Execution statistics beyond raw op counts.
struct ExecStats {
  OpCounts Counts;
  int64_t SteadyIterations = 0;
  /// Dynamic loads per aligned chunk, indexed by chunk byte address / V;
  /// the input of the paper's never-load-twice oracle. Empty when chunk
  /// tracking is off (the reference interpreter always tracks).
  std::vector<int64_t> ChunkLoads;
  /// Dynamic stores per aligned chunk, indexed the same way; with
  /// ChunkLoads this forms the per-chunk access heatmap.
  std::vector<int64_t> ChunkStores;
};

/// Executes \p P over \p Mem and returns the statistics.
///
/// Programs must pass vir::verifyProgram first; the machine still checks
/// memory bounds and operand ranges with assertions.
ExecStats runProgram(const vir::VProgram &P, const MemoryLayout &Layout,
                     Memory &Mem);

} // namespace sim
} // namespace simdize

#endif // SIMDIZE_SIM_MACHINE_H
