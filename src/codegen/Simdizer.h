//===- codegen/Simdizer.h - Top-level simdization entry point ------------===//
//
// Part of the simdize project (PLDI 2004 alignment-constrained simdization).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The public compiler API. simdize() turns a scalar loop into a vector IR
/// program in the paper's two phases: per statement, a data reorganization
/// graph is built shift-free, a placement policy inserts vshiftstream
/// nodes, the graph is validated against constraints (C.2)/(C.3), and the
/// SIMD code generator emits prologue / steady state / epilogue.
///
/// \code
///   SimdizeOptions Opts;
///   Opts.Policy = policies::PolicyKind::Lazy;
///   Opts.SoftwarePipelining = true;
///   SimdizeResult R = simdize(L, Opts);
///   if (!R.ok()) { ... R.Error ... }
///   sim::CheckResult C = sim::checkSimdization(L, *R.Program, Seed);
/// \endcode
///
//===----------------------------------------------------------------------===//

#ifndef SIMDIZE_CODEGEN_SIMDIZER_H
#define SIMDIZE_CODEGEN_SIMDIZER_H

#include "policies/ShiftPolicy.h"
#include "simdize/Target.h"
#include "vir/VProgram.h"

#include <optional>
#include <string>
#include <vector>

namespace simdize {

namespace ir {
class Loop;
} // namespace ir

namespace codegen {

/// Configuration of one simdization run.
struct SimdizeOptions {
  /// Shift placement policy. Policies other than zero-shift require all
  /// alignments to be compile-time known; simdize() reports an error
  /// otherwise (callers typically fall back to zero-shift, as the paper's
  /// evaluation does).
  policies::PolicyKind Policy = policies::PolicyKind::Zero;

  /// Software-pipelined steady-state generation (Figure 10); the values
  /// that realign streams are carried across iterations instead of being
  /// recomputed, guaranteeing each stream chunk is loaded exactly once.
  bool SoftwarePipelining = false;

  /// The machine being compiled for — in particular its vector byte-width
  /// V. Defaults to the paper's 16-byte AltiVec-class target.
  Target Tgt;

  /// Shorthand for the target's vector register width in bytes.
  unsigned vectorLen() const { return Tgt.VectorLen; }
};

/// Classifies why simdize() produced no program. Rejections (a loop the
/// framework declines by design, or a policy that does not apply) are
/// expected outcomes; Internal means the simdizer broke one of its own
/// invariants and is always a bug. The differential fuzzer keys on this
/// to separate clean rejections from failures worth shrinking.
enum class SimdizeErrorKind {
  None,              ///< Success.
  NotSimdizable,     ///< checkSimdizable() declined the loop.
  PolicyInapplicable,///< The placement policy declined (e.g. runtime
                     ///< alignments under eager/lazy/dominant-shift).
  Internal,          ///< Invalid graph or program generated — a bug.
};

/// Result of simdize(): the program on success, a diagnostic otherwise,
/// plus per-statement shift accounting.
struct SimdizeResult {
  std::optional<vir::VProgram> Program;
  std::string Error;
  SimdizeErrorKind ErrorKind = SimdizeErrorKind::None;

  /// Total vshiftstream nodes placed across all statements — the quantity
  /// the policies compete on.
  unsigned ShiftCount = 0;

  /// Per-statement vshiftstream nodes the policy placed, and the number of
  /// vshiftpair instructions one raw steady-state iteration executes for
  /// them (reorg::countSteadyShifts). The property-oracle layer compares
  /// these against policies::predictShiftCount and against the emitted
  /// body.
  std::vector<unsigned> StmtPlacedShifts;
  std::vector<unsigned> StmtSteadyShifts;

  bool ok() const { return Program.has_value(); }
};

/// Checks the preconditions beyond ir::verifyLoop that the generated code
/// relies on: distinct store arrays that are never read in the loop (no
/// loop-carried dependences; full dependence analysis is out of scope) and
/// a trip count above 3B, the paper's validity guard for the simdized fast
/// path. \returns std::nullopt when simdizable.
std::optional<std::string> checkSimdizable(const ir::Loop &L,
                                           unsigned VectorLen);

/// Simdizes \p L under \p Opts.
SimdizeResult simdize(const ir::Loop &L, const SimdizeOptions &Opts);

} // namespace codegen
} // namespace simdize

#endif // SIMDIZE_CODEGEN_SIMDIZER_H
