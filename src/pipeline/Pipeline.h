//===- pipeline/Pipeline.h - The one compile-path facade ------------------===//
//
// Part of the simdize project (PLDI 2004 alignment-constrained simdization).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The single wiring of the paper's compile path: offset reassociation
/// (Section 5.5, optional) -> simdize (Sections 3-4) -> optimization
/// pipeline -> verification. The CLI tool, the fuzzer, the experiment
/// harness, and every bench used to duplicate this sequence with slightly
/// different option structs; they now all build a CompileRequest and call
/// runPipeline().
///
/// A CompileRequest is the complete configuration of one compilation:
/// the codegen options (placement policy, software pipelining, and the
/// Target carrying the vector width V) appear exactly once, embedded as
/// SimdizeOptions, plus the post-codegen optimization level and the
/// MemNorm / OffsetReassoc evaluation toggles.
///
/// \code
///   pipeline::CompileRequest Req;
///   Req.Simd.Policy = policies::PolicyKind::Lazy;
///   Req.Simd.SoftwarePipelining = true;
///   Req.Simd.Tgt = Target(32);
///   pipeline::CompileResult R = pipeline::runPipeline(L, Req);
///   if (!R.ok()) { ... R.error() ... }
///   sim::CheckResult C = pipeline::checkCompiled(L, R, Seed);
/// \endcode
///
//===----------------------------------------------------------------------===//

#ifndef SIMDIZE_PIPELINE_PIPELINE_H
#define SIMDIZE_PIPELINE_PIPELINE_H

#include "codegen/Simdizer.h"
#include "ir/Loop.h"
#include "opt/Pipeline.h"
#include "oracle/Oracle.h"
#include "sim/Checker.h"

#include <functional>
#include <optional>
#include <string>

namespace simdize {

namespace ir {
class Loop;
} // namespace ir

namespace pipeline {

/// Post-codegen optimization level. One enum for the whole project: the
/// property-oracle layer defines it (its OPD floors are stated per level)
/// and the pipeline, fuzzer, and harness share it.
using OptLevel = oracle::OptLevel;

/// How checkCompiled executes the compiled program: the decoded VM
/// (simulation, the default), or the native host-SIMD backend
/// (src/native) *in addition* — the VM check runs first, then the
/// program is lowered to intrinsics, compiled, dlopen'd, and the full
/// memory image is required to match the oracle bit-for-bit, making the
/// native run transitively bit-identical to the VM. The backend picks
/// the best CPUID-admissible ISA for the width and degrades to the
/// portable shim when the host lacks it.
enum class ExecTier { VM, Native };

/// The complete configuration of one compilation through the pipeline.
struct CompileRequest {
  /// Placement policy, software pipelining, and the Target (vector width
  /// V) — the codegen half of the request, stored exactly once.
  codegen::SimdizeOptions Simd;

  /// Raw Figure 7/10 codegen, the standard cleanup pipeline, or standard
  /// plus predictive commoning.
  OptLevel Opt = OptLevel::Std;

  /// Chunk-normalized load keys inside CSE/PC (Section 5.5).
  bool MemNorm = true;

  /// Common offset reassociation on the scalar loop before simdization
  /// (Section 5.5).
  bool OffsetReassoc = false;

  /// Auto policy selection: ignore Simd.Policy and let runPipeline pick
  /// the placement policy with the fewest predicted steady-state shifts
  /// for this loop (resolved per compilation, after offset reassociation;
  /// ties prefer the paper's greedy policies over the optimal DP, and
  /// dominant-shift first among them). Runtime alignments resolve to
  /// zero-shift, the only applicable policy. The chosen policy is
  /// reported in CompileResult::ResolvedPolicy.
  bool AutoPolicy = false;

  /// Execution tier for checkCompiled; compilation itself is unaffected.
  ExecTier Tier = ExecTier::VM;

  /// Canonical config name: "LAZY-sp/opt", "ZERO/raw", "DOM-pc/opt", ...
  /// ("AUTO" in place of the policy when AutoPolicy is set) with an
  /// "@32"/"@64" width suffix for non-default targets (V = 16
  /// names are unchanged from the pre-Target era, keeping corpus file
  /// names and metrics streams stable) and a "+native" suffix for the
  /// native execution tier.
  std::string name() const;

  /// Whether this configuration exploits cross-iteration reuse (software
  /// pipelining or predictive commoning) — the configurations the
  /// never-load-twice guarantee of Section 4.3 applies to.
  bool exploitsReuse() const {
    return Simd.SoftwarePipelining || Opt == OptLevel::PC;
  }

  /// Shorthand for the request's target.
  const Target &target() const { return Simd.Tgt; }
};

/// Caller windows into the pipeline.
struct PipelineHooks {
  /// Invoked on the raw program right after simdize() succeeds, before
  /// the optimizer. The fuzzer mutates the program and runs its
  /// raw-program oracles here. The second argument is the SimdizeOptions
  /// the program was actually compiled with — under AutoPolicy its Policy
  /// is the resolved one, so per-policy oracles hold the program to the
  /// right contract. Returning false aborts the pipeline
  /// (CompileResult::HookAborted); the hook owns reporting why.
  std::function<bool(codegen::SimdizeResult &,
                     const codegen::SimdizeOptions &)>
      RawProgram;
};

/// Everything one runPipeline() call produced.
struct CompileResult {
  /// The simdizer's result: program + placed-shift accounting on success,
  /// classified diagnostic otherwise.
  codegen::SimdizeResult Simd;

  /// When the request asked for offset reassociation, the rewritten loop
  /// the program was compiled from (the caller's loop is left untouched);
  /// checkCompiled() selects it automatically.
  std::optional<ir::Loop> ReassocLoop;

  /// The loop the program computes: ReassocLoop when the request
  /// reassociated offsets, else \p Source, the loop given to runPipeline.
  const ir::Loop &compiledLoop(const ir::Loop &Source) const {
    return ReassocLoop ? *ReassocLoop : Source;
  }

  /// Statements offset reassociation rewrote.
  unsigned Reassociated = 0;

  /// The RawProgram hook returned false.
  bool HookAborted = false;

  /// The placement policy the program was compiled with: the request's
  /// own under normal operation, the auto-selected one under AutoPolicy.
  policies::PolicyKind ResolvedPolicy = policies::PolicyKind::Zero;

  bool OptRan = false;     ///< The optimization pipeline ran.
  opt::OptStats Opt;       ///< Its per-pass statistics (valid when OptRan).

  /// The request's execution tier, carried so checkCompiled knows whether
  /// to run the native differential after the VM check.
  ExecTier Tier = ExecTier::VM;

  /// Set when the *optimized* program failed re-verification — always a
  /// pipeline bug. (simdize() verifies its own raw output separately.)
  std::optional<std::string> PostOptVerifyError;

  /// The request's name(), for diagnostics attribution.
  std::string ConfigName;

  bool ok() const {
    return Simd.ok() && !HookAborted && !PostOptVerifyError;
  }

  /// Flattened failure diagnostic: the simdizer's error or the post-opt
  /// verification error. Empty when ok() (or when the hook aborted — the
  /// hook reports its own reason).
  std::string error() const {
    if (!Simd.ok())
      return Simd.Error;
    if (PostOptVerifyError)
      return *PostOptVerifyError;
    return std::string();
  }
};

/// Runs the compile path on \p L under \p Req: offset reassociation (on a
/// private copy of the loop), simdization, the RawProgram hook, the
/// optimization pipeline, and post-optimization verification. \p L is
/// only read; it must outlive uses of the result that reference it
/// (checkCompiled takes it again explicitly).
CompileResult runPipeline(const ir::Loop &L, const CompileRequest &Req,
                          const PipelineHooks &Hooks = {});

/// Bit-equality check of a compiled result against the scalar oracle:
/// sim::checkSimdization against \p Ref, then, for the native tier, the
/// dlopen'd kernel against the same image. \p L must be the loop \p R was
/// compiled from, and \p Ref an image of R.compiledLoop(L) at the
/// program's width (callers that check many programs share one image).
/// \p SchemeName overrides the diagnostic attribution (defaults to the
/// request's config name); \p Opts forwards per-check switches.
sim::CheckResult checkCompiled(const ir::Loop &L, const CompileResult &R,
                               const sim::ReferenceImage &Ref,
                               const std::string &SchemeName = "",
                               const sim::CheckOptions &Opts = {});

/// As above, over a fresh image patterned from \p CheckSeed.
sim::CheckResult checkCompiled(const ir::Loop &L, const CompileResult &R,
                               uint64_t CheckSeed,
                               const std::string &SchemeName = "",
                               const sim::CheckOptions &Opts = {});

} // namespace pipeline
} // namespace simdize

#endif // SIMDIZE_PIPELINE_PIPELINE_H
