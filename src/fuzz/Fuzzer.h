//===- fuzz/Fuzzer.h - Differential fuzzing of the simdizer --------------===//
//
// Part of the simdize project (PLDI 2004 alignment-constrained simdization).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The standing correctness gate behind the paper's central claim: for
/// *every* combination of alignments, offsets, trip counts, element types,
/// shift policies, and optimization settings, the simdized program must be
/// bit-identical to the scalar loop. The fuzzer sweeps randomized
/// SynthParams (including degenerate trip counts the validity guard must
/// reject cleanly) across every applicable pipeline configuration, runs
/// the scalar interpreter against the SIMD VM through
/// sim::checkSimdization, and on any mismatch or verifier failure invokes
/// the Shrinker and emits the minimized loop as parseable corpus text.
///
//===----------------------------------------------------------------------===//

#ifndef SIMDIZE_FUZZ_FUZZER_H
#define SIMDIZE_FUZZ_FUZZER_H

#include "oracle/Oracle.h"
#include "pipeline/Pipeline.h"
#include "policies/ShiftPolicy.h"
#include "synth/LoopSynth.h"

#include <cstdint>
#include <cstdio>
#include <functional>
#include <limits>
#include <string>
#include <vector>

namespace simdize {

namespace ir {
class Loop;
} // namespace ir
namespace vir {
class VProgram;
} // namespace vir

namespace fuzz {

/// One pipeline configuration the fuzzer differentials against the scalar
/// oracle — exactly a facade CompileRequest (policy, software pipelining,
/// Target, optimization level); the fuzzer adds nothing of its own.
using FuzzConfig = pipeline::CompileRequest;

/// Post-codegen optimization level (pipeline::OptLevel re-export):
/// Raw / Std / PC.
using OptLevel = pipeline::OptLevel;

/// Every configuration applicable to \p L at vector width \p VectorLen:
/// all five policies (the paper's four plus the optimal DP) when every
/// alignment is compile-time known, zero-shift otherwise, each crossed
/// with software pipelining on/off and the optimizer pipeline raw/std/PC
/// — plus the same cross for the pipeline's auto-selection mode, which is
/// always applicable (it resolves to zero-shift under runtime
/// alignments). \p PolicyFilter restricts the axis to one policy by its
/// CLI spelling ("zero".."optimal", or "auto" for only the auto configs);
/// empty means all.
std::vector<FuzzConfig> configsForLoop(const ir::Loop &L,
                                       unsigned VectorLen = 16,
                                       const std::string &PolicyFilter = "");

/// Outcome classification of one (loop, config) run.
enum class RunStatus {
  Verified, ///< Simdized and bit-identical to the scalar loop.
  Rejected, ///< Declined by design (validity guard, policy gate).
  Failed,   ///< Internal error, verifier failure, or memory mismatch.
};

struct RunResult {
  RunStatus Status = RunStatus::Rejected;
  std::string Message; ///< Diagnostic for Rejected / Failed.
  /// What failed, when Status is Failed (oracle::failureKindName tags the
  /// corpus file): internal error, verifier rejection, memory mismatch,
  /// or a property-oracle violation.
  oracle::FailureKind Kind = oracle::FailureKind::None;
  /// vshiftstream nodes placed across the loop's statements; 0 until the
  /// run reaches code generation.
  unsigned ShiftCount = 0;
  /// Measured operations per datum of a Verified run. NaN when the run
  /// never executed, or executed zero datums (the opd-unset convention);
  /// metrics consumers skip NaN rather than averaging in a zero.
  double Opd = std::numeric_limits<double>::quiet_NaN();
};

/// Test hook: corrupts the program between code generation and the
/// property oracles / optimizer, so the oracles and the shrinker can be
/// exercised against a deliberately injected bug.
using ProgramMutator = std::function<void(vir::VProgram &)>;

/// Runs one configuration end to end (simdize, mutate, property-check,
/// optimize, simulate, check) and classifies the outcome. Deterministic
/// in (\p L, \p C, \p CheckSeed). When \p Ref is given it must be built
/// from (\p L, the config's width, \p CheckSeed); the scalar reference run
/// and memory image are then shared across every configuration checked
/// against it instead of being recomputed per call. nullptr builds a
/// private image. \p Oracles enables the property oracles
/// (never-load-twice, shift counts, OPD bound, VVerifier on the mutated
/// program) on top of the bit-equality check.
/// \p NativeDiff additionally compiles every checked program to host
/// intrinsics (native backend, best host ISA), runs the dlopen'd kernel,
/// and requires the full memory image to match the scalar expected image.
RunResult runConfigOnLoop(const ir::Loop &L, const FuzzConfig &C,
                          uint64_t CheckSeed,
                          const ProgramMutator &Mutator = {},
                          const sim::ReferenceImage *Ref = nullptr,
                          bool Oracles = true, bool NativeDiff = false);

/// The fuzzer's input distribution: derives the synthesizer parameters for
/// one seed. Exposed so a failure is reproducible from its seed alone.
/// Covers 1-4 statements, 1-6 loads, all three element types, biased and
/// reused alignments, compile-time and runtime alignment/bound knowledge,
/// non-naturally-aligned bases, and trip counts spiked toward the
/// {0, 1, B-1, B, 2B, 3B, 3B+1} edge set. \p MaxVectorLen is the widest
/// width of the sweep: alignments and trip counts scale with it, and the
/// resulting loop is valid at every narrower width (identical draw
/// sequence at 16, so seed N reproduces historical loops exactly).
/// \p Guards and \p Reductions enable the guarded-statement and reduction
/// axes: a per-seed probability of generating each new statement kind.
/// Disabled axes draw nothing, so seed N with both off reproduces
/// historical loops exactly.
synth::SynthParams paramsForSeed(uint64_t Seed, unsigned MaxVectorLen = 16,
                                 bool Guards = false,
                                 bool Reductions = false);

struct FuzzOptions {
  uint64_t StartSeed = 1;
  uint64_t NumSeeds = 1000;
  double TimeBudgetSeconds = 0.0; ///< 0 disables the budget.
  std::string CorpusDir;    ///< When set, minimized repros are written here.
  unsigned MaxFailures = 16; ///< Stop shrinking after this many failures.
  bool Verbose = false;
  std::FILE *Log = nullptr; ///< Progress stream; null silences the fuzzer.
  /// Worker threads sharding the seed range. Results are merged in seed
  /// order, so with no time budget the FuzzStats, failure list, minimized
  /// reproducers, and corpus files are bit-identical to a Jobs=1 run. With
  /// a budget, workers stop at the deadline and the completed seed set
  /// (hence determinism) depends on scheduling.
  unsigned Jobs = 1;
  /// Applied to every generated program before checking (test hook for
  /// injected bugs): once per configuration, on that configuration's own
  /// copy of its raw program, in sweep order at Jobs=1. Must be safe to
  /// call concurrently when Jobs > 1.
  ProgramMutator Mutator;
  /// Run the property oracles on every run (the --oracles flag; on by
  /// default). Bit-equality checking is unconditional.
  bool Oracles = true;
  /// The native differential axis (the --native flag): every verified run
  /// is additionally lowered to host intrinsics, compiled, dlopen'd, and
  /// raced against the scalar expected image. Off by default — it invokes
  /// the system compiler per generated program.
  bool NativeDiff = false;
  /// When set, one JSON record per (seed, config) run is written here as
  /// JSONL, followed by a final aggregate record with histogram
  /// percentiles. Records are emitted during the seed-order merge, so the
  /// stream is bit-identical across Jobs values (without a time budget),
  /// and the aggregate histograms merge order-independently regardless.
  std::FILE *MetricsOut = nullptr;
  /// The width axis: each seed's loop is synthesized once at the widest
  /// width, then every configuration is run at every width here against
  /// the width-independent scalar oracle. The default sweeps only the
  /// paper's 16-byte target, reproducing historical sweeps byte for byte.
  std::vector<unsigned> Widths = {16};
  /// Restrict the policy axis (the --policy= flag): a CLI policy name or
  /// "auto"; empty sweeps every policy plus auto.
  std::string PolicyFilter;
  /// The guarded-statement axis (the --guards flag): seeds draw a per-loop
  /// probability of generating if-converted conditional assignments.
  bool Guards = false;
  /// The reduction axis (the --reductions flag): seeds draw a per-loop
  /// probability of generating accumulation statements.
  bool Reductions = false;
};

/// One recorded failure with its minimized reproducer.
struct FuzzFailure {
  uint64_t Seed = 0;
  FuzzConfig Config;
  oracle::FailureKind Kind = oracle::FailureKind::None;
  std::string Message;       ///< Original diagnostic.
  std::string MinimizedText; ///< ir::printParseable() of the shrunken loop.
  std::string CorpusFile;    ///< Path written under CorpusDir, if any.
};

struct FuzzStats {
  uint64_t SeedsRun = 0;
  uint64_t RunsVerified = 0;
  uint64_t RunsRejected = 0;
  /// Failures whose minimized reproducer (and failure kind) matched an
  /// earlier failure of the sweep: logged and counted here, but not
  /// recorded in Failures or written to the corpus again.
  uint64_t DuplicateFailures = 0;
  /// Work the sweep did after its per-(seed, width) memo: simdize() calls,
  /// at most one per resolved (policy, software pipelining), and runs that
  /// optimized and ran the VM check, at most one per distinct (raw
  /// program, opt level). Not part of the metrics stream.
  uint64_t SimdizeCalls = 0;
  uint64_t VmChecks = 0;
  bool HitTimeBudget = false;
  std::vector<FuzzFailure> Failures;

  bool ok() const { return Failures.empty(); }
};

/// Sweeps seeds [StartSeed, StartSeed + NumSeeds) through every applicable
/// configuration.
FuzzStats runFuzz(const FuzzOptions &Opts);

} // namespace fuzz
} // namespace simdize

#endif // SIMDIZE_FUZZ_FUZZER_H
