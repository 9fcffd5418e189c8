//===- fuzz/Fuzzer.cpp ----------------------------------------------------===//
//
// Part of the simdize project (PLDI 2004 alignment-constrained simdization).
//
//===----------------------------------------------------------------------===//

#include "fuzz/Fuzzer.h"

#include "fuzz/CorpusIO.h"
#include "fuzz/Shrinker.h"
#include "ir/IRPrinter.h"
#include "ir/Loop.h"
#include "obs/Json.h"
#include "obs/Metrics.h"
#include "support/Format.h"
#include "support/RNG.h"
#include "vir/VVerifier.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <chrono>
#include <cmath>
#include <optional>
#include <set>
#include <thread>

using namespace simdize;
using namespace simdize::fuzz;

std::vector<FuzzConfig> fuzz::configsForLoop(const ir::Loop &L,
                                             unsigned VectorLen,
                                             const std::string &PolicyFilter) {
  bool AllAlignKnown = true;
  for (const auto &A : L.getArrays())
    AllAlignKnown &= A->isAlignmentKnown();

  std::vector<FuzzConfig> Configs;
  auto PushCross = [&](policies::PolicyKind Policy, bool Auto) {
    for (bool SP : {false, true})
      for (OptLevel Opt : {OptLevel::Raw, OptLevel::Std, OptLevel::PC}) {
        FuzzConfig C;
        C.Simd.Policy = Policy;
        C.Simd.SoftwarePipelining = SP;
        C.Simd.Tgt = Target(VectorLen);
        C.Opt = Opt;
        C.AutoPolicy = Auto;
        Configs.push_back(std::move(C));
      }
  };

  for (auto Policy : policies::allPolicies()) {
    if (!PolicyFilter.empty() &&
        PolicyFilter != policies::policyCliName(Policy))
      continue;
    if (!AllAlignKnown &&
        !policies::createPolicy(Policy)->supportsRuntimeAlignment())
      continue;
    PushCross(Policy, /*Auto=*/false);
  }

  // The auto axis: the pipeline resolves the policy per compilation, so
  // these configs are applicable to every loop (runtime alignments
  // resolve to zero-shift). The Simd.Policy seed value is ignored.
  if (PolicyFilter.empty() || PolicyFilter == "auto")
    PushCross(policies::PolicyKind::Dominant, /*Auto=*/true);
  return Configs;
}

namespace {

/// What decides a verified run's op counts besides the loop and the
/// reference image, which are fixed within one (seed, width): the raw
/// program, as the index of the first codegen entry whose program equals
/// it, and the inputs of the steps between that program and the counts.
struct OutcomeKey {
  size_t Canon = 0;
  OptLevel Opt = OptLevel::Raw;
  bool MemNorm = true;
  bool TrackChunkLoads = false;

  bool operator==(const OutcomeKey &) const = default;
};

/// runOneSeed's memo for one (seed, width), in two layers. The codegen
/// layer holds one simdize() result per resolved (policy, software
/// pipelining): the three opt levels of a policy, and the auto configs
/// that resolve to it, pass simdize() identical options. The outcome layer
/// holds the op counts of verified runs, so a config whose raw program
/// (after the mutator) equals an earlier one's skips the optimizer and
/// the VM check. Only verified outcomes are stored, so every failure is
/// recomputed and names its own config. No program is kept per outcome.
class SeedMemo {
public:
  /// \p C's raw program: a private copy of its codegen entry, simdized on
  /// the first config that needs it.
  pipeline::CompileResult rawProgram(const ir::Loop &L, const FuzzConfig &C) {
    // Reassociation rewrites the loop the key assumes fixed.
    assert(!C.OffsetReassoc && "the memo compiles the loop as given");
    policies::PolicyKind Policy = pipeline::resolvePolicy(L, C);
    bool SP = C.Simd.SoftwarePipelining;
    auto It = std::find_if(Codegen.begin(), Codegen.end(), [&](auto &E) {
      return E.Policy == Policy && E.SP == SP;
    });
    if (It == Codegen.end()) {
      ++SimdizeCalls;
      It = Codegen.insert(Codegen.end(),
                          {Policy, SP, pipeline::compileRaw(L, C).Simd});
    }
    pipeline::CompileResult P;
    P.Simd = It->Simd;
    P.ResolvedPolicy = Policy;
    P.ConfigName = C.name();
    P.Tier = C.Tier;
    return P;
  }

  /// The outcome key of a run of \p C whose raw program is \p Raw; none
  /// when no codegen entry's program equals it (the mutator changed it).
  std::optional<OutcomeKey> keyOf(const vir::VProgram &Raw,
                                  const FuzzConfig &C,
                                  bool TrackChunkLoads) const {
    for (size_t I = 0; I < Codegen.size(); ++I)
      if (Codegen[I].Simd.ok() && *Codegen[I].Simd.Program == Raw)
        return OutcomeKey{I, C.Opt, C.MemNorm, TrackChunkLoads};
    return std::nullopt;
  }

  const sim::OpCounts *find(const OutcomeKey &K) const {
    for (const auto &[Key, Counts] : Outcomes)
      if (Key == K)
        return &Counts;
    return nullptr;
  }

  void remember(const OutcomeKey &K, const sim::OpCounts &Counts) {
    Outcomes.emplace_back(K, Counts);
  }

  uint64_t SimdizeCalls = 0; ///< simdize() calls made for codegen entries.
  uint64_t VmChecks = 0;     ///< Runs that optimized and ran the VM check.

private:
  struct CodegenEntry {
    policies::PolicyKind Policy;
    bool SP;
    codegen::SimdizeResult Simd;
  };
  std::vector<CodegenEntry> Codegen;
  std::vector<std::pair<OutcomeKey, sim::OpCounts>> Outcomes;
};

/// Everything runConfigOnLoop does after code generation, on \p P, a raw
/// program private to \p C. With \p Memo, a run whose outcome key has a
/// verified outcome takes its op counts from the memo and skips the
/// optimizer, post-optimization verification, the VM check, the native
/// differential and never-load-twice; the OPD bound, which reads the
/// config's own policy, still runs.
RunResult finishRun(const ir::Loop &L, const FuzzConfig &C,
                    pipeline::CompileResult &P, uint64_t CheckSeed,
                    const ProgramMutator &Mutator,
                    const sim::ReferenceImage *Ref, bool Oracles,
                    bool NativeDiff, SeedMemo *Memo) {
  if (!P.Simd.ok()) {
    RunStatus Status = P.Simd.ErrorKind == codegen::SimdizeErrorKind::Internal
                           ? RunStatus::Failed
                           : RunStatus::Rejected;
    return {Status, P.Simd.Error,
            Status == RunStatus::Failed ? oracle::FailureKind::Internal
                                        : oracle::FailureKind::None};
  }

  // Everything past code generation reports the placed-shift count, so
  // metrics see it even for runs that go on to fail.
  auto Tagged = [&P](RunStatus Status, std::string Message,
                     oracle::FailureKind Kind) {
    RunResult Res;
    Res.Status = Status;
    Res.Message = std::move(Message);
    Res.Kind = Kind;
    Res.ShiftCount = P.Simd.ShiftCount;
    return Res;
  };

  // The raw-program window: mutations hit the program before the property
  // oracles and the optimizer — an injected bug can hide behind neither.
  if (Mutator)
    Mutator(*P.Simd.Program);
  if (Oracles) {
    // VVerifier-on-everything: simdize() verified its own output, but the
    // mutated program must be re-proven valid before anything downstream
    // consumes it.
    if (Mutator)
      if (auto Err = vir::verifyProgram(*P.Simd.Program))
        return Tagged(RunStatus::Failed,
                      strf("program fails verification under scheme %s: %s",
                           C.name().c_str(), Err->c_str()),
                      oracle::FailureKind::Verifier);
    // Shift counts are checked on the raw program: CSE and predictive
    // commoning may legitimately merge realignment operations later. Auto
    // configs are held to the contract of the policy they resolved to.
    if (auto V = oracle::checkShiftCounts(L, P.Simd, P.ResolvedPolicy,
                                          C.Simd.SoftwarePipelining))
      return Tagged(RunStatus::Failed, V->Message, V->Kind);
  }

  unsigned VectorLen = P.Simd.Program->getVectorLen();
  // Chunk counts are collected only when the never-load-twice oracle will
  // consume them.
  sim::ExecOptions EO;
  EO.TrackChunkLoads = Oracles && C.exploitsReuse();
  // The key is taken after the mutator, so a mutated program never
  // borrows the outcome of the program it was mutated from.
  std::optional<OutcomeKey> Key;
  const sim::OpCounts *Known = nullptr;
  if (Memo) {
    Key = Memo->keyOf(*P.Simd.Program, C, EO.TrackChunkLoads);
    if (Key)
      Known = Memo->find(*Key);
  }

  sim::ExecStats Stats;
  if (Known) {
    Stats.Counts = *Known;
  } else {
    pipeline::optimize(P, C);
    if (P.PostOptVerifyError)
      return Tagged(RunStatus::Failed, *P.PostOptVerifyError,
                    oracle::FailureKind::Verifier);

    // Bulk callers share the scalar reference run across configurations;
    // the shrinker, with no shared image, builds its own.
    std::optional<sim::ReferenceImage> Own;
    if (!Ref)
      Ref = &Own.emplace(L, VectorLen, CheckSeed);
    // The native axis rides on the result's tier: checkCompiled then runs
    // the dlopen'd kernel against the image the VM was verified against.
    if (NativeDiff)
      P.Tier = pipeline::ExecTier::Native;
    if (Memo)
      ++Memo->VmChecks;
    sim::CheckResult Check = pipeline::checkCompiled(L, P, *Ref, "", EO);
    if (!Check.Ok)
      return Tagged(RunStatus::Failed, Check.Message,
                    Check.VerifierFailed ? oracle::FailureKind::Verifier
                                         : oracle::FailureKind::Mismatch);
    if (Oracles && C.exploitsReuse())
      if (auto V = oracle::checkNeverLoadTwice(L, VectorLen, Check.Stats))
        return Tagged(RunStatus::Failed, V->Message, V->Kind);
    Stats = std::move(Check.Stats);
  }

  if (Oracles)
    if (auto V = oracle::checkOpdBound(L, VectorLen, P.ResolvedPolicy, C.Opt,
                                       Stats))
      return Tagged(RunStatus::Failed, V->Message, V->Kind);
  if (Key && !Known)
    Memo->remember(*Key, Stats.Counts);

  RunResult Res = Tagged(RunStatus::Verified, "", oracle::FailureKind::None);
  // NaN for zero-trip loops by the opd convention; metrics skip it.
  Res.Opd = Stats.Counts.opd(L.getUpperBound() *
                             static_cast<int64_t>(L.getStmts().size()));
  return Res;
}

} // namespace

RunResult fuzz::runConfigOnLoop(const ir::Loop &L, const FuzzConfig &C,
                                uint64_t CheckSeed,
                                const ProgramMutator &Mutator,
                                const sim::ReferenceImage *Ref, bool Oracles,
                                bool NativeDiff) {
  pipeline::CompileResult P = pipeline::compileRaw(L, C);
  return finishRun(L, C, P, CheckSeed, Mutator, Ref, Oracles, NativeDiff,
                   /*Memo=*/nullptr);
}

synth::SynthParams fuzz::paramsForSeed(uint64_t Seed, unsigned MaxVectorLen,
                                       bool Guards, bool Reductions) {
  // Decorrelate neighboring seeds; the SynthParams seed itself is a fresh
  // draw so the synthesizer's stream is independent of ours.
  RNG Rng(Seed * 0x9e3779b97f4a7c15ULL + 0xf0220bu);

  synth::SynthParams P;
  P.Statements = static_cast<unsigned>(Rng.uniformInt(1, 4));
  P.LoadsPerStmt = static_cast<unsigned>(Rng.uniformInt(1, 6));
  switch (Rng.uniformInt(0, 3)) { // i32 twice as likely, as in the paper
  case 0:
    P.Ty = ir::ElemType::Int8;
    break;
  case 1:
    P.Ty = ir::ElemType::Int16;
    break;
  default:
    P.Ty = ir::ElemType::Int32;
    break;
  }
  P.Bias = Rng.uniformReal();
  P.Reuse = Rng.uniformReal();
  P.AlignKnown = Rng.withProbability(0.5);
  P.UBKnown = Rng.withProbability(0.5);
  P.NaturalAlignment = Rng.withProbability(0.75);
  P.MaxExtraOffset = static_cast<unsigned>(Rng.uniformInt(0, 6));

  // Trip counts: spike the degenerate values the 3B validity guard must
  // reject without crashing, otherwise sample the simdizable range with
  // emphasis near the guard (hardest prologue/epilogue interplay). B is
  // the widest width's blocking factor, so the edge set covers the
  // hardest width of the sweep; narrower widths see these trip counts as
  // comfortably-past-guard values, which the uniform ranges cover too.
  P.VectorLen = MaxVectorLen;
  int64_t B = static_cast<int64_t>(MaxVectorLen) / ir::elemSize(P.Ty);
  if (Rng.withProbability(0.25)) {
    const int64_t Edges[] = {0, 1, B - 1, B, 2 * B, 3 * B, 3 * B + 1};
    P.TripCount = Edges[Rng.uniformInt(0, 6)];
  } else if (Rng.withProbability(0.5)) {
    P.TripCount = Rng.uniformInt(3 * B + 1, 5 * B);
  } else {
    P.TripCount = Rng.uniformInt(3 * B + 1, 16 * B);
  }
  // The new statement-kind axes draw only when enabled, trailing every
  // historical draw: legacy seeds keep reproducing byte-identical loops.
  if (Guards)
    P.GuardProb = 0.2 + 0.6 * Rng.uniformReal();
  if (Reductions)
    P.ReduceProb = 0.15 + 0.35 * Rng.uniformReal();
  P.Seed = Rng.next();
  return P;
}

namespace {

/// One Failed (loop, config) run as recorded by a worker. Shrinking and
/// corpus output are deferred to the seed-order merge, so a worker carries
/// only the config and the diagnostic.
struct PendingFailure {
  FuzzConfig Config;
  oracle::FailureKind Kind = oracle::FailureKind::None;
  std::string Message;
};

/// Everything a worker records for one seed. Workers never touch the
/// shared FuzzStats; outcomes are merged strictly in seed order, making
/// every observable of the run independent of scheduling.
struct SeedOutcome {
  uint64_t Verified = 0;
  uint64_t Rejected = 0;
  std::vector<PendingFailure> Failures;
  /// Pre-rendered JSONL records (one per config run), collected only when
  /// FuzzOptions::MetricsOut is set; written out during the seed-order
  /// merge so the stream is independent of worker scheduling.
  std::vector<std::string> Metrics;
  /// Verified-run opd samples (NaN already filtered) and placed-shift
  /// counts, folded into the sweep-level histograms at merge time.
  std::vector<double> OpdSamples;
  std::vector<unsigned> ShiftSamples;
  uint64_t SimdizeCalls = 0;
  uint64_t VmChecks = 0;
  bool Ran = false;
};

const char *statusName(RunStatus S) {
  switch (S) {
  case RunStatus::Verified:
    return "verified";
  case RunStatus::Rejected:
    return "rejected";
  case RunStatus::Failed:
    return "failed";
  }
  return "unknown";
}

/// One {"seed":...,"config":...,"status":...,...} JSONL record. The writer
/// turns the NaN opd of rejected/zero-datum runs into null.
std::string renderRunRecord(uint64_t Seed, const FuzzConfig &C,
                            const RunResult &R) {
  std::string Out;
  obs::json::Writer W(Out);
  W.beginObject()
      .field("seed", Seed)
      .field("config", C.name())
      .field("status", statusName(R.Status))
      .field("kind", oracle::failureKindName(R.Kind))
      .field("shift_count", R.ShiftCount)
      .field("opd", R.Opd)
      .endObject();
  return Out;
}

} // namespace

/// Runs every applicable configuration at every width of the sweep for one
/// seed. Pure in the seed (and the mutator): resynthesizes the loop from
/// paramsForSeed at the widest width — so all widths exercise the *same*
/// loop — and checks every run at a width against one ReferenceImage,
/// through one SeedMemo per width. Each run's record is the one
/// runConfigOnLoop would give it.
static SeedOutcome runOneSeed(uint64_t Seed, const FuzzOptions &Opts,
                              const std::vector<unsigned> &Widths,
                              unsigned MaxWidth) {
  SeedOutcome Out;
  ir::Loop L = synth::synthesizeLoop(
      paramsForSeed(Seed, MaxWidth, Opts.Guards, Opts.Reductions));
  uint64_t CheckSeed = Seed ^ 0xc0ffee;

  for (unsigned W : Widths) {
    sim::ReferenceImage Ref(L, W, CheckSeed);
    SeedMemo Memo;
    for (const FuzzConfig &C : configsForLoop(L, W, Opts.PolicyFilter)) {
      pipeline::CompileResult P = Memo.rawProgram(L, C);
      RunResult R = finishRun(L, C, P, CheckSeed, Opts.Mutator, &Ref,
                              Opts.Oracles, Opts.NativeDiff, &Memo);
      if (Opts.MetricsOut) {
        Out.Metrics.push_back(renderRunRecord(Seed, C, R));
        if (R.Status == RunStatus::Verified) {
          if (!std::isnan(R.Opd))
            Out.OpdSamples.push_back(R.Opd);
          Out.ShiftSamples.push_back(R.ShiftCount);
        }
      }
      switch (R.Status) {
      case RunStatus::Verified:
        ++Out.Verified;
        break;
      case RunStatus::Rejected:
        ++Out.Rejected;
        break;
      case RunStatus::Failed:
        Out.Failures.push_back({C, R.Kind, std::move(R.Message)});
        break;
      }
    }
    Out.SimdizeCalls += Memo.SimdizeCalls;
    Out.VmChecks += Memo.VmChecks;
  }
  Out.Ran = true;
  return Out;
}

FuzzStats fuzz::runFuzz(const FuzzOptions &Opts) {
  using Clock = std::chrono::steady_clock;
  auto Start = Clock::now();
  auto Elapsed = [&] {
    return std::chrono::duration<double>(Clock::now() - Start).count();
  };

  FuzzStats Stats;

  // Normalize the width axis once: an empty list means the default
  // 16-byte target; the loop generator always runs at the widest width.
  std::vector<unsigned> Widths =
      Opts.Widths.empty() ? std::vector<unsigned>{16} : Opts.Widths;
  unsigned MaxWidth = *std::max_element(Widths.begin(), Widths.end());

  // Sticky budget flag shared by all workers; checked before each seed so a
  // worker never starts work past the deadline.
  std::atomic<bool> OutOfBudget{false};
  auto BudgetHit = [&] {
    if (OutOfBudget.load(std::memory_order_relaxed))
      return true;
    if (Opts.TimeBudgetSeconds > 0 && Elapsed() > Opts.TimeBudgetSeconds) {
      OutOfBudget.store(true, std::memory_order_relaxed);
      return true;
    }
    return false;
  };

  // Minimized reproducers already emitted this sweep, keyed by failure
  // kind plus the bare loop text: one codegen bug typically fires on many
  // seeds and configurations, but is worth writing (and recording) once.
  std::set<std::string> SeenReproducers;

  // Sweep-level distributions for the final aggregate record. Histogram
  // merging is order-independent, so these are bit-identical across
  // --jobs values even though per-record order already guarantees it.
  obs::Histogram OpdHist, ShiftHist;

  // Folds one seed's outcome into Stats. All logging, shrinking, and corpus
  // output happen here — in seed order — so Jobs=N reproduces Jobs=1
  // bit-for-bit (timing text aside). Shrinking resynthesizes the loop from
  // its seed; only the first MaxFailures failures are shrunk, exactly as a
  // serial sweep would select them.
  auto MergeSeed = [&](uint64_t Seed, SeedOutcome &Out) {
    if (Opts.Verbose && Opts.Log) {
      synth::SynthParams P =
          paramsForSeed(Seed, MaxWidth, Opts.Guards, Opts.Reductions);
      std::fprintf(Opts.Log,
                   "seed %llu: s=%u l=%u n=%lld ty=%s align=%s ub=%s%s"
                   " guard=%.2f reduce=%.2f\n",
                   static_cast<unsigned long long>(Seed), P.Statements,
                   P.LoadsPerStmt, static_cast<long long>(P.TripCount),
                   ir::elemTypeName(P.Ty), P.AlignKnown ? "ct" : "rt",
                   P.UBKnown ? "ct" : "rt",
                   P.NaturalAlignment ? "" : " byte-misaligned", P.GuardProb,
                   P.ReduceProb);
    }

    Stats.RunsVerified += Out.Verified;
    Stats.RunsRejected += Out.Rejected;
    Stats.SimdizeCalls += Out.SimdizeCalls;
    Stats.VmChecks += Out.VmChecks;

    if (Opts.MetricsOut) {
      for (const std::string &Rec : Out.Metrics) {
        std::fputs(Rec.c_str(), Opts.MetricsOut);
        std::fputc('\n', Opts.MetricsOut);
      }
      for (double V : Out.OpdSamples)
        OpdHist.add(V);
      for (unsigned V : Out.ShiftSamples)
        ShiftHist.add(static_cast<double>(V));
    }

    for (PendingFailure &PF : Out.Failures) {
      FuzzFailure F;
      F.Seed = Seed;
      F.Config = PF.Config;
      F.Kind = PF.Kind;
      F.Message = std::move(PF.Message);
      if (Opts.Log)
        std::fprintf(Opts.Log, "FAILURE seed %llu config %s [%s]: %s\n",
                     static_cast<unsigned long long>(Seed),
                     F.Config.name().c_str(),
                     oracle::failureKindName(F.Kind), F.Message.c_str());

      if (Stats.Failures.size() < Opts.MaxFailures) {
        ir::Loop L = synth::synthesizeLoop(
            paramsForSeed(Seed, MaxWidth, Opts.Guards, Opts.Reductions));
        uint64_t CheckSeed = Seed ^ 0xc0ffee;
        // A candidate must fail with the *same* kind: a mismatch must not
        // shrink into, say, an unrelated OPD violation. Shrinking runs at
        // the failing configuration's width (its validity guard).
        ir::Loop Minimized = shrinkLoop(
            L,
            [&](const ir::Loop &Cand) {
              RunResult R = runConfigOnLoop(Cand, F.Config, CheckSeed,
                                            Opts.Mutator, nullptr,
                                            Opts.Oracles, Opts.NativeDiff);
              return R.Status == RunStatus::Failed && R.Kind == F.Kind;
            },
            nullptr, F.Config.Simd.vectorLen());
        std::string Why =
            runConfigOnLoop(Minimized, F.Config, CheckSeed, Opts.Mutator,
                            nullptr, Opts.Oracles, Opts.NativeDiff)
                .Message;
        // The same minimized loop failing the same way is one bug, no
        // matter how many seeds or configurations hit it: keep the first,
        // count the rest.
        std::string Bare = ir::printParseable(Minimized);
        if (!SeenReproducers
                 .insert(strf("%s|", oracle::failureKindName(F.Kind)) + Bare)
                 .second) {
          ++Stats.DuplicateFailures;
          if (Opts.Log)
            std::fprintf(Opts.Log,
                         "duplicate of an earlier minimized reproducer\n");
          continue;
        }
        F.MinimizedText = ir::printParseable(
            Minimized,
            strf("fuzz seed %llu, config %s, kind %s\n%s",
                 static_cast<unsigned long long>(Seed),
                 F.Config.name().c_str(), oracle::failureKindName(F.Kind),
                 Why.c_str()));
        if (!Opts.CorpusDir.empty()) {
          std::string CfgSlug = F.Config.name();
          for (char &Ch : CfgSlug)
            if (Ch == '/')
              Ch = '_';
          if (auto Path = writeCorpusFile(
                  Opts.CorpusDir,
                  strf("seed%llu-%s-%s.loop",
                       static_cast<unsigned long long>(Seed), CfgSlug.c_str(),
                       oracle::failureKindName(F.Kind)),
                  F.MinimizedText))
            F.CorpusFile = *Path;
        }
        if (Opts.Log && !F.MinimizedText.empty())
          std::fprintf(Opts.Log, "minimized reproducer:\n%s",
                       F.MinimizedText.c_str());
      }
      Stats.Failures.push_back(std::move(F));
    }
    ++Stats.SeedsRun;

    if (Opts.Log && !Opts.Verbose && Stats.SeedsRun % 500 == 0)
      std::fprintf(Opts.Log,
                   "... %llu seeds, %llu verified, %llu rejected, %zu "
                   "failures, %.1fs\n",
                   static_cast<unsigned long long>(Stats.SeedsRun),
                   static_cast<unsigned long long>(Stats.RunsVerified),
                   static_cast<unsigned long long>(Stats.RunsRejected),
                   Stats.Failures.size(), Elapsed());
  };

  // Seeds are processed in waves so outcome storage stays bounded for huge
  // --seeds sweeps under a time budget. Within a wave, workers claim seeds
  // from an atomic cursor; the merge then walks the wave in seed order and
  // stops at the first seed the budget prevented from running — exactly
  // where a serial sweep would have stopped.
  const uint64_t EndSeed = Opts.StartSeed + Opts.NumSeeds;
  const unsigned Jobs = std::max(1u, Opts.Jobs);
  const uint64_t WaveSize = 8192;

  for (uint64_t WaveBegin = Opts.StartSeed;
       WaveBegin < EndSeed && !Stats.HitTimeBudget; WaveBegin += WaveSize) {
    const uint64_t WaveLen = std::min(WaveSize, EndSeed - WaveBegin);
    std::vector<SeedOutcome> Outcomes(WaveLen);
    std::atomic<uint64_t> Cursor{0};

    auto Worker = [&] {
      for (;;) {
        if (BudgetHit())
          return;
        uint64_t I = Cursor.fetch_add(1, std::memory_order_relaxed);
        if (I >= WaveLen)
          return;
        Outcomes[I] = runOneSeed(WaveBegin + I, Opts, Widths, MaxWidth);
      }
    };

    if (Jobs <= 1) {
      Worker();
    } else {
      std::vector<std::thread> Workers;
      Workers.reserve(Jobs);
      for (unsigned T = 0; T < Jobs; ++T)
        Workers.emplace_back(Worker);
      for (std::thread &W : Workers)
        W.join();
    }

    for (uint64_t I = 0; I < WaveLen; ++I) {
      if (!Outcomes[I].Ran) {
        Stats.HitTimeBudget = true;
        break;
      }
      MergeSeed(WaveBegin + I, Outcomes[I]);
    }
  }

  if (Opts.MetricsOut) {
    // Final JSONL line: sweep totals plus the verified-run distributions
    // with percentiles. Wall time is deliberately absent — the stream must
    // be reproducible byte for byte.
    std::string Agg;
    obs::json::Writer W(Agg);
    W.beginObject()
        .field("aggregate", true)
        .field("seeds_run", Stats.SeedsRun)
        .field("runs_verified", Stats.RunsVerified)
        .field("runs_rejected", Stats.RunsRejected)
        .field("failures", static_cast<uint64_t>(Stats.Failures.size()))
        .field("duplicate_failures", Stats.DuplicateFailures)
        .field("hit_time_budget", Stats.HitTimeBudget);
    W.key("opd");
    OpdHist.writeJson(W);
    W.key("shift_count");
    ShiftHist.writeJson(W);
    W.endObject();
    std::fputs(Agg.c_str(), Opts.MetricsOut);
    std::fputc('\n', Opts.MetricsOut);
    std::fflush(Opts.MetricsOut);
  }
  return Stats;
}
