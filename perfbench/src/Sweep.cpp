//===- perfbench/src/Sweep.cpp - The sweep workload -----------------------===//
///
/// \file
/// fuzz::runFuzz over a seeded fuzz-seed range with the CI release-sweep
/// settings (V = 16/32/64, guards and reductions on, property oracles on),
/// once at Jobs=1 (one runFuzz call per fuzz seed, so each seed's time to
/// a verdict is a sample) and once over the same seeds at Jobs=4. The two
/// passes must agree exactly on the verified, rejected and failed counts.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"
#include "CompilePath.h"

#include "fuzz/Fuzzer.h"
#include "ir/Loop.h"
#include "ir/Type.h"
#include "oracle/Oracle.h"
#include "reorg/ReorgGraph.h"
#include "support/Format.h"
#include "synth/LoopSynth.h"

#include <array>
#include <thread>

using namespace perfbench;
using namespace simdize;

using Scope = SpanLog::Scope;

namespace {

constexpr unsigned MaxWidth = 64;
/// Fuzz seeds the set-up warm-up sweeps: a fixed range, the same for every
/// benchmark seed, so set-up time does not depend on the input draw.
constexpr uint64_t WarmUpSeeds = 16;

fuzz::FuzzOptions sweepOptions(uint64_t Start, uint64_t Count,
                               unsigned Jobs) {
  fuzz::FuzzOptions F;
  F.StartSeed = Start;
  F.NumSeeds = Count;
  F.Jobs = Jobs;
  F.Widths = {16, 32, 64};
  F.Guards = true;
  F.Reductions = true;
  F.Oracles = true;
  return F;
}

/// The workload's fuzz seeds: of the span of 50,000 fuzz seeds the
/// benchmark seed selects, the \p Count-seed window whose composition is
/// closest to the span's own on the draws that set a seed's cost (how
/// many configs apply, statements, loads, trip bytes, guard and reduction
/// odds). Per-seed cost varies about 2x either way, so a window picked
/// blindly would make seeds/s depend on the draw; this one asks every
/// benchmark seed for the same amount of verification work.
uint64_t pickSeedWindow(uint64_t Seed, uint64_t Count) {
  constexpr uint64_t Span = 50'000;
  constexpr size_t K = 6;
  const uint64_t Start = 1'000'000 + (Rand(Seed).next() % 100'000) * Span;
  std::vector<std::array<double, K>> Prefix(Span + 1);
  for (uint64_t I = 0; I < Span; ++I) {
    synth::SynthParams P =
        fuzz::paramsForSeed(Start + I, MaxWidth, true, true);
    double Configs = P.AlignKnown ? 3 : 1;
    double Stmts = Configs * P.Statements;
    std::array<double, K> F = {
        Configs,
        Stmts,
        Stmts * P.LoadsPerStmt,
        Stmts * static_cast<double>(P.TripCount * ir::elemSize(P.Ty)),
        Stmts * P.GuardProb,
        Stmts * P.ReduceProb};
    for (size_t J = 0; J < K; ++J)
      Prefix[I + 1][J] = Prefix[I][J] + F[J];
  }
  uint64_t Best = 0;
  double BestDev = 1e300;
  for (uint64_t W = 0; W + Count <= Span; ++W) {
    double Dev = 0;
    for (size_t J = 0; J < K; ++J) {
      double Want = Prefix[Span][J] * static_cast<double>(Count) / Span;
      double Got = Prefix[W + Count][J] - Prefix[W][J];
      Dev = std::max(Dev, std::abs(Got / Want - 1));
    }
    if (Dev < BestDev) {
      BestDev = Dev;
      Best = W;
    }
  }
  return Start + Best;
}

unsigned jobsForParallelPass() {
  return std::max(1u, std::min(4u, std::thread::hardware_concurrency()));
}

struct Tally {
  uint64_t Verified = 0, Rejected = 0, Failed = 0;
  void add(const fuzz::FuzzStats &S) {
    Verified += S.RunsVerified;
    Rejected += S.RunsRejected;
    Failed += S.Failures.size() + S.DuplicateFailures;
  }
  bool operator==(const Tally &O) const {
    return Verified == O.Verified && Rejected == O.Rejected &&
           Failed == O.Failed;
  }
};

void account(Report &R, const Tally &T, const char *Pass) {
  R.Attempted += T.Verified + T.Rejected + T.Failed;
  for (uint64_t I = 0; I < T.Failed; ++I)
    R.fail(strf("%s pass: a fuzz run failed", Pass));
}

/// fuzz::runConfigOnLoop with oracles on and no mutator, call by call.
fuzz::RunStatus replayRun(SpanLog *Log, uint64_t Seed, const ir::Loop &L,
                          const fuzz::FuzzConfig &C,
                          const sim::ReferenceImage &Ref, LayerTally &T) {
  RawHook Hook = [&](codegen::SimdizeResult &Raw,
                     policies::PolicyKind Policy) {
    Scope Sp(Log, "oracle.shift_counts", Seed);
    return !oracle::checkShiftCounts(L, Raw, Policy,
                                     C.Simd.SoftwarePipelining);
  };
  CompiledProgram P = compileTraced(Log, Seed, /*Dup=*/false, L, C, T, Hook);
  if (!P.Simd.ok())
    return P.Simd.ErrorKind == codegen::SimdizeErrorKind::Internal
               ? fuzz::RunStatus::Failed
               : fuzz::RunStatus::Rejected;
  if (P.HookAborted || P.PostOptVerifyError)
    return fuzz::RunStatus::Failed;

  unsigned V = P.Simd.Program->getVectorLen();
  sim::CheckResult Check = checkTraced(Log, Seed, /*Dup=*/false, L,
                                       *P.Simd.Program, Ref,
                                       C.exploitsReuse(), T);
  if (!Check.Ok)
    return fuzz::RunStatus::Failed;
  if (C.exploitsReuse()) {
    Scope Sp(Log, "oracle.never_load_twice", Seed);
    if (oracle::checkNeverLoadTwice(L, V, Check.Stats))
      return fuzz::RunStatus::Failed;
  }
  {
    Scope Sp(Log, "oracle.opd_bound", Seed);
    if (oracle::checkOpdBound(L, V, P.ResolvedPolicy, C.Opt, Check.Stats))
      return fuzz::RunStatus::Failed;
  }
  double Opd = Check.Stats.Counts.opd(datumsOf(L));
  if (!std::isnan(Opd))
    T.Opd.push_back(Opd);
  return fuzz::RunStatus::Verified;
}

/// Replays runFuzz's per-seed work (fuzz::runOneSeed) for \p Count seeds.
Tally replaySeeds(SpanLog *Log, uint64_t Start, uint64_t Count,
                  LayerTally &T) {
  Tally Out;
  for (uint64_t Seed = Start; Seed < Start + Count; ++Seed) {
    std::optional<ir::Loop> L;
    {
      Scope Sp(Log, "synth.synthesize", Seed);
      L.emplace(synth::synthesizeLoop(
          fuzz::paramsForSeed(Seed, MaxWidth, true, true)));
    }
    uint64_t CheckSeed = Seed ^ 0xc0ffee;
    for (unsigned W : {16u, 32u, 64u}) {
      std::optional<sim::ReferenceImage> Ref;
      {
        Scope Sp(Log, "sim.reference_image", Seed);
        Ref.emplace(*L, W, CheckSeed);
      }
      for (const fuzz::FuzzConfig &C : fuzz::configsForLoop(*L, W)) {
        switch (replayRun(Log, Seed, *L, C, *Ref, T)) {
        case fuzz::RunStatus::Verified:
          ++Out.Verified;
          break;
        case fuzz::RunStatus::Rejected:
          ++Out.Rejected;
          break;
        case fuzz::RunStatus::Failed:
          ++Out.Failed;
          break;
        }
      }
    }
  }
  return Out;
}

} // namespace

Report perfbench::runSweep(const Options &O, SpanLog *Log) {
  Report R;
  // About 40 seeds a second at Jobs=1 and 4x that at Jobs=4.
  const uint64_t Count = static_cast<uint64_t>(40 * O.Seconds);
  const uint64_t Base = pickSeedWindow(O.Seed, Count);

  // Set-up: a warm-up sweep over a fixed range.
  Clock::time_point T0 = Clock::now();
  Tally WarmUp;
  WarmUp.add(fuzz::runFuzz(sweepOptions(1, WarmUpSeeds, 1)));
  R.SetupS = secondsSince(T0);
  account(R, WarmUp, "warm-up");
  if (O.RunMode == Mode::Setup)
    return R;

  if (O.RunMode == Mode::Replay) {
    // The first seeds of the window, the same in both replays.
    const uint64_t Replayed = Count / 6;
    Tally Got;
    if (!Log) {
      uint64_t Builds0 = reorg::graphBuildCount();
      Clock::time_point S0 = Clock::now();
      Got.add(fuzz::runFuzz(sweepOptions(Base, Replayed, 1)));
      R.WallS = secondsSince(S0);
      R.Counts["reorg.graph_builds"] =
          static_cast<double>(reorg::graphBuildCount() - Builds0);
    } else {
      LayerTally T;
      Log->start();
      Got = replaySeeds(Log, Base, Replayed, T);
      Log->finish();
      addTallyMetrics(R, T);
    }
    account(R, Got, "replay");
    R.Counts["sweep.verified"] = static_cast<double>(Got.Verified);
    R.Counts["sweep.rejected"] = static_cast<double>(Got.Rejected);
    return R;
  }

  // Timed phase: the window at Jobs=1, one seed per call so each seed's
  // time to a verdict is a sample, then the same seeds in one Jobs=4 sweep.
  std::vector<double> SeedUs;
  Tally Serial;
  Clock::time_point Start = Clock::now();
  for (uint64_t I = 0; I < Count; ++I) {
    Clock::time_point S0 = Clock::now();
    Serial.add(fuzz::runFuzz(sweepOptions(Base + I, 1, 1)));
    SeedUs.push_back(
        std::chrono::duration<double, std::micro>(Clock::now() - S0).count());
  }
  double SerialS = secondsSince(Start);
  unsigned Jobs = jobsForParallelPass();
  Tally Parallel;
  Clock::time_point P0 = Clock::now();
  Parallel.add(fuzz::runFuzz(sweepOptions(Base, Count, Jobs)));
  double ParallelS = secondsSince(P0);
  account(R, Serial, "Jobs=1");
  account(R, Parallel, "Jobs=4");
  if (!(Serial == Parallel))
    R.fail(strf("Jobs=1 and Jobs=%u disagree: %llu/%llu/%llu vs "
                "%llu/%llu/%llu verified/rejected/failed",
                Jobs, (unsigned long long)Serial.Verified,
                (unsigned long long)Serial.Rejected,
                (unsigned long long)Serial.Failed,
                (unsigned long long)Parallel.Verified,
                (unsigned long long)Parallel.Rejected,
                (unsigned long long)Parallel.Failed));
  R.Counts["sweep.verified"] = static_cast<double>(Serial.Verified);
  R.Counts["sweep.rejected"] = static_cast<double>(Serial.Rejected);

  double PerSec = static_cast<double>(Count) / SerialS;
  double PerSecJobs = static_cast<double>(Count) / ParallelS;
  R.metric("seeds_per_s", "seeds/s", PerSec);
  R.metric("seeds_per_s_jobs4", "seeds/s", PerSecJobs);
  R.metric("seed_p50_us", "us", median(SeedUs));
  R.metric("ops_per_s", "1/s", PerSec);
  R.metric("p50_us", "us", median(SeedUs));
  R.Lines.push_back(strf(
      "sweep: %llu fuzz seeds from %llu (%llu verified, %llu rejected "
      "runs): %.1f seeds/s at Jobs=1, %.1f seeds/s at Jobs=%u, "
      "p50 %.0f us per seed",
      (unsigned long long)Count, (unsigned long long)Base,
      (unsigned long long)Serial.Verified, (unsigned long long)Serial.Rejected,
      PerSec, PerSecJobs, Jobs, median(SeedUs)));
  return R;
}
