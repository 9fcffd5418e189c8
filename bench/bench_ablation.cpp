//===- bench/bench_ablation.cpp - Ablations the paper calls out -----------===//
//
// Part of the simdize project (PLDI 2004 alignment-constrained simdization).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Three side claims of Section 5.5, each measured here:
///
///  1. "MemNorm is always beneficial by approximately 0.5% across the
///     board" — opd with and without memory normalization;
///  2. "using predictive commoning in addition to software pipelining does
///     not bring any additional benefit" — SP vs. SP+PC;
///  3. OffsetReassoc "enables lazy-shift and dominant-shift to have on
///     average no shift overhead over LB" — static vshiftstream counts
///     against the per-statement minimum.
///
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include "ir/Loop.h"

#include <cmath>

using namespace simdize;
using namespace simdize::bench;

static synth::SynthParams baseParams() {
  synth::SynthParams Base;
  Base.Statements = 1;
  Base.LoadsPerStmt = 6;
  Base.TripCount = 1000;
  Base.Bias = 0.3;
  Base.Reuse = 0.3;
  Base.Seed = 77;
  return Base;
}

int main(int Argc, char **Argv) {
  BenchMetrics Metrics;
  if (!Metrics.parseArgs(Argc, Argv))
    return 2;

  synth::SynthParams Base = baseParams();
  const unsigned Loops = 50;

  std::printf("=== Ablation 1: memory normalization (s=1 l=6 ints) ===\n");
  for (policies::PolicyKind Policy :
       {policies::PolicyKind::Zero, policies::PolicyKind::Lazy}) {
    for (bool MemNorm : {false, true}) {
      pipeline::CompileRequest S =
          harness::scheme(Policy, harness::ReuseKind::SP);
      S.MemNorm = MemNorm;
      harness::SuiteResult R = harness::runSuite(Base, Loops, S);
      std::string Name = harness::schemeName(S);
      Metrics.suite(Name + (MemNorm ? ".memnorm" : ".raw"), R);
      std::printf("  %-8s MemNorm=%-3s  opd %6.3f  speedup %5.2f\n",
                  Name.c_str(), MemNorm ? "on" : "off", R.MeanOpd,
                  R.HarmonicSpeedup);
    }
  }

  std::printf("=== Ablation 2: PC on top of SP brings no extra benefit ===\n");
  {
    // SP alone, then SP with PC stacked on top: the same request with the
    // optimization level raised.
    pipeline::CompileRequest SPOnly =
        harness::scheme(policies::PolicyKind::Lazy, harness::ReuseKind::SP);
    harness::SuiteResult RSP = harness::runSuite(Base, Loops, SPOnly);
    std::printf("  LAZY-sp        opd %6.3f\n", RSP.MeanOpd);

    pipeline::CompileRequest SPPC = SPOnly;
    SPPC.Opt = pipeline::OptLevel::PC; // PC in addition to SP.

    double SumOpd = 0.0;
    unsigned Count = 0;
    for (unsigned K = 0; K < Loops; ++K) {
      synth::SynthParams P = Base;
      P.Seed = synth::benchmarkLoopSeed(Base.Seed, K);
      ir::Loop L = synth::synthesizeLoop(P);
      pipeline::CompileResult R = pipeline::runPipeline(L, SPPC);
      if (!R.ok())
        continue;
      sim::CheckResult C = pipeline::checkCompiled(L, R, P.Seed, "LAZY-sp+pc");
      if (!C.Ok) {
        std::printf("  LAZY-sp+pc verification FAILED: %s\n",
                    C.Message.c_str());
        return 1;
      }
      int64_t Datums =
          L.getUpperBound() * static_cast<int64_t>(L.getStmts().size());
      double Opd = C.Stats.Counts.opd(Datums);
      if (std::isnan(Opd)) // Zero datums: no rate to average in.
        continue;
      SumOpd += Opd;
      ++Count;
    }
    Metrics.gauge("lazy-sp+pc.opd", Count ? SumOpd / Count : 0.0);
    std::printf("  LAZY-sp+pc     opd %6.3f   (%u loops)\n",
                Count ? SumOpd / Count : 0.0, Count);
  }

  std::printf("=== Ablation 3: reassociation vs. minimal shift count ===\n");
  for (policies::PolicyKind Policy :
       {policies::PolicyKind::Lazy, policies::PolicyKind::Dominant}) {
    for (bool Reassoc : {false, true}) {
      double Placed = 0.0, Minimum = 0.0;
      unsigned Count = 0;
      pipeline::CompileRequest Req =
          harness::scheme(Policy, harness::ReuseKind::None);
      Req.Opt = pipeline::OptLevel::Raw; // Only static shift counts matter.
      Req.OffsetReassoc = Reassoc;
      for (unsigned K = 0; K < Loops; ++K) {
        synth::SynthParams P = Base;
        P.Seed = synth::benchmarkLoopSeed(Base.Seed, K);
        ir::Loop L = synth::synthesizeLoop(P);
        pipeline::CompileResult R = pipeline::runPipeline(L, Req);
        if (!R.ok())
          continue;
        const ir::Loop &Run = R.compiledLoop(L);
        Placed += R.Simd.ShiftCount;
        Minimum += static_cast<double>(
            synth::computeLowerBound(Run, 16, Policy).Shifts);
        ++Count;
      }
      std::string Row = strf("%s.reassoc_%s", policies::policyName(Policy),
                             Reassoc ? "on" : "off");
      Metrics.gauge(Row + ".placed_shifts", Placed / Count);
      Metrics.gauge(Row + ".minimum_shifts", Minimum / Count);
      std::printf("  %-6s reassoc=%-3s  placed %5.2f  minimum %5.2f "
                  "shifts/loop (%u loops)\n",
                  policies::policyName(Policy), Reassoc ? "on" : "off",
                  Placed / Count, Minimum / Count, Count);
    }
  }
  return Metrics.write() ? 0 : 1;
}
