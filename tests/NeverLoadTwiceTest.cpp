//===- tests/NeverLoadTwiceTest.cpp - The headline reuse guarantee -------===//
//
// Part of the simdize project (PLDI 2004 alignment-constrained simdization).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// "Our code generation scheme guarantees to never load the same data
/// associated with a single static access twice." Two property checks over
/// random loops with reuse exploitation (SP or PC) enabled:
///
///  * statically, the steady body performs exactly one vector load per
///    distinct aligned stream per simdized iteration (the Section 5.3
///    distinct-load count);
///  * dynamically, no interior 16-byte chunk of any array is loaded more
///    often than the array has distinct streams — the steady state never
///    revisits data; only the one-time prologue/epilogue/pipeline-init
///    evaluations may re-touch chunks near a stream's ends.
///
//===----------------------------------------------------------------------===//

#include "codegen/Simdizer.h"
#include "ir/Loop.h"
#include "opt/Pipeline.h"
#include "sim/Checker.h"
#include "sim/Memory.h"
#include "support/MathExtras.h"
#include "synth/LoopSynth.h"
#include "synth/LowerBound.h"

#include <gtest/gtest.h>

#include <map>

using namespace simdize;

namespace {

struct ReuseCase {
  bool UseSP; // SP codegen versus PC post-pass.
  bool AlignKnown;
};

class NeverLoadTwice : public ::testing::TestWithParam<ReuseCase> {};

TEST_P(NeverLoadTwice, SteadyStateLoadsMatchDistinctStreams) {
  ReuseCase Case = GetParam();
  for (uint64_t Seed = 1; Seed <= 25; ++Seed) {
    synth::SynthParams P;
    P.Statements = 1 + Seed % 3;
    P.LoadsPerStmt = 1 + Seed % 6;
    P.TripCount = 200 + static_cast<int64_t>(Seed);
    P.AlignKnown = Case.AlignKnown;
    P.Seed = Seed * 1013;
    ir::Loop L = synth::synthesizeLoop(P);

    codegen::SimdizeOptions Opts;
    Opts.Policy = Case.AlignKnown ? policies::PolicyKind::Lazy
                                  : policies::PolicyKind::Zero;
    Opts.SoftwarePipelining = Case.UseSP;
    codegen::SimdizeResult R = codegen::simdize(L, Opts);
    ASSERT_TRUE(R.ok()) << R.Error;

    opt::OptConfig Config;
    Config.PC = !Case.UseSP;
    opt::runOptPipeline(*R.Program, Config);

    // Static check. Predictive commoning chains loads across iterations
    // (and even across chunk-adjacent streams, beating the per-stream
    // bound), so its steady state needs at most one load per distinct
    // stream per iteration. Software pipelining carries each vshiftstream
    // separately: when two statements realign one stream in opposite
    // directions it keeps two chunk phases alive, so the guarantee is one
    // load per (stream, direction) — at most twice the distinct streams —
    // and exactly the distinct streams for single-statement loops, where
    // every policy realigns a stream toward a single target.
    int64_t BodyLoads = 0;
    for (const vir::VInst &I : R.Program->getBody())
      if (I.Op == vir::VOpcode::VLoad)
        ++BodyLoads;
    int64_t IterationsPerBody =
        R.Program->getLoopStep() / R.Program->getBlockingFactor();
    synth::LowerBound LB = synth::computeLowerBound(L, 16, Opts.Policy);
    int64_t PerIter = BodyLoads / IterationsPerBody;
    EXPECT_EQ(BodyLoads % IterationsPerBody, 0) << "seed " << Seed;
    if (!Case.UseSP || L.getStmts().size() == 1) {
      EXPECT_LE(PerIter, LB.DistinctLoads) << "seed " << Seed;
      if (Case.UseSP) {
        EXPECT_EQ(PerIter, LB.DistinctLoads) << "seed " << Seed;
      }
    } else {
      EXPECT_LE(PerIter, 2 * LB.DistinctLoads) << "seed " << Seed;
    }

    // Dynamic check: run and inspect per-chunk load counts.
    sim::CheckResult Check = sim::checkSimdization(L, *R.Program, Seed);
    ASSERT_TRUE(Check.Ok) << Check.Message;

    std::map<const ir::Array *, int64_t> StreamsPerArray;
    for (const auto &S : L.getStmts())
      S->getRHS().walk([&](const ir::Expr &E) {
        if (const auto *Ref = ir::dyn_cast<ir::ArrayRefExpr>(E))
          ++StreamsPerArray[Ref->getArray()];
      });

    // The checker's layout is deterministic: rebuild it to find each
    // loaded array's chunks. Store-array chunks (partial-store reads) are
    // exempt.
    sim::MemoryLayout Layout(L, 16);
    const int64_t Margin = 4 * 16; // Prologue/epilogue influence zone.
    for (const auto &[Arr, Streams] : StreamsPerArray) {
      int64_t Base = Layout.baseOf(Arr);
      int64_t End = Base + Arr->getSizeInBytes();
      for (int64_t ChunkAddr = alignTo(Base + Margin, 16);
           ChunkAddr + 16 <= End - Margin; ChunkAddr += 16)
        EXPECT_LE(Check.Stats.ChunkLoads.at(
                      static_cast<size_t>(ChunkAddr / 16)),
                  Streams)
            << "chunk @" << ChunkAddr << " of " << Arr->getName()
            << " (seed " << Seed << ")";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Schemes, NeverLoadTwice,
    ::testing::Values(ReuseCase{true, true}, ReuseCase{false, true},
                      ReuseCase{true, false}, ReuseCase{false, false}),
    [](const ::testing::TestParamInfo<ReuseCase> &Info) {
      return std::string(Info.param.UseSP ? "SP" : "PC") +
             (Info.param.AlignKnown ? "CtAlign" : "RtAlign");
    });

} // namespace
