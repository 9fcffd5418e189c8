//===- tests/FuzzTest.cpp - The differential fuzzer and its shrinker ------===//
//
// Part of the simdize project (PLDI 2004 alignment-constrained simdization).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Exercises the fuzzing subsystem itself: the seed distribution, outcome
/// classification, a no-failure smoke sweep, and — the interesting part —
/// the shrinker, which must reduce a deliberately injected policy bug
/// (an off-by-one stream-shift amount) to a reproducer of at most two
/// statements and two loads.
///
//===----------------------------------------------------------------------===//

#include "fuzz/Fuzzer.h"
#include "fuzz/Shrinker.h"
#include "ir/IRBuilder.h"
#include "ir/IRPrinter.h"
#include "ir/Loop.h"
#include "parser/LoopParser.h"
#include "vir/VProgram.h"

#include <gtest/gtest.h>

using namespace simdize;

namespace {

TEST(Fuzzer, SmokeSweepFindsNoFailures) {
  fuzz::FuzzOptions Opts;
  Opts.StartSeed = 900000001;
  Opts.NumSeeds = 120;
  Opts.Log = nullptr;
  fuzz::FuzzStats Stats = fuzz::runFuzz(Opts);
  EXPECT_EQ(Stats.SeedsRun, 120u);
  EXPECT_TRUE(Stats.ok()) << Stats.Failures.front().Message;
  // Degenerate trip counts guarantee a healthy rejected share, and most
  // loops must actually verify.
  EXPECT_GT(Stats.RunsVerified, 0u);
  EXPECT_GT(Stats.RunsRejected, 0u);
}

TEST(Fuzzer, ParamsForSeedIsDeterministicAndCoversEdges) {
  for (uint64_t Seed : {1ull, 77ull, 4096ull})
    EXPECT_EQ(ir::printParseable(
                  synth::synthesizeLoop(fuzz::paramsForSeed(Seed))),
              ir::printParseable(
                  synth::synthesizeLoop(fuzz::paramsForSeed(Seed))));

  bool SawDegenerate = false, SawRuntime = false, SawByte = false;
  for (uint64_t Seed = 1; Seed <= 200; ++Seed) {
    synth::SynthParams P = fuzz::paramsForSeed(Seed);
    int64_t B = 16 / ir::elemSize(P.Ty);
    SawDegenerate |= P.TripCount <= 3 * B;
    SawRuntime |= !P.AlignKnown || !P.UBKnown;
    SawByte |= !P.NaturalAlignment;
  }
  EXPECT_TRUE(SawDegenerate);
  EXPECT_TRUE(SawRuntime);
  EXPECT_TRUE(SawByte);
}

TEST(Fuzzer, DegenerateTripCountsAreRejectedNotFailed) {
  ir::Loop L;
  ir::Array *Out = L.createArray("out", ir::ElemType::Int32, 32, 0, true);
  ir::Array *X = L.createArray("x", ir::ElemType::Int32, 32, 4, true);
  L.addStmt(Out, 0, ir::ref(X, 0));
  for (int64_t UB : {0, 1, 3, 12}) { // all at or below the 3B = 12 guard
    L.setUpperBound(UB, true);
    for (const fuzz::FuzzConfig &C : fuzz::configsForLoop(L)) {
      fuzz::RunResult R = fuzz::runConfigOnLoop(L, C, 1);
      EXPECT_EQ(R.Status, fuzz::RunStatus::Rejected)
          << C.name() << " ub=" << UB << ": " << R.Message;
    }
  }
}

TEST(Fuzzer, RuntimeAlignmentRestrictsConfigsToZeroShift) {
  ir::Loop L;
  ir::Array *Out = L.createArray("out", ir::ElemType::Int32, 64, 0, false);
  ir::Array *X = L.createArray("x", ir::ElemType::Int32, 64, 4, false);
  L.addStmt(Out, 0, ir::ref(X, 0));
  L.setUpperBound(40, true);
  for (const fuzz::FuzzConfig &C : fuzz::configsForLoop(L)) {
    // Auto configs stay applicable (the pipeline resolves them to
    // zero-shift for this loop); every fixed-policy config must be zero.
    if (C.AutoPolicy)
      continue;
    EXPECT_EQ(C.Simd.Policy, policies::PolicyKind::Zero) << C.name();
  }
}

/// Bumps the first immediate-shift vshiftpair in the steady-state body by
/// one element — the classic off-by-one stream offset a buggy placement
/// policy would produce. Returns whether anything was mutated via *Hit.
fuzz::ProgramMutator offByOneShift(bool *Hit) {
  return [Hit](vir::VProgram &P) {
    for (vir::VInst &I : P.getBody()) {
      if (I.Op == vir::VOpcode::VShiftPair && I.SOp1.isImm()) {
        int64_t Shift = I.SOp1.getImm();
        I.SOp1 = vir::ScalarOperand::imm(
            (Shift + P.getElemSize()) % P.getVectorLen());
        if (Hit)
          *Hit = true;
        return;
      }
    }
  };
}

TEST(Shrinker, MinimizesInjectedPolicyBug) {
  // A deliberately bulky loop: 3 statements, 4 loads each, mixed
  // alignments — the kind of haystack a real fuzz failure arrives in.
  synth::SynthParams P;
  P.Statements = 3;
  P.LoadsPerStmt = 4;
  P.TripCount = 60;
  P.Bias = 0.2;
  P.Reuse = 0.4;
  P.Seed = 20040601;
  ir::Loop L = synth::synthesizeLoop(P);

  fuzz::FuzzConfig C;
  C.Simd.Policy = policies::PolicyKind::Lazy;
  C.Simd.SoftwarePipelining = false;
  C.Opt = fuzz::OptLevel::Std;

  bool Hit = false;
  fuzz::ProgramMutator Bug = offByOneShift(&Hit);
  fuzz::RunResult Broken = fuzz::runConfigOnLoop(L, C, 99, Bug);
  ASSERT_TRUE(Hit) << "expected the seed loop to need stream shifts";
  ASSERT_EQ(Broken.Status, fuzz::RunStatus::Failed)
      << "injected bug did not change behavior";
  // A wrong shift *amount* leaves the shift count intact: only the
  // bit-equality check can catch it, and it must classify as a mismatch.
  EXPECT_EQ(Broken.Kind, oracle::FailureKind::Mismatch) << Broken.Message;
  // The triage satellites: the diagnostic names the scheme and the
  // owning statement, not just a byte address.
  EXPECT_NE(Broken.Message.find("LAZY/opt"), std::string::npos)
      << Broken.Message;
  EXPECT_NE(Broken.Message.find("statement"), std::string::npos)
      << Broken.Message;

  fuzz::ShrinkStats Stats;
  ir::Loop Minimized = fuzz::shrinkLoop(
      L,
      [&](const ir::Loop &Cand) {
        fuzz::RunResult R =
            fuzz::runConfigOnLoop(Cand, C, 99, offByOneShift(nullptr));
        return R.Status == fuzz::RunStatus::Failed &&
               R.Kind == oracle::FailureKind::Mismatch;
      },
      &Stats);

  // The ISSUE's acceptance bar: at most 2 statements and 2 loads.
  EXPECT_LE(Minimized.getStmts().size(), 2u)
      << ir::printParseable(Minimized);
  EXPECT_LE(fuzz::countLoads(Minimized), 2u)
      << ir::printParseable(Minimized);
  EXPECT_GT(Stats.StepsApplied, 0u);

  // Still failing with the same kind, and still failing after a text
  // round-trip, so the committed corpus file reproduces the bug.
  fuzz::RunResult MinRun =
      fuzz::runConfigOnLoop(Minimized, C, 99, offByOneShift(nullptr));
  EXPECT_EQ(MinRun.Status, fuzz::RunStatus::Failed);
  EXPECT_EQ(MinRun.Kind, oracle::FailureKind::Mismatch) << MinRun.Message;
  parser::ParseResult Reparsed =
      parser::parseLoop(ir::printParseable(Minimized));
  ASSERT_TRUE(Reparsed.ok()) << Reparsed.Error;
  EXPECT_EQ(fuzz::runConfigOnLoop(*Reparsed.Loop, C, 99,
                                  offByOneShift(nullptr))
                .Status,
            fuzz::RunStatus::Failed);
}

TEST(Shrinker, ShrinkingIsIdempotent) {
  // Re-shrinking an already-minimal reproducer must be a fixpoint: no
  // steps apply and the text is unchanged. (A shrinker that keeps finding
  // "improvements" on its own output produces unstable corpus files.)
  synth::SynthParams P = fuzz::paramsForSeed(5);
  P.Ty = ir::ElemType::Int32;
  P.Statements = 4;
  P.LoadsPerStmt = 5;
  ir::Loop L = synth::synthesizeLoop(P);
  auto Pred = [](const ir::Loop &Cand) {
    return Cand.getElemType() == ir::ElemType::Int32 &&
           fuzz::countLoads(Cand) >= 1;
  };
  ir::Loop Once = fuzz::shrinkLoop(L, Pred);
  fuzz::ShrinkStats Again;
  ir::Loop Twice = fuzz::shrinkLoop(Once, Pred, &Again);
  EXPECT_EQ(ir::printParseable(Twice), ir::printParseable(Once));
  EXPECT_EQ(Again.StepsApplied, 0u);
}

TEST(Shrinker, MixedKindShrinkingIsIdempotent) {
  // Guards and reductions add shrink steps of their own (drop the guard,
  // demote the reduction); the fixpoint guarantee must survive them.
  synth::SynthParams P = fuzz::paramsForSeed(11);
  P.Ty = ir::ElemType::Int32;
  P.Statements = 5;
  P.LoadsPerStmt = 4;
  P.GuardProb = 0.6;
  P.ReduceProb = 0.4;
  ir::Loop L = synth::synthesizeLoop(P);
  auto Count = [](const ir::Loop &Cand, ir::StmtKind K) {
    unsigned N = 0;
    for (const auto &S : Cand.getStmts())
      N += S->getKind() == K;
    return N;
  };
  ASSERT_GE(Count(L, ir::StmtKind::If), 1u);
  ASSERT_GE(Count(L, ir::StmtKind::Reduce), 1u);
  auto Pred = [&](const ir::Loop &Cand) {
    return Count(Cand, ir::StmtKind::If) >= 1 &&
           Count(Cand, ir::StmtKind::Reduce) >= 1;
  };
  ir::Loop Once = fuzz::shrinkLoop(L, Pred);
  EXPECT_GE(Count(Once, ir::StmtKind::If), 1u);
  EXPECT_GE(Count(Once, ir::StmtKind::Reduce), 1u);
  fuzz::ShrinkStats Again;
  ir::Loop Twice = fuzz::shrinkLoop(Once, Pred, &Again);
  EXPECT_EQ(ir::printParseable(Twice), ir::printParseable(Once));
  EXPECT_EQ(Again.StepsApplied, 0u);
  // The minimized mixed-kind reproducer survives the corpus round trip.
  parser::ParseResult R = parser::parseLoop(ir::printParseable(Once));
  ASSERT_TRUE(R.ok()) << R.Error;
  EXPECT_EQ(ir::printParseable(*R.Loop), ir::printParseable(Once));
}

TEST(Shrinker, ReachesGlobalMinimumOnLoopLevelPredicate) {
  // Pipeline-independent check that greedy shrinking bottoms out: any
  // i32 loop with at least one load "fails", so the global minimum is a
  // single statement with a single load.
  synth::SynthParams P = fuzz::paramsForSeed(5);
  P.Ty = ir::ElemType::Int32;
  P.Statements = 4;
  P.LoadsPerStmt = 5;
  ir::Loop L = synth::synthesizeLoop(P);
  ir::Loop Minimized = fuzz::shrinkLoop(L, [](const ir::Loop &Cand) {
    return Cand.getElemType() == ir::ElemType::Int32 &&
           fuzz::countLoads(Cand) >= 1;
  });
  EXPECT_EQ(Minimized.getStmts().size(), 1u);
  EXPECT_EQ(fuzz::countLoads(Minimized), 1u);
}

TEST(Shrinker, CloneLoopIsFaithful) {
  synth::SynthParams P = fuzz::paramsForSeed(17);
  ir::Loop L = synth::synthesizeLoop(P);
  ir::Loop Copy = ir::cloneLoop(L);
  EXPECT_EQ(ir::printParseable(Copy), ir::printParseable(L));
  EXPECT_EQ(ir::printLoop(Copy), ir::printLoop(L));
}

} // namespace
