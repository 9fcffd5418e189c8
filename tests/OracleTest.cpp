//===- tests/OracleTest.cpp - The property-oracle layer -------------------===//
//
// Part of the simdize project (PLDI 2004 alignment-constrained simdization).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Exercises src/oracle/: the shift-count oracle against the policies'
/// independent prediction mirrors, the OPD floor against the Section 5.3
/// anchors, and — the teeth — deliberately injected bugs (a duplicated
/// steady-state load, an extra identity shift, an undefined register) that
/// each oracle must catch, the shrinker must preserve, and the fuzz sweep
/// must tag and dedupe.
///
//===----------------------------------------------------------------------===//

#include "codegen/Simdizer.h"
#include "fuzz/Fuzzer.h"
#include "fuzz/Shrinker.h"
#include "ir/IRBuilder.h"
#include "ir/IRPrinter.h"
#include "ir/Loop.h"
#include "oracle/Oracle.h"
#include "parser/LoopParser.h"
#include "policies/ShiftPolicy.h"
#include "support/Format.h"
#include "synth/LowerBound.h"
#include "vir/VProgram.h"

#include <gtest/gtest.h>

#include <set>

using namespace simdize;
using oracle::FailureKind;
using oracle::OptLevel;

namespace {

TEST(Oracle, FailureKindNames) {
  EXPECT_STREQ(oracle::failureKindName(FailureKind::None), "none");
  EXPECT_STREQ(oracle::failureKindName(FailureKind::Mismatch), "mismatch");
  EXPECT_STREQ(oracle::failureKindName(FailureKind::DoubleLoad),
               "double-load");
  EXPECT_STREQ(oracle::failureKindName(FailureKind::ShiftCount),
               "shift-count");
  EXPECT_STREQ(oracle::failureKindName(FailureKind::OpdBound), "opd-bound");
}

/// s=1, l=6 loop with chosen element offsets — the Section 5.3 anchor
/// shape (same generator as LowerBoundTest).
ir::Loop sixLoadLoop(const std::vector<int64_t> &LoadOffsets,
                     int64_t StoreOffset, bool AlignKnown) {
  ir::Loop L;
  std::unique_ptr<ir::Expr> E;
  unsigned K = 0;
  for (int64_t C : LoadOffsets) {
    ir::Array *A = L.createArray(strf("x%u", K++), ir::ElemType::Int32, 128,
                                 0, AlignKnown);
    auto R = ir::ref(A, C);
    E = E ? ir::add(std::move(E), std::move(R)) : std::move(R);
  }
  ir::Array *Out =
      L.createArray("out", ir::ElemType::Int32, 128, 0, AlignKnown);
  L.addStmt(Out, StoreOffset, std::move(E));
  L.setUpperBound(100, true);
  return L;
}

TEST(Oracle, OpdFloorMatchesRuntimeAnchor) {
  // EXPERIMENTS.md anchor: runtime-alignment zero-shift s=1 l=6 has lower
  // bound (6 loads + 1 store + 7 shifts + 5 adds) / 4 = 4.750 opd, and the
  // oracle's raw floor must be exactly the paper bound.
  ir::Loop L = sixLoadLoop({0, 1, 2, 3, 0, 1}, 3, /*AlignKnown=*/false);
  synth::LowerBound LB =
      synth::computeLowerBound(L, 16, policies::PolicyKind::Zero);
  EXPECT_DOUBLE_EQ(LB.opd(4, 1), 4.750);
  EXPECT_DOUBLE_EQ(
      oracle::opdFloor(L, 16, policies::PolicyKind::Zero, OptLevel::Raw),
      4.750);
}

TEST(Oracle, OpdFloorIsPositiveAcrossDistribution) {
  // Every floor must stay a real constraint — positive at every opt level
  // for every applicable policy. (The three levels are NOT mutually
  // monotone: an optimized floor can sit above the paper's raw LB, because
  // the Section 5.3 bound shares a load shift between same-chunk
  // references like a[i+1]/a[i+2] even though their realignments need
  // different shift amounts and can never merge. Each level is checked
  // only against runs at that level.)
  for (uint64_t Seed = 1; Seed <= 40; ++Seed) {
    ir::Loop L = synth::synthesizeLoop(fuzz::paramsForSeed(Seed));
    for (const fuzz::FuzzConfig &C : fuzz::configsForLoop(L))
      for (OptLevel Opt : {OptLevel::Raw, OptLevel::Std, OptLevel::PC})
        EXPECT_GT(oracle::opdFloor(L, 16, C.Simd.Policy, Opt), 0.0)
            << "seed " << Seed << " " << C.name() << " level "
            << static_cast<int>(Opt);
  }
}

TEST(Oracle, OpdFloorCollapsesToNoShiftCostWhenAligned) {
  // All-aligned loop: no policy places shifts and no optimizer can remove
  // a distinct load, the store, or the adds, so all three levels agree on
  // the no-shift cost (6 loads + 1 store + 5 adds) / 4.
  ir::Loop L = sixLoadLoop({0, 4, 0, 4, 0, 4}, 0, /*AlignKnown=*/true);
  for (policies::PolicyKind Policy : policies::allPolicies())
    for (OptLevel Opt : {OptLevel::Raw, OptLevel::Std, OptLevel::PC})
      EXPECT_DOUBLE_EQ(oracle::opdFloor(L, 16, Policy, Opt), 12.0 / 4.0)
          << policies::policyName(Policy) << " level "
          << static_cast<int>(Opt);
}

TEST(Oracle, PredictionMatchesPlacementAcrossDistribution) {
  // The count-only prediction mirrors (ShiftPrediction.cpp) are a second,
  // independent implementation of the four placement policies; over the
  // fuzz distribution they must agree with what place() actually placed.
  unsigned Compared = 0;
  for (uint64_t Seed = 1; Seed <= 80; ++Seed) {
    ir::Loop L = synth::synthesizeLoop(fuzz::paramsForSeed(Seed));
    std::set<std::pair<policies::PolicyKind, bool>> Seen;
    for (const fuzz::FuzzConfig &C : fuzz::configsForLoop(L)) {
      if (C.AutoPolicy) // resolved by the pipeline, not a fixed policy
        continue;
      if (!Seen.insert({C.Simd.Policy, C.Simd.SoftwarePipelining}).second)
        continue;
      codegen::SimdizeOptions Opts;
      Opts.Policy = C.Simd.Policy;
      Opts.SoftwarePipelining = C.Simd.SoftwarePipelining;
      codegen::SimdizeResult R = codegen::simdize(L, Opts);
      if (!R.ok())
        continue; // Validity guard; rejection is the fuzzer's concern.
      ASSERT_EQ(R.StmtPlacedShifts.size(), L.getStmts().size());
      for (size_t K = 0; K < L.getStmts().size(); ++K) {
        EXPECT_EQ(R.StmtPlacedShifts[K],
                  policies::predictShiftCount(C.Simd.Policy, *L.getStmts()[K],
                                              16, C.Simd.SoftwarePipelining))
            << "seed " << Seed << " " << C.name() << " statement " << K;
        ++Compared;
      }
    }
  }
  EXPECT_GT(Compared, 100u) << "distribution did not exercise the mirrors";
}

/// Aligned one-load loop with a trip count long enough that its stream has
/// interior chunks (beyond the oracle's 4V boundary margin).
ir::Loop longAlignedLoop() {
  ir::Loop L;
  ir::Array *Out = L.createArray("out", ir::ElemType::Int32, 220, 0, true);
  ir::Array *X = L.createArray("x", ir::ElemType::Int32, 220, 0, true);
  L.addStmt(Out, 0, ir::ref(X, 0));
  L.setUpperBound(200, true);
  return L;
}

/// Duplicates the first steady-state load into a fresh (dead) register —
/// the program still verifies and still computes the right values, but the
/// steady state now reads every stream chunk twice, violating the
/// never-load-twice guarantee of Section 4.3.
fuzz::ProgramMutator duplicateFirstBodyLoad() {
  return [](vir::VProgram &P) {
    vir::Block &Body = P.getBody();
    for (auto It = Body.begin(); It != Body.end(); ++It)
      if (It->Op == vir::VOpcode::VLoad) {
        vir::VInst Dup = *It;
        Dup.VDst = P.allocVReg();
        Body.insert(It + 1, Dup);
        return;
      }
  };
}

TEST(Oracle, InjectedDoubleLoadCaughtAndShrunkWithKind) {
  ir::Loop L = longAlignedLoop();
  fuzz::FuzzConfig C;
  C.Simd.Policy = policies::PolicyKind::Lazy;
  C.Simd.SoftwarePipelining = true; // Reuse claim in force (Section 4.3).
  C.Opt = fuzz::OptLevel::Raw;  // No DCE to delete the dead duplicate.

  fuzz::RunResult R =
      fuzz::runConfigOnLoop(L, C, 7, duplicateFirstBodyLoad());
  ASSERT_EQ(R.Status, fuzz::RunStatus::Failed) << R.Message;
  EXPECT_EQ(R.Kind, FailureKind::DoubleLoad) << R.Message;
  EXPECT_NE(R.Message.find("Section 4.3"), std::string::npos) << R.Message;

  // Without the oracles the duplicate is semantically invisible.
  EXPECT_EQ(fuzz::runConfigOnLoop(L, C, 7, duplicateFirstBodyLoad(), nullptr,
                                  /*Oracles=*/false)
                .Status,
            fuzz::RunStatus::Verified);

  // Kind-preserving shrink (the MergeSeed predicate): the minimized loop
  // must fail the same way, not drift into another failure kind.
  ir::Loop Minimized = fuzz::shrinkLoop(L, [&](const ir::Loop &Cand) {
    fuzz::RunResult RC =
        fuzz::runConfigOnLoop(Cand, C, 7, duplicateFirstBodyLoad());
    return RC.Status == fuzz::RunStatus::Failed &&
           RC.Kind == FailureKind::DoubleLoad;
  });
  EXPECT_EQ(fuzz::runConfigOnLoop(Minimized, C, 7, duplicateFirstBodyLoad())
                .Kind,
            FailureKind::DoubleLoad);
}

TEST(Oracle, InteriorWindowAccountsForPerStreamBoundaries) {
  // One array read at element offsets 0 and 63 (the spread the V = 64
  // width axis synthesizes): the far stream's prologue reaches 63 bytes
  // plus two chunks past the near stream's start, so interiority must be
  // measured from every stream's own boundary zone (MaxOff at the front,
  // MinOff at the back) — a window anchored at the overall byte range
  // flags the far prologue's legitimate setup loads as steady reloads.
  ir::Loop L;
  ir::Array *Ld = L.createArray("ld", ir::ElemType::Int8, 1100, 0, true);
  ir::Array *S1 = L.createArray("s1", ir::ElemType::Int8, 1100, 0, true);
  ir::Array *S2 = L.createArray("s2", ir::ElemType::Int8, 1100, 0, true);
  L.addStmt(S1, 0, ir::ref(Ld, 0));
  L.addStmt(S2, 0, ir::ref(Ld, 63));
  L.setUpperBound(1000, true);

  fuzz::FuzzConfig C;
  C.Simd.Policy = policies::PolicyKind::Zero;
  C.Simd.SoftwarePipelining = true;
  for (fuzz::OptLevel Opt :
       {fuzz::OptLevel::Raw, fuzz::OptLevel::Std, fuzz::OptLevel::PC}) {
    C.Opt = Opt;
    fuzz::RunResult R = fuzz::runConfigOnLoop(L, C, 11);
    EXPECT_EQ(R.Status, fuzz::RunStatus::Verified) << R.Message;
  }

  // The narrower window still has teeth: a genuine steady-state duplicate
  // on the same loop is caught.
  C.Opt = fuzz::OptLevel::Raw;
  fuzz::RunResult Dup =
      fuzz::runConfigOnLoop(L, C, 11, duplicateFirstBodyLoad());
  ASSERT_EQ(Dup.Status, fuzz::RunStatus::Failed);
  EXPECT_EQ(Dup.Kind, FailureKind::DoubleLoad) << Dup.Message;
}

/// Inserts a semantically-identity vshiftpair (shift 0 of (r, r)) in front
/// of the first steady-state store and reroutes the store through it: the
/// program stays correct bit-for-bit but executes one realignment more
/// than the policy's placement, which the shift-count oracle must reject.
fuzz::ProgramMutator insertIdentityShift() {
  return [](vir::VProgram &P) {
    vir::Block &Body = P.getBody();
    for (auto It = Body.begin(); It != Body.end(); ++It)
      if (It->Op == vir::VOpcode::VStore) {
        vir::VRegId Tmp = P.allocVReg();
        vir::VInst Shift = vir::VInst::makeVShiftPair(
            Tmp, It->VSrc1, It->VSrc1, vir::ScalarOperand::imm(0));
        It->VSrc1 = Tmp;
        Body.insert(It, Shift);
        return;
      }
  };
}

TEST(Oracle, InjectedExtraShiftCaughtAndShrunkWithKind) {
  ir::Loop L = longAlignedLoop();
  fuzz::FuzzConfig C;
  C.Simd.Policy = policies::PolicyKind::Lazy;
  C.Simd.SoftwarePipelining = false;
  C.Opt = fuzz::OptLevel::Std;

  fuzz::RunResult R = fuzz::runConfigOnLoop(L, C, 7, insertIdentityShift());
  ASSERT_EQ(R.Status, fuzz::RunStatus::Failed) << R.Message;
  EXPECT_EQ(R.Kind, FailureKind::ShiftCount) << R.Message;

  EXPECT_EQ(fuzz::runConfigOnLoop(L, C, 7, insertIdentityShift(), nullptr,
                                  /*Oracles=*/false)
                .Status,
            fuzz::RunStatus::Verified);

  ir::Loop Minimized = fuzz::shrinkLoop(L, [&](const ir::Loop &Cand) {
    fuzz::RunResult RC =
        fuzz::runConfigOnLoop(Cand, C, 7, insertIdentityShift());
    return RC.Status == fuzz::RunStatus::Failed &&
           RC.Kind == FailureKind::ShiftCount;
  });
  EXPECT_EQ(Minimized.getStmts().size(), 1u);
  EXPECT_EQ(
      fuzz::runConfigOnLoop(Minimized, C, 7, insertIdentityShift()).Kind,
      FailureKind::ShiftCount);
}

TEST(Oracle, VerifierHookCatchesUndefinedRegister) {
  // A mutation that breaks the program structurally (store from a register
  // nothing defines) must be classified by the VVerifier hook, not crash
  // the simulator or masquerade as a mismatch.
  fuzz::ProgramMutator Bug = [](vir::VProgram &P) {
    for (vir::VInst &I : P.getBody())
      if (I.Op == vir::VOpcode::VStore) {
        I.VSrc1 = P.allocVReg();
        return;
      }
  };
  fuzz::FuzzConfig C;
  C.Simd.Policy = policies::PolicyKind::Zero;
  fuzz::RunResult R = fuzz::runConfigOnLoop(longAlignedLoop(), C, 7, Bug);
  ASSERT_EQ(R.Status, fuzz::RunStatus::Failed);
  EXPECT_EQ(R.Kind, FailureKind::Verifier) << R.Message;
  EXPECT_NE(R.Message.find("verification"), std::string::npos) << R.Message;
}

TEST(Oracle, FuzzSweepTagsAndDedupesInjectedShiftBug) {
  // End-to-end through runFuzz: the identity-shift bug fires on every
  // generated program, so the sweep must (a) tag every failure
  // shift-count, (b) write kind-tagged corpus files, and (c) collapse the
  // many seeds x configs hitting the same minimized loop into duplicates.
  fuzz::FuzzOptions Opts;
  Opts.StartSeed = 41;
  Opts.NumSeeds = 2;
  Opts.MaxFailures = 1000;
  Opts.Log = nullptr;
  Opts.Mutator = insertIdentityShift();
  Opts.CorpusDir = ::testing::TempDir() + "oracle-dedup-corpus";
  fuzz::FuzzStats Stats = fuzz::runFuzz(Opts);

  ASSERT_FALSE(Stats.Failures.empty());
  EXPECT_GT(Stats.DuplicateFailures, 0u);
  std::set<std::string> Texts;
  for (const fuzz::FuzzFailure &F : Stats.Failures) {
    EXPECT_EQ(F.Kind, FailureKind::ShiftCount) << F.Message;
    ASSERT_FALSE(F.MinimizedText.empty());
    EXPECT_NE(F.MinimizedText.find("kind shift-count"), std::string::npos)
        << F.MinimizedText;
    EXPECT_NE(F.CorpusFile.find("-shift-count.loop"), std::string::npos)
        << F.CorpusFile;
    EXPECT_TRUE(Texts.insert(ir::printParseable(
                                 *parser::parseLoop(F.MinimizedText).Loop))
                    .second)
        << "duplicate minimized reproducer recorded:\n"
        << F.MinimizedText;
  }
}

TEST(Oracle, OracleEnabledSweepStaysClean) {
  // The headline acceptance property, in smoke form: a clean sweep with
  // every oracle armed finds nothing across all policies x SP x optimizer
  // configurations. (CI and the logged 10k-seed sweep scale this up.)
  fuzz::FuzzOptions Opts;
  Opts.StartSeed = 730000001;
  Opts.NumSeeds = 150;
  Opts.Log = nullptr;
  Opts.Oracles = true;
  fuzz::FuzzStats Stats = fuzz::runFuzz(Opts);
  EXPECT_EQ(Stats.SeedsRun, 150u);
  EXPECT_TRUE(Stats.ok()) << Stats.Failures.front().Message;
}

} // namespace
