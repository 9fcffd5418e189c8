//===- tests/OptTest.cpp - Unit tests for the optimization passes --------===//
//
// Part of the simdize project (PLDI 2004 alignment-constrained simdization).
//
//===----------------------------------------------------------------------===//

#include "codegen/Simdizer.h"
#include "fuzz/CorpusIO.h"
#include "fuzz/Fuzzer.h"
#include "ir/IRBuilder.h"
#include "ir/IRPrinter.h"
#include "ir/Loop.h"
#include "opt/CSE.h"
#include "opt/DCE.h"
#include "opt/OffsetReassoc.h"
#include "opt/Pipeline.h"
#include "opt/PredictiveCommoning.h"
#include "opt/UnrollRemoveCopies.h"
#include "parser/LoopParser.h"
#include "pipeline/Pipeline.h"
#include "sim/Checker.h"
#include "synth/LoopSynth.h"
#include "vir/VVerifier.h"

#include <gtest/gtest.h>

using namespace simdize;
using namespace simdize::opt;

namespace {

using vir::countOps;

/// Simdizes under \p Policy (optionally SP) without any optimization.
codegen::SimdizeResult rawSimdize(const ir::Loop &L,
                                  policies::PolicyKind Policy,
                                  bool SP = false) {
  codegen::SimdizeOptions Opts;
  Opts.Policy = Policy;
  Opts.SoftwarePipelining = SP;
  codegen::SimdizeResult R = codegen::simdize(L, Opts);
  EXPECT_TRUE(R.ok()) << R.Error;
  return R;
}

/// Figure 1 with all three references misaligned.
ir::Loop fig1() {
  ir::Loop L;
  ir::Array *A = L.createArray("a", ir::ElemType::Int32, 128, 0, true);
  ir::Array *B = L.createArray("b", ir::ElemType::Int32, 128, 0, true);
  ir::Array *C = L.createArray("c", ir::ElemType::Int32, 128, 0, true);
  L.addStmt(A, 3, ir::add(ir::ref(B, 1), ir::ref(C, 2)));
  L.setUpperBound(100, true);
  return L;
}

TEST(CSE, MergesDuplicatedNextIterationSubtrees) {
  // Zero-shift without reuse: the store-side right shift re-evaluates the
  // whole expression at i-B; sibling load-shifts re-evaluate loads at i+B.
  // Identical (array, offset) loads within one iteration must collapse.
  ir::Loop L = fig1();
  codegen::SimdizeResult R = rawSimdize(L, policies::PolicyKind::Zero);
  unsigned Before = countOps(R.Program->getBody(), vir::VOpcode::VLoad);
  unsigned Removed = runCSE(*R.Program, /*MemNorm=*/false);
  unsigned After = countOps(R.Program->getBody(), vir::VOpcode::VLoad);
  EXPECT_GT(Removed, 0u);
  EXPECT_LT(After, Before);
  sim::CheckResult Check = sim::checkSimdization(L, *R.Program, 21);
  EXPECT_TRUE(Check.Ok) << Check.Message;
}

TEST(CSE, MemNormMergesSameChunkLoads) {
  // x[i+1] and x[i+2] sit in one 16-byte chunk (x aligned 0, D=4: bytes
  // 4..11): with MemNorm their truncating loads are one value; without,
  // they stay distinct.
  ir::Loop L;
  ir::Array *A = L.createArray("a", ir::ElemType::Int32, 128, 0, true);
  ir::Array *X = L.createArray("x", ir::ElemType::Int32, 128, 0, true);
  L.addStmt(A, 0, ir::add(ir::ref(X, 1), ir::ref(X, 2)));
  L.setUpperBound(100, true);

  codegen::SimdizeResult R1 = rawSimdize(L, policies::PolicyKind::Zero);
  runCSE(*R1.Program, /*MemNorm=*/false);
  unsigned WithoutNorm = countOps(R1.Program->getBody(), vir::VOpcode::VLoad);

  codegen::SimdizeResult R2 = rawSimdize(L, policies::PolicyKind::Zero);
  runCSE(*R2.Program, /*MemNorm=*/true);
  runDCE(*R2.Program);
  unsigned WithNorm = countOps(R2.Program->getBody(), vir::VOpcode::VLoad);

  EXPECT_LT(WithNorm, WithoutNorm);
  sim::CheckResult Check = sim::checkSimdization(L, *R2.Program, 22);
  EXPECT_TRUE(Check.Ok) << Check.Message;
}

TEST(CSE, MemNormNeedsStaticAlignment) {
  // With runtime alignments the chunk relation is unprovable for
  // non-congruent offsets; MemNorm must not merge x[i+1] and x[i+2].
  ir::Loop L;
  ir::Array *A = L.createArray("a", ir::ElemType::Int32, 128, 0, false);
  ir::Array *X = L.createArray("x", ir::ElemType::Int32, 128, 0, false);
  L.addStmt(A, 0, ir::add(ir::ref(X, 1), ir::ref(X, 2)));
  L.setUpperBound(100, true);
  codegen::SimdizeResult R = rawSimdize(L, policies::PolicyKind::Zero);
  unsigned Before = countOps(R.Program->getBody(), vir::VOpcode::VLoad);
  runCSE(*R.Program, /*MemNorm=*/true);
  runDCE(*R.Program);
  // The two x streams load distinct offsets; nothing to merge beyond the
  // duplicates CSE removes for other reasons. Specifically the x[i+1] and
  // x[i+2] current-iteration loads must both survive.
  unsigned After = countOps(R.Program->getBody(), vir::VOpcode::VLoad);
  EXPECT_GE(After, 2u);
  (void)Before;
  sim::CheckResult Check = sim::checkSimdization(L, *R.Program, 23);
  EXPECT_TRUE(Check.Ok) << Check.Message;
}

TEST(PC, RestoresNeverLoadTwice) {
  // After CSE + PC + unroll + DCE, the steady state of the Figure 1 loop
  // performs exactly one load per distinct stream per iteration: 2 streams
  // x 2 unrolled iterations = 4 body loads.
  ir::Loop L = fig1();
  codegen::SimdizeResult R = rawSimdize(L, policies::PolicyKind::Zero);
  OptConfig Config;
  Config.PC = true;
  runOptPipeline(*R.Program, Config);
  EXPECT_EQ(countOps(R.Program->getBody(), vir::VOpcode::VLoad), 4u);
  EXPECT_EQ(countOps(R.Program->getBody(), vir::VOpcode::VCopy), 0u);
  EXPECT_EQ(R.Program->getLoopStep(), 8u);
  sim::CheckResult Check = sim::checkSimdization(L, *R.Program, 24);
  EXPECT_TRUE(Check.Ok) << Check.Message;
}

TEST(PC, HoistsLoopInvariantComputation) {
  // splat(3) * splat(4) is invariant: PC hoists the multiply to Setup.
  ir::Loop L;
  ir::Array *A = L.createArray("a", ir::ElemType::Int32, 128, 4, true);
  ir::Array *B = L.createArray("b", ir::ElemType::Int32, 128, 4, true);
  L.addStmt(A, 0,
            ir::add(ir::ref(B, 0), ir::mul(ir::splat(3), ir::splat(4))));
  L.setUpperBound(100, true);
  codegen::SimdizeResult R = rawSimdize(L, policies::PolicyKind::Lazy);
  EXPECT_EQ(countOps(R.Program->getBody(), vir::VOpcode::VBinOp), 2u);
  unsigned Replaced = runPredictiveCommoning(*R.Program, true);
  EXPECT_GE(Replaced, 1u);
  // Only the add with the loaded stream remains in the body.
  EXPECT_EQ(countOps(R.Program->getBody(), vir::VOpcode::VBinOp), 1u);
  sim::CheckResult Check = sim::checkSimdization(L, *R.Program, 25);
  EXPECT_TRUE(Check.Ok) << Check.Message;
}

TEST(PC, CarryChainsAcrossMultipleChunks) {
  // x[i], x[i+4], x[i+8]: three loads of one stream exactly B apart form a
  // carry chain x(i) <- x(i+4) <- x(i+8); after the pipeline only one load
  // per iteration remains and everything still verifies.
  ir::Loop L;
  ir::Array *A = L.createArray("a", ir::ElemType::Int32, 128, 0, true);
  ir::Array *X = L.createArray("x", ir::ElemType::Int32, 128, 4, true);
  L.addStmt(A, 0,
            ir::add(ir::add(ir::ref(X, 0), ir::ref(X, 4)), ir::ref(X, 8)));
  L.setUpperBound(100, true);
  codegen::SimdizeResult R = rawSimdize(L, policies::PolicyKind::Lazy);
  OptConfig Config;
  Config.PC = true;
  runOptPipeline(*R.Program, Config);
  // Two unrolled iterations, one genuinely new chunk each.
  EXPECT_EQ(countOps(R.Program->getBody(), vir::VOpcode::VLoad), 2u);
  sim::CheckResult Check = sim::checkSimdization(L, *R.Program, 26);
  EXPECT_TRUE(Check.Ok) << Check.Message;
}

TEST(SP, UnrollRemovesAllCopies) {
  ir::Loop L = fig1();
  codegen::SimdizeResult R =
      rawSimdize(L, policies::PolicyKind::Zero, /*SP=*/true);
  unsigned CopiesBefore = countOps(R.Program->getBody(), vir::VOpcode::VCopy);
  EXPECT_GT(CopiesBefore, 0u);
  unsigned Removed = runUnrollRemoveCopies(*R.Program);
  EXPECT_EQ(Removed, CopiesBefore);
  EXPECT_EQ(countOps(R.Program->getBody(), vir::VOpcode::VCopy), 0u);
  EXPECT_EQ(R.Program->getLoopStep(), 8u);
  sim::CheckResult Check = sim::checkSimdization(L, *R.Program, 27);
  EXPECT_TRUE(Check.Ok) << Check.Message;
}

TEST(SP, UnrollIsIdempotent) {
  ir::Loop L = fig1();
  codegen::SimdizeResult R =
      rawSimdize(L, policies::PolicyKind::Zero, /*SP=*/true);
  EXPECT_GT(runUnrollRemoveCopies(*R.Program), 0u);
  EXPECT_EQ(runUnrollRemoveCopies(*R.Program), 0u); // Already unrolled.
}

TEST(SP, UnrollNoOpWithoutCopies) {
  ir::Loop L = fig1();
  codegen::SimdizeResult R = rawSimdize(L, policies::PolicyKind::Zero);
  EXPECT_EQ(runUnrollRemoveCopies(*R.Program), 0u);
  EXPECT_EQ(R.Program->getLoopStep(), 4u);
}

TEST(SP, OddAndEvenSteadyIterationCounts) {
  // Unrolling must handle both parities of the steady iteration count,
  // statically and dynamically.
  for (int64_t UB : {20, 21, 22, 23, 24, 25}) {
    for (bool UBKnown : {true, false}) {
      ir::Loop L;
      ir::Array *A = L.createArray("a", ir::ElemType::Int32, 64, 12, true);
      ir::Array *B = L.createArray("b", ir::ElemType::Int32, 64, 8, true);
      L.addStmt(A, 0, ir::ref(B, 0));
      L.setUpperBound(UB, UBKnown);
      codegen::SimdizeResult R =
          rawSimdize(L, policies::PolicyKind::Zero, /*SP=*/true);
      runOptPipeline(*R.Program, OptConfig());
      sim::CheckResult Check = sim::checkSimdization(L, *R.Program, UB);
      EXPECT_TRUE(Check.Ok) << "ub=" << UB << " known=" << UBKnown << ": "
                            << Check.Message;
    }
  }
}

TEST(DCE, RemovesOrphanedOperands) {
  // Hand-plant a dead load + dead scalar chain.
  ir::Loop L = fig1();
  codegen::SimdizeResult R = rawSimdize(L, policies::PolicyKind::Lazy);
  vir::VProgram &P = *R.Program;
  vir::VRegId Dead = P.allocVReg();
  P.getBody().push_back(vir::VInst::makeVLoad(
      Dead, vir::Address::indexed(L.getArrays()[1].get(), 0,
                                  P.getIndexReg())));
  vir::SRegId DeadS = P.allocSReg();
  P.getSetup().push_back(vir::VInst::makeSConst(DeadS, 42));
  unsigned BodySize = static_cast<unsigned>(P.getBody().size());
  unsigned Removed = runDCE(P);
  EXPECT_GE(Removed, 2u);
  EXPECT_LT(P.getBody().size(), BodySize);
  sim::CheckResult Check = sim::checkSimdization(L, P, 28);
  EXPECT_TRUE(Check.Ok) << Check.Message;
}

TEST(DCE, KeepsStoresAndTheirOperands) {
  ir::Loop L = fig1();
  codegen::SimdizeResult R = rawSimdize(L, policies::PolicyKind::Lazy);
  unsigned Stores = countOps(R.Program->getBody(), vir::VOpcode::VStore);
  runDCE(*R.Program);
  EXPECT_EQ(countOps(R.Program->getBody(), vir::VOpcode::VStore), Stores);
  sim::CheckResult Check = sim::checkSimdization(L, *R.Program, 29);
  EXPECT_TRUE(Check.Ok) << Check.Message;
}

TEST(DCE, KeepsTheScalarARegisterSplatReads) {
  // A register vsplat reads its SOp1, so the sconst it names is live.
  ir::Loop L;
  ir::Array *A = L.createArray("a", ir::ElemType::Int32, 64, 0, true);
  vir::VProgram P(16, 4);
  vir::SRegId S1 = P.allocSReg();
  vir::VRegId V0 = P.allocVReg();
  P.getSetup().push_back(vir::VInst::makeSConst(S1, 7));
  P.getSetup().push_back(vir::VInst::makeVSplatReg(V0, S1, 4));
  P.getBody().push_back(vir::VInst::makeVStore(
      vir::Address::indexed(A, 0, P.getIndexReg()), V0));
  EXPECT_EQ(runDCE(P), 0u);
  EXPECT_EQ(countOps(P.getSetup(), vir::VOpcode::SConst), 1u);
  EXPECT_EQ(vir::verifyProgram(P), std::nullopt);
}

TEST(Reassoc, GroupsEqualOffsets) {
  // (b4 + c8) + d4 regroups so the two offset-4 operands combine first.
  ir::Loop L;
  ir::Array *A = L.createArray("a", ir::ElemType::Int32, 128, 0, true);
  ir::Array *B = L.createArray("b", ir::ElemType::Int32, 128, 0, true);
  ir::Array *C = L.createArray("c", ir::ElemType::Int32, 128, 0, true);
  ir::Array *D = L.createArray("d", ir::ElemType::Int32, 128, 0, true);
  L.addStmt(A, 3,
            ir::add(ir::add(ir::ref(B, 1), ir::ref(C, 2)), ir::ref(D, 1)));
  L.setUpperBound(100, true);

  EXPECT_EQ(runOffsetReassociation(L, 16), 1u);
  EXPECT_EQ(ir::printExpr(L.getStmts().front()->getRHS()),
            "(b[i+1] + d[i+1]) + c[i+2]");
}

TEST(Reassoc, ReducesLazyShiftCount) {
  ir::Loop MakeTwice[2];
  for (ir::Loop &L : MakeTwice) {
    ir::Array *A = L.createArray("a", ir::ElemType::Int32, 128, 12, true);
    ir::Array *B = L.createArray("b", ir::ElemType::Int32, 128, 4, true);
    ir::Array *C = L.createArray("c", ir::ElemType::Int32, 128, 8, true);
    ir::Array *D = L.createArray("d", ir::ElemType::Int32, 128, 4, true);
    L.addStmt(A, 0,
              ir::add(ir::add(ir::ref(B, 0), ir::ref(C, 0)), ir::ref(D, 0)));
    L.setUpperBound(100, true);
  }
  codegen::SimdizeOptions Opts;
  Opts.Policy = policies::PolicyKind::Lazy;
  codegen::SimdizeResult Plain = codegen::simdize(MakeTwice[0], Opts);
  ASSERT_TRUE(Plain.ok());

  runOffsetReassociation(MakeTwice[1], 16);
  codegen::SimdizeResult Grouped = codegen::simdize(MakeTwice[1], Opts);
  ASSERT_TRUE(Grouped.ok());
  EXPECT_LT(Grouped.ShiftCount, Plain.ShiftCount);
}

TEST(Reassoc, PreservesSemantics) {
  // Reassociation is exact under wrap-around arithmetic: simdize the
  // rewritten loop and verify against the ORIGINAL scalar loop.
  ir::Loop L;
  ir::Array *A = L.createArray("a", ir::ElemType::Int32, 128, 12, true);
  ir::Array *B = L.createArray("b", ir::ElemType::Int32, 128, 4, true);
  ir::Array *C = L.createArray("c", ir::ElemType::Int32, 128, 8, true);
  ir::Array *D = L.createArray("d", ir::ElemType::Int32, 128, 4, true);
  L.addStmt(A, 0,
            ir::mul(ir::mul(ir::ref(B, 0), ir::ref(C, 0)),
                    ir::mul(ir::ref(D, 0), ir::splat(-5))));
  L.setUpperBound(100, true);

  runOffsetReassociation(L, 16);
  codegen::SimdizeResult R = rawSimdize(L, policies::PolicyKind::Lazy);
  sim::CheckResult Check = sim::checkSimdization(L, *R.Program, 30);
  EXPECT_TRUE(Check.Ok) << Check.Message;
}

TEST(Reassoc, LeavesSubtractionChainsAlone) {
  ir::Loop L;
  ir::Array *A = L.createArray("a", ir::ElemType::Int32, 128, 0, true);
  ir::Array *B = L.createArray("b", ir::ElemType::Int32, 128, 0, true);
  ir::Array *C = L.createArray("c", ir::ElemType::Int32, 128, 0, true);
  L.addStmt(A, 0, ir::sub(ir::ref(B, 1), ir::ref(C, 2)));
  L.setUpperBound(100, true);
  EXPECT_EQ(runOffsetReassociation(L, 16), 0u);
  EXPECT_EQ(ir::printExpr(L.getStmts().front()->getRHS()),
            "b[i+1] - c[i+2]");
}

TEST(Pipeline, FullConfigurationsStayCorrect) {
  for (auto Policy : policies::allPolicies()) {
    for (bool SP : {false, true}) {
      for (bool PC : {false, true}) {
        ir::Loop L = fig1();
        codegen::SimdizeResult R = rawSimdize(L, Policy, SP);
        OptConfig Config;
        Config.PC = PC;
        runOptPipeline(*R.Program, Config);
        sim::CheckResult Check = sim::checkSimdization(L, *R.Program, 31);
        EXPECT_TRUE(Check.Ok)
            << policies::policyName(Policy) << " sp=" << SP << " pc=" << PC
            << ": " << Check.Message;
      }
    }
  }
}

/// Optimizer decisions summed over many compiles.
struct DecisionTotals {
  uint64_t CSERemoved = 0, PCReplaced = 0, CopiesRemoved = 0, DCERemoved = 0;
  uint64_t ShiftCount = 0;

  /// Compiles \p L under every fuzz configuration at V = 16/32/64.
  void add(const ir::Loop &L) {
    for (unsigned W : {16u, 32u, 64u})
      for (const fuzz::FuzzConfig &C : fuzz::configsForLoop(L, W)) {
        pipeline::CompileResult R = pipeline::runPipeline(L, C);
        if (!R.Simd.ok())
          continue;
        ShiftCount += R.Simd.ShiftCount;
        CSERemoved += R.Opt.CSERemoved;
        PCReplaced += R.Opt.PCReplaced;
        CopiesRemoved += R.Opt.CopiesRemoved;
        DCERemoved += R.Opt.DCERemoved;
      }
  }
};

TEST(Pipeline, OptimizerDecisionTotalsArePinned) {
  // CSE and predictive commoning decide by symbolic value identity; a key
  // that merges two different values or splits one value moves these
  // totals. Changing them needs a reason, not a re-record.
  DecisionTotals T;
  std::vector<std::string> Files = fuzz::listCorpusFiles(SIMDIZE_CORPUS_DIR);
  ASSERT_EQ(Files.size(), 5u);
  for (const std::string &Path : Files) {
    auto Text = fuzz::readCorpusFile(Path);
    ASSERT_TRUE(Text.has_value()) << Path;
    parser::ParseResult Parsed = parser::parseLoop(*Text);
    ASSERT_TRUE(Parsed.ok()) << Path << ": " << Parsed.Error;
    T.add(*Parsed.Loop);
  }
  for (uint64_t Seed = 1; Seed <= 100; ++Seed)
    T.add(synth::synthesizeLoop(fuzz::paramsForSeed(Seed, 64, true, true)));

  EXPECT_EQ(T.CSERemoved, 20758u);
  EXPECT_EQ(T.PCReplaced, 22860u);
  EXPECT_EQ(T.CopiesRemoved, 48634u);
  EXPECT_EQ(T.DCERemoved, 14441u);
  EXPECT_EQ(T.ShiftCount, 64392u);
}

/// Runs runOptPipeline's passes over every fuzz configuration's raw
/// program of \p L at V = 16/32/64, one pass at a time in the pipeline's
/// order, and requires the verifier to accept the program after each.
/// Returns the number of programs that went through every pass.
unsigned verifyAfterEachPass(const ir::Loop &L, const std::string &What) {
  unsigned Programs = 0;
  for (unsigned W : {16u, 32u, 64u})
    for (const fuzz::FuzzConfig &C : fuzz::configsForLoop(L, W)) {
      if (C.Opt == pipeline::OptLevel::Raw)
        continue;
      pipeline::CompileResult R = pipeline::compileRaw(L, C);
      if (!R.Simd.ok())
        continue;
      vir::VProgram &P = *R.Simd.Program;
      OptConfig Config;
      Config.MemNorm = C.MemNorm;
      Config.PC = C.Opt == pipeline::OptLevel::PC;
      vir::VProgram Piped = P;
      runOptPipeline(Piped, Config);

      auto Verified = [&](const char *Pass) {
        std::optional<std::string> Err = vir::verifyProgram(P);
        EXPECT_EQ(Err, std::nullopt)
            << What << " V=" << W << " " << R.ConfigName << " after "
            << Pass;
        return !Err;
      };
      runCSE(P, Config.MemNorm);
      if (!Verified("CSE"))
        continue;
      if (Config.PC) {
        runPredictiveCommoning(P, Config.MemNorm);
        if (!Verified("predictive commoning"))
          continue;
      }
      runUnrollRemoveCopies(P);
      if (!Verified("unroll"))
        continue;
      runDCE(P);
      if (!Verified("DCE"))
        continue;
      EXPECT_TRUE(P == Piped) << What << " V=" << W << " " << R.ConfigName
                              << ": the passes one by one differ from "
                                 "runOptPipeline";
      ++Programs;
    }
  return Programs;
}

TEST(Pipeline, EveryPassLeavesAVerifiedProgram) {
  // pipeline::optimize verifies only the pipeline's result, where a later
  // pass could repair what an earlier one broke.
  std::vector<std::string> Files = fuzz::listCorpusFiles(SIMDIZE_CORPUS_DIR);
  ASSERT_FALSE(Files.empty());
  unsigned Programs = 0;
  for (const std::string &Path : Files) {
    auto Text = fuzz::readCorpusFile(Path);
    ASSERT_TRUE(Text.has_value()) << Path;
    parser::ParseResult Parsed = parser::parseLoop(*Text);
    ASSERT_TRUE(Parsed.ok()) << Path << ": " << Parsed.Error;
    Programs += verifyAfterEachPass(*Parsed.Loop, Path);
  }
  for (uint64_t Seed = 1; Seed <= 40; ++Seed)
    Programs += verifyAfterEachPass(
        synth::synthesizeLoop(fuzz::paramsForSeed(Seed, 64, true, true)),
        "seed " + std::to_string(Seed));
  EXPECT_GT(Programs, 0u);
}

} // namespace
