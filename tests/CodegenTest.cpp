//===- tests/CodegenTest.cpp - Unit tests for SIMD code generation -------===//
//
// Part of the simdize project (PLDI 2004 alignment-constrained simdization).
//
//===----------------------------------------------------------------------===//

#include "codegen/Simdizer.h"
#include "ir/IRBuilder.h"
#include "ir/Loop.h"
#include "sim/Checker.h"
#include "support/Format.h"
#include "vir/VPrinter.h"

#include <gtest/gtest.h>

using namespace simdize;
using namespace simdize::codegen;

namespace {

using vir::countOps;

/// One-statement loop with chosen store alignment and trip count.
ir::Loop makeLoop(unsigned StoreAlign, int64_t UB, bool UBKnown = true,
                  ir::ElemType Ty = ir::ElemType::Int32) {
  ir::Loop L;
  int64_t Size = UB + 16;
  ir::Array *A = L.createArray("a", Ty, Size, StoreAlign, true);
  ir::Array *B = L.createArray("b", Ty, Size, elemSize(Ty), true);
  L.addStmt(A, 0, ir::ref(B, 0));
  L.setUpperBound(UB, UBKnown);
  return L;
}

TEST(Simdizable, RejectsTripCountAtOrBelowGuard) {
  // B = 4; the guard is ub > 3B = 12.
  for (int64_t UB : {1, 4, 11, 12}) {
    ir::Loop L = makeLoop(0, UB);
    auto Err = checkSimdizable(L, 16);
    ASSERT_NE(Err, std::nullopt) << "ub=" << UB;
    EXPECT_NE(Err->find("validity guard"), std::string::npos);
  }
  EXPECT_EQ(checkSimdizable(makeLoop(0, 13), 16), std::nullopt);
}

TEST(Simdizable, RejectsStoreAlsoLoaded) {
  ir::Loop L;
  ir::Array *A = L.createArray("a", ir::ElemType::Int32, 128, 0, true);
  ir::Array *B = L.createArray("b", ir::ElemType::Int32, 128, 0, true);
  L.addStmt(A, 1, ir::ref(A, 0)); // Loop-carried dependence risk.
  L.addStmt(B, 0, ir::splat(1));
  L.setUpperBound(100, true);
  auto Err = checkSimdizable(L, 16);
  ASSERT_NE(Err, std::nullopt);
  EXPECT_NE(Err->find("both stored and loaded"), std::string::npos);
}

TEST(Simdizable, RejectsDoubleStoredArray) {
  ir::Loop L;
  ir::Array *A = L.createArray("a", ir::ElemType::Int32, 128, 0, true);
  L.addStmt(A, 0, ir::splat(1));
  L.addStmt(A, 1, ir::splat(2));
  L.setUpperBound(100, true);
  auto Err = checkSimdizable(L, 16);
  ASSERT_NE(Err, std::nullopt);
  EXPECT_NE(Err->find("more than one statement"), std::string::npos);
}

TEST(Bounds, SteadyStateUsesEq12AndEq15) {
  // LB = B = 4 (Eq. 12); UB = ub - B + 1 = 97 (Eq. 15).
  ir::Loop L = makeLoop(12, 100);
  SimdizeResult R= codegen::simdize(L, SimdizeOptions());
  ASSERT_TRUE(R.ok()) << R.Error;
  EXPECT_TRUE(R.Program->getLowerBound().isImm());
  EXPECT_EQ(R.Program->getLowerBound().getImm(), 4);
  EXPECT_TRUE(R.Program->getUpperBound().isImm());
  EXPECT_EQ(R.Program->getUpperBound().getImm(), 97);
}

TEST(Bounds, RuntimeUpperBoundComputedInSetup) {
  ir::Loop L = makeLoop(12, 100, /*UBKnown=*/false);
  SimdizeResult R= codegen::simdize(L, SimdizeOptions());
  ASSERT_TRUE(R.ok()) << R.Error;
  EXPECT_FALSE(R.Program->getUpperBound().isImm());
  EXPECT_TRUE(R.Program->hasTripCountParam());
  EXPECT_EQ(R.Program->getTripCountValue(), 100);
  // One subtraction in Setup produces the bound.
  EXPECT_GE(countOps(R.Program->getSetup(), vir::VOpcode::SBinOp), 1u);
}

TEST(Prologue, AlignedStoreSkipsSplice) {
  ir::Loop L = makeLoop(/*StoreAlign=*/0, 100);
  SimdizeResult R= codegen::simdize(L, SimdizeOptions());
  ASSERT_TRUE(R.ok()) << R.Error;
  // Full-vector prologue store: no vsplice in Setup.
  EXPECT_EQ(countOps(R.Program->getSetup(), vir::VOpcode::VSplice), 0u);
  EXPECT_EQ(countOps(R.Program->getSetup(), vir::VOpcode::VStore), 1u);
}

TEST(Prologue, MisalignedStoreSplicesOldBytes) {
  ir::Loop L = makeLoop(/*StoreAlign=*/8, 100);
  SimdizeResult R= codegen::simdize(L, SimdizeOptions());
  ASSERT_TRUE(R.ok()) << R.Error;
  EXPECT_EQ(countOps(R.Program->getSetup(), vir::VOpcode::VSplice), 1u);
}

// gtest names each case after the raw bytes of its parameter, so the
// struct must have no padding: padding bytes are indeterminate and made
// the case names differ from one build or working directory to the next.
// Hence the 64-bit StoreAlign next to the 64-bit UB.
struct EpilogueCase {
  int64_t StoreAlign;
  int64_t UB;
  unsigned ExpectFullStores;    // Unpredicated full epilogue stores.
  unsigned ExpectPartialStores; // Splice-backed epilogue stores.
};

class EpilogueShape : public ::testing::TestWithParam<EpilogueCase> {};

TEST_P(EpilogueShape, MatchesEpiLeftOver) {
  // ELO = align + (ub mod B)*D (Eq. 16); V = 16, D = 4, B = 4.
  EpilogueCase C = GetParam();
  ir::Loop L = makeLoop(C.StoreAlign, C.UB);
  SimdizeResult R= codegen::simdize(L, SimdizeOptions());
  ASSERT_TRUE(R.ok()) << R.Error;
  const vir::Block &Epi = R.Program->getEpilogue();
  EXPECT_EQ(countOps(Epi, vir::VOpcode::VStore) -
                countOps(Epi, vir::VOpcode::VSplice),
            C.ExpectFullStores);
  EXPECT_EQ(countOps(Epi, vir::VOpcode::VSplice), C.ExpectPartialStores);
  // And of course the result must be right.
  sim::CheckResult Check = sim::checkSimdization(L, *R.Program, 5);
  EXPECT_TRUE(Check.Ok) << Check.Message;
}

INSTANTIATE_TEST_SUITE_P(
    EpiLeftOverCases, EpilogueShape,
    ::testing::Values(
        EpilogueCase{0, 100, 0, 0},  // ELO = 0: no epilogue.
        EpilogueCase{4, 100, 0, 1},  // ELO = 4: partial only.
        EpilogueCase{12, 101, 1, 0}, // ELO = 12+4 = 16 = V: full only.
        EpilogueCase{12, 103, 1, 1}, // ELO = 12+12 = 24 > V: full+partial.
        EpilogueCase{0, 102, 0, 1},  // ELO = 8: partial.
        EpilogueCase{8, 102, 1, 0}   // ELO = 16: full.
        ));

TEST(Epilogue, RuntimeBoundsArePredicated) {
  ir::Loop L = makeLoop(12, 103, /*UBKnown=*/false);
  SimdizeResult R= codegen::simdize(L, SimdizeOptions());
  ASSERT_TRUE(R.ok()) << R.Error;
  const vir::Block &Epi = R.Program->getEpilogue();
  unsigned Predicated = 0;
  for (const vir::VInst &I : Epi)
    if (I.Predicate)
      ++Predicated;
  EXPECT_GT(Predicated, 0u);
  EXPECT_GT(countOps(Epi, vir::VOpcode::SCmp), 0u);
  sim::CheckResult Check = sim::checkSimdization(L, *R.Program, 6);
  EXPECT_TRUE(Check.Ok) << Check.Message;
}

TEST(Codegen, SplatsHoistedAndCached) {
  ir::Loop L;
  ir::Array *A = L.createArray("a", ir::ElemType::Int32, 128, 4, true);
  ir::Array *B = L.createArray("b", ir::ElemType::Int32, 128, 4, true);
  // The same constant twice: one vsplat.
  L.addStmt(A, 0, ir::add(ir::mul(ir::splat(3), ir::ref(B, 0)), ir::splat(3)));
  L.setUpperBound(100, true);
  SimdizeResult R= codegen::simdize(L, SimdizeOptions());
  ASSERT_TRUE(R.ok()) << R.Error;
  EXPECT_EQ(countOps(R.Program->getSetup(), vir::VOpcode::VSplat), 1u);
  EXPECT_EQ(countOps(R.Program->getBody(), vir::VOpcode::VSplat), 0u);
  sim::CheckResult Check = sim::checkSimdization(L, *R.Program, 8);
  EXPECT_TRUE(Check.Ok) << Check.Message;
}

TEST(Codegen, RuntimeAlignmentScalarsCachedPerCongruenceClass) {
  // x[i] and x[i+4] share one runtime-offset computation; x[i+1] needs its
  // own.
  ir::Loop L;
  ir::Array *A = L.createArray("a", ir::ElemType::Int32, 128, 0, false);
  ir::Array *X = L.createArray("x", ir::ElemType::Int32, 128, 0, false);
  L.addStmt(A, 0,
            ir::add(ir::add(ir::ref(X, 0), ir::ref(X, 4)), ir::ref(X, 1)));
  L.setUpperBound(100, true);
  SimdizeResult R= codegen::simdize(L, SimdizeOptions());
  ASSERT_TRUE(R.ok()) << R.Error;
  // SBase instructions: one per distinct (array, class): x class 0, x
  // class 4, and the store array a.
  EXPECT_EQ(countOps(R.Program->getSetup(), vir::VOpcode::SBase), 3u);
  sim::CheckResult Check = sim::checkSimdization(L, *R.Program, 9);
  EXPECT_TRUE(Check.Ok) << Check.Message;
}

TEST(Codegen, DegenerateShiftIsElided) {
  // Relatively aligned load and store: eager-shift inserts nothing and no
  // vshiftpair appears anywhere.
  ir::Loop L = makeLoop(/*StoreAlign=*/4, 100);
  SimdizeOptions Opts;
  Opts.Policy = policies::PolicyKind::Eager;
  SimdizeResult R= codegen::simdize(L, Opts);
  ASSERT_TRUE(R.ok()) << R.Error;
  EXPECT_EQ(R.ShiftCount, 0u);
  EXPECT_EQ(countOps(R.Program->getBody(), vir::VOpcode::VShiftPair), 0u);
}

TEST(Codegen, MultiStatementSharedLoadStreams) {
  // Two statements reading the same array: correctness under every policy.
  for (auto Policy : policies::allPolicies()) {
    ir::Loop L;
    ir::Array *A = L.createArray("a", ir::ElemType::Int32, 128, 4, true);
    ir::Array *B = L.createArray("b", ir::ElemType::Int32, 128, 8, true);
    ir::Array *X = L.createArray("x", ir::ElemType::Int32, 128, 12, true);
    L.addStmt(A, 1, ir::add(ir::ref(X, 0), ir::ref(X, 2)));
    L.addStmt(B, 3, ir::mul(ir::ref(X, 1), ir::ref(X, 0)));
    L.setUpperBound(97, true);
    SimdizeOptions Opts;
    Opts.Policy = Policy;
    SimdizeResult R= codegen::simdize(L, Opts);
    ASSERT_TRUE(R.ok()) << R.Error;
    sim::CheckResult Check = sim::checkSimdization(L, *R.Program, 11);
    EXPECT_TRUE(Check.Ok)
        << policies::policyName(Policy) << ": " << Check.Message;
  }
}

TEST(Codegen, TripCountSweepAroundBoundaries) {
  // Every trip count from 3B+1 to 6B, every store alignment, zero-shift
  // with and without SP: store coverage (prologue/steady/epilogue
  // composition) must be exact.
  for (int64_t UB = 13; UB <= 24; ++UB) {
    for (unsigned Align : {0u, 4u, 8u, 12u}) {
      for (bool SP : {false, true}) {
        ir::Loop L = makeLoop(Align, UB);
        SimdizeOptions Opts;
        Opts.SoftwarePipelining = SP;
        SimdizeResult R= codegen::simdize(L, Opts);
        ASSERT_TRUE(R.ok()) << R.Error;
        sim::CheckResult Check = sim::checkSimdization(L, *R.Program, UB);
        EXPECT_TRUE(Check.Ok) << strf("ub=%lld align=%u sp=%d: ",
                                      static_cast<long long>(UB), Align, SP)
                              << Check.Message;
      }
    }
  }
}

TEST(Codegen, Int8Lanes) {
  // 16 bytes per vector: B = 16.
  ir::Loop L = makeLoop(5, 100, true, ir::ElemType::Int8);
  SimdizeResult R= codegen::simdize(L, SimdizeOptions());
  ASSERT_TRUE(R.ok()) << R.Error;
  EXPECT_EQ(R.Program->getBlockingFactor(), 16u);
  sim::CheckResult Check = sim::checkSimdization(L, *R.Program, 12);
  EXPECT_TRUE(Check.Ok) << Check.Message;
}

} // namespace
