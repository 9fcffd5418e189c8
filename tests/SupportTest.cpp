//===- tests/SupportTest.cpp - Unit tests for support utilities ----------===//
//
// Part of the simdize project (PLDI 2004 alignment-constrained simdization).
//
//===----------------------------------------------------------------------===//

#include "support/Format.h"
#include "support/Interner.h"
#include "support/MathExtras.h"
#include "support/RNG.h"

#include <gtest/gtest.h>

#include <map>

using namespace simdize;

namespace {

TEST(MathExtras, AlignDown) {
  EXPECT_EQ(alignDown(0, 16), 0);
  EXPECT_EQ(alignDown(1, 16), 0);
  EXPECT_EQ(alignDown(15, 16), 0);
  EXPECT_EQ(alignDown(16, 16), 16);
  EXPECT_EQ(alignDown(31, 16), 16);
  EXPECT_EQ(alignDown(100, 4), 100);
  EXPECT_EQ(alignDown(103, 4), 100);
}

TEST(MathExtras, AlignDownMatchesAltiVecTruncation) {
  // The paper's example: loads from 0x1000, 0x1001, 0x100E all read the
  // same 16 bytes at 0x1000.
  for (int64_t Addr : {0x1000, 0x1001, 0x100E})
    EXPECT_EQ(alignDown(Addr, 16), 0x1000);
}

TEST(MathExtras, AlignTo) {
  EXPECT_EQ(alignTo(0, 16), 0);
  EXPECT_EQ(alignTo(1, 16), 16);
  EXPECT_EQ(alignTo(16, 16), 16);
  EXPECT_EQ(alignTo(17, 16), 32);
}

TEST(MathExtras, NonNegMod) {
  EXPECT_EQ(nonNegMod(0, 16), 0);
  EXPECT_EQ(nonNegMod(5, 16), 5);
  EXPECT_EQ(nonNegMod(16, 16), 0);
  EXPECT_EQ(nonNegMod(21, 16), 5);
  // Stream offsets are nonnegative by definition; negative inputs wrap up.
  EXPECT_EQ(nonNegMod(-1, 16), 15);
  EXPECT_EQ(nonNegMod(-16, 16), 0);
  EXPECT_EQ(nonNegMod(-17, 16), 15);
}

TEST(MathExtras, CeilDiv) {
  EXPECT_EQ(ceilDiv(0, 4), 0);
  EXPECT_EQ(ceilDiv(1, 4), 1);
  EXPECT_EQ(ceilDiv(4, 4), 1);
  EXPECT_EQ(ceilDiv(5, 4), 2);
}

TEST(RNG, Deterministic) {
  RNG A(42), B(42);
  for (int K = 0; K < 100; ++K)
    EXPECT_EQ(A.next(), B.next());
}

TEST(RNG, SeedsDiffer) {
  RNG A(1), B(2);
  bool AnyDifferent = false;
  for (int K = 0; K < 10; ++K)
    AnyDifferent |= A.next() != B.next();
  EXPECT_TRUE(AnyDifferent);
}

TEST(RNG, UniformIntInRange) {
  RNG Rng(7);
  std::map<int64_t, int> Hist;
  for (int K = 0; K < 4000; ++K) {
    int64_t V = Rng.uniformInt(-3, 3);
    ASSERT_GE(V, -3);
    ASSERT_LE(V, 3);
    ++Hist[V];
  }
  // Every value of a 7-wide range appears in 4000 draws.
  EXPECT_EQ(Hist.size(), 7u);
}

TEST(RNG, UniformIntDegenerateRange) {
  RNG Rng(7);
  for (int K = 0; K < 10; ++K)
    EXPECT_EQ(Rng.uniformInt(5, 5), 5);
}

TEST(RNG, UniformRealInUnitInterval) {
  RNG Rng(9);
  for (int K = 0; K < 1000; ++K) {
    double V = Rng.uniformReal();
    ASSERT_GE(V, 0.0);
    ASSERT_LT(V, 1.0);
  }
}

TEST(RNG, ProbabilityExtremes) {
  RNG Rng(11);
  for (int K = 0; K < 50; ++K) {
    EXPECT_FALSE(Rng.withProbability(0.0));
    EXPECT_TRUE(Rng.withProbability(1.0));
  }
}

TEST(RNG, ProbabilityRoughlyCalibrated) {
  RNG Rng(13);
  int Hits = 0;
  for (int K = 0; K < 10000; ++K)
    Hits += Rng.withProbability(0.3) ? 1 : 0;
  EXPECT_NEAR(Hits / 10000.0, 0.3, 0.03);
}

TEST(Format, Strf) {
  EXPECT_EQ(strf("plain"), "plain");
  EXPECT_EQ(strf("%d + %d = %d", 1, 2, 3), "1 + 2 = 3");
  EXPECT_EQ(strf("%s", ""), "");
  EXPECT_EQ(strf("%5.2f", 3.14159), " 3.14");
}

TEST(Format, StrfLongOutput) {
  std::string Long(500, 'x');
  EXPECT_EQ(strf("%s", Long.c_str()), Long);
}

TEST(Format, Padding) {
  EXPECT_EQ(padLeft("ab", 4), "  ab");
  EXPECT_EQ(padRight("ab", 4), "ab  ");
  EXPECT_EQ(padLeft("abcd", 2), "abcd");
  EXPECT_EQ(padRight("abcd", 2), "abcd");
}

TEST(TupleInterner, DenseIdsInFirstSeenOrder) {
  TupleInterner<3> Ids;
  EXPECT_EQ(Ids.intern({1, 2, 3}), 1u);
  EXPECT_EQ(Ids.intern({3, 2, 1}), 2u);
  EXPECT_EQ(Ids.intern({1, 2, 3}), 1u);
  EXPECT_EQ(Ids.intern({0, 0, 0}), 3u); // An all-zero tuple is a value too.
  EXPECT_EQ(Ids.intern({-1, INT64_MIN, INT64_MAX}), 4u);
  EXPECT_EQ(Ids.size(), 4u);
}

TEST(TupleInterner, IdsSurviveGrowth) {
  // Thousands of tuples force many rehashes; every tuple keeps its id.
  TupleInterner<2> Ids;
  for (int64_t K = 0; K < 5000; ++K)
    ASSERT_EQ(Ids.intern({K, -K}), static_cast<uint32_t>(K + 1));
  for (int64_t K = 0; K < 5000; ++K)
    ASSERT_EQ(Ids.intern({K, -K}), static_cast<uint32_t>(K + 1));
  EXPECT_EQ(Ids.intern({1, 1}), 5001u);
  EXPECT_EQ(Ids.size(), 5001u);
}

} // namespace
