//===- tests/RoundTripTest.cpp - Corpus text round-trip guarantees --------===//
//
// Part of the simdize project (PLDI 2004 alignment-constrained simdization).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Fuzzing reproducers are stored as parseable text, so the corpus is only
/// trustworthy if printing and parsing are exact inverses. These tests
/// check the print -> parse -> re-print fixpoint over synthesized loops
/// spanning the whole parameter space (element types, runtime alignments
/// and bounds, byte-misaligned bases) plus hand-built loops exercising the
/// grammar corners (params, min/max, negative constants, parentheses).
///
//===----------------------------------------------------------------------===//

#include "ir/IRBuilder.h"
#include "ir/IRPrinter.h"
#include "parser/LoopParser.h"
#include "support/RNG.h"
#include "synth/LoopSynth.h"

#include <gtest/gtest.h>

using namespace simdize;

namespace {

/// Parses \p Text and demands the re-print be byte-identical.
void expectFixpoint(const std::string &Text) {
  parser::ParseResult Parsed = parser::parseLoop(Text);
  ASSERT_TRUE(Parsed.ok()) << Parsed.Error << "\nwhile parsing:\n" << Text;
  EXPECT_EQ(ir::printParseable(*Parsed.Loop), Text);
}

/// Checks structural equality of the parsed loop against the original.
void expectSameLoop(const ir::Loop &L) {
  std::string Text = ir::printParseable(L);
  parser::ParseResult Parsed = parser::parseLoop(Text);
  ASSERT_TRUE(Parsed.ok()) << Parsed.Error << "\nwhile parsing:\n" << Text;
  const ir::Loop &R = *Parsed.Loop;

  EXPECT_EQ(R.getUpperBound(), L.getUpperBound());
  EXPECT_EQ(R.isUpperBoundKnown(), L.isUpperBoundKnown());
  ASSERT_EQ(R.getArrays().size(), L.getArrays().size());
  for (size_t K = 0; K < L.getArrays().size(); ++K) {
    const ir::Array &A = *L.getArrays()[K], &B = *R.getArrays()[K];
    EXPECT_EQ(B.getName(), A.getName());
    EXPECT_EQ(B.getElemType(), A.getElemType());
    EXPECT_EQ(B.getNumElems(), A.getNumElems());
    EXPECT_EQ(B.getAlignment(), A.getAlignment());
    EXPECT_EQ(B.isAlignmentKnown(), A.isAlignmentKnown());
  }
  ASSERT_EQ(R.getStmts().size(), L.getStmts().size());
  for (size_t K = 0; K < L.getStmts().size(); ++K) {
    const ir::Stmt &A = *L.getStmts()[K], &B = *R.getStmts()[K];
    EXPECT_EQ(B.getStoreArray()->getName(), A.getStoreArray()->getName());
    EXPECT_EQ(B.getStoreOffset(), A.getStoreOffset());
    ASSERT_EQ(B.getKind(), A.getKind());
    if (A.isIf()) {
      EXPECT_EQ(B.getCmpKind(), A.getCmpKind());
    }
    if (A.isReduce()) {
      EXPECT_EQ(B.getReduceOp(), A.getReduceOp());
    }
  }

  expectFixpoint(Text);
}

TEST(RoundTrip, SynthesizedSweepAllKnobs) {
  RNG Rng(20040607);
  for (unsigned Iter = 0; Iter < 200; ++Iter) {
    synth::SynthParams P;
    P.Statements = static_cast<unsigned>(Rng.uniformInt(1, 4));
    P.LoadsPerStmt = static_cast<unsigned>(Rng.uniformInt(1, 8));
    P.TripCount = Rng.uniformInt(0, 300);
    P.Bias = Rng.uniformReal();
    P.Reuse = Rng.uniformReal();
    switch (Rng.uniformInt(0, 2)) {
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
    P.AlignKnown = Rng.withProbability(0.5);
    P.UBKnown = Rng.withProbability(0.5);
    P.NaturalAlignment = Rng.withProbability(0.5);
    P.GuardProb = Rng.withProbability(0.5) ? 0.5 : 0.0;
    P.ReduceProb = Rng.withProbability(0.5) ? 0.4 : 0.0;
    P.Seed = Rng.next();
    expectSameLoop(synth::synthesizeLoop(P));
  }
}

TEST(RoundTrip, ParamsAndCallSyntax) {
  ir::Loop L;
  ir::Array *Out = L.createArray("out", ir::ElemType::Int32, 64, 4, true);
  ir::Array *X = L.createArray("x", ir::ElemType::Int32, 64, 0, true);
  ir::Param *Scale = L.createParam("scale", 7);
  L.addStmt(Out, 1,
            ir::min(ir::mul(ir::ref(X, 2), ir::param(Scale)),
                    ir::max(ir::ref(X, 0), ir::splat(-5))));
  L.setUpperBound(40, false);
  expectSameLoop(L);
}

TEST(RoundTrip, ByteMisalignedAndRuntimeAlignment) {
  ir::Loop L;
  ir::Array *Out = L.createArray("out", ir::ElemType::Int32, 64, 5, true);
  ir::Array *X = L.createArray("x", ir::ElemType::Int16, 64, 9, false);
  ir::Array *Y = L.createArray("y", ir::ElemType::Int32, 64, 8, false);
  L.addStmt(Out, 0, ir::add(ir::ref(X, 1), ir::ref(Y, 3)));
  L.setUpperBound(50, true);
  std::string Text = ir::printParseable(L);
  EXPECT_NE(Text.find("align byte 5"), std::string::npos);
  EXPECT_NE(Text.find("align byte ? 9"), std::string::npos);
  EXPECT_NE(Text.find("align ? 8"), std::string::npos);
  expectSameLoop(L);
}

TEST(RoundTrip, HeaderCommentsAreSkippedByParser) {
  ir::Loop L;
  ir::Array *Out = L.createArray("o", ir::ElemType::Int8, 32, 0, true);
  L.addStmt(Out, 0, ir::splat(3));
  L.setUpperBound(20, true);
  std::string Text =
      ir::printParseable(L, "fuzz seed 42, config LAZY/opt\nline two");
  EXPECT_EQ(Text.find("# fuzz seed 42, config LAZY/opt\n"), 0u);
  parser::ParseResult Parsed = parser::parseLoop(Text);
  ASSERT_TRUE(Parsed.ok()) << Parsed.Error;
  EXPECT_EQ(ir::printParseable(*Parsed.Loop),
            ir::printParseable(L)); // headers drop out, body survives
}

TEST(RoundTrip, MixedKindStatements) {
  // One statement of each kind through the printer/parser pair, pinning
  // the corpus spelling of guards and reductions.
  ir::Loop L;
  ir::Array *Out = L.createArray("out", ir::ElemType::Int32, 64, 0, true);
  ir::Array *G = L.createArray("g", ir::ElemType::Int32, 64, 4, true);
  ir::Array *X = L.createArray("x", ir::ElemType::Int32, 64, 8, true);
  ir::Array *Acc = L.createArray("acc", ir::ElemType::Int32, 64, 0, true);
  L.addStmt(Out, 0, ir::ref(X, 1));
  L.addIfStmt(G, 2, ir::add(ir::ref(X, 0), ir::splat(1)), ir::ref(X, 3),
              ir::CmpKind::LE, ir::splat(-7));
  L.addReduceStmt(Acc, 1, ir::BinOpKind::Max, ir::ref(X, 2));
  L.setUpperBound(48, true);

  std::string Text = ir::printParseable(L);
  EXPECT_NE(Text.find("if (x[i+3] <= -7) g[i+2] = x[i] + 1\n"),
            std::string::npos)
      << Text;
  EXPECT_NE(Text.find("acc[1] max= x[i+2]\n"), std::string::npos) << Text;
  expectSameLoop(L);
}

TEST(RoundTrip, NegativeOffsetsParse) {
  // The printer never emits negative offsets for synthesized loops, but
  // the dialect accepts them so hand-written cases load too.
  parser::ParseResult Parsed =
      parser::parseLoop("array a i32 64 align 0\n"
                        "array b i32 64 align 0\n"
                        "loop 40\n"
                        "a[i+2] = b[i-1]\n");
  ASSERT_TRUE(Parsed.ok()) << Parsed.Error;
  const auto &Ref = ir::cast<ir::ArrayRefExpr>(
      Parsed.Loop->getStmts().front()->getRHS());
  EXPECT_EQ(Ref.getOffset(), -1);
}

} // namespace
