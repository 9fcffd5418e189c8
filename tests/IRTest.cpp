//===- tests/IRTest.cpp - Unit tests for the scalar loop IR --------------===//
//
// Part of the simdize project (PLDI 2004 alignment-constrained simdization).
//
//===----------------------------------------------------------------------===//

#include "ir/IRBuilder.h"
#include "ir/IRPrinter.h"
#include "ir/IRVerifier.h"
#include "ir/Loop.h"
#include "ir/ScalarCost.h"
#include "support/Format.h"

#include <gtest/gtest.h>

using namespace simdize;
using namespace simdize::ir;

namespace {

TEST(Type, ElemSizes) {
  EXPECT_EQ(elemSize(ElemType::Int8), 1u);
  EXPECT_EQ(elemSize(ElemType::Int16), 2u);
  EXPECT_EQ(elemSize(ElemType::Int32), 4u);
}

TEST(Type, Names) {
  EXPECT_STREQ(elemTypeName(ElemType::Int8), "i8");
  EXPECT_STREQ(elemTypeName(ElemType::Int16), "i16");
  EXPECT_STREQ(elemTypeName(ElemType::Int32), "i32");
}

TEST(Array, Accessors) {
  Loop L;
  Array *A = L.createArray("a", ElemType::Int32, 64, 12, true);
  EXPECT_EQ(A->getName(), "a");
  EXPECT_EQ(A->getElemSize(), 4u);
  EXPECT_EQ(A->getNumElems(), 64);
  EXPECT_EQ(A->getSizeInBytes(), 256);
  EXPECT_EQ(A->getAlignment(), 12u);
  EXPECT_TRUE(A->isAlignmentKnown());
}

TEST(Expr, CloneAndEquals) {
  Loop L;
  Array *A = L.createArray("a", ElemType::Int32, 64, 0, true);
  Array *B = L.createArray("b", ElemType::Int32, 64, 0, true);

  auto E = add(mul(ref(A, 1), splat(3)), ref(B, 2));
  auto C = E->clone();
  EXPECT_TRUE(E->equals(*C));
  EXPECT_TRUE(C->equals(*E));

  auto Different = add(mul(ref(A, 1), splat(4)), ref(B, 2));
  EXPECT_FALSE(E->equals(*Different));

  auto DifferentArray = add(mul(ref(B, 1), splat(3)), ref(B, 2));
  EXPECT_FALSE(E->equals(*DifferentArray));

  auto DifferentOffset = add(mul(ref(A, 2), splat(3)), ref(B, 2));
  EXPECT_FALSE(E->equals(*DifferentOffset));

  auto DifferentOp = add(add(ref(A, 1), splat(3)), ref(B, 2));
  EXPECT_FALSE(E->equals(*DifferentOp));
}

TEST(Expr, WalkVisitsEveryNodePreorder) {
  Loop L;
  Array *A = L.createArray("a", ElemType::Int32, 64, 0, true);
  auto E = add(ref(A, 0), mul(splat(2), ref(A, 1)));

  std::vector<ExprKind> Kinds;
  E->walk([&Kinds](const Expr &N) { Kinds.push_back(N.getKind()); });
  ASSERT_EQ(Kinds.size(), 5u);
  EXPECT_EQ(Kinds[0], ExprKind::BinOp);   // +
  EXPECT_EQ(Kinds[1], ExprKind::ArrayRef); // a[i]
  EXPECT_EQ(Kinds[2], ExprKind::BinOp);   // *
  EXPECT_EQ(Kinds[3], ExprKind::Splat);   // 2
  EXPECT_EQ(Kinds[4], ExprKind::ArrayRef); // a[i+1]
}

TEST(Expr, CastHelpers) {
  Loop L;
  Array *A = L.createArray("a", ElemType::Int32, 64, 0, true);
  auto E = ref(A, 5);
  EXPECT_TRUE(isa<ArrayRefExpr>(*E));
  EXPECT_FALSE(isa<SplatExpr>(*E));
  EXPECT_EQ(cast<ArrayRefExpr>(*E).getOffset(), 5);
  EXPECT_EQ(dyn_cast<SplatExpr>(*E), nullptr);
  EXPECT_NE(dyn_cast<ArrayRefExpr>(*E), nullptr);
}

TEST(Expr, BinOpProperties) {
  EXPECT_TRUE(isAssociativeCommutative(BinOpKind::Add));
  EXPECT_TRUE(isAssociativeCommutative(BinOpKind::Mul));
  EXPECT_FALSE(isAssociativeCommutative(BinOpKind::Sub));
  EXPECT_STREQ(binOpSpelling(BinOpKind::Add), "+");
  EXPECT_STREQ(binOpSpelling(BinOpKind::Sub), "-");
  EXPECT_STREQ(binOpSpelling(BinOpKind::Mul), "*");
}

TEST(Printer, Figure1Loop) {
  Loop L;
  Array *A = L.createArray("a", ElemType::Int32, 128, 0, true);
  Array *B = L.createArray("b", ElemType::Int32, 128, 0, true);
  Array *C = L.createArray("c", ElemType::Int32, 128, 0, true);
  L.addStmt(A, 3, add(ref(B, 1), ref(C, 2)));
  L.setUpperBound(100, true);

  EXPECT_EQ(printLoop(L),
            "// a: i32[128] @align 0, b: i32[128] @align 0, "
            "c: i32[128] @align 0\n"
            "for (i = 0; i < 100; ++i) {\n"
            "  a[i+3] = b[i+1] + c[i+2];\n"
            "}\n");
}

TEST(Printer, RuntimeAlignmentAndBound) {
  Loop L;
  Array *A = L.createArray("a", ElemType::Int16, 64, 2, false);
  L.addStmt(A, 0, splat(7));
  L.setUpperBound(50, false);
  std::string Text = printLoop(L);
  EXPECT_NE(Text.find("@align ?"), std::string::npos);
  EXPECT_NE(Text.find("i < ub"), std::string::npos);
}

TEST(Printer, NestedParenthesesAndOffsets) {
  Loop L;
  Array *A = L.createArray("a", ElemType::Int32, 64, 0, true);
  Array *B = L.createArray("b", ElemType::Int32, 64, 0, true);
  auto E = mul(add(ref(A, 0), splat(-2)), ref(B, 3));
  EXPECT_EQ(printExpr(*E), "(a[i] + -2) * b[i+3]");
}

TEST(Printer, ReduceAndNestedGuardStatements) {
  Loop L;
  Array *Acc = L.createArray("acc", ElemType::Int32, 8, 0, true);
  Array *G = L.createArray("g", ElemType::Int32, 64, 0, true);
  Array *X = L.createArray("x", ElemType::Int32, 64, 0, true);
  Param *K = L.createParam("k", 5);
  L.addReduceStmt(Acc, 3, BinOpKind::Max, bitXor(ref(X, 0), splat(-1)));
  // Call-syntax operands stay bare inside an infix operator; an infix
  // operand of a call is not parenthesized either.
  L.addIfStmt(G, -1, param(K),
              sub(max(ref(X, 2), splat(0)), min(ref(X, 0), param(K))),
              CmpKind::GE, add(ref(G, 1), mul(ref(X, 1), splat(3))));

  EXPECT_EQ(printStmt(*L.getStmts()[0]), "acc[3] max= x[i] ^ -1;");
  EXPECT_EQ(printStmt(*L.getStmts()[1]),
            "if (max(x[i+2], 0) - min(x[i], k) >= g[i+1] + (x[i+1] * 3)) "
            "g[i-1] = k;");
  EXPECT_EQ(printExpr(*min(add(ref(X, 0), splat(1)), max(ref(G, 0), param(K)))),
            "min(x[i] + 1, max(g[i], k))");
}

TEST(Printer, ParseableCoversEveryDeclarationForm) {
  Loop L;
  Array *A = L.createArray("a", ElemType::Int16, 96, 6, true);
  Array *B = L.createArray("b", ElemType::Int16, 96, 10, false);
  Array *C = L.createArray("c", ElemType::Int16, 96, 3, true);
  Array *D = L.createArray("d", ElemType::Int16, 96, 7, false);
  Array *S = L.createArray("s", ElemType::Int16, 4, 0, true);
  Param *Alpha = L.createParam("alpha", -7);
  L.createParam("beta", 0);
  L.addStmt(A, 2, add(mul(param(Alpha), ref(B, 1)), ref(C, 0)));
  L.addReduceStmt(S, 0, BinOpKind::Add, ref(D, 3));
  L.setUpperBound(90, false);

  EXPECT_EQ(printParseable(L, "first\nsecond"),
            "# first\n"
            "# second\n"
            "array a i16 96 align 6\n"
            "array b i16 96 align ? 10\n"
            "array c i16 96 align byte 3\n"
            "array d i16 96 align byte ? 7\n"
            "array s i16 4 align 0\n"
            "param alpha -7\n"
            "param beta 0\n"
            "loop runtime 90\n"
            "a[i+2] = (alpha * b[i+1]) + c[i]\n"
            "s[0] += d[i+3]\n");

  L.setUpperBound(64, true);
  std::string Known = printParseable(L);
  EXPECT_EQ(Known.substr(0, 8), "array a ");
  EXPECT_NE(Known.find("\nloop 64\n"), std::string::npos);
}

TEST(Verifier, AcceptsWellFormedLoop) {
  Loop L;
  Array *A = L.createArray("a", ElemType::Int32, 110, 0, true);
  Array *B = L.createArray("b", ElemType::Int32, 110, 0, true);
  L.addStmt(A, 3, ref(B, 1));
  L.setUpperBound(100, true);
  EXPECT_EQ(verifyLoop(L), std::nullopt);
}

TEST(Verifier, RejectsEmptyLoop) {
  Loop L;
  EXPECT_NE(verifyLoop(L), std::nullopt);
}

TEST(Verifier, RejectsOutOfBoundsStore) {
  Loop L;
  Array *A = L.createArray("a", ElemType::Int32, 100, 0, true);
  Array *B = L.createArray("b", ElemType::Int32, 200, 0, true);
  L.addStmt(A, 5, ref(B, 0)); // a[104] out of bounds for 100 elements.
  L.setUpperBound(100, true);
  auto Err = verifyLoop(L);
  ASSERT_NE(Err, std::nullopt);
  EXPECT_NE(Err->find("overruns"), std::string::npos);
}

TEST(Verifier, RejectsOutOfBoundsLoad) {
  Loop L;
  Array *A = L.createArray("a", ElemType::Int32, 200, 0, true);
  Array *B = L.createArray("b", ElemType::Int32, 100, 0, true);
  L.addStmt(A, 0, ref(B, 10));
  L.setUpperBound(100, true);
  EXPECT_NE(verifyLoop(L), std::nullopt);
}

TEST(Verifier, RejectsNegativeOffset) {
  Loop L;
  Array *A = L.createArray("a", ElemType::Int32, 200, 0, true);
  Array *B = L.createArray("b", ElemType::Int32, 200, 0, true);
  L.addStmt(A, 0, ref(B, -1));
  L.setUpperBound(100, true);
  auto Err = verifyLoop(L);
  ASSERT_NE(Err, std::nullopt);
  EXPECT_NE(Err->find("below"), std::string::npos);
}

TEST(Verifier, RejectsMixedElementSizes) {
  // Section 4.1: all memory references access data of the same length.
  Loop L;
  Array *A = L.createArray("a", ElemType::Int32, 200, 0, true);
  Array *B = L.createArray("b", ElemType::Int16, 200, 0, true);
  L.addStmt(A, 0, ref(B, 0));
  L.setUpperBound(100, true);
  auto Err = verifyLoop(L);
  ASSERT_NE(Err, std::nullopt);
  EXPECT_NE(Err->find("uniform data length"), std::string::npos);
}

TEST(Verifier, RejectsGuardObservingStoreTarget) {
  // If-conversion reloads the store target to blend untaken lanes, so the
  // guard (or RHS) reading it would see this iteration's own store.
  Loop L;
  Array *S = L.createArray("s", ElemType::Int32, 200, 0, true);
  Array *B = L.createArray("b", ElemType::Int32, 200, 0, true);
  L.addIfStmt(S, 0, ref(B, 1), ref(S, 2), CmpKind::GT, splat(0));
  L.setUpperBound(100, true);
  auto Err = verifyLoop(L);
  ASSERT_NE(Err, std::nullopt);
  EXPECT_NE(Err->find("also references it"), std::string::npos) << *Err;
}

TEST(Verifier, RejectsLoadedReductionAccumulator) {
  // The accumulator cell lives in a register for the whole loop; a load
  // of the array would observe a stale memory value.
  Loop L;
  Array *A = L.createArray("a", ElemType::Int32, 200, 0, true);
  Array *Acc = L.createArray("acc", ElemType::Int32, 200, 0, true);
  L.addStmt(A, 0, ref(Acc, 1));
  L.addReduceStmt(Acc, 0, BinOpKind::Add, ref(A, 2));
  L.setUpperBound(100, true);
  auto Err = verifyLoop(L);
  ASSERT_NE(Err, std::nullopt);
  EXPECT_NE(Err->find("also loaded"), std::string::npos) << *Err;
}

TEST(Verifier, RejectsAccumulatorStoredByAssignment) {
  Loop L;
  Array *A = L.createArray("a", ElemType::Int32, 200, 0, true);
  Array *Acc = L.createArray("acc", ElemType::Int32, 200, 0, true);
  L.addStmt(Acc, 0, ref(A, 0));
  L.addReduceStmt(Acc, 1, BinOpKind::Add, ref(A, 2));
  L.setUpperBound(100, true);
  auto Err = verifyLoop(L);
  ASSERT_NE(Err, std::nullopt);
  EXPECT_NE(Err->find("also a store target"), std::string::npos) << *Err;
}

TEST(Verifier, RejectsOutOfBoundsReductionCell) {
  Loop L;
  Array *A = L.createArray("a", ElemType::Int32, 200, 0, true);
  Array *Acc = L.createArray("acc", ElemType::Int32, 4, 0, true);
  L.addReduceStmt(Acc, 4, BinOpKind::Add, ref(A, 0));
  L.addStmt(L.createArray("o", ElemType::Int32, 200, 0, true), 0, ref(A, 1));
  L.setUpperBound(100, true);
  auto Err = verifyLoop(L);
  ASSERT_NE(Err, std::nullopt);
  EXPECT_NE(Err->find("out of bounds"), std::string::npos) << *Err;
}

TEST(Loop, CloneLoopPreservesEveryStatementKind) {
  Loop L;
  Array *Out = L.createArray("out", ElemType::Int32, 64, 0, true);
  Array *G = L.createArray("g", ElemType::Int32, 64, 4, true);
  Array *X = L.createArray("x", ElemType::Int32, 64, 8, true);
  Array *Acc = L.createArray("acc", ElemType::Int32, 64, 0, true);
  Param *P = L.createParam("p", 9);
  L.addStmt(Out, 0, add(ref(X, 1), param(P)));
  L.addIfStmt(G, 2, ref(X, 0), ref(X, 3), CmpKind::NE, splat(4));
  L.addReduceStmt(Acc, 3, BinOpKind::Mul, ref(X, 2));
  L.setUpperBound(48, true);

  Loop C = cloneLoop(L);
  EXPECT_EQ(printLoop(C), printLoop(L));
  ASSERT_EQ(C.getStmts().size(), 3u);
  // References are remapped onto the clone's own arrays, not shared.
  for (size_t K = 0; K < C.getStmts().size(); ++K) {
    const Stmt &A = *L.getStmts()[K], &B = *C.getStmts()[K];
    ASSERT_EQ(B.getKind(), A.getKind());
    EXPECT_NE(B.getStoreArray(), A.getStoreArray());
    EXPECT_EQ(B.getStoreArray()->getName(), A.getStoreArray()->getName());
  }
  EXPECT_EQ(C.getStmts()[1]->getCmpKind(), CmpKind::NE);
  EXPECT_EQ(C.getStmts()[2]->getReduceOp(), BinOpKind::Mul);
  EXPECT_EQ(C.getStmts()[2]->getStoreOffset(), 3);
  // Guard expressions are deep copies remapped onto the clone's arrays:
  // same spelling, distinct nodes (Expr::equals compares Array identity,
  // so the printed form is the right equality here).
  EXPECT_EQ(printExpr(C.getStmts()[1]->getGuardLHS()),
            printExpr(L.getStmts()[1]->getGuardLHS()));
  EXPECT_NE(&C.getStmts()[1]->getGuardLHS(), &L.getStmts()[1]->getGuardLHS());
}

TEST(ScalarCost, PaperExampleIs12Opd) {
  // 6 loads, 5 adds, 1 store: the paper's 12-opd scalar reference.
  Loop L;
  std::unique_ptr<Expr> E;
  for (int K = 0; K < 6; ++K) {
    Array *A = L.createArray(strf("x%d", K), ElemType::Int32, 200, 0, true);
    auto R = ref(A, 0);
    E = E ? add(std::move(E), std::move(R)) : std::move(R);
  }
  Array *Out = L.createArray("out", ElemType::Int32, 200, 0, true);
  L.addStmt(Out, 0, std::move(E));
  L.setUpperBound(100, true);

  ScalarCost Cost = scalarCostOfLoop(L);
  EXPECT_EQ(Cost.Loads, 6);
  EXPECT_EQ(Cost.Arith, 5);
  EXPECT_EQ(Cost.Stores, 1);
  EXPECT_EQ(Cost.total(), 12);
  EXPECT_DOUBLE_EQ(scalarOpd(L), 12.0);
}

TEST(ScalarCost, SplatsAreFree) {
  Loop L;
  Array *A = L.createArray("a", ElemType::Int32, 200, 0, true);
  Array *B = L.createArray("b", ElemType::Int32, 200, 0, true);
  L.addStmt(A, 0, mul(splat(3), ref(B, 0)));
  L.setUpperBound(100, true);
  ScalarCost Cost = scalarCostOfLoop(L);
  EXPECT_EQ(Cost.Loads, 1);
  EXPECT_EQ(Cost.Arith, 1);
  EXPECT_EQ(Cost.Splats, 1);
  EXPECT_EQ(Cost.total(), 3); // Splat not charged.
}

TEST(ScalarCost, MultiStatementOpd) {
  Loop L;
  Array *B = L.createArray("b", ElemType::Int32, 200, 0, true);
  Array *A1 = L.createArray("a1", ElemType::Int32, 200, 0, true);
  Array *A2 = L.createArray("a2", ElemType::Int32, 200, 0, true);
  L.addStmt(A1, 0, ref(B, 0));                  // 2 ops.
  L.addStmt(A2, 0, add(ref(B, 1), ref(B, 2))); // 4 ops.
  L.setUpperBound(100, true);
  EXPECT_DOUBLE_EQ(scalarOpd(L), 3.0); // 6 ops / 2 datums.
}

} // namespace
