//===- tests/BinOpSemanticsTest.cpp - Min/Max and bitwise lane semantics -===//
//
// Part of the simdize project (PLDI 2004 alignment-constrained simdization).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The full operation repertoire of a multimedia unit (vec_min, vec_max,
/// vec_and, vec_or, vec_xor alongside the arithmetic): scalar-oracle
/// agreement across policies and data widths, signedness of the ordered
/// operations, reassociation over min-chains, and parsing.
///
//===----------------------------------------------------------------------===//

#include "codegen/Simdizer.h"
#include "ir/IRBuilder.h"
#include "ir/IRPrinter.h"
#include "ir/Loop.h"
#include "native/NativeEmitter.h"
#include "native/simdize_vm_ops.h"
#include "opt/OffsetReassoc.h"
#include "opt/Pipeline.h"
#include "parser/LoopParser.h"
#include "sim/Checker.h"
#include "sim/Machine.h"
#include "sim/Memory.h"
#include "sim/ScalarInterp.h"

#include <gtest/gtest.h>

using namespace simdize;

namespace {

TEST(BinOps, Properties) {
  for (ir::BinOpKind Op :
       {ir::BinOpKind::Min, ir::BinOpKind::Max, ir::BinOpKind::And,
        ir::BinOpKind::Or, ir::BinOpKind::Xor})
    EXPECT_TRUE(ir::isAssociativeCommutative(Op));
  EXPECT_STREQ(ir::binOpMnemonic(ir::BinOpKind::Min), "min");
  EXPECT_STREQ(ir::binOpMnemonic(ir::BinOpKind::Xor), "xor");
  EXPECT_STREQ(ir::binOpSpelling(ir::BinOpKind::And), "&");
}

TEST(BinOps, PrinterFormats) {
  ir::Loop L;
  ir::Array *A = L.createArray("a", ir::ElemType::Int32, 64, 0, true);
  auto E = ir::min(ir::ref(A, 0), ir::max(ir::splat(3), ir::ref(A, 1)));
  EXPECT_EQ(ir::printExpr(*E), "min(a[i], max(3, a[i+1]))");
  auto F = ir::bitXor(ir::ref(A, 0), ir::bitAnd(ir::ref(A, 1), ir::splat(7)));
  EXPECT_EQ(ir::printExpr(*F), "a[i] ^ (a[i+1] & 7)");
}

/// End-to-end agreement with the scalar oracle for one operator.
void roundTrip(ir::BinOpKind Op, ir::ElemType Ty, uint64_t Seed) {
  ir::Loop L;
  unsigned D = ir::elemSize(Ty);
  ir::Array *Out = L.createArray("out", Ty, 160, D, true);
  ir::Array *X = L.createArray("x", Ty, 160, 2 * D % 16, true);
  ir::Array *Y = L.createArray("y", Ty, 160, (16 - D) % 16, true);
  L.addStmt(Out, 1,
            ir::binOp(Op, ir::ref(X, 0),
                      ir::binOp(Op, ir::ref(Y, 2), ir::splat(-5))));
  L.setUpperBound(130, true);

  for (auto Policy : {policies::PolicyKind::Zero, policies::PolicyKind::Lazy}) {
    codegen::SimdizeOptions Opts;
    Opts.Policy = Policy;
    Opts.SoftwarePipelining = true;
    codegen::SimdizeResult R = codegen::simdize(L, Opts);
    ASSERT_TRUE(R.ok()) << R.Error;
    opt::runOptPipeline(*R.Program, opt::OptConfig());
    sim::CheckResult Check = sim::checkSimdization(L, *R.Program, Seed);
    EXPECT_TRUE(Check.Ok) << ir::binOpMnemonic(Op) << "/"
                          << ir::elemTypeName(Ty) << ": " << Check.Message;
  }
}

TEST(BinOps, OracleAgreementAllOpsAllWidths) {
  uint64_t Seed = 1000;
  // Every operator of the engines' shared lane rows.
  const ir::BinOpKind Ops[] = {
#define SIMDIZE_TEST_KIND(KIND, NAME, SIGN, EXPR) ir::BinOpKind::KIND,
      SIMDIZE_VM_BINOPS(SIMDIZE_TEST_KIND)
#undef SIMDIZE_TEST_KIND
  };
  for (ir::BinOpKind Op : Ops)
    for (ir::ElemType Ty :
         {ir::ElemType::Int8, ir::ElemType::Int16, ir::ElemType::Int32})
      roundTrip(Op, Ty, ++Seed);
}

TEST(BinOps, MinComparesLanesSigned) {
  // 0x80 as an i8 lane is -128: min(0x80, 1) must pick 0x80.
  ir::Loop L;
  ir::Array *Out = L.createArray("out", ir::ElemType::Int8, 64, 0, true);
  ir::Array *X = L.createArray("x", ir::ElemType::Int8, 64, 0, true);
  L.addStmt(Out, 0, ir::min(ir::ref(X, 0), ir::splat(1)));
  L.setUpperBound(60, true);

  codegen::SimdizeResult R = codegen::simdize(L, codegen::SimdizeOptions());
  ASSERT_TRUE(R.ok()) << R.Error;

  sim::MemoryLayout Layout(L, 16);
  sim::Memory Mem(Layout.getTotalSize());
  // x[i] = 0x80 everywhere.
  for (int64_t K = 0; K < 64; ++K)
    Mem.writeElem(Layout.baseOf(L.getArrays()[1].get()) + K, 1, -128);
  sim::runProgram(*R.Program, Layout, Mem);
  for (int64_t K = 0; K < 60; ++K)
    EXPECT_EQ(Mem.readElem(Layout.baseOf(L.getArrays()[0].get()) + K, 1),
              -128)
        << "element " << K;
}

TEST(BinOps, TruncationBeforeMinMatters) {
  // i16 lanes: 30000 + 30000 wraps to -5536 in the vector unit; the
  // scalar oracle must agree, so min(x + x, 0) picks the wrapped value.
  ir::Loop L;
  ir::Array *Out = L.createArray("out", ir::ElemType::Int16, 64, 2, true);
  ir::Array *X = L.createArray("x", ir::ElemType::Int16, 64, 0, true);
  L.addStmt(Out, 0, ir::min(ir::add(ir::ref(X, 0), ir::ref(X, 1)),
                            ir::splat(0)));
  L.setUpperBound(30, true);

  codegen::SimdizeResult R = codegen::simdize(L, codegen::SimdizeOptions());
  ASSERT_TRUE(R.ok()) << R.Error;

  sim::MemoryLayout Layout(L, 16);
  sim::Memory Expected(Layout.getTotalSize());
  for (int64_t K = 0; K < 64; ++K)
    Expected.writeElem(Layout.baseOf(L.getArrays()[1].get()) + K * 2, 2,
                       30000);
  sim::Memory Actual = Expected;
  sim::runScalarLoop(L, Layout, Expected);
  sim::runProgram(*R.Program, Layout, Actual);
  EXPECT_TRUE(Expected == Actual);
  // And the wrapped sum is indeed what lands in memory.
  EXPECT_EQ(Expected.readElem(Layout.baseOf(L.getArrays()[0].get()), 2),
            static_cast<int16_t>(60000));
}

TEST(BinOps, ReassociationGroupsMinChains) {
  ir::Loop L;
  ir::Array *Out = L.createArray("out", ir::ElemType::Int32, 128, 0, true);
  ir::Array *B = L.createArray("b", ir::ElemType::Int32, 128, 4, true);
  ir::Array *C = L.createArray("c", ir::ElemType::Int32, 128, 8, true);
  ir::Array *D = L.createArray("d", ir::ElemType::Int32, 128, 4, true);
  L.addStmt(Out, 0,
            ir::min(ir::min(ir::ref(B, 0), ir::ref(C, 0)), ir::ref(D, 0)));
  L.setUpperBound(100, true);
  EXPECT_EQ(opt::runOffsetReassociation(L, 16), 1u);
  EXPECT_EQ(ir::printExpr(L.getStmts().front()->getRHS()),
            "min(min(b[i], d[i]), c[i])");
}

TEST(BinOps, ParserHandlesCallsAndBitwise) {
  parser::ParseResult R =
      parser::parseLoop("array o i32 64 align 0\n"
                        "array x i32 64 align 4\n"
                        "array y i32 64 align 8\n"
                        "loop 40\n"
                        "o[i] = min(x[i], y[i+1]) ^ x[i+2] & 255\n");
  ASSERT_TRUE(R.ok()) << R.Error;
  // & binds tighter than ^.
  EXPECT_EQ(ir::printStmt(*R.Loop->getStmts().front()),
            "o[i] = min(x[i], y[i+1]) ^ (x[i+2] & 255);");
}

TEST(BinOps, EmittedKernelsStillCompileConceptually) {
  // Structural check that the emitter names the right wrapper calls; the
  // compile-and-run coverage lives in NativeEmitterTest.
  ir::Loop L;
  ir::Array *Out = L.createArray("out", ir::ElemType::Int16, 64, 2, true);
  ir::Array *X = L.createArray("x", ir::ElemType::Int16, 64, 0, true);
  L.addStmt(Out, 0, ir::max(ir::ref(X, 0), ir::splat(0)));
  L.setUpperBound(40, true);
  codegen::SimdizeResult R = codegen::simdize(L, codegen::SimdizeOptions());
  ASSERT_TRUE(R.ok()) << R.Error;
  native::LowerResult Lowered =
      native::emitNativeKernel(*R.Program, L, "kern", native::ISA::Shim);
  ASSERT_TRUE(Lowered.ok()) << Lowered.Error;
  const std::string &Src = Lowered.Code;
  EXPECT_NE(Src.find("vx_max_i16("), std::string::npos);
}

} // namespace
