//===- tests/ParamTest.cpp - Runtime scalar parameters --------------------===//
//
// Part of the simdize project (PLDI 2004 alignment-constrained simdization).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper's vsplat(x) covers any loop invariant, not just literals
/// ("for each loop invariant node x used as a register stream, insert
/// vsplat(x)"). Runtime scalar parameters realize that: a kernel argument
/// such as a blend factor is splat once in Setup from a parameter
/// register, carries the ⊥ stream offset, and never constant-folds.
///
//===----------------------------------------------------------------------===//

#include "codegen/Simdizer.h"
#include "ir/IRBuilder.h"
#include "ir/IRPrinter.h"
#include "ir/Loop.h"
#include "ir/ScalarCost.h"
#include "native/NativeEmitter.h"
#include "opt/Pipeline.h"
#include "parser/LoopParser.h"
#include "sim/Checker.h"
#include "sim/Machine.h"
#include "sim/Memory.h"

#include <gtest/gtest.h>

using namespace simdize;

namespace {

/// out[i+1] = alpha * x[i] + y[i+2], with alpha a runtime parameter.
ir::Loop makeParamLoop(int64_t Alpha) {
  ir::Loop L;
  ir::Array *Out = L.createArray("out", ir::ElemType::Int32, 128, 4, true);
  ir::Array *X = L.createArray("x", ir::ElemType::Int32, 128, 8, true);
  ir::Array *Y = L.createArray("y", ir::ElemType::Int32, 128, 12, true);
  ir::Param *A = L.createParam("alpha", Alpha);
  L.addStmt(Out, 1,
            ir::add(ir::mul(ir::param(A), ir::ref(X, 0)), ir::ref(Y, 2)));
  L.setUpperBound(100, true);
  return L;
}

TEST(Param, PrintsByName) {
  ir::Loop L = makeParamLoop(3);
  EXPECT_EQ(ir::printStmt(*L.getStmts().front()),
            "out[i+1] = (alpha * x[i]) + y[i+2];");
}

TEST(Param, CountsAsFreeInvariantInScalarCost) {
  ir::Loop L = makeParamLoop(3);
  ir::ScalarCost Cost = ir::scalarCostOfLoop(L);
  EXPECT_EQ(Cost.Splats, 1);
  EXPECT_EQ(Cost.total(), 5); // 2 loads + 2 ops + 1 store.
}

TEST(Param, SplatsOnceFromParameterRegister) {
  ir::Loop L = makeParamLoop(3);
  codegen::SimdizeResult R = codegen::simdize(L, codegen::SimdizeOptions());
  ASSERT_TRUE(R.ok()) << R.Error;
  // One register-operand vsplat in Setup, none in the body; the program
  // records the parameter binding.
  unsigned RegSplats = 0;
  for (const vir::VInst &I : R.Program->getSetup())
    if (I.Op == vir::VOpcode::VSplat && I.SOp1.IsReg)
      ++RegSplats;
  EXPECT_EQ(RegSplats, 1u);
  ASSERT_EQ(R.Program->getScalarParams().size(), 1u);
  EXPECT_EQ(R.Program->getScalarParams()[0].second, 3);
}

TEST(Param, EndToEndAcrossPoliciesAndReuse) {
  for (auto Policy : policies::allPolicies()) {
    for (bool SP : {false, true}) {
      ir::Loop L = makeParamLoop(-7);
      codegen::SimdizeOptions Opts;
      Opts.Policy = Policy;
      Opts.SoftwarePipelining = SP;
      codegen::SimdizeResult R = codegen::simdize(L, Opts);
      ASSERT_TRUE(R.ok()) << R.Error;
      opt::OptConfig Config;
      Config.PC = !SP;
      opt::runOptPipeline(*R.Program, Config);
      sim::CheckResult Check = sim::checkSimdization(L, *R.Program, 71);
      EXPECT_TRUE(Check.Ok)
          << policies::policyName(Policy) << " sp=" << SP << ": "
          << Check.Message;
    }
  }
}

TEST(Param, ActualValueFlowsToTheResult) {
  // Same loop, two alphas: results must differ exactly by the parameter.
  ir::Loop L1 = makeParamLoop(2);
  ir::Loop L2 = makeParamLoop(5);
  codegen::SimdizeResult R1 = codegen::simdize(L1, codegen::SimdizeOptions());
  codegen::SimdizeResult R2 = codegen::simdize(L2, codegen::SimdizeOptions());
  ASSERT_TRUE(R1.ok() && R2.ok());

  auto RunOne = [](const ir::Loop &L, const vir::VProgram &P) {
    sim::MemoryLayout Layout(L, 16);
    sim::Memory Mem(Layout.getTotalSize());
    Mem.fillPattern(5);
    sim::runProgram(P, Layout, Mem);
    return Mem.readElem(Layout.baseOf(L.getArrays()[0].get()) + 5 * 4, 4);
  };
  int64_t Out1 = RunOne(L1, *R1.Program);
  int64_t Out2 = RunOne(L2, *R2.Program);
  // out = alpha*x + y: the difference is 3*x for the same pattern.
  sim::MemoryLayout Layout(L1, 16);
  sim::Memory Ref(Layout.getTotalSize());
  Ref.fillPattern(5);
  int64_t X = Ref.readElem(Layout.baseOf(L1.getArrays()[1].get()) + 4 * 4, 4);
  EXPECT_EQ(static_cast<int32_t>(Out2 - Out1), static_cast<int32_t>(3 * X));
}

TEST(Param, RuntimeEverything) {
  // Runtime alignments, runtime trip count, runtime parameter — all at
  // once (the fully dynamic kernel).
  ir::Loop L;
  ir::Array *Out = L.createArray("out", ir::ElemType::Int16, 128, 6, false);
  ir::Array *X = L.createArray("x", ir::ElemType::Int16, 128, 10, false);
  ir::Param *A = L.createParam("gain", 9);
  L.addStmt(Out, 0, ir::mul(ir::param(A), ir::ref(X, 1)));
  L.setUpperBound(90, false);
  for (bool SP : {false, true}) {
    codegen::SimdizeOptions Opts;
    Opts.SoftwarePipelining = SP;
    codegen::SimdizeResult R = codegen::simdize(L, Opts);
    ASSERT_TRUE(R.ok()) << R.Error;
    opt::runOptPipeline(*R.Program, opt::OptConfig());
    sim::CheckResult Check = sim::checkSimdization(L, *R.Program, 72);
    EXPECT_TRUE(Check.Ok) << Check.Message;
  }
}

TEST(Param, ParserDirectiveAndUse) {
  parser::ParseResult R = parser::parseLoop("array o i32 64 align 0\n"
                                            "array x i32 64 align 4\n"
                                            "param alpha 7\n"
                                            "loop 40\n"
                                            "o[i] = alpha * x[i] + alpha\n");
  ASSERT_TRUE(R.ok()) << R.Error;
  ASSERT_EQ(R.Loop->getParams().size(), 1u);
  EXPECT_EQ(R.Loop->getParams()[0]->getActualValue(), 7);
  EXPECT_EQ(ir::printStmt(*R.Loop->getStmts().front()),
            "o[i] = (alpha * x[i]) + alpha;");
}

TEST(Param, ParserRejectsNameClashAndUnknowns) {
  EXPECT_FALSE(parser::parseLoop("array a i32 64 align 0\n"
                                 "param a 3\nloop 40\na[i] = 1\n")
                   .ok());
  // An undeclared bare identifier is treated as an array access and fails.
  EXPECT_FALSE(parser::parseLoop("array a i32 64 align 0\n"
                                 "loop 40\na[i] = beta\n")
                   .ok());
}

TEST(Param, EmittedKernelTakesParameterArgument) {
  ir::Loop L = makeParamLoop(3);
  codegen::SimdizeResult R = codegen::simdize(L, codegen::SimdizeOptions());
  ASSERT_TRUE(R.ok()) << R.Error;
  native::LowerResult Lowered =
      native::emitNativeKernel(*R.Program, L, "kern", native::ISA::Shim);
  ASSERT_TRUE(Lowered.ok()) << Lowered.Error;
  const std::string &Src = Lowered.Code;
  EXPECT_NE(Src.find("long alpha, long ub)"), std::string::npos);
  EXPECT_NE(Src.find("= alpha;"), std::string::npos);
}

} // namespace
