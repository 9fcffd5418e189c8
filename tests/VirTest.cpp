//===- tests/VirTest.cpp - Unit tests for the vector IR ------------------===//
//
// Part of the simdize project (PLDI 2004 alignment-constrained simdization).
//
//===----------------------------------------------------------------------===//

#include "codegen/Simdizer.h"
#include "fuzz/Fuzzer.h"
#include "ir/IRBuilder.h"
#include "ir/Loop.h"
#include "native/NativeEmitter.h"
#include "pipeline/Pipeline.h"
#include "support/Format.h"
#include "synth/LoopSynth.h"
#include "vir/VPrinter.h"
#include "vir/VProgram.h"
#include "vir/VVerifier.h"

#include <gtest/gtest.h>

using namespace simdize;
using namespace simdize::vir;

namespace {

/// Shared fixture: a loop providing arrays for addresses.
class VirTest : public ::testing::Test {
protected:
  VirTest() {
    A = L.createArray("a", ir::ElemType::Int32, 64, 0, true);
    B = L.createArray("b", ir::ElemType::Int32, 64, 4, true);
  }

  ir::Loop L;
  ir::Array *A = nullptr;
  ir::Array *B = nullptr;
};

TEST_F(VirTest, Categories) {
  VProgram P(16, 4);
  VRegId V0 = P.allocVReg(), V1 = P.allocVReg(), V2 = P.allocVReg();
  SRegId S0 = P.allocSReg();

  EXPECT_EQ(VInst::makeVLoad(V0, Address::constant(A, 0, 0)).category(),
            OpCategory::Load);
  EXPECT_EQ(VInst::makeVStore(Address::constant(A, 0, 0), V0).category(),
            OpCategory::Store);
  EXPECT_EQ(VInst::makeVSplat(V0, 3, 4).category(), OpCategory::Reorg);
  EXPECT_EQ(
      VInst::makeVShiftPair(V2, V0, V1, ScalarOperand::imm(4)).category(),
      OpCategory::Reorg);
  EXPECT_EQ(VInst::makeVSplice(V2, V0, V1, ScalarOperand::imm(4)).category(),
            OpCategory::Reorg);
  EXPECT_EQ(
      VInst::makeVBinOp(ir::BinOpKind::Add, V2, V0, V1, 4).category(),
      OpCategory::Compute);
  EXPECT_EQ(VInst::makeVCopy(V1, V0).category(), OpCategory::Copy);
  EXPECT_EQ(VInst::makeSConst(S0, 1).category(), OpCategory::Scalar);
  EXPECT_EQ(VInst::makeSBase(S0, A).category(), OpCategory::Scalar);
}

TEST_F(VirTest, DefKinds) {
  VProgram P(16, 4);
  VRegId V0 = P.allocVReg();
  SRegId S0 = P.allocSReg();
  VInst Load = VInst::makeVLoad(V0, Address::constant(A, 0, 0));
  EXPECT_TRUE(Load.definesVector());
  EXPECT_FALSE(Load.definesScalar());
  EXPECT_TRUE(Load.isPure());
  VInst Store = VInst::makeVStore(Address::constant(A, 0, 0), V0);
  EXPECT_FALSE(Store.definesVector());
  EXPECT_FALSE(Store.isPure());
  VInst Const = VInst::makeSConst(S0, 5);
  EXPECT_FALSE(Const.definesVector());
  EXPECT_TRUE(Const.definesScalar());
}

TEST_F(VirTest, FactoriesFillExactlyTheFieldsOfTheirRow) {
  // The passes, the verifier and the decoded engine see an instruction's
  // registers only through its opcode's row, so every factory must fill
  // exactly the register fields the row names. Each factory gets
  // register operands wherever it takes one.
  VProgram P(16, 4);
  VRegId V0 = P.allocVReg(), V1 = P.allocVReg(), V2 = P.allocVReg(),
         V3 = P.allocVReg();
  SRegId S1 = P.allocSReg(), S2 = P.allocSReg(), S3 = P.allocSReg();
  ScalarOperand R2 = ScalarOperand::reg(S2), R3 = ScalarOperand::reg(S3);
  Address At = Address::indexed(A, 1, S1);
  const VInst Insts[] = {
      VInst::makeVLoad(V0, At),
      VInst::makeVStore(At, V0),
      VInst::makeVSplat(V0, 7, 4),
      VInst::makeVSplatReg(V0, S2, 4),
      VInst::makeVShiftPair(V0, V1, V2, R2),
      VInst::makeVSplice(V0, V1, V2, R2),
      VInst::makeVBinOp(ir::BinOpKind::Add, V0, V1, V2, 4),
      VInst::makeVCmp(SCmpKind::LT, V0, V1, V2, 4),
      VInst::makeVSelect(V0, V1, V2, V3),
      VInst::makeVCopy(V0, V1),
      VInst::makeSConst(S1, 7),
      VInst::makeSBase(S1, A),
      VInst::makeSBinOp(SBinOpKind::Add, S1, R2, R3),
      VInst::makeSCmp(SCmpKind::LT, S1, R2, R3),
  };
  std::vector<bool> Made(std::size(OpcodeTable), false);
  for (const VInst &I : Insts) {
    SCOPED_TRACE(printInst(I));
    Made[static_cast<unsigned>(I.Op)] = true;
    const OpcodeInfo &Row = opcodeInfo(I.Op);
    EXPECT_EQ(I.VDst.isValid(), Row.Defines == DefKind::Vector);
    EXPECT_EQ(I.SDst.isValid(), Row.Defines == DefKind::Scalar);
    EXPECT_EQ(I.VSrc1.isValid(), Row.VectorUses >= 1);
    EXPECT_EQ(I.VSrc2.isValid(), Row.VectorUses >= 2);
    EXPECT_EQ(I.VSrc3.isValid(), Row.VectorUses >= 3);
    EXPECT_EQ(I.Addr.Index.has_value(), Row.ReadsIndex);
    EXPECT_EQ(I.SOp1 != ScalarOperand(), Row.ReadsSOp1);
    EXPECT_EQ(I.SOp2 != ScalarOperand(), Row.ReadsSOp2);
  }
  for (unsigned Op = 0; Op < Made.size(); ++Op)
    EXPECT_TRUE(Made[Op]) << "no factory instruction of opcode " << Op;
}

TEST_F(VirTest, BlockingFactorAndStep) {
  VProgram P(16, 2);
  EXPECT_EQ(P.getBlockingFactor(), 8u);
  EXPECT_EQ(P.getLoopStep(), 8u); // Defaults to B.
  P.setLoopStep(16);
  EXPECT_EQ(P.getLoopStep(), 16u);
}

TEST_F(VirTest, TripCountParam) {
  VProgram P(16, 4);
  EXPECT_FALSE(P.hasTripCountParam());
  SRegId R = P.declareTripCountParam(123);
  EXPECT_TRUE(P.hasTripCountParam());
  EXPECT_EQ(P.getTripCountParam().Id, R.Id);
  EXPECT_EQ(P.getTripCountValue(), 123);
}

TEST_F(VirTest, PrinterFormats) {
  VProgram P(16, 4);
  VRegId V0 = P.allocVReg(), V1 = P.allocVReg(), V2 = P.allocVReg();
  SRegId S1 = P.allocSReg();

  EXPECT_EQ(printInst(VInst::makeVLoad(V0, Address::constant(B, 1, 0))),
            "v0 = vload &b[(0)+1]");
  EXPECT_EQ(printInst(VInst::makeVLoad(
                V0, Address::indexed(B, -3, P.getIndexReg()))),
            "v0 = vload &b[(s0)-3]");
  EXPECT_EQ(printInst(VInst::makeVSplat(V1, 7, 2)), "v1 = vsplat 7 x i16");
  EXPECT_EQ(printInst(VInst::makeVShiftPair(V2, V0, V1,
                                            ScalarOperand::reg(S1))),
            "v2 = vshiftpair v0, v1, s1");
  EXPECT_EQ(printInst(VInst::makeVBinOp(ir::BinOpKind::Mul, V2, V0, V1, 4)),
            "v2 = vmul.i32 v0, v1");

  VInst Pred = VInst::makeVStore(Address::constant(A, 0, 0), V0);
  Pred.Predicate = S1;
  Pred.Comment = "guarded";
  EXPECT_EQ(printInst(Pred), "[if s1] vstore &a[0], v0  ; guarded");

  // Every other opcode, both operand forms of the scalar operands.
  VRegId V3 = P.allocVReg();
  SRegId S2 = P.allocSReg();
  EXPECT_EQ(printInst(VInst::makeVSplatReg(V1, S1, 1)), "v1 = vsplat s1 x i8");
  EXPECT_EQ(printInst(VInst::makeVSplice(V2, V0, V1, ScalarOperand::imm(12))),
            "v2 = vsplice v0, v1, 12");
  EXPECT_EQ(printInst(VInst::makeVSplice(V2, V0, V1, ScalarOperand::reg(S2))),
            "v2 = vsplice v0, v1, s2");
  EXPECT_EQ(printInst(VInst::makeVShiftPair(V2, V0, V1,
                                            ScalarOperand::imm(-4))),
            "v2 = vshiftpair v0, v1, -4");
  EXPECT_EQ(printInst(VInst::makeVCmp(SCmpKind::GE, V2, V0, V1, 2)),
            "v2 = vcmp.ge.i16 v0, v1");
  EXPECT_EQ(printInst(VInst::makeVSelect(V3, V2, V0, V1)),
            "v3 = vselect v2, v0, v1");
  EXPECT_EQ(printInst(VInst::makeVCopy(V1, V0)), "v1 = vcopy v0");
  EXPECT_EQ(printInst(VInst::makeVBinOp(ir::BinOpKind::Max, V3, V1, V2, 1)),
            "v3 = vmax.i8 v1, v2");

  EXPECT_EQ(printInst(VInst::makeSConst(S1, -9223372036854775807LL - 1)),
            "s1 = sconst -9223372036854775808");
  EXPECT_EQ(printInst(VInst::makeSConst(S2, 0)), "s2 = sconst 0");
  EXPECT_EQ(printInst(VInst::makeSBase(S1, B)), "s1 = sbase b");
  EXPECT_EQ(printInst(VInst::makeSBinOp(SBinOpKind::Mod, S2, ScalarOperand::reg(S1),
                                        ScalarOperand::imm(16))),
            "s2 = smod s1, 16");
  EXPECT_EQ(printInst(VInst::makeSBinOp(SBinOpKind::Sub, S2,
                                        ScalarOperand::imm(-3),
                                        ScalarOperand::reg(S1))),
            "s2 = ssub -3, s1");
  EXPECT_EQ(printInst(VInst::makeSCmp(SCmpKind::LT, S2, ScalarOperand::reg(S1),
                                      ScalarOperand::imm(-1))),
            "s2 = scmp.lt s1, -1");
  EXPECT_EQ(printInst(VInst::makeSCmp(SCmpKind::NE, S2, ScalarOperand::imm(7),
                                      ScalarOperand::reg(S1))),
            "s2 = scmp.ne 7, s1");

  // Zero offset with a register index prints no parentheses; a nonzero
  // offset always carries its sign.
  EXPECT_EQ(printInst(VInst::makeVLoad(V0, Address::indexed(B, 0, S1))),
            "v0 = vload &b[s1]");
  EXPECT_EQ(printInst(VInst::makeVStore(
                Address::indexed(A, 5, P.getIndexReg()), V0)),
            "vstore &a[(s0)+5], v0");
  EXPECT_EQ(printInst(VInst::makeVLoad(V0, Address::constant(A, -2, 40))),
            "v0 = vload &a[(40)-2]");
  EXPECT_EQ(printInst(VInst::makeVLoad(V0, Address::constant(B, 0, -8))),
            "v0 = vload &b[-8]");

  VInst Offset = VInst::makeSBinOp(SBinOpKind::And, S1, ScalarOperand::reg(S1),
                                   ScalarOperand::imm(15));
  Offset.Comment = "runtime stream offset of ";
  Offset.CommentArray = B;
  EXPECT_EQ(printInst(Offset), "s1 = sand s1, 15  ; runtime stream offset of b");
  EXPECT_EQ(commentText(Offset), "runtime stream offset of b");

  VInst Splat = VInst::makeVSplatReg(V0, S1, 4);
  Splat.Comment = "splat of parameter ";
  Splat.CommentParam = L.createParam("alpha", 3);
  Splat.Predicate = P.getIndexReg();
  EXPECT_EQ(printInst(Splat),
            "[if s0] v0 = vsplat s1 x i32  ; splat of parameter alpha");
  EXPECT_EQ(commentText(VInst::makeVCopy(V0, V0)), "");
}

TEST_F(VirTest, PrinterProgramStructure) {
  VProgram P(16, 4);
  VRegId V0 = P.allocVReg();
  P.getSetup().push_back(VInst::makeVSplat(V0, 1, 4));
  P.setLoopBounds(ScalarOperand::imm(4), ScalarOperand::imm(97));
  std::string Text = printProgram(P);
  EXPECT_NE(Text.find("setup:\n  v0 = vsplat 1 x i32\n"), std::string::npos);
  EXPECT_NE(Text.find("loop s0 = 4, s0 < 97, s0 += 4:"), std::string::npos);
  EXPECT_NE(Text.find("epilogue:"), std::string::npos);

  // A runtime trip count bounds the loop by a register.
  VProgram R(32, 2);
  SRegId UB = R.declareTripCountParam(100);
  VRegId W0 = R.allocVReg();
  R.getBody().push_back(
      VInst::makeVLoad(W0, Address::indexed(B, 3, R.getIndexReg())));
  R.getBody().push_back(
      VInst::makeVStore(Address::indexed(A, 0, R.getIndexReg()), W0));
  R.getEpilogue().push_back(VInst::makeSConst(R.allocSReg(), -1));
  R.setLoopBounds(ScalarOperand::imm(0), ScalarOperand::reg(UB));
  R.setLoopStep(32);
  EXPECT_EQ(printProgram(R), "setup:\n"
                             "loop s0 = 0, s0 < s1, s0 += 32:\n"
                             "  v0 = vload &b[(s0)+3]\n"
                             "  vstore &a[s0], v0\n"
                             "epilogue:\n"
                             "  s2 = sconst -1\n");
}

TEST_F(VirTest, VerifierAcceptsMinimalProgram) {
  VProgram P(16, 4);
  VRegId V0 = P.allocVReg();
  P.getBody().push_back(
      VInst::makeVLoad(V0, Address::indexed(B, 0, P.getIndexReg())));
  P.getBody().push_back(
      VInst::makeVStore(Address::indexed(A, 0, P.getIndexReg()), V0));
  P.setLoopBounds(ScalarOperand::imm(4), ScalarOperand::imm(97));
  EXPECT_EQ(verifyProgram(P), std::nullopt);
}

TEST_F(VirTest, VerifierCatchesUseBeforeDef) {
  VProgram P(16, 4);
  VRegId V0 = P.allocVReg();
  P.getBody().push_back(
      VInst::makeVStore(Address::indexed(A, 0, P.getIndexReg()), V0));
  auto Err = verifyProgram(P);
  ASSERT_NE(Err, std::nullopt);
  EXPECT_NE(Err->find("before definition"), std::string::npos);
}

TEST_F(VirTest, VerifierAllowsSetupDefsInBody) {
  // Loop-carried values are initialized in Setup and read in Body.
  VProgram P(16, 4);
  VRegId V0 = P.allocVReg();
  P.getSetup().push_back(VInst::makeVSplat(V0, 0, 4));
  P.getBody().push_back(
      VInst::makeVStore(Address::indexed(A, 0, P.getIndexReg()), V0));
  EXPECT_EQ(verifyProgram(P), std::nullopt);
}

TEST_F(VirTest, VerifierCatchesShiftAmountRange) {
  VProgram P(16, 4);
  VRegId V0 = P.allocVReg(), V1 = P.allocVReg(), V2 = P.allocVReg();
  P.getSetup().push_back(VInst::makeVSplat(V0, 0, 4));
  P.getSetup().push_back(VInst::makeVSplat(V1, 0, 4));
  // Shift of exactly V is allowed (selects the second register whole).
  P.getSetup().push_back(
      VInst::makeVShiftPair(V2, V0, V1, ScalarOperand::imm(16)));
  EXPECT_EQ(verifyProgram(P), std::nullopt);
  // 17 is out of range.
  P.getSetup().back() =
      VInst::makeVShiftPair(V2, V0, V1, ScalarOperand::imm(17));
  EXPECT_NE(verifyProgram(P), std::nullopt);
}

TEST_F(VirTest, VerifierCatchesSplicePointRange) {
  VProgram P(16, 4);
  VRegId V0 = P.allocVReg(), V1 = P.allocVReg(), V2 = P.allocVReg();
  P.getSetup().push_back(VInst::makeVSplat(V0, 0, 4));
  P.getSetup().push_back(VInst::makeVSplat(V1, 0, 4));
  P.getSetup().push_back(
      VInst::makeVSplice(V2, V0, V1, ScalarOperand::imm(-1)));
  EXPECT_NE(verifyProgram(P), std::nullopt);
}

TEST_F(VirTest, VerifierCatchesLaneWidthMismatch) {
  VProgram P(16, 4);
  VRegId V0 = P.allocVReg(), V1 = P.allocVReg(), V2 = P.allocVReg();
  P.getSetup().push_back(VInst::makeVSplat(V0, 0, 4));
  P.getSetup().push_back(VInst::makeVSplat(V1, 0, 4));
  P.getSetup().push_back(
      VInst::makeVBinOp(ir::BinOpKind::Add, V2, V0, V1, /*ElemSize=*/2));
  auto Err = verifyProgram(P);
  ASSERT_NE(Err, std::nullopt);
  EXPECT_NE(Err->find("lane width"), std::string::npos);
}

TEST_F(VirTest, VerifierCatchesLoopCounterClobber) {
  VProgram P(16, 4);
  VInst Clobber = VInst::makeSConst(P.getIndexReg(), 0);
  P.getBody().push_back(Clobber);
  auto Err = verifyProgram(P);
  ASSERT_NE(Err, std::nullopt);
  EXPECT_NE(Err->find("clobbers the loop counter"), std::string::npos);
}

TEST_F(VirTest, VerifierCatchesPredicatedBodyInstruction) {
  VProgram P(16, 4);
  VRegId V0 = P.allocVReg();
  SRegId Pred = P.allocSReg();
  P.getSetup().push_back(VInst::makeSConst(Pred, 1));
  P.getSetup().push_back(VInst::makeVSplat(V0, 0, 4));
  VInst Store =
      VInst::makeVStore(Address::indexed(A, 0, P.getIndexReg()), V0);
  Store.Predicate = Pred;
  P.getBody().push_back(Store);
  auto Err = verifyProgram(P);
  ASSERT_NE(Err, std::nullopt);
  EXPECT_NE(Err->find("predicated instruction in the steady body"),
            std::string::npos)
      << *Err;
}

TEST_F(VirTest, VerifierCatchesScalarDefInBody) {
  VProgram P(16, 4);
  SRegId S1 = P.allocSReg();
  P.getBody().push_back(VInst::makeSBinOp(
      SBinOpKind::Add, S1, ScalarOperand::reg(P.getIndexReg()),
      ScalarOperand::imm(4)));
  auto Err = verifyProgram(P);
  ASSERT_NE(Err, std::nullopt);
  EXPECT_NE(Err->find("scalar definition in the steady body"),
            std::string::npos)
      << *Err;
}

TEST_F(VirTest, VerifierCatchesBodyAccessNotIndexedByCounter) {
  VProgram P(16, 4);
  VRegId V0 = P.allocVReg();
  SRegId Other = P.allocSReg();
  P.getSetup().push_back(VInst::makeSConst(Other, 8));
  // A constant address and one indexed by another register both escape
  // the counter.
  for (const Address &Addr :
       {Address::constant(B, 0, 4), Address::indexed(B, 0, Other)}) {
    P.getBody().assign({VInst::makeVLoad(V0, Addr)});
    auto Err = verifyProgram(P);
    ASSERT_NE(Err, std::nullopt);
    EXPECT_NE(Err->find("not indexed by the loop counter"),
              std::string::npos)
        << *Err;
  }
}

TEST_F(VirTest, VerifierCatchesUndefinedPredicate) {
  VProgram P(16, 4);
  VRegId V0 = P.allocVReg();
  SRegId Pred = P.allocSReg();
  P.getSetup().push_back(VInst::makeVSplat(V0, 0, 4));
  VInst Store = VInst::makeVStore(Address::constant(A, 0, 0), V0);
  Store.Predicate = Pred; // Never defined.
  P.getEpilogue().push_back(Store);
  EXPECT_NE(verifyProgram(P), std::nullopt);
}

TEST_F(VirTest, VerifierRequiresRegisterBoundDefinedBeforeLoop) {
  // A runtime trip count: Setup computes the steady loop's upper bound.
  ir::Loop RT;
  ir::Array *Out = RT.createArray("a", ir::ElemType::Int32, 128, 0, true);
  ir::Array *In = RT.createArray("b", ir::ElemType::Int32, 128, 4, true);
  RT.addStmt(Out, 3, ir::ref(In, 1));
  RT.setUpperBound(100, /*Known=*/false);
  codegen::SimdizeResult R = codegen::simdize(RT, codegen::SimdizeOptions());
  ASSERT_TRUE(R.ok()) << R.Error;
  VProgram &P = *R.Program;
  ASSERT_TRUE(P.getUpperBound().IsReg);
  EXPECT_EQ(verifyProgram(P), std::nullopt);

  // The same program with its bound pointed at a register nothing defines
  // would run no steady iteration.
  SRegId Undefined = P.allocSReg();
  P.setLoopBounds(P.getLowerBound(), ScalarOperand::reg(Undefined));
  auto Err = verifyProgram(P);
  ASSERT_NE(Err, std::nullopt);
  EXPECT_NE(Err->find(strf("upper bound s%u is not defined before the loop",
                           Undefined.Id)),
            std::string::npos)
      << *Err;
}

TEST_F(VirTest, VerifierCatchesOutOfRangeRegister) {
  VProgram P(16, 4);
  VRegId Bogus{42}; // Never allocated.
  P.getSetup().push_back(VInst::makeVSplat(Bogus, 0, 4));
  EXPECT_NE(verifyProgram(P), std::nullopt);
}

TEST_F(VirTest, EqualProgramsPrintAndLowerAlike) {
  // The fuzzer's memo lets programs that compare equal share one check,
  // so equality must imply the same text and the same native kernel.
  // Checked over every program the fuzzer compiles for seeds 1-40: each
  // config's raw program and its optimized one, compared within a
  // (seed, width), whose programs all come from one loop.
  size_t EqualPairs = 0;
  for (uint64_t Seed = 1; Seed <= 40; ++Seed) {
    ir::Loop Src = synth::synthesizeLoop(
        fuzz::paramsForSeed(Seed, 64, /*Guards=*/true, /*Reductions=*/true));
    for (unsigned W : {16u, 32u, 64u}) {
      std::vector<VProgram> Programs;
      for (const fuzz::FuzzConfig &C : fuzz::configsForLoop(Src, W)) {
        pipeline::CompileResult R = pipeline::compileRaw(Src, C);
        if (!R.Simd.ok())
          continue;
        Programs.push_back(*R.Simd.Program);
        if (C.Opt == pipeline::OptLevel::Raw)
          continue;
        pipeline::optimize(R, C);
        Programs.push_back(*R.Simd.Program);
      }
      // Each program against the first one equal to it; rendered once.
      std::vector<std::string> Text(Programs.size()), Native(Programs.size());
      auto Render = [&](size_t K) {
        if (!Text[K].empty())
          return;
        Text[K] = printProgram(Programs[K]);
        native::LowerResult N = native::emitNativeKernel(
            Programs[K], Src, "kernel", native::ISA::Shim);
        Native[K] = N.Code + N.Error;
      };
      for (size_t J = 0; J < Programs.size(); ++J) {
        size_t I = 0;
        while (!(Programs[I] == Programs[J]))
          ++I;
        if (I == J)
          continue;
        ++EqualPairs;
        Render(I);
        Render(J);
        EXPECT_EQ(Text[I], Text[J]) << "seed " << Seed << " V=" << W;
        EXPECT_EQ(Native[I], Native[J]) << "seed " << Seed << " V=" << W;
      }
    }
  }
  EXPECT_GT(EqualPairs, 0u);
}

TEST_F(VirTest, ProgramEqualityComparesWhatThePrinterHides) {
  // The printer shows neither parameter values nor which array a comment
  // names by pointer alone; equality must still tell them apart.
  auto Make = [&](int64_t Trip, int64_t Scale, unsigned Step,
                  const ir::Array *Named) {
    VProgram P(16, 4);
    SRegId TripReg = P.declareTripCountParam(Trip);
    SRegId ScaleReg = P.declareScalarParam(0, Scale);
    VRegId V0 = P.allocVReg();
    VInst Splat = VInst::makeVSplatReg(V0, ScaleReg, 4);
    Splat.Comment = "splat toward ";
    Splat.CommentArray = Named;
    P.getSetup().push_back(Splat);
    P.setLoopBounds(ScalarOperand::imm(0), ScalarOperand::reg(TripReg));
    if (Step)
      P.setLoopStep(Step);
    P.getBody().push_back(
        VInst::makeVStore(Address::indexed(A, 0, P.getIndexReg()), V0));
    return P;
  };
  VProgram Base = Make(40, 7, 0, A);
  EXPECT_TRUE(Base == Make(40, 7, 0, A));
  EXPECT_FALSE(Base == Make(41, 7, 0, A)) << "trip-count parameter value";
  EXPECT_FALSE(Base == Make(40, 8, 0, A)) << "scalar parameter value";
  EXPECT_FALSE(Base == Make(40, 7, 8, A)) << "loop step";
  EXPECT_FALSE(Base == Make(40, 7, 0, B)) << "array a comment names";
  EXPECT_EQ(printProgram(Base), printProgram(Make(41, 8, 0, A)));
  EXPECT_EQ(printInst(Base.getSetup().front()),
            "v0 = vsplat s2 x i32  ; splat toward a");
}

} // namespace
