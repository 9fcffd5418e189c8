//===- codegen/CodeGenContext.cpp -----------------------------------------===//
//
// Part of the simdize project (PLDI 2004 alignment-constrained simdization).
//
//===----------------------------------------------------------------------===//

#include "codegen/CodeGenContext.h"

#include "support/MathExtras.h"

#include <algorithm>
#include <cassert>

using namespace simdize;
using namespace simdize::codegen;
using namespace simdize::vir;

CodeGenContext::CodeGenContext(const ir::Loop &L, VProgram &P)
    : Loop(L), Program(P) {}

ScalarOperand CodeGenContext::getUpperBoundOperand() {
  if (Loop.isUpperBoundKnown())
    return ScalarOperand::imm(Loop.getUpperBound());
  if (!Program.hasTripCountParam())
    Program.declareTripCountParam(Loop.getUpperBound());
  return ScalarOperand::reg(Program.getTripCountParam());
}

ScalarOperand CodeGenContext::getAlignmentOperand(const ir::Array *A,
                                                  int64_t ElemOffset) {
  unsigned V = getVectorLen();
  if (A->isAlignmentKnown())
    return ScalarOperand::imm(nonNegMod(
        A->getAlignment() + ElemOffset * static_cast<int64_t>(A->getElemSize()),
        V));
  return ScalarOperand::reg(getRuntimeOffsetReg(A, ElemOffset));
}

SRegId CodeGenContext::getRuntimeOffsetReg(const ir::Array *A,
                                           int64_t ElemOffset) {
  unsigned V = getVectorLen();
  // (base + c*D) mod V depends only on c*D mod V; cache per class so
  // relatively aligned accesses of one array share the register.
  int64_t Class =
      nonNegMod(ElemOffset * static_cast<int64_t>(A->getElemSize()), V);
  auto Key = std::make_pair(A, Class);
  if (auto It = OffsetRegs.find(Key); It != OffsetRegs.end())
    return It->second;

  Block &Setup = Program.getSetup();
  SRegId BaseReg = Program.allocSReg();
  Setup.push_back(VInst::makeSBase(BaseReg, A));
  SRegId SumReg = Program.allocSReg();
  Setup.push_back(VInst::makeSBinOp(SBinOpKind::Add, SumReg,
                                    ScalarOperand::reg(BaseReg),
                                    ScalarOperand::imm(Class)));
  SRegId OffsetReg = Program.allocSReg();
  VInst And =
      VInst::makeSBinOp(SBinOpKind::And, OffsetReg, ScalarOperand::reg(SumReg),
                        ScalarOperand::imm(static_cast<int64_t>(V) - 1));
  And.Comment = "runtime stream offset of ";
  And.CommentArray = A;
  Setup.push_back(And);

  OffsetRegs.emplace(Key, OffsetReg);
  return OffsetReg;
}

SRegId CodeGenContext::getRuntimeLeftShiftReg(const ir::Array *A,
                                              int64_t ElemOffset) {
  // Left shift to offset 0: the amount is the stream offset itself.
  return getRuntimeOffsetReg(A, ElemOffset);
}

SRegId CodeGenContext::getRuntimeRightShiftReg(const ir::Array *A,
                                               int64_t ElemOffset) {
  unsigned V = getVectorLen();
  int64_t Class =
      nonNegMod(ElemOffset * static_cast<int64_t>(A->getElemSize()), V);
  auto Key = std::make_pair(A, Class);
  if (auto It = RightShiftRegs.find(Key); It != RightShiftRegs.end())
    return It->second;

  SRegId OffsetReg = getRuntimeOffsetReg(A, ElemOffset);
  SRegId ShiftReg = Program.allocSReg();
  VInst Sub = VInst::makeSBinOp(
      SBinOpKind::Sub, ShiftReg, ScalarOperand::imm(static_cast<int64_t>(V)),
      ScalarOperand::reg(OffsetReg));
  Sub.Comment = "right-shift amount toward ";
  Sub.CommentArray = A;
  Program.getSetup().push_back(Sub);

  RightShiftRegs.emplace(Key, ShiftReg);
  return ShiftReg;
}

VRegId CodeGenContext::getSplatReg(int64_t Value) {
  if (auto It = SplatRegs.find(Value); It != SplatRegs.end())
    return It->second;
  VRegId Reg = Program.allocVReg();
  Program.getSetup().push_back(
      VInst::makeVSplat(Reg, Value, getElemSize()));
  SplatRegs.emplace(Value, Reg);
  return Reg;
}

VRegId CodeGenContext::getParamSplatReg(const ir::Param *P) {
  if (auto It = ParamSplatRegs.find(P); It != ParamSplatRegs.end())
    return It->second;
  const auto &Params = Loop.getParams();
  auto Pos = std::find_if(Params.begin(), Params.end(),
                          [P](const auto &Q) { return Q.get() == P; });
  assert(Pos != Params.end() && "parameter of another loop");
  SRegId Scalar = Program.declareScalarParam(
      static_cast<unsigned>(Pos - Params.begin()), P->getActualValue());
  VRegId Reg = Program.allocVReg();
  VInst Splat = VInst::makeVSplatReg(Reg, Scalar, getElemSize());
  Splat.Comment = "splat of parameter ";
  Splat.CommentParam = P;
  Program.getSetup().push_back(Splat);
  ParamSplatRegs.emplace(P, Reg);
  return Reg;
}

void CodeGenContext::flushLoopBottomCopies() {
  for (auto [Old, New] : PendingCopies)
    Program.getBody().push_back(VInst::makeVCopy(Old, New));
  PendingCopies.clear();
}
