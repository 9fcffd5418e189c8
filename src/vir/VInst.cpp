//===- vir/VInst.cpp ------------------------------------------------------===//
//
// Part of the simdize project (PLDI 2004 alignment-constrained simdization).
//
//===----------------------------------------------------------------------===//

#include "vir/VProgram.h"

#include "support/Debug.h"

using namespace simdize;
using namespace simdize::vir;

VInst VInst::makeVLoad(VRegId Dst, Address A) {
  assert(Dst.isValid() && A.Base && "malformed vload");
  VInst I;
  I.Op = VOpcode::VLoad;
  I.VDst = Dst;
  I.Addr = A;
  return I;
}

VInst VInst::makeVStore(Address A, VRegId Src) {
  assert(Src.isValid() && A.Base && "malformed vstore");
  VInst I;
  I.Op = VOpcode::VStore;
  I.VSrc1 = Src;
  I.Addr = A;
  return I;
}

VInst VInst::makeVSplat(VRegId Dst, int64_t Value, unsigned ElemSize) {
  assert(Dst.isValid() && "malformed vsplat");
  VInst I;
  I.Op = VOpcode::VSplat;
  I.VDst = Dst;
  // The splatted value is a scalar operand like any other (makeVSplatReg
  // puts a register there); consumers go through SOp1 uniformly.
  I.SOp1 = ScalarOperand::imm(Value);
  I.ElemSize = ElemSize;
  return I;
}

VInst VInst::makeVSplatReg(VRegId Dst, SRegId Value, unsigned ElemSize) {
  assert(Dst.isValid() && Value.isValid() && "malformed vsplat");
  VInst I;
  I.Op = VOpcode::VSplat;
  I.VDst = Dst;
  I.SOp1 = ScalarOperand::reg(Value);
  I.ElemSize = ElemSize;
  return I;
}

VInst VInst::makeVShiftPair(VRegId Dst, VRegId Src1, VRegId Src2,
                            ScalarOperand Shift) {
  assert(Dst.isValid() && Src1.isValid() && Src2.isValid() &&
         "malformed vshiftpair");
  VInst I;
  I.Op = VOpcode::VShiftPair;
  I.VDst = Dst;
  I.VSrc1 = Src1;
  I.VSrc2 = Src2;
  I.SOp1 = Shift;
  return I;
}

VInst VInst::makeVSplice(VRegId Dst, VRegId Src1, VRegId Src2,
                         ScalarOperand Point) {
  assert(Dst.isValid() && Src1.isValid() && Src2.isValid() &&
         "malformed vsplice");
  VInst I;
  I.Op = VOpcode::VSplice;
  I.VDst = Dst;
  I.VSrc1 = Src1;
  I.VSrc2 = Src2;
  I.SOp1 = Point;
  return I;
}

VInst VInst::makeVBinOp(ir::BinOpKind Kind, VRegId Dst, VRegId Src1,
                        VRegId Src2, unsigned ElemSize) {
  assert(Dst.isValid() && Src1.isValid() && Src2.isValid() &&
         "malformed vbinop");
  VInst I;
  I.Op = VOpcode::VBinOp;
  I.VectorOp = Kind;
  I.VDst = Dst;
  I.VSrc1 = Src1;
  I.VSrc2 = Src2;
  I.ElemSize = ElemSize;
  return I;
}

VInst VInst::makeVCmp(SCmpKind Kind, VRegId Dst, VRegId Src1, VRegId Src2,
                      unsigned ElemSize) {
  assert(Dst.isValid() && Src1.isValid() && Src2.isValid() &&
         "malformed vcmp");
  VInst I;
  I.Op = VOpcode::VCmp;
  I.CmpOp = Kind;
  I.VDst = Dst;
  I.VSrc1 = Src1;
  I.VSrc2 = Src2;
  I.ElemSize = ElemSize;
  return I;
}

VInst VInst::makeVSelect(VRegId Dst, VRegId Mask, VRegId IfSet,
                         VRegId IfClear) {
  assert(Dst.isValid() && Mask.isValid() && IfSet.isValid() &&
         IfClear.isValid() && "malformed vselect");
  VInst I;
  I.Op = VOpcode::VSelect;
  I.VDst = Dst;
  I.VSrc1 = Mask;
  I.VSrc2 = IfSet;
  I.VSrc3 = IfClear;
  return I;
}

VInst VInst::makeVCopy(VRegId Dst, VRegId Src) {
  assert(Dst.isValid() && Src.isValid() && "malformed vcopy");
  VInst I;
  I.Op = VOpcode::VCopy;
  I.VDst = Dst;
  I.VSrc1 = Src;
  return I;
}

VInst VInst::makeSConst(SRegId Dst, int64_t Value) {
  assert(Dst.isValid() && "malformed sconst");
  VInst I;
  I.Op = VOpcode::SConst;
  I.SDst = Dst;
  I.Imm = Value;
  return I;
}

VInst VInst::makeSBase(SRegId Dst, const ir::Array *Base) {
  assert(Dst.isValid() && Base && "malformed sbase");
  VInst I;
  I.Op = VOpcode::SBase;
  I.SDst = Dst;
  I.Addr.Base = Base;
  return I;
}

VInst VInst::makeSBinOp(SBinOpKind Kind, SRegId Dst, ScalarOperand LHS,
                        ScalarOperand RHS) {
  assert(Dst.isValid() && "malformed sbinop");
  VInst I;
  I.Op = VOpcode::SBinOp;
  I.ScalarOp = Kind;
  I.SDst = Dst;
  I.SOp1 = LHS;
  I.SOp2 = RHS;
  return I;
}

VInst VInst::makeSCmp(SCmpKind Kind, SRegId Dst, ScalarOperand LHS,
                      ScalarOperand RHS) {
  assert(Dst.isValid() && "malformed scmp");
  VInst I;
  I.Op = VOpcode::SCmp;
  I.CmpOp = Kind;
  I.SDst = Dst;
  I.SOp1 = LHS;
  I.SOp2 = RHS;
  return I;
}

const char *vir::sBinOpName(SBinOpKind Kind) {
  switch (Kind) {
  case SBinOpKind::Add:
    return "add";
  case SBinOpKind::Sub:
    return "sub";
  case SBinOpKind::Mul:
    return "mul";
  case SBinOpKind::And:
    return "and";
  case SBinOpKind::Mod:
    return "mod";
  }
  simdize_unreachable("unknown scalar binop");
}

const char *vir::sCmpName(SCmpKind Kind) {
  switch (Kind) {
  case SCmpKind::LT:
    return "lt";
  case SCmpKind::LE:
    return "le";
  case SCmpKind::GT:
    return "gt";
  case SCmpKind::GE:
    return "ge";
  case SCmpKind::EQ:
    return "eq";
  case SCmpKind::NE:
    return "ne";
  }
  simdize_unreachable("unknown scalar cmp");
}

unsigned vir::countOps(const Block &B, VOpcode Op) {
  unsigned Count = 0;
  for (const VInst &I : B)
    if (I.Op == Op)
      ++Count;
  return Count;
}
