//===- vir/VPrinter.cpp ---------------------------------------------------===//
//
// Part of the simdize project (PLDI 2004 alignment-constrained simdization).
//
//===----------------------------------------------------------------------===//

#include "vir/VPrinter.h"

#include "ir/Array.h"
#include "support/Debug.h"
#include "support/Format.h"
#include "vir/VProgram.h"

using namespace simdize;
using namespace simdize::vir;

// The printers append into one string: the server prints a whole program
// on every compile miss.

static void appendSOp(std::string &Out, const ScalarOperand &Op) {
  if (Op.IsReg)
    append(Out, 's', Op.Reg.Id);
  else
    append(Out, Op.Imm);
}

static void appendAddr(std::string &Out, const Address &A) {
  append(Out, '&', A.Base->getName(), A.ElemOffset == 0 ? "[" : "[(");
  if (A.Index)
    append(Out, 's', A.Index->Id);
  else
    append(Out, A.ConstIndex);
  if (A.ElemOffset != 0)
    append(Out, A.ElemOffset > 0 ? ")+" : ")", A.ElemOffset);
  Out += ']';
}

static void appendComment(std::string &Out, const VInst &I) {
  Out += I.Comment;
  if (I.CommentArray)
    Out += I.CommentArray->getName();
  if (I.CommentParam)
    Out += I.CommentParam->getName();
}

static void appendInst(std::string &Out, const VInst &I) {
  if (I.Predicate)
    append(Out, "[if s", I.Predicate->Id, "] ");
  switch (I.Op) {
  case VOpcode::VLoad:
    append(Out, 'v', I.VDst.Id, " = vload ");
    appendAddr(Out, I.Addr);
    break;
  case VOpcode::VStore:
    Out += "vstore ";
    appendAddr(Out, I.Addr);
    append(Out, ", v", I.VSrc1.Id);
    break;
  case VOpcode::VSplat:
    append(Out, 'v', I.VDst.Id, " = vsplat ");
    appendSOp(Out, I.SOp1);
    append(Out, " x i", I.ElemSize * 8);
    break;
  case VOpcode::VShiftPair:
  case VOpcode::VSplice:
    append(Out, 'v', I.VDst.Id,
           I.Op == VOpcode::VShiftPair ? " = vshiftpair v" : " = vsplice v",
           I.VSrc1.Id, ", v", I.VSrc2.Id, ", ");
    appendSOp(Out, I.SOp1);
    break;
  case VOpcode::VBinOp:
    append(Out, 'v', I.VDst.Id, " = v", ir::binOpMnemonic(I.VectorOp), ".i",
           I.ElemSize * 8, " v", I.VSrc1.Id, ", v", I.VSrc2.Id);
    break;
  case VOpcode::VCmp:
    append(Out, 'v', I.VDst.Id, " = vcmp.", sCmpName(I.CmpOp), ".i",
           I.ElemSize * 8, " v", I.VSrc1.Id, ", v", I.VSrc2.Id);
    break;
  case VOpcode::VSelect:
    append(Out, 'v', I.VDst.Id, " = vselect v", I.VSrc1.Id, ", v", I.VSrc2.Id,
           ", v", I.VSrc3.Id);
    break;
  case VOpcode::VCopy:
    append(Out, 'v', I.VDst.Id, " = vcopy v", I.VSrc1.Id);
    break;
  case VOpcode::SConst:
    append(Out, 's', I.SDst.Id, " = sconst ", I.Imm);
    break;
  case VOpcode::SBase:
    append(Out, 's', I.SDst.Id, " = sbase ", I.Addr.Base->getName());
    break;
  case VOpcode::SBinOp:
  case VOpcode::SCmp:
    if (I.Op == VOpcode::SBinOp)
      append(Out, 's', I.SDst.Id, " = s", sBinOpName(I.ScalarOp), ' ');
    else
      append(Out, 's', I.SDst.Id, " = scmp.", sCmpName(I.CmpOp), ' ');
    appendSOp(Out, I.SOp1);
    Out += ", ";
    appendSOp(Out, I.SOp2);
    break;
  }
  if (I.Comment) {
    Out += "  ; ";
    appendComment(Out, I);
  }
}

std::string vir::printInst(const VInst &I) {
  std::string S;
  appendInst(S, I);
  return S;
}

std::string vir::commentText(const VInst &I) {
  std::string S;
  if (I.Comment)
    appendComment(S, I);
  return S;
}

static void appendBlock(std::string &Out, const Block &B) {
  for (const VInst &I : B) {
    Out += "  ";
    appendInst(Out, I);
    Out += '\n';
  }
}

std::string vir::printProgram(const VProgram &P) {
  unsigned Index = P.getIndexReg().Id;
  std::string Out = "setup:\n";
  appendBlock(Out, P.getSetup());
  append(Out, "loop s", Index, " = ");
  appendSOp(Out, P.getLowerBound());
  append(Out, ", s", Index, " < ");
  appendSOp(Out, P.getUpperBound());
  append(Out, ", s", Index, " += ", P.getLoopStep(), ":\n");
  appendBlock(Out, P.getBody());
  Out += "epilogue:\n";
  appendBlock(Out, P.getEpilogue());
  return Out;
}
