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

static std::string printSOp(const ScalarOperand &Op) {
  if (Op.IsReg)
    return strf("s%u", Op.Reg.Id);
  return strf("%lld", static_cast<long long>(Op.Imm));
}

static std::string printAddr(const Address &A) {
  std::string Index =
      A.Index ? strf("s%u", A.Index->Id)
              : strf("%lld", static_cast<long long>(A.ConstIndex));
  if (A.ElemOffset == 0)
    return strf("&%s[%s]", A.Base->getName().c_str(), Index.c_str());
  return strf("&%s[(%s)%+lld]", A.Base->getName().c_str(), Index.c_str(),
              static_cast<long long>(A.ElemOffset));
}

std::string vir::printInst(const VInst &I) {
  std::string S;
  switch (I.Op) {
  case VOpcode::VLoad:
    S = strf("v%u = vload %s", I.VDst.Id, printAddr(I.Addr).c_str());
    break;
  case VOpcode::VStore:
    S = strf("vstore %s, v%u", printAddr(I.Addr).c_str(), I.VSrc1.Id);
    break;
  case VOpcode::VSplat:
    if (I.SOp1.IsReg)
      S = strf("v%u = vsplat s%u x i%u", I.VDst.Id, I.SOp1.Reg.Id,
               I.ElemSize * 8);
    else
      S = strf("v%u = vsplat %lld x i%u", I.VDst.Id,
               static_cast<long long>(I.SOp1.Imm), I.ElemSize * 8);
    break;
  case VOpcode::VShiftPair:
    S = strf("v%u = vshiftpair v%u, v%u, %s", I.VDst.Id, I.VSrc1.Id,
             I.VSrc2.Id, printSOp(I.SOp1).c_str());
    break;
  case VOpcode::VSplice:
    S = strf("v%u = vsplice v%u, v%u, %s", I.VDst.Id, I.VSrc1.Id, I.VSrc2.Id,
             printSOp(I.SOp1).c_str());
    break;
  case VOpcode::VBinOp:
    S = strf("v%u = v%s.i%u v%u, v%u", I.VDst.Id,
             ir::binOpMnemonic(I.VectorOp), I.ElemSize * 8, I.VSrc1.Id,
             I.VSrc2.Id);
    break;
  case VOpcode::VCmp:
    S = strf("v%u = vcmp.%s.i%u v%u, v%u", I.VDst.Id, sCmpName(I.CmpOp),
             I.ElemSize * 8, I.VSrc1.Id, I.VSrc2.Id);
    break;
  case VOpcode::VSelect:
    S = strf("v%u = vselect v%u, v%u, v%u", I.VDst.Id, I.VSrc1.Id, I.VSrc2.Id,
             I.VSrc3.Id);
    break;
  case VOpcode::VCopy:
    S = strf("v%u = vcopy v%u", I.VDst.Id, I.VSrc1.Id);
    break;
  case VOpcode::SConst:
    S = strf("s%u = sconst %lld", I.SDst.Id, static_cast<long long>(I.Imm));
    break;
  case VOpcode::SBase:
    S = strf("s%u = sbase %s", I.SDst.Id, I.Addr.Base->getName().c_str());
    break;
  case VOpcode::SBinOp:
    S = strf("s%u = s%s %s, %s", I.SDst.Id, sBinOpName(I.ScalarOp),
             printSOp(I.SOp1).c_str(), printSOp(I.SOp2).c_str());
    break;
  case VOpcode::SCmp:
    S = strf("s%u = scmp.%s %s, %s", I.SDst.Id, sCmpName(I.CmpOp),
             printSOp(I.SOp1).c_str(), printSOp(I.SOp2).c_str());
    break;
  }
  if (I.Predicate)
    S = strf("[if s%u] ", I.Predicate->Id) + S;
  if (I.Comment)
    S += "  ; " + commentText(I);
  return S;
}

std::string vir::commentText(const VInst &I) {
  if (!I.Comment)
    return std::string();
  std::string S = I.Comment;
  if (I.CommentArray)
    S += I.CommentArray->getName();
  if (I.CommentParam)
    S += I.CommentParam->getName();
  return S;
}

static void printBlock(std::string &Out, const Block &B) {
  for (const VInst &I : B)
    Out += "  " + printInst(I) + "\n";
}

std::string vir::printProgram(const VProgram &P) {
  std::string Out;
  Out += "setup:\n";
  printBlock(Out, P.getSetup());
  Out += strf("loop s%u = %s, s%u < %s, s%u += %u:\n", P.getIndexReg().Id,
              printSOp(P.getLowerBound()).c_str(), P.getIndexReg().Id,
              printSOp(P.getUpperBound()).c_str(), P.getIndexReg().Id,
              P.getLoopStep());
  printBlock(Out, P.getBody());
  Out += "epilogue:\n";
  printBlock(Out, P.getEpilogue());
  return Out;
}
