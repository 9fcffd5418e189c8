//===- native/NativeEmitter.cpp -------------------------------------------===//
//
// Part of the simdize project (PLDI 2004 alignment-constrained simdization).
//
//===----------------------------------------------------------------------===//

#include "native/NativeEmitter.h"

#include "ir/Loop.h"
#include "support/Debug.h"
#include "support/Format.h"
#include "support/MathExtras.h"
#include "vir/VPrinter.h"
#include "vir/VProgram.h"

#include <cstdlib>
#include <optional>
#include <vector>

using namespace simdize;
using namespace simdize::native;
using namespace simdize::vir;

namespace {

/// The kernel signature (no trailing `{`):
///   void FnName(unsigned char *<array0>, ..., long <param0>, ..., long ub)
std::string signature(const ir::Loop &L, const std::string &FnName) {
  std::string Out = "void " + FnName + "(";
  for (const auto &A : L.getArrays())
    Out += strf("unsigned char *%s, ", A->getName().c_str());
  for (const auto &Prm : L.getParams())
    Out += strf("long %s, ", Prm->getName().c_str());
  Out += "long ub)";
  return Out;
}

/// The `extern "C"` memory-image adapter for \p FnName. \p ArrayBases are
/// the byte offsets of \p L's arrays inside the image, in array
/// declaration order; the second argument packs [<param0>, ..., ub].
std::string emitImageWrapper(const ir::Loop &L, const std::string &FnName,
                             const std::vector<int64_t> &ArrayBases) {
  std::string Out;
  Out += "extern \"C\" void " + FnName +
         "_image(unsigned char *Image, const long *Args) {\n";
  Out += "  " + FnName + "(";
  for (size_t K = 0; K < L.getArrays().size(); ++K)
    Out += strf("Image + %lld, ", static_cast<long long>(ArrayBases[K]));
  for (size_t K = 0; K < L.getParams().size(); ++K)
    Out += strf("Args[%zu], ", K);
  Out += strf("Args[%zu]);\n", L.getParams().size());
  Out += "}\n";
  return Out;
}

const char *laneSuffix(unsigned ElemSize) {
  switch (ElemSize) {
  case 1:
    return "i8";
  case 2:
    return "i16";
  case 4:
    return "i32";
  }
  simdize_unreachable("unsupported lane width");
}

/// A scalar operand: "s<reg>" or the immediate.
std::string operand(const ScalarOperand &Op) {
  if (Op.IsReg)
    return strf("s%u", Op.Reg.Id);
  return strf("%lld", static_cast<long long>(Op.Imm));
}

/// Byte address of a stride-one access.
std::string address(const Address &A) {
  std::string Index = A.Index
                          ? strf("s%u", A.Index->Id)
                          : strf("%lld", static_cast<long long>(A.ConstIndex));
  return strf("%s + %u * ((%s) + (%lld))", A.Base->getName().c_str(),
              A.Base->getElemSize(), Index.c_str(),
              static_cast<long long>(A.ElemOffset));
}

/// The chunk a vector register holds, as the load that read it: the
/// V-byte chunk of Base containing element Elem. In the steady body Elem
/// is relative to the loop counter of the current iteration; in Setup it
/// is absolute. A null Base means no load chunk is known.
struct LoadChunk {
  const ir::Array *Base = nullptr;
  int64_t Elem = 0;
};

/// Per vector register, the load chunk it holds at one program point.
using ChunkState = std::vector<LoadChunk>;

/// Advances \p S over \p I. \p Elem gives the element a load or store of
/// \p I addresses, or nullopt when it is not known statically. A store
/// forgets every register of its array whose chunk it may overwrite: two
/// elements less than V bytes apart may share a chunk.
template <typename ElemFn>
void stepChunks(const VInst &I, unsigned V, ChunkState &S, ElemFn Elem) {
  if (I.Op == VOpcode::VStore) {
    std::optional<int64_t> Stored = Elem(I.Addr);
    const int64_t D = I.Addr.Base->getElemSize();
    for (LoadChunk &C : S)
      if (C.Base == I.Addr.Base &&
          (!Stored || std::abs(D * (C.Elem - *Stored)) < int64_t{V}))
        C = LoadChunk();
    return;
  }
  if (!I.definesVector())
    return;
  LoadChunk Value; // A predicated write may not happen: nothing is known.
  if (!I.Predicate && I.Op == VOpcode::VLoad) {
    if (std::optional<int64_t> E = Elem(I.Addr))
      Value = {I.Addr.Base, *E};
  } else if (!I.Predicate && I.Op == VOpcode::VCopy) {
    Value = S[I.VSrc1.Id];
  }
  S[I.VDst.Id] = Value;
}

/// How many chunks of \p A separate the one holding element \p From from
/// the one holding element \p To: exact when the two are a multiple of V
/// bytes apart, else read off A's static alignment, which needs absolute
/// indices (or indices relative to a counter a multiple of B past them).
std::optional<int64_t> chunksApart(const ir::Array *A, unsigned V,
                                   int64_t From, int64_t To, bool Absolute) {
  const int64_t D = A->getElemSize();
  if ((D * (To - From)) % V == 0)
    return D * (To - From) / V;
  if (!Absolute || !A->isAlignmentKnown())
    return std::nullopt;
  return (alignDown(A->getAlignment() + D * To, V) -
          alignDown(A->getAlignment() + D * From, V)) /
         V;
}

/// For each steady-body instruction, the address of the first chunk when
/// the instruction is a VShiftPair of two consecutive chunks of one load
/// stream, else nullopt. Such a shift reads the same V bytes as one
/// unaligned load of its first chunk's address plus the shift amount.
///
/// An operand's chunk is its last load earlier in the body. A register
/// the body reads before writing is loop-carried: it holds its last body
/// load one loop step earlier, and on the first iteration the value Setup
/// seeds it with, which must be a load of that same chunk. Chunks are
/// consecutive when the second starts exactly V bytes after the first,
/// and neither may have been stored to since it was loaded.
std::vector<std::optional<Address>> realignableShifts(const VProgram &P) {
  const unsigned V = P.getVectorLen();
  const Block &Body = P.getBody();
  // With an immediate lower bound the counter stays a multiple of B past
  // it, so LB + a body offset indexes the same chunk as an absolute index.
  std::optional<int64_t> LB;
  if (P.getLowerBound().isImm())
    LB = P.getLowerBound().getImm();
  std::vector<std::optional<Address>> Out(Body.size());
  auto BodyElem = [](const Address &A) -> std::optional<int64_t> {
    return A.ElemOffset; // The verifier indexes body accesses by the counter.
  };
  auto SetupElem = [](const Address &A) -> std::optional<int64_t> {
    if (A.Index)
      return std::nullopt;
    return A.ConstIndex + A.ElemOffset;
  };

  // The chunks a body run leaves, whatever the body is entered with.
  ChunkState AtEnd(P.getNumVRegs());
  for (const VInst &I : Body)
    stepChunks(I, V, AtEnd, BodyElem);

  // Body entry: a carried chunk one step back, where Setup seeds it.
  ChunkState Seeds(P.getNumVRegs());
  for (const VInst &I : P.getSetup())
    stepChunks(I, V, Seeds, SetupElem);
  ChunkState S(P.getNumVRegs());
  if (LB) {
    for (size_t R = 0; R < S.size(); ++R) {
      LoadChunk Carried = AtEnd[R];
      Carried.Elem -= P.getLoopStep();
      if (Carried.Base && Seeds[R].Base == Carried.Base &&
          chunksApart(Carried.Base, V, *LB + Carried.Elem, Seeds[R].Elem,
                      true) == 0)
        S[R] = Carried;
    }
  }

  for (size_t K = 0; K < Body.size(); ++K) {
    const VInst &I = Body[K];
    if (I.Op == VOpcode::VShiftPair) {
      const LoadChunk &A = S[I.VSrc1.Id], &B = S[I.VSrc2.Id];
      const int64_t Origin = LB.value_or(0);
      if (A.Base && A.Base == B.Base &&
          chunksApart(A.Base, V, Origin + A.Elem, Origin + B.Elem,
                      LB.has_value()) == 1)
        Out[K] = Address::indexed(A.Base, A.Elem, P.getIndexReg());
    }
    stepChunks(I, V, S, BodyElem);
  }
  return Out;
}

/// Renders one program as a C++ function over the vx_* wrappers: the
/// signature, register declarations, parameter binding, the Setup /
/// steady-loop / Epilogue skeleton, and one statement per instruction.
class KernelEmitter {
public:
  KernelEmitter(const VProgram &P, const ir::Loop &L)
      : P(P), L(L), Realign(realignableShifts(P)) {}

  std::string emitKernel(const std::string &FnName) const;

private:
  /// \p At, for a steady-body shift of two consecutive load chunks, is the
  /// first chunk's address.
  std::string stmt(const VInst &I, const std::optional<Address> &At) const;
  std::string bareStmt(const VInst &I, const std::optional<Address> &At) const;

  const VProgram &P;
  const ir::Loop &L;
  std::vector<std::optional<Address>> Realign;
};

std::string KernelEmitter::emitKernel(const std::string &FnName) const {
  std::string Out = signature(L, FnName) + " {\n";
  Out += "  (void)ub;\n";

  // Register declarations. Only registers the program references are
  // declared: dead-code elimination leaves renumbering gaps, and the
  // emitted kernel must compile cleanly under -Wall -Wextra -Werror.
  std::vector<bool> VUsed(P.getNumVRegs(), false);
  std::vector<bool> SUsed(P.getNumSRegs(), false);
  auto MarkV = [&](VRegId R) {
    if (R.isValid() && R.Id < VUsed.size())
      VUsed[R.Id] = true;
  };
  auto MarkS = [&](SRegId R) {
    if (R.isValid() && R.Id < SUsed.size())
      SUsed[R.Id] = true;
  };
  auto MarkOp = [&](const ScalarOperand &Op) {
    if (Op.IsReg)
      MarkS(Op.Reg);
  };
  auto MarkInst = [&](const VInst &I) {
    MarkV(I.VDst);
    MarkV(I.VSrc1);
    MarkV(I.VSrc2);
    MarkV(I.VSrc3);
    MarkS(I.SDst);
    MarkOp(I.SOp1);
    MarkOp(I.SOp2);
    if (I.Addr.Index)
      MarkS(*I.Addr.Index);
    if (I.Predicate)
      MarkS(*I.Predicate);
  };
  for (const VInst &I : P.getSetup())
    MarkInst(I);
  for (const VInst &I : P.getBody())
    MarkInst(I);
  for (const VInst &I : P.getEpilogue())
    MarkInst(I);
  MarkS(P.getIndexReg());
  MarkOp(P.getLowerBound());
  MarkOp(P.getUpperBound());
  if (P.hasTripCountParam())
    MarkS(P.getTripCountParam());
  for (auto [Reg, Value] : P.getScalarParams()) {
    (void)Value;
    MarkS(Reg);
  }

  std::string VDecl, SDecl;
  for (unsigned K = 0; K < P.getNumVRegs(); ++K)
    if (VUsed[K])
      VDecl += strf("%s v%u{}", VDecl.empty() ? "" : ",", K);
  for (unsigned K = 0; K < P.getNumSRegs(); ++K)
    if (SUsed[K])
      SDecl += strf("%s s%u = 0", SDecl.empty() ? "" : ",", K);
  if (!VDecl.empty())
    Out += "  vx_t" + VDecl + ";\n";
  if (!SDecl.empty())
    Out += "  long" + SDecl + ";\n";
  if (P.hasTripCountParam())
    Out += strf("  s%u = ub;\n", P.getTripCountParam().Id);
  // Bind each parameter register to the argument it was declared for.
  // Registers are declared at first use, not in argument order, and an
  // argument no statement reads still needs a use under -Werror.
  const auto &Params = L.getParams();
  std::vector<bool> Bound(Params.size(), false);
  for (size_t K = 0; K < P.getScalarParams().size(); ++K) {
    unsigned Index = P.getScalarParamIndices()[K];
    Out += strf("  s%u = %s;\n", P.getScalarParams()[K].first.Id,
                Params[Index]->getName().c_str());
    Bound[Index] = true;
  }
  for (size_t K = 0; K < Params.size(); ++K)
    if (!Bound[K])
      Out += strf("  (void)%s;\n", Params[K]->getName().c_str());

  for (const VInst &I : P.getSetup())
    Out += "  " + stmt(I, std::nullopt) + "\n";

  Out += strf("  for (s%u = %s; s%u < %s; s%u += %u) {\n",
              P.getIndexReg().Id, operand(P.getLowerBound()).c_str(),
              P.getIndexReg().Id, operand(P.getUpperBound()).c_str(),
              P.getIndexReg().Id, P.getLoopStep());
  for (size_t K = 0; K < P.getBody().size(); ++K)
    Out += "    " + stmt(P.getBody()[K], Realign[K]) + "\n";
  Out += "  }\n";

  for (const VInst &I : P.getEpilogue())
    Out += "  " + stmt(I, std::nullopt) + "\n";
  Out += "}\n";
  return Out;
}

std::string KernelEmitter::stmt(const VInst &I,
                                const std::optional<Address> &At) const {
  std::string S = bareStmt(I, At);
  if (I.Predicate)
    S = strf("if (s%u) { ", I.Predicate->Id) + S + " }";
  if (I.Comment)
    S += "  // " + vir::commentText(I);
  return S;
}

std::string KernelEmitter::bareStmt(const VInst &I,
                                    const std::optional<Address> &At) const {
  switch (I.Op) {
  case VOpcode::VLoad:
    return strf("v%u = vx_ld(%s);", I.VDst.Id, address(I.Addr).c_str());
  case VOpcode::VStore:
    return strf("vx_st(%s, v%u);", address(I.Addr).c_str(), I.VSrc1.Id);
  case VOpcode::VSplat:
    return strf("v%u = vx_splat_%s(%s);", I.VDst.Id, laneSuffix(I.ElemSize),
                operand(I.SOp1).c_str());
  case VOpcode::VShiftPair: {
    if (I.SOp1.isImm()) {
      int64_t Shift = I.SOp1.getImm();
      if (Shift == 0)
        return strf("v%u = v%u;", I.VDst.Id, I.VSrc1.Id);
      if (Shift == static_cast<int64_t>(P.getVectorLen()))
        return strf("v%u = v%u;", I.VDst.Id, I.VSrc2.Id);
      if (At)
        return strf("v%u = vx_sld_at<%lld>(v%u, v%u, %s);", I.VDst.Id,
                    static_cast<long long>(Shift), I.VSrc1.Id, I.VSrc2.Id,
                    address(*At).c_str());
      return strf("v%u = vx_sld<%lld>(v%u, v%u);", I.VDst.Id,
                  static_cast<long long>(Shift), I.VSrc1.Id, I.VSrc2.Id);
    }
    if (At)
      return strf("v%u = vx_shiftpair_at(v%u, v%u, %s, %s);", I.VDst.Id,
                  I.VSrc1.Id, I.VSrc2.Id, operand(I.SOp1).c_str(),
                  address(*At).c_str());
    return strf("v%u = vx_shiftpair(v%u, v%u, %s);", I.VDst.Id, I.VSrc1.Id,
                I.VSrc2.Id, operand(I.SOp1).c_str());
  }
  case VOpcode::VSplice:
    return strf("v%u = vx_splice(v%u, v%u, %s);", I.VDst.Id, I.VSrc1.Id,
                I.VSrc2.Id, operand(I.SOp1).c_str());
  case VOpcode::VBinOp:
    return strf("v%u = vx_%s_%s(v%u, v%u);", I.VDst.Id,
                ir::binOpMnemonic(I.VectorOp), laneSuffix(I.ElemSize),
                I.VSrc1.Id, I.VSrc2.Id);
  case VOpcode::VCmp:
    return strf("v%u = vx_cmp_%s_%s(v%u, v%u);", I.VDst.Id,
                sCmpName(I.CmpOp), laneSuffix(I.ElemSize), I.VSrc1.Id,
                I.VSrc2.Id);
  case VOpcode::VSelect:
    return strf("v%u = vx_sel(v%u, v%u, v%u);", I.VDst.Id, I.VSrc1.Id,
                I.VSrc2.Id, I.VSrc3.Id);
  case VOpcode::VCopy:
    return strf("v%u = v%u;", I.VDst.Id, I.VSrc1.Id);
  case VOpcode::SConst:
    return strf("s%u = %lld;", I.SDst.Id, static_cast<long long>(I.Imm));
  case VOpcode::SBase:
    return strf("s%u = (long)(uintptr_t)%s;", I.SDst.Id,
                I.Addr.Base->getName().c_str());
  case VOpcode::SBinOp: {
    std::string A = operand(I.SOp1), B = operand(I.SOp2);
    switch (I.ScalarOp) {
    case SBinOpKind::Add:
      return strf("s%u = (%s) + (%s);", I.SDst.Id, A.c_str(), B.c_str());
    case SBinOpKind::Sub:
      return strf("s%u = (%s) - (%s);", I.SDst.Id, A.c_str(), B.c_str());
    case SBinOpKind::Mul:
      return strf("s%u = (%s) * (%s);", I.SDst.Id, A.c_str(), B.c_str());
    case SBinOpKind::And:
      return strf("s%u = (%s) & (%s);", I.SDst.Id, A.c_str(), B.c_str());
    case SBinOpKind::Mod:
      return strf("s%u = (((%s) %% (%s)) + (%s)) %% (%s);", I.SDst.Id,
                  A.c_str(), B.c_str(), B.c_str(), B.c_str());
    }
    simdize_unreachable("unknown scalar binop");
  }
  case VOpcode::SCmp: {
    const char *Cmp = nullptr;
    switch (I.CmpOp) {
    case SCmpKind::LT:
      Cmp = "<";
      break;
    case SCmpKind::LE:
      Cmp = "<=";
      break;
    case SCmpKind::GT:
      Cmp = ">";
      break;
    case SCmpKind::GE:
      Cmp = ">=";
      break;
    case SCmpKind::EQ:
      Cmp = "==";
      break;
    case SCmpKind::NE:
      Cmp = "!=";
      break;
    }
    return strf("s%u = ((%s) %s (%s)) ? 1 : 0;", I.SDst.Id,
                operand(I.SOp1).c_str(), Cmp, operand(I.SOp2).c_str());
  }
  }
  simdize_unreachable("unknown opcode");
}

} // namespace

LowerResult native::emitNativeModule(const std::vector<KernelSpec> &Kernels,
                                     unsigned VectorLen, ISA Isa) {
  LowerResult Result;
  if (!isaSupportsWidth(Isa, VectorLen)) {
    Result.Error = strf(
        "native lowering: ISA %s cannot realize V = %u (sse2 pins 16, avx2 "
        "pins 32, avx512 pins 64; the shim takes any valid width)",
        isaName(Isa), VectorLen);
    return Result;
  }
  for (const KernelSpec &K : Kernels) {
    if (K.Program->getVectorLen() != VectorLen) {
      Result.Error = strf(
          "native lowering: kernel '%s' was simdized for V = %u but the "
          "module targets V = %u — recompile for a matching Target",
          K.Name.c_str(), K.Program->getVectorLen(), VectorLen);
      return Result;
    }
    if (!K.ArrayBases.empty() &&
        K.ArrayBases.size() != K.Loop->getArrays().size()) {
      Result.Error = strf(
          "native lowering: kernel '%s' supplies %zu array bases for %zu "
          "arrays",
          K.Name.c_str(), K.ArrayBases.size(), K.Loop->getArrays().size());
      return Result;
    }
  }

  std::string Out;
  Out += "// Generated by simdize::native::emitNativeModule.\n";
  Out += strf("// ISA: %s, V = %u. Requires simdize_x86.h.\n\n", isaName(Isa),
              VectorLen);
  Out += strf("#define SIMDIZE_NATIVE_V %u\n", VectorLen);
  Out += strf("#define %s 1\n", isaDefine(Isa));
  Out += "#include \"simdize_x86.h\"\n";
  for (const KernelSpec &K : Kernels) {
    Out += "\n";
    Out += KernelEmitter(*K.Program, *K.Loop).emitKernel(K.Name);
    if (!K.ArrayBases.empty())
      Out += emitImageWrapper(*K.Loop, K.Name, K.ArrayBases);
  }
  Result.Code = std::move(Out);
  return Result;
}

LowerResult native::emitNativeKernel(const vir::VProgram &P, const ir::Loop &L,
                                     const std::string &FnName, ISA Isa) {
  KernelSpec K;
  K.Program = &P;
  K.Loop = &L;
  K.Name = FnName;
  return emitNativeModule({K}, P.getVectorLen(), Isa);
}
