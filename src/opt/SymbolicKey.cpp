//===- opt/SymbolicKey.cpp ------------------------------------------------===//
//
// Part of the simdize project (PLDI 2004 alignment-constrained simdization).
//
//===----------------------------------------------------------------------===//

#include "opt/SymbolicKey.h"

#include "ir/Array.h"

using namespace simdize;
using namespace simdize::opt;
using namespace simdize::vir;

BodyKeys::BodyKeys(const VProgram &P, bool MemNorm)
    : P(P), MemNorm(MemNorm), DefIndex(P.getNumVRegs(), -1) {
  const Block &Body = P.getBody();
  for (unsigned K = 0; K < Body.size(); ++K) {
    const VInst &I = Body[K];
    if (!I.definesVector())
      continue;
    int &Slot = DefIndex[I.VDst.Id];
    Slot = Slot == -1 ? static_cast<int>(K) : -2;
  }
  // A register also defined outside the body is loop-carried (a
  // software-pipeline "old" initialized in Setup): its body value differs
  // per iteration in a way no body instruction expresses — not keyable.
  for (BlockKind Kind : {BlockKind::Setup, BlockKind::Epilogue})
    for (const VInst &I : P.getBlock(Kind))
      if (I.definesVector() && DefIndex[I.VDst.Id] != -1)
        DefIndex[I.VDst.Id] = -2;
}

int BodyKeys::defIndexOf(VRegId R) const {
  int Idx = DefIndex[R.Id];
  return Idx >= 0 ? Idx : -1;
}

/// Floor division (round toward negative infinity); chunk indices can go
/// negative for prologue-side deltas.
static int64_t floorDiv(int64_t Num, int64_t Den) {
  int64_t Q = Num / Den;
  if ((Num % Den != 0) && ((Num < 0) != (Den < 0)))
    --Q;
  return Q;
}

namespace {

/// First field of every numbered tuple: which kind of value it names.
enum Tag : int64_t {
  Invariant,  ///< (reg id): a register defined only outside the body.
  LoadChunk,  ///< (array index, chunk): a memory-normalized load.
  LoadOffset, ///< (array index, element offset): any other load.
  SplatReg,   ///< (scalar reg id)
  SplatImm,   ///< (immediate)
  BinOp,      ///< (operator, lhs, rhs)
  Cmp,        ///< (predicate, lhs, rhs)
  Select,     ///< (mask, taken, untaken)
  ShiftPair,  ///< (amount is a reg, reg id or immediate, lhs, rhs)
  Splice,     ///< (point is a reg, reg id or immediate, lhs, rhs)
};

} // namespace

std::vector<uint32_t> &BodyKeys::memoAt(int64_t DeltaElems) {
  for (auto &[Delta, Numbers] : Memo)
    if (Delta == DeltaElems)
      return Numbers;
  Memo.emplace_back(DeltaElems, std::vector<uint32_t>(DefIndex.size(),
                                                      Unvisited));
  return Memo.back().second;
}

uint32_t BodyKeys::keyOfVReg(VRegId R, int64_t DeltaElems) {
  int Idx = DefIndex[R.Id];
  if (Idx == -2)
    return 0; // Multiply defined: loop-carried, not keyable.
  if (Idx == -1)
    return Numbers.intern({Invariant, R.Id}); // Loop invariant from Setup.

  if (uint32_t Known = memoAt(DeltaElems)[R.Id]; Known != Unvisited)
    return Known;
  uint32_t Key = keyOfInst(P.getBody()[static_cast<size_t>(Idx)],
                           DeltaElems);
  memoAt(DeltaElems)[R.Id] = Key;
  return Key;
}

uint32_t BodyKeys::keyOfInst(const VInst &I, int64_t DeltaElems) {
  switch (I.Op) {
  case VOpcode::VLoad: {
    // Loads of stored arrays do not bar keying: checkSimdizable admits at
    // most one storing statement per array and no explicit loads of it, so
    // the only aliasing load is an if-converted statement's own old-value
    // reload of the *same* stream — and the stream schedule stores a chunk
    // only at the iteration performing its last load, after that load. Any
    // store between two same-chunk loads therefore targets a strictly
    // earlier chunk and cannot change the loaded value.
    //
    // The verifier holds body addresses to the loop counter, so C is the
    // element offset from it.
    const ir::Array *A = I.Addr.Base;
    int64_t C = I.Addr.ElemOffset + DeltaElems;
    if (MemNorm && A->isAlignmentKnown()) {
      // The truncating load reads chunk floor((align + c*D) / V) of the
      // stream at counter multiples of B; key by that chunk.
      int64_t Chunk = floorDiv(
          A->getAlignment() + C * static_cast<int64_t>(A->getElemSize()),
          P.getVectorLen());
      return Numbers.intern({LoadChunk, A->getIndex(), Chunk});
    }
    return Numbers.intern({LoadOffset, A->getIndex(), C});
  }
  case VOpcode::VSplat:
    if (I.SOp1.IsReg)
      return Numbers.intern({SplatReg, I.SOp1.Reg.Id});
    return Numbers.intern({SplatImm, I.SOp1.Imm});
  case VOpcode::VBinOp:
  case VOpcode::VCmp: {
    uint32_t L = keyOfVReg(I.VSrc1, DeltaElems);
    uint32_t R = keyOfVReg(I.VSrc2, DeltaElems);
    if (L == 0 || R == 0)
      return 0;
    if (I.Op == VOpcode::VBinOp)
      return Numbers.intern(
          {BinOp, static_cast<int64_t>(I.VectorOp), L, R});
    return Numbers.intern({Cmp, static_cast<int64_t>(I.CmpOp), L, R});
  }
  case VOpcode::VSelect: {
    uint32_t M = keyOfVReg(I.VSrc1, DeltaElems);
    uint32_t S = keyOfVReg(I.VSrc2, DeltaElems);
    uint32_t C = keyOfVReg(I.VSrc3, DeltaElems);
    if (M == 0 || S == 0 || C == 0)
      return 0;
    return Numbers.intern({Select, M, S, C});
  }
  case VOpcode::VShiftPair:
  case VOpcode::VSplice: {
    uint32_t L = keyOfVReg(I.VSrc1, DeltaElems);
    uint32_t R = keyOfVReg(I.VSrc2, DeltaElems);
    if (L == 0 || R == 0)
      return 0;
    int64_t Amount = I.SOp1.IsReg ? I.SOp1.Reg.Id : I.SOp1.Imm;
    return Numbers.intern({I.Op == VOpcode::VShiftPair ? ShiftPair : Splice,
                           I.SOp1.IsReg, Amount, L, R});
  }
  case VOpcode::VCopy:
    // A copy's value is its source's — but copies mark loop-carried
    // rotation; their dsts are multiply-defined and already filtered.
    return keyOfVReg(I.VSrc1, DeltaElems);
  default:
    return 0;
  }
}
