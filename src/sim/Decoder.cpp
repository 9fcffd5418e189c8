//===- sim/Decoder.cpp ----------------------------------------------------===//
//
// Part of the simdize project (PLDI 2004 alignment-constrained simdization).
//
//===----------------------------------------------------------------------===//

#include "sim/Decoder.h"

#include "ir/Array.h"
#include "sim/Memory.h"
#include "simdize/Target.h"
#include "support/Debug.h"
#include "support/MathExtras.h"

#include <array>
#include <bit>
#include <cstring>

using namespace simdize;
using namespace simdize::sim;
using namespace simdize::sim::detail;
using namespace simdize::vir;

//===----------------------------------------------------------------------===//
// Specialized vector kernels
//===----------------------------------------------------------------------===//

namespace {

constexpr unsigned MaxVectorLen = Target::MaxVectorLen;
using VectorValue = std::array<uint8_t, MaxVectorLen>;

/// Lane-typed element-wise kernel. \p U is the unsigned lane type (wrapping
/// +,-,*,&,|,^) and \p S its signed counterpart (ordered min/max, matching
/// the sign-extended comparisons of the reference interpreter). memcpy'd
/// lane access keeps strict aliasing intact; the host is little-endian, the
/// same byte order the reference engine assembles lanes in.
template <typename U, typename S, ir::BinOpKind Kind>
void binOpKernel(uint8_t *Dst, const uint8_t *A, const uint8_t *B,
                 unsigned VectorLen) {
  const unsigned Lanes = VectorLen / sizeof(U);
  for (unsigned Lane = 0; Lane < Lanes; ++Lane) {
    U LHS, RHS, Res;
    std::memcpy(&LHS, A + Lane * sizeof(U), sizeof(U));
    std::memcpy(&RHS, B + Lane * sizeof(U), sizeof(U));
    if constexpr (Kind == ir::BinOpKind::Add)
      Res = static_cast<U>(LHS + RHS);
    else if constexpr (Kind == ir::BinOpKind::Sub)
      Res = static_cast<U>(LHS - RHS);
    else if constexpr (Kind == ir::BinOpKind::Mul)
      Res = static_cast<U>(LHS * RHS);
    else if constexpr (Kind == ir::BinOpKind::Min)
      Res = static_cast<U>(static_cast<S>(LHS) < static_cast<S>(RHS) ? LHS
                                                                     : RHS);
    else if constexpr (Kind == ir::BinOpKind::Max)
      Res = static_cast<U>(static_cast<S>(LHS) > static_cast<S>(RHS) ? LHS
                                                                     : RHS);
    else if constexpr (Kind == ir::BinOpKind::And)
      Res = static_cast<U>(LHS & RHS);
    else if constexpr (Kind == ir::BinOpKind::Or)
      Res = static_cast<U>(LHS | RHS);
    else
      Res = static_cast<U>(LHS ^ RHS);
    std::memcpy(Dst + Lane * sizeof(U), &Res, sizeof(U));
  }
}

template <typename U, typename S>
BinOpKernel kernelForKind(ir::BinOpKind Kind) {
  switch (Kind) {
  case ir::BinOpKind::Add:
    return binOpKernel<U, S, ir::BinOpKind::Add>;
  case ir::BinOpKind::Sub:
    return binOpKernel<U, S, ir::BinOpKind::Sub>;
  case ir::BinOpKind::Mul:
    return binOpKernel<U, S, ir::BinOpKind::Mul>;
  case ir::BinOpKind::Min:
    return binOpKernel<U, S, ir::BinOpKind::Min>;
  case ir::BinOpKind::Max:
    return binOpKernel<U, S, ir::BinOpKind::Max>;
  case ir::BinOpKind::And:
    return binOpKernel<U, S, ir::BinOpKind::And>;
  case ir::BinOpKind::Or:
    return binOpKernel<U, S, ir::BinOpKind::Or>;
  case ir::BinOpKind::Xor:
    return binOpKernel<U, S, ir::BinOpKind::Xor>;
  }
  simdize_unreachable("unknown vector binop kind");
}

BinOpKernel selectKernel(ir::BinOpKind Kind, unsigned ElemSize) {
  switch (ElemSize) {
  case 1:
    return kernelForKind<uint8_t, int8_t>(Kind);
  case 2:
    return kernelForKind<uint16_t, int16_t>(Kind);
  case 4:
    return kernelForKind<uint32_t, int32_t>(Kind);
  }
  simdize_unreachable("unsupported lane width");
}

/// Per-lane signed compare producing an all-ones / all-zeros lane mask,
/// matching the reference interpreter's VCmp. Same signature as binOpKernel
/// so a vcmp decodes to DKind::BinOp with a compare kernel.
template <typename U, typename S, vir::SCmpKind Kind>
void cmpKernel(uint8_t *Dst, const uint8_t *A, const uint8_t *B,
               unsigned VectorLen) {
  const unsigned Lanes = VectorLen / sizeof(U);
  for (unsigned Lane = 0; Lane < Lanes; ++Lane) {
    U LHSBits, RHSBits;
    std::memcpy(&LHSBits, A + Lane * sizeof(U), sizeof(U));
    std::memcpy(&RHSBits, B + Lane * sizeof(U), sizeof(U));
    S LHS = static_cast<S>(LHSBits);
    S RHS = static_cast<S>(RHSBits);
    bool Taken;
    if constexpr (Kind == vir::SCmpKind::LT)
      Taken = LHS < RHS;
    else if constexpr (Kind == vir::SCmpKind::LE)
      Taken = LHS <= RHS;
    else if constexpr (Kind == vir::SCmpKind::GT)
      Taken = LHS > RHS;
    else if constexpr (Kind == vir::SCmpKind::GE)
      Taken = LHS >= RHS;
    else if constexpr (Kind == vir::SCmpKind::EQ)
      Taken = LHS == RHS;
    else
      Taken = LHS != RHS;
    U Res = Taken ? static_cast<U>(~static_cast<U>(0)) : static_cast<U>(0);
    std::memcpy(Dst + Lane * sizeof(U), &Res, sizeof(U));
  }
}

template <typename U, typename S>
BinOpKernel cmpKernelForKind(vir::SCmpKind Kind) {
  switch (Kind) {
  case vir::SCmpKind::LT:
    return cmpKernel<U, S, vir::SCmpKind::LT>;
  case vir::SCmpKind::LE:
    return cmpKernel<U, S, vir::SCmpKind::LE>;
  case vir::SCmpKind::GT:
    return cmpKernel<U, S, vir::SCmpKind::GT>;
  case vir::SCmpKind::GE:
    return cmpKernel<U, S, vir::SCmpKind::GE>;
  case vir::SCmpKind::EQ:
    return cmpKernel<U, S, vir::SCmpKind::EQ>;
  case vir::SCmpKind::NE:
    return cmpKernel<U, S, vir::SCmpKind::NE>;
  }
  simdize_unreachable("unknown vector compare kind");
}

BinOpKernel selectCmpKernel(vir::SCmpKind Kind, unsigned ElemSize) {
  switch (ElemSize) {
  case 1:
    return cmpKernelForKind<uint8_t, int8_t>(Kind);
  case 2:
    return cmpKernelForKind<uint16_t, int16_t>(Kind);
  case 4:
    return cmpKernelForKind<uint32_t, int32_t>(Kind);
  }
  simdize_unreachable("unsupported lane width");
}

/// Charges one executed instruction of category \p Cat to its bucket of
/// \p C: per instruction in setup and epilogue, once per instruction at
/// decode time for the steady body.
void charge(OpCounts &C, OpCategory Cat) {
  switch (Cat) {
  case OpCategory::Load:
    ++C.Loads;
    break;
  case OpCategory::Store:
    ++C.Stores;
    break;
  case OpCategory::Reorg:
    ++C.Reorg;
    break;
  case OpCategory::Compute:
    ++C.Compute;
    break;
  case OpCategory::Copy:
    ++C.Copies;
    break;
  case OpCategory::Scalar:
    ++C.Scalar;
    break;
  }
}

} // namespace

//===----------------------------------------------------------------------===//
// Decoding
//===----------------------------------------------------------------------===//

uint32_t DecodedProgram::constSlot(int64_t Value) {
  for (auto [V, Slot] : ConstSlots)
    if (V == Value)
      return Slot;
  uint32_t Slot = NumSlots++;
  ConstSlots.emplace_back(Value, Slot);
  InitialBindings.emplace_back(Slot, Value);
  return Slot;
}

uint32_t DecodedProgram::slotOf(const ScalarOperand &Op) {
  return Op.IsReg ? Op.Reg.Id : constSlot(Op.Imm);
}

DInst DecodedProgram::decodeInst(const VInst &I, const MemoryLayout &Layout) {
  DInst D;
  D.Category = I.category();
  if (I.Predicate)
    D.Pred = static_cast<int32_t>(I.Predicate->Id);

  auto decodeAddr = [&](const Address &A) {
    int64_t D_ = A.Base->getElemSize();
    if (A.Index) {
      D.AddrBase = Layout.baseOf(A.Base) + A.ElemOffset * D_;
      D.Idx = A.Index->Id;
    } else {
      D.AddrBase =
          Layout.baseOf(A.Base) + (A.ConstIndex + A.ElemOffset) * D_;
      D.Idx = constSlot(0);
    }
    D.Scale = D_;
  };

  switch (I.Op) {
  case VOpcode::VLoad:
    D.Kind = DKind::Load;
    D.VDst = I.VDst.Id;
    decodeAddr(I.Addr);
    break;
  case VOpcode::VStore:
    D.Kind = DKind::Store;
    D.VSrc1 = I.VSrc1.Id;
    decodeAddr(I.Addr);
    break;
  case VOpcode::VSplat:
    D.Kind = DKind::Splat;
    D.VDst = I.VDst.Id;
    D.SOp1 = slotOf(I.SOp1);
    D.ElemSize = static_cast<uint8_t>(I.ElemSize);
    break;
  case VOpcode::VShiftPair:
    D.Kind = DKind::ShiftPair;
    D.VDst = I.VDst.Id;
    D.VSrc1 = I.VSrc1.Id;
    D.VSrc2 = I.VSrc2.Id;
    D.SOp1 = slotOf(I.SOp1);
    break;
  case VOpcode::VSplice:
    D.Kind = DKind::Splice;
    D.VDst = I.VDst.Id;
    D.VSrc1 = I.VSrc1.Id;
    D.VSrc2 = I.VSrc2.Id;
    D.SOp1 = slotOf(I.SOp1);
    break;
  case VOpcode::VBinOp:
    D.Kind = DKind::BinOp;
    D.VDst = I.VDst.Id;
    D.VSrc1 = I.VSrc1.Id;
    D.VSrc2 = I.VSrc2.Id;
    D.Kernel = selectKernel(I.VectorOp, I.ElemSize);
    break;
  case VOpcode::VCmp:
    D.Kind = DKind::BinOp;
    D.VDst = I.VDst.Id;
    D.VSrc1 = I.VSrc1.Id;
    D.VSrc2 = I.VSrc2.Id;
    D.Kernel = selectCmpKernel(I.CmpOp, I.ElemSize);
    break;
  case VOpcode::VSelect:
    D.Kind = DKind::Select;
    D.VDst = I.VDst.Id;
    D.VSrc1 = I.VSrc1.Id;
    D.VSrc2 = I.VSrc2.Id;
    D.VSrc3 = I.VSrc3.Id;
    break;
  case VOpcode::VCopy:
    D.Kind = DKind::Copy;
    D.VDst = I.VDst.Id;
    D.VSrc1 = I.VSrc1.Id;
    break;
  case VOpcode::SConst:
    D.Kind = DKind::SSet;
    D.SDst = I.SDst.Id;
    D.Imm = I.Imm;
    break;
  case VOpcode::SBase:
    // The whole point of decoding: the base address is a constant of the
    // (program, layout) pair.
    D.Kind = DKind::SSet;
    D.SDst = I.SDst.Id;
    D.Imm = Layout.baseOf(I.Addr.Base);
    break;
  case VOpcode::SBinOp:
    D.Kind = DKind::SBinOp;
    D.SDst = I.SDst.Id;
    D.SOp1 = slotOf(I.SOp1);
    D.SOp2 = slotOf(I.SOp2);
    D.ScalarOp = I.ScalarOp;
    break;
  case VOpcode::SCmp:
    D.Kind = DKind::SCmp;
    D.SDst = I.SDst.Id;
    D.SOp1 = slotOf(I.SOp1);
    D.SOp2 = slotOf(I.SOp2);
    D.CmpOp = I.CmpOp;
    break;
  }
  return D;
}

void DecodedProgram::decodeBlock(const Block &B, const MemoryLayout &Layout,
                                 DBlock &Out) {
  Out.reserve(B.size());
  for (const VInst &I : B)
    Out.push_back(decodeInst(I, Layout));
}

DecodedProgram::DecodedProgram(const VProgram &P, const MemoryLayout &Layout)
    : VectorLen(P.getVectorLen()), NumVRegs(P.getNumVRegs()),
      NumSlots(P.getNumSRegs()), IndexSlot(P.getIndexReg().Id),
      LoopStep(P.getLoopStep()) {
  assert(P.getVectorLen() <= MaxVectorLen && "vector register too wide");
  assert(Layout.getVectorLen() == P.getVectorLen() &&
         "layout built for a different vector length");

  // Function-argument bindings (they cost nothing, as in the reference).
  if (P.hasTripCountParam())
    InitialBindings.emplace_back(P.getTripCountParam().Id,
                                 P.getTripCountValue());
  for (auto [Reg, Value] : P.getScalarParams())
    InitialBindings.emplace_back(Reg.Id, Value);

  decodeBlock(P.getSetup(), Layout, Setup);
  decodeBlock(P.getBody(), Layout, Body);
  decodeBlock(P.getEpilogue(), Layout, Epilogue);
  for (const DInst &D : Body)
    charge(BodyCounts, D.Category);

  LBSlot = slotOf(P.getLowerBound());
  UBSlot = slotOf(P.getUpperBound());
}

//===----------------------------------------------------------------------===//
// Execution
//===----------------------------------------------------------------------===//

namespace simdize {
namespace sim {

/// One run of a decoded program. Count selects per-instruction accounting
/// (the one-shot setup and epilogue, where predicated instructions live);
/// Track selects the per-chunk load and store counts. Both are template
/// parameters so the steady-state fast path carries neither.
class DecodedRunner {
public:
  DecodedRunner(const DecodedProgram &DP, Memory &Mem)
      : DP(DP), Mem(Mem), VRegs(DP.NumVRegs), SRegs(DP.NumSlots, 0),
        ChunkShift(static_cast<unsigned>(std::countr_zero(DP.VectorLen))) {}

  ExecStats run(const ExecOptions &Opts) {
    Stats.Counts.CallRet = 2; // One call + return per program (Sec. 5.3).

    if (Opts.TrackChunkLoads) {
      const size_t Chunks = static_cast<size_t>(Mem.size() >> ChunkShift);
      Stats.ChunkLoads.assign(Chunks, 0);
      Stats.ChunkStores.assign(Chunks, 0);
    }

    for (auto [Slot, Value] : DP.InitialBindings)
      SRegs[Slot] = Value;

    if (Opts.TrackChunkLoads)
      runBlocks<true>();
    else
      runBlocks<false>();
    return std::move(Stats);
  }

private:
  template <bool Track> void runBlocks() {
    execBlock<true, Track>(DP.Setup);

    int64_t I = SRegs[DP.LBSlot];
    const int64_t UB = SRegs[DP.UBSlot];
    const int64_t Step = DP.LoopStep;
    int64_t Iters = 0;
    // Accounting batched: the verified body is unpredicated, so one
    // multiply below replaces two counter updates per executed
    // instruction.
    for (; I < UB; I += Step) {
      SRegs[DP.IndexSlot] = I;
      execBlock<false, Track>(DP.Body);
      ++Iters;
    }
    Stats.Counts.addScaled(DP.BodyCounts, Iters);
    Stats.SteadyIterations = Iters;
    Stats.Counts.LoopCtl += 2 * Iters; // Counter update + branch.

    // The epilogue sees the first unexecuted counter value.
    SRegs[DP.IndexSlot] = I;
    execBlock<true, Track>(DP.Epilogue);
  }

  template <bool Count, bool Track> void execBlock(const DBlock &B) {
    const int64_t V = DP.VectorLen;
    for (const DInst &I : B) {
      if (I.Pred >= 0 && SRegs[static_cast<uint32_t>(I.Pred)] == 0)
        continue;
      if constexpr (Count)
        charge(Stats.Counts, I.Category);

      switch (I.Kind) {
      case DKind::Load: {
        int64_t Chunk =
            alignDown(I.AddrBase + SRegs[I.Idx] * I.Scale, V);
        assert(Chunk >= 0 && Chunk + V <= Mem.size() &&
               "vload out of bounds");
        std::memcpy(VRegs[I.VDst].data(), Mem.data() + Chunk,
                    static_cast<size_t>(V));
        if constexpr (Track)
          ++Stats.ChunkLoads[static_cast<size_t>(Chunk >> ChunkShift)];
        break;
      }
      case DKind::Store: {
        int64_t Chunk =
            alignDown(I.AddrBase + SRegs[I.Idx] * I.Scale, V);
        assert(Chunk >= 0 && Chunk + V <= Mem.size() &&
               "vstore out of bounds");
        std::memcpy(Mem.data() + Chunk, VRegs[I.VSrc1].data(),
                    static_cast<size_t>(V));
        if constexpr (Track)
          ++Stats.ChunkStores[static_cast<size_t>(Chunk >> ChunkShift)];
        break;
      }
      case DKind::Splat: {
        int64_t Value = SRegs[I.SOp1];
        VectorValue &Dst = VRegs[I.VDst];
        for (int64_t Byte = 0; Byte < V; ++Byte)
          Dst[static_cast<size_t>(Byte)] = static_cast<uint8_t>(
              static_cast<uint64_t>(Value) >> (8 * (Byte % I.ElemSize)));
        break;
      }
      case DKind::ShiftPair: {
        int64_t Shift = SRegs[I.SOp1];
        assert(Shift >= 0 && Shift <= V &&
               "vshiftpair amount outside [0, V]");
        uint8_t Concat[2 * MaxVectorLen];
        std::memcpy(Concat, VRegs[I.VSrc1].data(), static_cast<size_t>(V));
        std::memcpy(Concat + V, VRegs[I.VSrc2].data(),
                    static_cast<size_t>(V));
        std::memcpy(VRegs[I.VDst].data(), Concat + Shift,
                    static_cast<size_t>(V));
        break;
      }
      case DKind::Splice: {
        int64_t Point = SRegs[I.SOp1];
        assert(Point >= 0 && Point <= V && "vsplice point outside [0, V]");
        VectorValue Out = VRegs[I.VSrc2];
        std::memcpy(Out.data(), VRegs[I.VSrc1].data(),
                    static_cast<size_t>(Point));
        VRegs[I.VDst] = Out;
        break;
      }
      case DKind::BinOp:
        I.Kernel(VRegs[I.VDst].data(), VRegs[I.VSrc1].data(),
                 VRegs[I.VSrc2].data(), DP.VectorLen);
        break;
      case DKind::Select: {
        const VectorValue &Mask = VRegs[I.VSrc1];
        const VectorValue &IfSet = VRegs[I.VSrc2];
        const VectorValue &IfClear = VRegs[I.VSrc3];
        VectorValue Out;
        for (int64_t Byte = 0; Byte < V; ++Byte) {
          size_t Idx = static_cast<size_t>(Byte);
          Out[Idx] = static_cast<uint8_t>((IfSet[Idx] & Mask[Idx]) |
                                          (IfClear[Idx] & ~Mask[Idx]));
        }
        VRegs[I.VDst] = Out;
        break;
      }
      case DKind::Copy:
        VRegs[I.VDst] = VRegs[I.VSrc1];
        break;
      case DKind::SSet:
        SRegs[I.SDst] = I.Imm;
        break;
      case DKind::SBinOp: {
        int64_t LHS = SRegs[I.SOp1];
        int64_t RHS = SRegs[I.SOp2];
        switch (I.ScalarOp) {
        case SBinOpKind::Add:
          SRegs[I.SDst] = LHS + RHS;
          break;
        case SBinOpKind::Sub:
          SRegs[I.SDst] = LHS - RHS;
          break;
        case SBinOpKind::Mul:
          SRegs[I.SDst] = LHS * RHS;
          break;
        case SBinOpKind::And:
          SRegs[I.SDst] = LHS & RHS;
          break;
        case SBinOpKind::Mod:
          assert(RHS > 0 && "mod by non-positive value");
          SRegs[I.SDst] = nonNegMod(LHS, RHS);
          break;
        }
        break;
      }
      case DKind::SCmp: {
        int64_t LHS = SRegs[I.SOp1];
        int64_t RHS = SRegs[I.SOp2];
        bool Res = false;
        switch (I.CmpOp) {
        case SCmpKind::LT:
          Res = LHS < RHS;
          break;
        case SCmpKind::LE:
          Res = LHS <= RHS;
          break;
        case SCmpKind::GT:
          Res = LHS > RHS;
          break;
        case SCmpKind::GE:
          Res = LHS >= RHS;
          break;
        case SCmpKind::EQ:
          Res = LHS == RHS;
          break;
        case SCmpKind::NE:
          Res = LHS != RHS;
          break;
        }
        SRegs[I.SDst] = Res ? 1 : 0;
        break;
      }
      }
    }
  }

  const DecodedProgram &DP;
  Memory &Mem;
  std::vector<VectorValue> VRegs;
  std::vector<int64_t> SRegs;
  /// log2(V): a chunk's counter index is its byte address >> ChunkShift.
  const unsigned ChunkShift;
  ExecStats Stats;
};

} // namespace sim
} // namespace simdize

ExecStats sim::runDecoded(const DecodedProgram &DP, Memory &Mem,
                          const ExecOptions &Opts) {
  return DecodedRunner(DP, Mem).run(Opts);
}
