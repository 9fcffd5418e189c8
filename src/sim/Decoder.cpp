//===- sim/Decoder.cpp ----------------------------------------------------===//
//
// Part of the simdize project (PLDI 2004 alignment-constrained simdization).
//
//===----------------------------------------------------------------------===//

#include "sim/Decoder.h"

#include "ir/Array.h"
#include "native/simdize_vm_ops.h"
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

/// Row \p Op of simdize_vm_ops.h at ElemSize-byte lanes.
template <typename Op> BinOpKernel laneKernel(unsigned ElemSize) {
  switch (ElemSize) {
  case 1:
    return simdize_vm::lanes<Op, 1>;
  case 2:
    return simdize_vm::lanes<Op, 2>;
  case 4:
    return simdize_vm::lanes<Op, 4>;
  }
  simdize_unreachable("unsupported lane width");
}

/// The kernel of a vbinop. The rows generate the cases, so -Wswitch
/// proves every enumerator has a row.
BinOpKernel kernelFor(ir::BinOpKind Kind, unsigned ElemSize) {
  switch (Kind) {
#define SIMDIZE_DECODER_CASE(KIND, NAME, SIGN, EXPR)                         \
  case ir::BinOpKind::KIND:                                                  \
    return laneKernel<simdize_vm::NAME>(ElemSize);
    SIMDIZE_VM_BINOPS(SIMDIZE_DECODER_CASE)
#undef SIMDIZE_DECODER_CASE
  }
  simdize_unreachable("unknown vector binop kind");
}

/// A vcmp is a lane kernel whose lanes are all-ones / all-zeros masks.
BinOpKernel kernelFor(vir::SCmpKind Kind, unsigned ElemSize) {
  switch (Kind) {
#define SIMDIZE_DECODER_CASE(KIND, NAME, SIGN, EXPR)                         \
  case vir::SCmpKind::KIND:                                                  \
    return laneKernel<simdize_vm::NAME>(ElemSize);
    SIMDIZE_VM_CMPS(SIMDIZE_DECODER_CASE)
#undef SIMDIZE_DECODER_CASE
  }
  simdize_unreachable("unknown vector compare kind");
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
  const OpcodeInfo &Row = opcodeInfo(I.Op);
  DInst D;
  D.Category = Row.Category;
  if (I.Predicate)
    D.Pred = static_cast<int32_t>(I.Predicate->Id);
  if (I.definesVector())
    D.VDst = I.VDst.Id;
  if (I.definesScalar())
    D.SDst = I.SDst.Id;
  uint32_t *const VSrcs[] = {&D.VSrc1, &D.VSrc2, &D.VSrc3};
  unsigned K = 0;
  forEachVectorUse(I, [&](VRegId R) { *VSrcs[K++] = R.Id; });
  if (Row.ReadsIndex) {
    // A memory access: base, element offset and a constant index fold
    // into AddrBase.
    const Address &A = I.Addr;
    D.Scale = A.Base->getElemSize();
    D.AddrBase = Layout.baseOf(A.Base) +
                 (A.ElemOffset + (A.Index ? 0 : A.ConstIndex)) * D.Scale;
    D.Idx = A.Index ? A.Index->Id : constSlot(0);
  }
  if (Row.ReadsSOp1)
    D.SOp1 = slotOf(I.SOp1);
  if (Row.ReadsSOp2)
    D.SOp2 = slotOf(I.SOp2);

  switch (I.Op) {
  case VOpcode::VLoad:
    D.Kind = DKind::Load;
    break;
  case VOpcode::VStore:
    D.Kind = DKind::Store;
    break;
  case VOpcode::VSplat:
    D.Kind = DKind::Splat;
    D.ElemSize = static_cast<uint8_t>(I.ElemSize);
    break;
  case VOpcode::VShiftPair:
    D.Kind = DKind::ShiftPair;
    break;
  case VOpcode::VSplice:
    D.Kind = DKind::Splice;
    break;
  case VOpcode::VBinOp:
    D.Kind = DKind::BinOp;
    D.Kernel = kernelFor(I.VectorOp, I.ElemSize);
    break;
  case VOpcode::VCmp:
    D.Kind = DKind::BinOp;
    D.Kernel = kernelFor(I.CmpOp, I.ElemSize);
    break;
  case VOpcode::VSelect:
    D.Kind = DKind::Select;
    break;
  case VOpcode::VCopy:
    D.Kind = DKind::Copy;
    break;
  case VOpcode::SConst:
    D.Kind = DKind::SSet;
    D.Imm = I.Imm;
    break;
  case VOpcode::SBase:
    // The whole point of decoding: the base address is a constant of the
    // (program, layout) pair.
    D.Kind = DKind::SSet;
    D.Imm = Layout.baseOf(I.Addr.Base);
    break;
  case VOpcode::SBinOp:
    D.Kind = DKind::SBinOp;
    D.ScalarOp = I.ScalarOp;
    break;
  case VOpcode::SCmp:
    D.Kind = DKind::SCmp;
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
      case DKind::Splat:
        simdize_vm::splat(VRegs[I.VDst].data(), SRegs[I.SOp1], I.ElemSize,
                          DP.VectorLen);
        break;
      case DKind::ShiftPair: {
        int64_t Shift = SRegs[I.SOp1];
        assert(Shift >= 0 && Shift <= V &&
               "vshiftpair amount outside [0, V]");
        VectorValue Out;
        simdize_vm::vshiftpair(Out.data(), VRegs[I.VSrc1].data(),
                               VRegs[I.VSrc2].data(),
                               static_cast<unsigned>(Shift), DP.VectorLen);
        VRegs[I.VDst] = Out;
        break;
      }
      case DKind::Splice: {
        int64_t Point = SRegs[I.SOp1];
        assert(Point >= 0 && Point <= V && "vsplice point outside [0, V]");
        simdize_vm::vsplice(VRegs[I.VDst].data(), VRegs[I.VSrc1].data(),
                            VRegs[I.VSrc2].data(),
                            static_cast<unsigned>(Point), DP.VectorLen);
        break;
      }
      case DKind::BinOp:
        I.Kernel(VRegs[I.VDst].data(), VRegs[I.VSrc1].data(),
                 VRegs[I.VSrc2].data(), DP.VectorLen);
        break;
      case DKind::Select:
        simdize_vm::vselect(VRegs[I.VDst].data(), VRegs[I.VSrc1].data(),
                            VRegs[I.VSrc2].data(), VRegs[I.VSrc3].data(),
                            DP.VectorLen);
        break;
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
