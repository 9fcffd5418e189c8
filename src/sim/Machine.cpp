//===- sim/Machine.cpp ----------------------------------------------------===//
//
// Part of the simdize project (PLDI 2004 alignment-constrained simdization).
//
//===----------------------------------------------------------------------===//

#include "sim/Machine.h"

#include "ir/Array.h"
#include "sim/Memory.h"
#include "simdize/Target.h"
#include "support/Debug.h"
#include "support/MathExtras.h"

#include <array>
#include <cstring>
#include <vector>

using namespace simdize;
using namespace simdize::sim;
using namespace simdize::vir;

OpCounts &OpCounts::operator+=(const OpCounts &O) {
  Loads += O.Loads;
  Stores += O.Stores;
  Reorg += O.Reorg;
  Compute += O.Compute;
  Copies += O.Copies;
  Scalar += O.Scalar;
  LoopCtl += O.LoopCtl;
  CallRet += O.CallRet;
  return *this;
}

OpCounts &OpCounts::addScaled(const OpCounts &O, int64_t N) {
  Loads += O.Loads * N;
  Stores += O.Stores * N;
  Reorg += O.Reorg * N;
  Compute += O.Compute * N;
  Copies += O.Copies * N;
  Scalar += O.Scalar * N;
  LoopCtl += O.LoopCtl * N;
  CallRet += O.CallRet * N;
  return *this;
}

namespace {

constexpr unsigned MaxVectorLen = Target::MaxVectorLen;

/// One vector register, sized for the widest supported target; programs
/// execute over their own V <= MaxVectorLen bytes of it.
using VectorValue = std::array<uint8_t, MaxVectorLen>;

/// Interpreter state for one program run.
class MachineState {
public:
  MachineState(const VProgram &P, const MemoryLayout &Layout, Memory &Mem)
      : P(P), Layout(Layout), Mem(Mem), VRegs(P.getNumVRegs()),
        SRegs(P.getNumSRegs(), 0) {
    assert(P.getVectorLen() <= MaxVectorLen && "vector register too wide");
  }

  ExecStats run() {
    Stats.Counts.CallRet = 2; // One call + return per program (Sec. 5.3).

    // Bind the trip-count and scalar parameters (function arguments;
    // they cost nothing).
    if (P.hasTripCountParam())
      SRegs[P.getTripCountParam().Id] = P.getTripCountValue();
    for (auto [Reg, Value] : P.getScalarParams())
      SRegs[Reg.Id] = Value;

    // The reference engine always maintains the per-chunk load and store
    // counts; the decoded engine's optional tracking is differentially
    // tested against them.
    const size_t Chunks = static_cast<size_t>(Mem.size() / P.getVectorLen());
    Stats.ChunkLoads.assign(Chunks, 0);
    Stats.ChunkStores.assign(Chunks, 0);

    execBlock(P.getSetup());

    int64_t I = evalOperand(P.getLowerBound());
    int64_t UB = evalOperand(P.getUpperBound());
    int64_t Step = P.getLoopStep();
    for (; I < UB; I += Step) {
      SRegs[P.getIndexReg().Id] = I;
      execBlock(P.getBody());
      Stats.Counts.LoopCtl += 2; // Counter update + branch.
      ++Stats.SteadyIterations;
    }
    // The epilogue sees the first unexecuted counter value.
    SRegs[P.getIndexReg().Id] = I;

    execBlock(P.getEpilogue());
    return std::move(Stats);
  }

private:
  void execBlock(const Block &B) {
    for (const VInst &I : B)
      execInst(I);
  }

  int64_t evalOperand(const ScalarOperand &Op) const {
    return Op.IsReg ? SRegs[Op.Reg.Id] : Op.Imm;
  }

  /// Effective byte address of \p A (before truncation).
  int64_t evalAddr(const Address &A) const {
    int64_t Index = A.Index ? SRegs[A.Index->Id] : A.ConstIndex;
    return Layout.baseOf(A.Base) +
           (Index + A.ElemOffset) *
               static_cast<int64_t>(A.Base->getElemSize());
  }

  void execInst(const VInst &I) {
    if (I.Predicate && SRegs[I.Predicate->Id] == 0)
      return;

    // Charge the instruction to its bucket.
    switch (I.category()) {
    case OpCategory::Load:
      ++Stats.Counts.Loads;
      break;
    case OpCategory::Store:
      ++Stats.Counts.Stores;
      break;
    case OpCategory::Reorg:
      ++Stats.Counts.Reorg;
      break;
    case OpCategory::Compute:
      ++Stats.Counts.Compute;
      break;
    case OpCategory::Copy:
      ++Stats.Counts.Copies;
      break;
    case OpCategory::Scalar:
      ++Stats.Counts.Scalar;
      break;
    }

    const int64_t V = P.getVectorLen();
    switch (I.Op) {
    case VOpcode::VLoad: {
      int64_t Chunk = alignDown(evalAddr(I.Addr), V);
      assert(Chunk >= 0 && Chunk + V <= Mem.size() && "vload out of bounds");
      std::memcpy(VRegs[I.VDst.Id].data(), Mem.data() + Chunk,
                  static_cast<size_t>(V));
      ++Stats.ChunkLoads[static_cast<size_t>(Chunk / V)];
      break;
    }
    case VOpcode::VStore: {
      int64_t Chunk = alignDown(evalAddr(I.Addr), V);
      assert(Chunk >= 0 && Chunk + V <= Mem.size() && "vstore out of bounds");
      std::memcpy(Mem.data() + Chunk, VRegs[I.VSrc1.Id].data(),
                  static_cast<size_t>(V));
      ++Stats.ChunkStores[static_cast<size_t>(Chunk / V)];
      break;
    }
    case VOpcode::VSplat: {
      int64_t Value = evalOperand(I.SOp1);
      VectorValue &Dst = VRegs[I.VDst.Id];
      for (int64_t Byte = 0; Byte < V; ++Byte)
        Dst[static_cast<size_t>(Byte)] = static_cast<uint8_t>(
            static_cast<uint64_t>(Value) >> (8 * (Byte % I.ElemSize)));
      break;
    }
    case VOpcode::VShiftPair: {
      int64_t Shift = evalOperand(I.SOp1);
      assert(Shift >= 0 && Shift <= V && "vshiftpair amount outside [0, V]");
      uint8_t Concat[2 * MaxVectorLen];
      std::memcpy(Concat, VRegs[I.VSrc1.Id].data(), static_cast<size_t>(V));
      std::memcpy(Concat + V, VRegs[I.VSrc2.Id].data(),
                  static_cast<size_t>(V));
      std::memcpy(VRegs[I.VDst.Id].data(), Concat + Shift,
                  static_cast<size_t>(V));
      break;
    }
    case VOpcode::VSplice: {
      int64_t Point = evalOperand(I.SOp1);
      assert(Point >= 0 && Point <= V && "vsplice point outside [0, V]");
      VectorValue Out = VRegs[I.VSrc2.Id];
      std::memcpy(Out.data(), VRegs[I.VSrc1.Id].data(),
                  static_cast<size_t>(Point));
      VRegs[I.VDst.Id] = Out;
      break;
    }
    case VOpcode::VBinOp: {
      const VectorValue &A = VRegs[I.VSrc1.Id];
      const VectorValue &B = VRegs[I.VSrc2.Id];
      VectorValue Out;
      unsigned D = I.ElemSize;
      for (unsigned Lane = 0; Lane < V / D; ++Lane) {
        uint64_t LHS = 0, RHS = 0;
        for (unsigned K = 0; K < D; ++K) {
          LHS |= static_cast<uint64_t>(A[Lane * D + K]) << (8 * K);
          RHS |= static_cast<uint64_t>(B[Lane * D + K]) << (8 * K);
        }
        // Sign-extended lane values for the ordered operations.
        unsigned SignShift = 64 - 8 * D;
        int64_t SLHS =
            static_cast<int64_t>(LHS << SignShift) >> SignShift;
        int64_t SRHS =
            static_cast<int64_t>(RHS << SignShift) >> SignShift;
        uint64_t Res = 0;
        switch (I.VectorOp) {
        case ir::BinOpKind::Add:
          Res = LHS + RHS;
          break;
        case ir::BinOpKind::Sub:
          Res = LHS - RHS;
          break;
        case ir::BinOpKind::Mul:
          Res = LHS * RHS;
          break;
        case ir::BinOpKind::Min:
          Res = static_cast<uint64_t>(SLHS < SRHS ? SLHS : SRHS);
          break;
        case ir::BinOpKind::Max:
          Res = static_cast<uint64_t>(SLHS > SRHS ? SLHS : SRHS);
          break;
        case ir::BinOpKind::And:
          Res = LHS & RHS;
          break;
        case ir::BinOpKind::Or:
          Res = LHS | RHS;
          break;
        case ir::BinOpKind::Xor:
          Res = LHS ^ RHS;
          break;
        }
        for (unsigned K = 0; K < D; ++K)
          Out[Lane * D + K] = static_cast<uint8_t>(Res >> (8 * K));
      }
      VRegs[I.VDst.Id] = Out;
      break;
    }
    case VOpcode::VCmp: {
      const VectorValue &A = VRegs[I.VSrc1.Id];
      const VectorValue &B = VRegs[I.VSrc2.Id];
      VectorValue Out;
      unsigned D = I.ElemSize;
      for (unsigned Lane = 0; Lane < V / D; ++Lane) {
        uint64_t LHS = 0, RHS = 0;
        for (unsigned K = 0; K < D; ++K) {
          LHS |= static_cast<uint64_t>(A[Lane * D + K]) << (8 * K);
          RHS |= static_cast<uint64_t>(B[Lane * D + K]) << (8 * K);
        }
        unsigned SignShift = 64 - 8 * D;
        int64_t SLHS = static_cast<int64_t>(LHS << SignShift) >> SignShift;
        int64_t SRHS = static_cast<int64_t>(RHS << SignShift) >> SignShift;
        bool Res = false;
        switch (I.CmpOp) {
        case SCmpKind::LT:
          Res = SLHS < SRHS;
          break;
        case SCmpKind::LE:
          Res = SLHS <= SRHS;
          break;
        case SCmpKind::GT:
          Res = SLHS > SRHS;
          break;
        case SCmpKind::GE:
          Res = SLHS >= SRHS;
          break;
        case SCmpKind::EQ:
          Res = SLHS == SRHS;
          break;
        case SCmpKind::NE:
          Res = SLHS != SRHS;
          break;
        }
        for (unsigned K = 0; K < D; ++K)
          Out[Lane * D + K] = Res ? 0xff : 0x00;
      }
      VRegs[I.VDst.Id] = Out;
      break;
    }
    case VOpcode::VSelect: {
      const VectorValue &Mask = VRegs[I.VSrc1.Id];
      const VectorValue &IfSet = VRegs[I.VSrc2.Id];
      const VectorValue &IfClear = VRegs[I.VSrc3.Id];
      VectorValue Out;
      for (int64_t Byte = 0; Byte < V; ++Byte) {
        size_t Idx = static_cast<size_t>(Byte);
        Out[Idx] = static_cast<uint8_t>((IfSet[Idx] & Mask[Idx]) |
                                        (IfClear[Idx] & ~Mask[Idx]));
      }
      VRegs[I.VDst.Id] = Out;
      break;
    }
    case VOpcode::VCopy:
      VRegs[I.VDst.Id] = VRegs[I.VSrc1.Id];
      break;
    case VOpcode::SConst:
      SRegs[I.SDst.Id] = I.Imm;
      break;
    case VOpcode::SBase:
      SRegs[I.SDst.Id] = Layout.baseOf(I.Addr.Base);
      break;
    case VOpcode::SBinOp: {
      int64_t LHS = evalOperand(I.SOp1);
      int64_t RHS = evalOperand(I.SOp2);
      switch (I.ScalarOp) {
      case SBinOpKind::Add:
        SRegs[I.SDst.Id] = LHS + RHS;
        break;
      case SBinOpKind::Sub:
        SRegs[I.SDst.Id] = LHS - RHS;
        break;
      case SBinOpKind::Mul:
        SRegs[I.SDst.Id] = LHS * RHS;
        break;
      case SBinOpKind::And:
        SRegs[I.SDst.Id] = LHS & RHS;
        break;
      case SBinOpKind::Mod:
        assert(RHS > 0 && "mod by non-positive value");
        SRegs[I.SDst.Id] = nonNegMod(LHS, RHS);
        break;
      }
      break;
    }
    case VOpcode::SCmp: {
      int64_t LHS = evalOperand(I.SOp1);
      int64_t RHS = evalOperand(I.SOp2);
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
      SRegs[I.SDst.Id] = Res ? 1 : 0;
      break;
    }
    }
  }

  const VProgram &P;
  const MemoryLayout &Layout;
  Memory &Mem;
  std::vector<VectorValue> VRegs;
  std::vector<int64_t> SRegs;
  ExecStats Stats;
};

} // namespace

ExecStats sim::runProgram(const VProgram &P, const MemoryLayout &Layout,
                          Memory &Mem) {
  return MachineState(P, Layout, Mem).run();
}
