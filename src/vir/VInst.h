//===- vir/VInst.h - Instructions of the vector IR -----------------------===//
//
// Part of the simdize project (PLDI 2004 alignment-constrained simdization).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The target-machine instruction set of Section 2: truncating vector
/// loads/stores, element-wise arithmetic, and the three generic data
/// reorganization operations (vsplat, vshiftpair, vsplice) that map onto
/// AltiVec's vec_splat / vec_perm / vec_sel. A small scalar instruction set
/// carries runtime-alignment and runtime-bound computations (Section 4.4).
///
/// Instructions are a flat struct (MachineInstr-style). One row per opcode,
/// SIMDIZE_VIR_OPCODES below, says which of its fields an instruction
/// reads and writes; the passes, the verifier and the decoded engine walk
/// operands through that row (forEachVectorUse, forEachScalarUse), and
/// each factory fills exactly the fields its row names. VVerifier checks
/// def-before-use from the rows plus a few per-opcode ranges.
///
//===----------------------------------------------------------------------===//

#ifndef SIMDIZE_VIR_VINST_H
#define SIMDIZE_VIR_VINST_H

#include "ir/Expr.h"
#include "vir/VReg.h"

#include <cstdint>
#include <optional>
#include <type_traits>

namespace simdize {
namespace vir {

/// Scalar ALU operations.
enum class SBinOpKind { Add, Sub, Mul, And, Mod };

/// Scalar comparisons (producing 0/1 for use as predicates).
enum class SCmpKind { LT, LE, GT, GE, EQ, NE };

/// Cost/measurement category of an instruction; the evaluation (Section 5)
/// splits operations per datum into these buckets.
enum class OpCategory {
  Load,
  Store,
  Reorg,   ///< vshiftpair / vsplice / vsplat
  Compute, ///< vector arithmetic
  Copy,    ///< register copies introduced by software pipelining
  Scalar,  ///< address / alignment / bound computation, predicates
};

/// The kind of register an instruction writes.
enum class DefKind { None, Vector, Scalar };

/// The instruction set, one row per opcode:
///
///   ROW(NAME, CATEGORY, DEFINES, VSRCS, INDEX, SOP1, SOP2)
///
///   NAME      its VOpcode enumerator; VOpcode is generated from the rows,
///             so there is no opcode without one;
///   CATEGORY  its OpCategory;
///   DEFINES   the DefKind it writes: VDst (Vector), SDst (Scalar) or None;
///   VSRCS     how many vector registers it reads: VSrc1 up to VSrc<N>;
///   INDEX     1 if it reads Addr.Index, which a constant address lacks;
///   SOP1      1 if it reads SOp1, a register unless it is an immediate;
///   SOP2      1 if it reads SOp2, likewise.
///
/// Every instruction also reads its Predicate when one is set. What each
/// opcode computes:
///
///   VLoad       VDst = the V aligned bytes at Addr
///   VStore      the V aligned bytes at Addr = VSrc1
///   VSplat      VDst = SOp1 replicated across ElemSize lanes
///   VShiftPair  VDst = bytes [S, S+V) of VSrc1 ++ VSrc2, S = SOp1 in
///               [0, V]; S == V selects VSrc2 whole (vec_perm indices
///               wrap mod 2V, which runtime right-shifts by V - offset
///               rely on)
///   VSplice     VDst = first S bytes of VSrc1, last V-S of VSrc2, S = SOp1
///   VBinOp      VDst = VSrc1 <VectorOp> VSrc2, element-wise on ElemSize
///   VCmp        VDst = per-lane VSrc1 <CmpOp> VSrc2 ? all-ones : zero
///               (signed, ElemSize lanes; the if-conversion mask)
///   VSelect     VDst = bytewise (VSrc2 & VSrc1) | (VSrc3 & ~VSrc1);
///               VSrc1 is a lane mask, VSrc2 taken lanes, VSrc3 untaken
///   VCopy       VDst = VSrc1 (software-pipelining carries, Section 4.5)
///   SConst      SDst = Imm
///   SBase       SDst = runtime byte address of Addr.Base
///   SBinOp      SDst = SOp1 <ScalarOp> SOp2
///   SCmp        SDst = SOp1 <CmpOp> SOp2 ? 1 : 0
#define SIMDIZE_VIR_OPCODES(ROW)                                             \
  /* Vector memory (addresses truncated to V-byte boundaries). */            \
  ROW(VLoad, Load, Vector, 0, 1, 0, 0)                                       \
  ROW(VStore, Store, None, 1, 1, 0, 0)                                       \
  /* Vector data reorganization (Section 2.2). */                            \
  ROW(VSplat, Reorg, Vector, 0, 0, 1, 0)                                     \
  ROW(VShiftPair, Reorg, Vector, 2, 0, 1, 0)                                 \
  ROW(VSplice, Reorg, Vector, 2, 0, 1, 0)                                    \
  /* Vector compute. */                                                      \
  ROW(VBinOp, Compute, Vector, 2, 0, 0, 0)                                   \
  ROW(VCmp, Compute, Vector, 2, 0, 0, 0)                                     \
  ROW(VSelect, Compute, Vector, 3, 0, 0, 0)                                  \
  ROW(VCopy, Copy, Vector, 1, 0, 0, 0)                                       \
  /* Scalar support (Section 4.4). */                                        \
  ROW(SConst, Scalar, Scalar, 0, 0, 0, 0)                                    \
  ROW(SBase, Scalar, Scalar, 0, 0, 0, 0)                                     \
  ROW(SBinOp, Scalar, Scalar, 0, 0, 1, 1)                                    \
  ROW(SCmp, Scalar, Scalar, 0, 0, 1, 1)

/// Opcodes of the vector IR, in row order.
enum class VOpcode {
#define SIMDIZE_VIR_ENUMERATOR(NAME, ...) NAME,
  SIMDIZE_VIR_OPCODES(SIMDIZE_VIR_ENUMERATOR)
#undef SIMDIZE_VIR_ENUMERATOR
};

/// One row of SIMDIZE_VIR_OPCODES.
struct OpcodeInfo {
  OpCategory Category;
  DefKind Defines;
  unsigned VectorUses;
  bool ReadsIndex;
  bool ReadsSOp1;
  bool ReadsSOp2;
};

/// The rows, indexed by VOpcode.
inline constexpr OpcodeInfo OpcodeTable[] = {
#define SIMDIZE_VIR_INFO(NAME, CATEGORY, DEFINES, VSRCS, INDEX, SOP1, SOP2)  \
  {OpCategory::CATEGORY, DefKind::DEFINES, VSRCS, INDEX, SOP1, SOP2},
    SIMDIZE_VIR_OPCODES(SIMDIZE_VIR_INFO)
#undef SIMDIZE_VIR_INFO
};

static_assert(
    [] {
      for (const OpcodeInfo &Row : OpcodeTable)
        if (Row.VectorUses > 3)
          return false;
      return true;
    }(),
    "an instruction has three vector sources, VSrc1..VSrc3");

/// The row of \p Op.
constexpr const OpcodeInfo &opcodeInfo(VOpcode Op) {
  return OpcodeTable[static_cast<unsigned>(Op)];
}

/// One vector-IR instruction.
struct VInst {
  VOpcode Op = VOpcode::VCopy;

  VRegId VDst;
  VRegId VSrc1;
  VRegId VSrc2;
  VRegId VSrc3; ///< VSelect's untaken-lane input only.

  SRegId SDst;
  ScalarOperand SOp1; ///< Shift amount / splice point / scalar lhs.
  ScalarOperand SOp2; ///< Scalar rhs.

  Address Addr;                     ///< VLoad / VStore / SBase.
  ir::BinOpKind VectorOp = ir::BinOpKind::Add;
  SBinOpKind ScalarOp = SBinOpKind::Add;
  SCmpKind CmpOp = SCmpKind::EQ;
  int64_t Imm = 0;                  ///< SConst payload.
  unsigned ElemSize = 4;            ///< Lane width for VSplat / VBinOp.

  /// When set, the instruction executes only if the register is nonzero
  /// (used by the runtime-bound epilogue, Section 4.4).
  std::optional<SRegId> Predicate;

  /// Annotation carried into the printers: a string literal, followed by
  /// the name of CommentArray or CommentParam when one is set. Pointers,
  /// like Addr.Base, keep the instruction trivially copyable.
  const char *Comment = nullptr;
  const ir::Array *CommentArray = nullptr;
  const ir::Param *CommentParam = nullptr;

  /// Field-wise equality, comments and array pointers included: equal
  /// instructions print the same and execute the same.
  bool operator==(const VInst &) const = default;

  /// \name Factories
  /// @{
  static VInst makeVLoad(VRegId Dst, Address A);
  static VInst makeVStore(Address A, VRegId Src);
  static VInst makeVSplat(VRegId Dst, int64_t Value, unsigned ElemSize);
  static VInst makeVSplatReg(VRegId Dst, SRegId Value, unsigned ElemSize);
  static VInst makeVShiftPair(VRegId Dst, VRegId Src1, VRegId Src2,
                              ScalarOperand Shift);
  static VInst makeVSplice(VRegId Dst, VRegId Src1, VRegId Src2,
                           ScalarOperand Point);
  static VInst makeVBinOp(ir::BinOpKind Kind, VRegId Dst, VRegId Src1,
                          VRegId Src2, unsigned ElemSize);
  static VInst makeVCmp(SCmpKind Kind, VRegId Dst, VRegId Src1, VRegId Src2,
                        unsigned ElemSize);
  static VInst makeVSelect(VRegId Dst, VRegId Mask, VRegId IfSet,
                           VRegId IfClear);
  static VInst makeVCopy(VRegId Dst, VRegId Src);
  static VInst makeSConst(SRegId Dst, int64_t Value);
  static VInst makeSBase(SRegId Dst, const ir::Array *Base);
  static VInst makeSBinOp(SBinOpKind Kind, SRegId Dst, ScalarOperand LHS,
                          ScalarOperand RHS);
  static VInst makeSCmp(SCmpKind Kind, SRegId Dst, ScalarOperand LHS,
                        ScalarOperand RHS);
  /// @}

  /// Returns the measurement bucket of this instruction.
  OpCategory category() const { return opcodeInfo(Op).Category; }

  /// Returns true for instructions that write a vector register, VDst.
  bool definesVector() const {
    return opcodeInfo(Op).Defines == DefKind::Vector;
  }

  /// Returns true for instructions that write a scalar register, SDst.
  bool definesScalar() const {
    return opcodeInfo(Op).Defines == DefKind::Scalar;
  }

  /// Returns true if the instruction has no side effects (everything but
  /// VStore); pure instructions are eligible for CSE, predictive commoning,
  /// and dead-code elimination.
  bool isPure() const { return Op != VOpcode::VStore; }
};

// Blocks copy as plain memory (the fuzzer copies a raw program per
// configuration); keep every member trivial.
static_assert(std::is_trivially_copyable_v<VInst>);

/// Calls \p F on each vector register \p I reads, VSrc1 up to its row's
/// count. Inst is VInst or const VInst; through a mutable \p I, \p F may
/// rewrite a use in place.
template <typename Inst, typename Fn> void forEachVectorUse(Inst &I, Fn &&F) {
  const unsigned N = opcodeInfo(I.Op).VectorUses;
  if (N > 0)
    F(I.VSrc1);
  if (N > 1)
    F(I.VSrc2);
  if (N > 2)
    F(I.VSrc3);
}

/// Calls \p F on each scalar register \p I reads: its Predicate when one
/// is set, then Addr.Index, SOp1 and SOp2 where its row reads them and
/// they hold a register. Like forEachVectorUse, \p F may rewrite a use
/// through a mutable \p I.
template <typename Inst, typename Fn> void forEachScalarUse(Inst &I, Fn &&F) {
  const OpcodeInfo &Row = opcodeInfo(I.Op);
  if (I.Predicate)
    F(*I.Predicate);
  if (Row.ReadsIndex && I.Addr.Index)
    F(*I.Addr.Index);
  if (Row.ReadsSOp1 && I.SOp1.IsReg)
    F(I.SOp1.Reg);
  if (Row.ReadsSOp2 && I.SOp2.IsReg)
    F(I.SOp2.Reg);
}

/// Printable mnemonic of a scalar ALU operation.
const char *sBinOpName(SBinOpKind Kind);

/// Printable mnemonic of a scalar comparison.
const char *sCmpName(SCmpKind Kind);

} // namespace vir
} // namespace simdize

#endif // SIMDIZE_VIR_VINST_H
