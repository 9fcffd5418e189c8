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
/// Instructions are a flat struct (MachineInstr-style) with factory
/// functions that enforce per-opcode field discipline; VVerifier checks the
/// invariants wholesale.
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

/// Opcodes of the vector IR.
enum class VOpcode {
  // Vector memory (addresses truncated to V-byte boundaries).
  VLoad,      ///< VDst = 16 aligned bytes at Addr
  VStore,     ///< 16 aligned bytes at Addr = VSrc1
  // Vector data reorganization (Section 2.2).
  VSplat,     ///< VDst = replicate SOp1 across ElemSize lanes
  VShiftPair, ///< VDst = bytes [S, S+V) of VSrc1 ++ VSrc2, S = SOp1 in [0,V];
              ///< S == V selects VSrc2 whole (vec_perm indices wrap mod 2V,
              ///< which runtime right-shifts by V - offset rely on)
  VSplice,    ///< VDst = first S bytes of VSrc1, last V-S of VSrc2, S = SOp1
  // Vector compute.
  VBinOp,     ///< VDst = VSrc1 <VectorOp> VSrc2, element-wise on ElemSize
  VCmp,       ///< VDst = per-lane VSrc1 <CmpOp> VSrc2 ? all-ones : zero
              ///< (signed, ElemSize lanes; the if-conversion mask)
  VSelect,    ///< VDst = bytewise (VSrc2 & VSrc1) | (VSrc3 & ~VSrc1);
              ///< VSrc1 is a lane mask, VSrc2 taken lanes, VSrc3 untaken
  VCopy,      ///< VDst = VSrc1 (software-pipelining carries, Section 4.5)
  // Scalar support.
  SConst,     ///< SDst = Imm
  SBase,      ///< SDst = runtime byte address of Addr.Base
  SBinOp,     ///< SDst = SOp1 <ScalarOp> SOp2
  SCmp,       ///< SDst = SOp1 <CmpOp> SOp2 ? 1 : 0
};

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
  OpCategory category() const;

  /// Returns true for instructions that write a vector register.
  bool definesVector() const;

  /// Returns true for instructions that write a scalar register.
  bool definesScalar() const;

  /// Returns true if the instruction has no side effects (everything but
  /// VStore); pure instructions are eligible for CSE, predictive commoning,
  /// and dead-code elimination.
  bool isPure() const { return Op != VOpcode::VStore; }
};

// Blocks copy as plain memory (the fuzzer copies a raw program per
// configuration); keep every member trivial.
static_assert(std::is_trivially_copyable_v<VInst>);

/// Printable mnemonic of an opcode.
const char *opcodeName(VOpcode Op);

/// Printable mnemonic of a scalar ALU operation.
const char *sBinOpName(SBinOpKind Kind);

/// Printable mnemonic of a scalar comparison.
const char *sCmpName(SCmpKind Kind);

} // namespace vir
} // namespace simdize

#endif // SIMDIZE_VIR_VINST_H
