//===- vir/VReg.h - Virtual registers and operands of the vector IR ------===//
//
// Part of the simdize project (PLDI 2004 alignment-constrained simdization).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Operand types of the vector IR: vector registers (V = 16 bytes wide),
/// scalar registers (64-bit), scalar operands (immediate or register — used
/// for shift amounts and splice points that may only be known at runtime,
/// Section 4.4), and stride-one addresses base + (index + c) * D whose index
/// is either the steady-loop counter register or a constant (prologue and
/// epilogue code).
///
//===----------------------------------------------------------------------===//

#ifndef SIMDIZE_VIR_VREG_H
#define SIMDIZE_VIR_VREG_H

#include <cassert>
#include <cstdint>
#include <optional>

namespace simdize {

namespace ir {
class Array;
} // namespace ir

namespace vir {

/// Identifies a 16-byte vector register.
struct VRegId {
  unsigned Id = ~0u;

  bool isValid() const { return Id != ~0u; }
  bool operator==(const VRegId &) const = default;
};

/// Identifies a 64-bit scalar register.
struct SRegId {
  unsigned Id = ~0u;

  bool isValid() const { return Id != ~0u; }
  bool operator==(const SRegId &) const = default;
};

/// A scalar value that is either a compile-time immediate or lives in a
/// scalar register (runtime alignments, runtime loop bounds).
struct ScalarOperand {
  bool IsReg = false;
  SRegId Reg;
  int64_t Imm = 0;

  static ScalarOperand imm(int64_t Value) {
    ScalarOperand Op;
    Op.IsReg = false;
    Op.Imm = Value;
    return Op;
  }

  static ScalarOperand reg(SRegId R) {
    assert(R.isValid() && "scalar operand needs a valid register");
    ScalarOperand Op;
    Op.IsReg = true;
    Op.Reg = R;
    return Op;
  }

  bool operator==(const ScalarOperand &) const = default;

  bool isImm() const { return !IsReg; }
  int64_t getImm() const {
    assert(isImm() && "not an immediate");
    return Imm;
  }
};

/// A stride-one address: &Base[(index) + ElemOffset], where index is the
/// value of Index (a scalar register, normally the loop counter) when
/// present, or the constant ConstIndex otherwise. Vector memory operations
/// truncate the resulting byte address to a multiple of V, exactly like an
/// AltiVec lvx/stvx.
struct Address {
  const ir::Array *Base = nullptr;
  int64_t ElemOffset = 0;
  std::optional<SRegId> Index;
  int64_t ConstIndex = 0;

  static Address indexed(const ir::Array *Base, int64_t ElemOffset,
                         SRegId Index) {
    Address A;
    A.Base = Base;
    A.ElemOffset = ElemOffset;
    A.Index = Index;
    return A;
  }

  static Address constant(const ir::Array *Base, int64_t ElemOffset,
                          int64_t ConstIndex) {
    Address A;
    A.Base = Base;
    A.ElemOffset = ElemOffset;
    A.ConstIndex = ConstIndex;
    return A;
  }

  bool operator==(const Address &) const = default;
};

} // namespace vir
} // namespace simdize

#endif // SIMDIZE_VIR_VREG_H
