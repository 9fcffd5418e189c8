//===- native/simdize_vm_ops.h - The VM's register operations ------------===//
//
// Part of the simdize project (PLDI 2004 alignment-constrained simdization).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one definition of the generic SIMD machine's register operations
/// (Section 5.1) for the engines built on it: the decoded engine
/// (sim/Decoder.cpp) and the native wrapper (simdize_x86.h), whose
/// portable shim runs these functions and whose SSE2, AVX2 and AVX-512
/// lowerings apply each lane row's EXPR to a whole register of GCC vector
/// lanes. The reference interpreter, sim/Machine.cpp, keeps its own
/// byte-at-a-time spelling; tests compare it and every native ISA against
/// this file.
///
/// Registers are raw V-byte arrays, V a run-time parameter. Lanes are
/// little-endian, the VM's byte order, which the host shares: lanes are
/// copied with memcpy. The file is self-contained (standard headers only)
/// because emitted kernels compile it with no project include path, and
/// native::compileAndLoad keys its .so cache on its bytes.
///
/// Each lane operation is one row of SIMDIZE_VM_BINOPS or SIMDIZE_VM_CMPS,
///
///   ROW(KIND, NAME, SIGN, EXPR)
///
///   KIND  its ir::BinOpKind or vir::SCmpKind enumerator;
///   NAME  its vx_ name, vx_<ir::binOpMnemonic> or vx_cmp_<vir::sCmpName>:
///         emitted kernels call NAME_i8, NAME_i16 and NAME_i32;
///   SIGN  unsigned or signed: the lanes reach EXPR zero- or sign-extended
///         to that type, `unsigned` or `int`;
///   EXPR  the result lane from the widened lanes X and Y, truncated to
///         the lane width. A compare row's EXPR is the bare condition: its
///         lane is -1 (all ones) where the condition holds, else 0, which
///         is also what the condition yields on GCC vectors.
///
/// EXPR must not overflow int at any lane width: the arithmetic rows are
/// unsigned, so they wrap, and the signed rows only compare. Every row is
/// a struct of that NAME in namespace simdize_vm. Its expr(X, Y) is EXPR
/// on two operands of one type: apply calls it on a pair of widened lanes,
/// simdize_x86.h on two whole vectors of LaneFor<Op, Bytes>, computing at
/// the lane width. So EXPR must give the same lanes either way, as the
/// wrapping arithmetic, the bitwise operators and the signed min, max and
/// compares do (tests/VmOpsTest.cpp checks every row on every ISA).
/// lanes<Op, Bytes> applies a row across a register at 1-, 2- or 4-byte
/// lanes.
///
//===----------------------------------------------------------------------===//

#ifndef SIMDIZE_NATIVE_SIMDIZE_VM_OPS_H
#define SIMDIZE_NATIVE_SIMDIZE_VM_OPS_H

#include <cstdint>
#include <cstring>
#include <type_traits>

#define SIMDIZE_VM_BINOPS(ROW)                                               \
  ROW(Add, vx_add, unsigned, X + Y)                                          \
  ROW(Sub, vx_sub, unsigned, X - Y)                                          \
  ROW(Mul, vx_mul, unsigned, X * Y)                                          \
  ROW(Min, vx_min, signed, X < Y ? X : Y)                                    \
  ROW(Max, vx_max, signed, X > Y ? X : Y)                                    \
  ROW(And, vx_and, unsigned, X & Y)                                          \
  ROW(Or, vx_or, unsigned, X | Y)                                            \
  ROW(Xor, vx_xor, unsigned, X ^ Y)

#define SIMDIZE_VM_CMPS(ROW)                                                 \
  ROW(LT, vx_cmp_lt, signed, X < Y)                                          \
  ROW(LE, vx_cmp_le, signed, X <= Y)                                         \
  ROW(GT, vx_cmp_gt, signed, X > Y)                                          \
  ROW(GE, vx_cmp_ge, signed, X >= Y)                                         \
  ROW(EQ, vx_cmp_eq, signed, X == Y)                                         \
  ROW(NE, vx_cmp_ne, signed, X != Y)

namespace simdize_vm {

#define SIMDIZE_VM_DEFINE_ROW(NAME, SIGN, EXPR, LANE)                        \
  struct NAME {                                                              \
    using Wide = SIGN;                                                       \
    template <typename T> static constexpr auto expr(T X, T Y) {             \
      return EXPR;                                                           \
    }                                                                        \
    static constexpr Wide apply(Wide X, Wide Y) { return LANE; }             \
  };
#define SIMDIZE_VM_DEFINE_BINOP(KIND, NAME, SIGN, EXPR)                      \
  SIMDIZE_VM_DEFINE_ROW(NAME, SIGN, EXPR, expr(X, Y))
#define SIMDIZE_VM_DEFINE_CMP(KIND, NAME, SIGN, EXPR)                        \
  SIMDIZE_VM_DEFINE_ROW(NAME, SIGN, EXPR, expr(X, Y) ? -1 : 0)
SIMDIZE_VM_BINOPS(SIMDIZE_VM_DEFINE_BINOP)
SIMDIZE_VM_CMPS(SIMDIZE_VM_DEFINE_CMP)
#undef SIMDIZE_VM_DEFINE_CMP
#undef SIMDIZE_VM_DEFINE_BINOP
#undef SIMDIZE_VM_DEFINE_ROW

/// The unsigned and signed lane types of a lane width.
template <unsigned Bytes> struct LaneOf;
template <> struct LaneOf<1> {
  using U = uint8_t;
  using S = int8_t;
};
template <> struct LaneOf<2> {
  using U = uint16_t;
  using S = int16_t;
};
template <> struct LaneOf<4> {
  using U = uint32_t;
  using S = int32_t;
};

/// The lane type row \p Op reads at Bytes-wide lanes: signed or unsigned
/// as its SIGN.
template <typename Op, unsigned Bytes>
using LaneFor = std::conditional_t<std::is_signed_v<typename Op::Wide>,
                                   typename LaneOf<Bytes>::S,
                                   typename LaneOf<Bytes>::U>;

/// Row \p Op on one pair of Bytes-wide lanes, as bit patterns.
template <typename Op, unsigned Bytes>
constexpr typename LaneOf<Bytes>::U lane(typename LaneOf<Bytes>::U X,
                                         typename LaneOf<Bytes>::U Y) {
  using Ext = LaneFor<Op, Bytes>;
  return static_cast<typename LaneOf<Bytes>::U>(
      Op::apply(static_cast<Ext>(X), static_cast<Ext>(Y)));
}

/// Dst = row \p Op of A and B, lane by lane over Bytes-wide lanes. Dst may
/// be A or B.
template <typename Op, unsigned Bytes>
inline void lanes(uint8_t *Dst, const uint8_t *A, const uint8_t *B,
                  unsigned V) {
  for (unsigned K = 0; K < V; K += Bytes) {
    typename LaneOf<Bytes>::U X, Y;
    std::memcpy(&X, A + K, Bytes);
    std::memcpy(&Y, B + K, Bytes);
    X = lane<Op, Bytes>(X, Y);
    std::memcpy(Dst + K, &X, Bytes);
  }
}

/// vsplat: the low ElemSize bytes of Value, repeated across Dst.
inline void splat(uint8_t *Dst, int64_t Value, unsigned ElemSize,
                  unsigned V) {
  for (unsigned K = 0; K < V; ++K)
    Dst[K] = static_cast<uint8_t>(static_cast<uint64_t>(Value) >>
                                  (8 * (K % ElemSize)));
}

/// vshiftpair: bytes [S, S + V) of A ++ B, S in [0, V]. Dst must not
/// overlap A or B.
inline void vshiftpair(uint8_t *Dst, const uint8_t *A, const uint8_t *B,
                       unsigned S, unsigned V) {
  std::memcpy(Dst, A + S, V - S);
  std::memcpy(Dst + (V - S), B, S);
}

/// vsplice: the first P bytes of A, the rest of B, P in [0, V]. Dst may be
/// A or B.
inline void vsplice(uint8_t *Dst, const uint8_t *A, const uint8_t *B,
                    unsigned P, unsigned V) {
  std::memmove(Dst, A, P);
  std::memmove(Dst + P, B + P, V - P);
}

/// vselect: bytewise (IfSet & Mask) | (IfClear & ~Mask). Dst may be any
/// operand.
inline void vselect(uint8_t *Dst, const uint8_t *Mask, const uint8_t *IfSet,
                    const uint8_t *IfClear, unsigned V) {
  for (unsigned K = 0; K < V; ++K)
    Dst[K] = static_cast<uint8_t>((IfSet[K] & Mask[K]) |
                                  (IfClear[K] & ~Mask[K]));
}

} // namespace simdize_vm

#endif // SIMDIZE_NATIVE_SIMDIZE_VM_OPS_H
