//===- native/simdize_x86.h - Host-SIMD wrapper for emitted kernels ------===//
//
// Part of the simdize project (PLDI 2004 alignment-constrained simdization).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The thin wrapper layer the native backend's emitted kernels compile
/// against: one `vx_*` function per generic vector operation of the VM.
/// The register operations are defined once, in simdize_vm_ops.h, which
/// this header includes and which the decoded engine shares. The portable
/// shim runs them a byte or a lane at a time. SSE2, AVX2 and AVX-512 share
/// one lowering over GCC vector types (`T __attribute__((vector_size(V)))`):
/// each lane operation applies its row's EXPR to the whole register, and
/// the compiler picks each ISA's instructions. Per ISA there remain only
/// the register type vx_t and the immediate stream shift vx_sld<N>, whose
/// generic two-register byte shuffle GCC spills to the stack on SSE2 and
/// spends four or five shuffles on at AVX-512, and AVX-512's rule that
/// vx_sld_at keeps a whole-dword shift in registers. tests/VmOpsTest.cpp
/// and tests/NativeShiftTest.cpp check every operation against the shared
/// definition on every ISA the host runs. The translation unit defines
/// SIMDIZE_NATIVE_V to the vector byte width and exactly one ISA selector
/// before including this header:
///
///   SIMDIZE_NATIVE_ISA_SHIM    portable scalar model, any power-of-2 V
///   SIMDIZE_NATIVE_ISA_SSE2    GCC vectors over __m128i, V = 16
///   SIMDIZE_NATIVE_ISA_AVX2    GCC vectors over GCC's own spelling of
///                              __m256i, V = 32
///   SIMDIZE_NATIVE_ISA_AVX512  the same over __m512i (F+BW), V = 64
///
/// AVX2 and AVX-512 call the four x86 builtins their shifts need instead
/// of including <immintrin.h>, whose 54,000 preprocessed lines took most
/// of a one-kernel compile. SSE2 keeps its intrinsics: <emmintrin.h> is
/// about a tenth of that, and SSE2's shift spelled with builtins compiled
/// to other code (docs/NATIVE.md). Beyond that, every ISA includes only
/// <cstdint>, <cstring> and, through simdize_vm_ops.h, <type_traits>.
///
/// Operations:
///
///   vx_ld / vx_st          address truncated to a V-byte boundary
///   vx_sld<N>              simdize_vm::vshiftpair by an immediate N
///   vx_shiftpair(A,B,S)    simdize_vm::vshiftpair by a runtime S
///   vx_sld_at<N>(A,B,P)    vx_sld<N>(A, B) where A and B hold the chunks
///                          at trunc(P) and trunc(P) + V: the emitter's
///                          proof that both are loads of one stream
///   vx_shiftpair_at(A,B,S,P)  the same for vx_shiftpair
///   vx_splice(A,B,P)       simdize_vm::vsplice
///   vx_splat_i8/16/32      simdize_vm::splat at 1-, 2- and 4-byte lanes
///   vx_sel(M,S,C)          simdize_vm::vselect
///   NAME_i8/16/32          row NAME of SIMDIZE_VM_BINOPS or SIMDIZE_VM_CMPS
///                          (vx_add, ..., vx_cmp_lt, ...) at that lane width
///
//===----------------------------------------------------------------------===//

#ifndef SIMDIZE_NATIVE_SIMDIZE_X86_H
#define SIMDIZE_NATIVE_SIMDIZE_X86_H

#ifndef SIMDIZE_NATIVE_V
#error "define SIMDIZE_NATIVE_V to the vector byte width before including"
#endif

#include "simdize_vm_ops.h"

#include <cstdint>
#include <cstring>

//===----------------------------------------------------------------------===//
// Portable shim: scalar model of the operations, any power-of-2 V. The
// always-available fallback ISA (and the only one off x86).
//===----------------------------------------------------------------------===//
#if defined(SIMDIZE_NATIVE_ISA_SHIM)

/// One V-byte vector register.
struct vx_t {
  unsigned char B[SIMDIZE_NATIVE_V];
};

inline vx_t vx_ld(const unsigned char *Addr) {
  uintptr_t P = reinterpret_cast<uintptr_t>(Addr) &
                ~static_cast<uintptr_t>(SIMDIZE_NATIVE_V - 1);
  vx_t V;
  std::memcpy(V.B, reinterpret_cast<const unsigned char *>(P),
              SIMDIZE_NATIVE_V);
  return V;
}

inline void vx_st(unsigned char *Addr, vx_t V) {
  uintptr_t P = reinterpret_cast<uintptr_t>(Addr) &
                ~static_cast<uintptr_t>(SIMDIZE_NATIVE_V - 1);
  std::memcpy(reinterpret_cast<unsigned char *>(P), V.B, SIMDIZE_NATIVE_V);
}

inline vx_t vx_shiftpair(vx_t A, vx_t B, long S) {
  vx_t Out;
  simdize_vm::vshiftpair(Out.B, A.B, B.B, static_cast<unsigned>(S),
                         SIMDIZE_NATIVE_V);
  return Out;
}

template <int N> inline vx_t vx_sld(vx_t A, vx_t B) {
  static_assert(N >= 0 && N <= SIMDIZE_NATIVE_V,
                "shift immediate out of range");
  return vx_shiftpair(A, B, N);
}

/// The shim keeps the register shift: it stays a plain model of the VM
/// program, whose vshiftpair reads only its operands.
template <int N>
inline vx_t vx_sld_at(vx_t A, vx_t B, const unsigned char *) {
  return vx_sld<N>(A, B);
}

inline vx_t vx_shiftpair_at(vx_t A, vx_t B, long S, const unsigned char *) {
  return vx_shiftpair(A, B, S);
}

inline vx_t vx_splice(vx_t A, vx_t B, long P) {
  vx_t Out;
  simdize_vm::vsplice(Out.B, A.B, B.B, static_cast<unsigned>(P),
                      SIMDIZE_NATIVE_V);
  return Out;
}

inline vx_t vx_sel(vx_t Mask, vx_t IfSet, vx_t IfClear) {
  vx_t Out;
  simdize_vm::vselect(Out.B, Mask.B, IfSet.B, IfClear.B, SIMDIZE_NATIVE_V);
  return Out;
}

namespace simdize_x86_detail {

template <unsigned Bytes> inline vx_t splat(long Value) {
  vx_t Out;
  simdize_vm::splat(Out.B, Value, Bytes, SIMDIZE_NATIVE_V);
  return Out;
}

template <typename Op, unsigned Bytes> inline vx_t lanes(vx_t A, vx_t B) {
  vx_t Out;
  simdize_vm::lanes<Op, Bytes>(Out.B, A.B, B.B, SIMDIZE_NATIVE_V);
  return Out;
}

} // namespace simdize_x86_detail

#else // The hardware ISAs.

// Clang defines some of these builtins under the same names with other
// operand types and the palignr amount in bytes, so a kernel could compile
// and shift wrongly.
#if defined(__clang__) &&                                                      \
    (defined(SIMDIZE_NATIVE_ISA_AVX2) || defined(SIMDIZE_NATIVE_ISA_AVX512))
#error "AVX2 and AVX-512 lowering calls GCC's x86 builtins"
#endif

namespace simdize_x86_detail {

/// The register as V / sizeof(Lane) lanes of type Lane.
template <typename Lane> struct VecOf {
  typedef Lane type __attribute__((vector_size(SIMDIZE_NATIVE_V)));
};

} // namespace simdize_x86_detail

//===----------------------------------------------------------------------===//
// SSE2: __m128i, V = 16. Baseline x86-64 — always compilable there.
//===----------------------------------------------------------------------===//
#if defined(SIMDIZE_NATIVE_ISA_SSE2)

#if SIMDIZE_NATIVE_V != 16
#error "SSE2 lowering requires V = 16"
#endif

#include <emmintrin.h>

typedef __m128i vx_t;

template <int N> inline vx_t vx_sld(vx_t A, vx_t B) {
  static_assert(N >= 0 && N <= 16, "shift immediate out of range");
  if constexpr (N == 0)
    return A;
  else if constexpr (N == 16)
    return B;
  else
    return _mm_or_si128(_mm_srli_si128(A, N), _mm_slli_si128(B, 16 - N));
}

//===----------------------------------------------------------------------===//
// AVX2: V = 32. The cross-lane shift pair composes vperm2i128 with the
// per-128-lane vpalignr, each called as the GCC builtin that
// _mm256_permute2x128_si256 and _mm256_alignr_epi8 wrap. GCC's palignr
// builtins take the amount in bits.
//===----------------------------------------------------------------------===//
#elif defined(SIMDIZE_NATIVE_ISA_AVX2)

#if SIMDIZE_NATIVE_V != 32
#error "AVX2 lowering requires V = 32"
#endif

/// GCC's own definition of __m256i.
typedef long long vx_t __attribute__((vector_size(32), may_alias));

template <int N> inline vx_t vx_sld(vx_t A, vx_t B) {
  static_assert(N >= 0 && N <= 32, "shift immediate out of range");
  if constexpr (N == 0)
    return A;
  else if constexpr (N == 32)
    return B;
  else if constexpr (N == 16)
    return __builtin_ia32_permti256(A, B, 0x21);
  else if constexpr (N < 16) {
    // Lane l of the result needs bytes [N, N+16) of concat(C_l, C_{l+1})
    // where C = [A_lo, A_hi, B_lo]; M = [A_hi, B_lo] supplies C_{l+1}.
    vx_t M = __builtin_ia32_permti256(A, B, 0x21);
    return __builtin_ia32_palignr256(M, A, N * 8);
  } else {
    vx_t M = __builtin_ia32_permti256(A, B, 0x21);
    return __builtin_ia32_palignr256(B, M, (N - 16) * 8);
  }
}

//===----------------------------------------------------------------------===//
// AVX-512 (F + BW): V = 64. Immediate shifts stay in registers: valignd
// shifts the 128-byte pair by whole dwords, and byte-granular amounts
// widen the AVX2 trick to four lanes (two valignd pick adjacent 16-byte
// windows, one vpalignr finishes per lane). Both are GCC builtins, as
// for AVX2.
//===----------------------------------------------------------------------===//
#elif defined(SIMDIZE_NATIVE_ISA_AVX512)

#if SIMDIZE_NATIVE_V != 64
#error "AVX-512 lowering requires V = 64"
#endif

/// GCC's own definition of __m512i.
typedef long long vx_t __attribute__((vector_size(64), may_alias));

namespace simdize_x86_detail {

/// Bytes [4 K, 4 K + 64) of A ++ B, K in [0, 16]: one valignd. This is
/// _mm512_maskz_alignr_epi32 with an all-ones mask, the same instruction
/// as the unmasked form, which merges from an undefined vector that GCC 12
/// flags under -Wall.
template <int K> inline vx_t dwords(vx_t A, vx_t B) {
  static_assert(K >= 0 && K <= 16, "dword shift out of range");
  using T = VecOf<int32_t>::type;
  if constexpr (K == 0)
    return A;
  else if constexpr (K == 16)
    return B;
  else
    return (vx_t)__builtin_ia32_alignd512_mask((T)B, (T)A, K, T{},
                                               static_cast<uint16_t>(-1));
}

} // namespace simdize_x86_detail

template <int N> inline vx_t vx_sld(vx_t A, vx_t B) {
  static_assert(N >= 0 && N <= 64, "shift immediate out of range");
  if constexpr (N % 4 == 0)
    return simdize_x86_detail::dwords<N / 4>(A, B);
  else {
    // Lane l of the result is bytes [N % 16, N % 16 + 16) of the pair's
    // 16-byte chunks Q+l and Q+l+1, Q = N / 16: lane l of the 64-byte
    // windows starting at chunks Q and Q+1, joined by the per-lane
    // vpalignr.
    constexpr int Q = N / 16;
    return __builtin_ia32_palignr512(
        simdize_x86_detail::dwords<4 * Q + 4>(A, B),
        simdize_x86_detail::dwords<4 * Q>(A, B), N % 16 * 8);
  }
}

#else
#error "define exactly one SIMDIZE_NATIVE_ISA_{SHIM,SSE2,AVX2,AVX512}"
#endif

//===----------------------------------------------------------------------===//
// Every hardware ISA: the rest, written once over GCC vector types.
//===----------------------------------------------------------------------===//

namespace simdize_x86_detail {

/// trunc(Addr): the start of the V-byte chunk that holds Addr.
inline uintptr_t chunk(const unsigned char *Addr) {
  return reinterpret_cast<uintptr_t>(Addr) &
         ~static_cast<uintptr_t>(SIMDIZE_NATIVE_V - 1);
}

/// The V bytes at P, which need not be aligned.
inline vx_t loadu(const void *P) {
  vx_t V;
  std::memcpy(&V, P, SIMDIZE_NATIVE_V);
  return V;
}

template <unsigned Bytes> inline vx_t splat(long Value) {
  using Lane = typename simdize_vm::LaneOf<Bytes>::U;
  return (vx_t)(typename VecOf<Lane>::type{} + static_cast<Lane>(Value));
}

/// Row Op's EXPR on the whole register at Bytes-wide lanes, read signed or
/// unsigned as its SIGN.
template <typename Op, unsigned Bytes> inline vx_t lanes(vx_t A, vx_t B) {
  using T = typename VecOf<simdize_vm::LaneFor<Op, Bytes>>::type;
  return (vx_t)Op::expr((T)A, (T)B);
}

/// The byte multiply in 16-bit lanes: the low byte of X * Y is the even
/// bytes' product, and (X >> 8) * (Y & 0xFF00) puts the odd bytes' in the
/// high byte. GCC's generic byte multiply permutes words on AVX-512.
template <>
inline vx_t lanes<simdize_vm::vx_mul, 1>(vx_t A, vx_t B) {
  using T = VecOf<uint16_t>::type;
  T X = (T)A, Y = (T)B;
  return (vx_t)(((X * Y) & 0x00FF) | ((X >> 8) * (Y & 0xFF00)));
}

/// The byte indices 0, 1, ..., V - 1 as Iota<V>::Value: each step
/// prepends N - 1 to the pack K until N reaches 0.
template <int N, int... K> struct Iota : Iota<N - 1, N - 1, K...> {};
template <int... K> struct Iota<0, K...> {
  static constexpr VecOf<int8_t>::type Value{K...};
};

} // namespace simdize_x86_detail

inline vx_t vx_ld(const unsigned char *Addr) {
  return *reinterpret_cast<const vx_t *>(simdize_x86_detail::chunk(Addr));
}

inline void vx_st(unsigned char *Addr, vx_t V) {
  *reinterpret_cast<vx_t *>(simdize_x86_detail::chunk(Addr)) = V;
}

/// Runtime shift amount: the byte shifts of every ISA take only
/// immediates, so this spills the pair and reloads it unaligned.
inline vx_t vx_shiftpair(vx_t A, vx_t B, long S) {
  const vx_t Concat[2] = {A, B};
  return simdize_x86_detail::loadu(
      reinterpret_cast<const unsigned char *>(Concat) + S);
}

/// One unaligned load of trunc(Addr) + S, the bytes the shift computes.
inline vx_t vx_shiftpair_at(vx_t, vx_t, long S, const unsigned char *Addr) {
  return simdize_x86_detail::loadu(
      reinterpret_cast<const void *>(simdize_x86_detail::chunk(Addr) + S));
}

/// One unaligned load in place of the register shift. AVX-512 keeps a
/// whole-dword amount's single valignd: every unaligned 64-byte load
/// splits a cache line, and loading those too slowed the i16 and i32
/// kernels by up to a fifth (docs/NATIVE.md).
template <int N>
inline vx_t vx_sld_at(vx_t A, vx_t B, const unsigned char *Addr) {
  static_assert(N >= 0 && N <= SIMDIZE_NATIVE_V,
                "shift immediate out of range");
#if defined(SIMDIZE_NATIVE_ISA_AVX512)
  if constexpr (N % 4 == 0)
    return vx_sld<N>(A, B);
#endif
  return vx_shiftpair_at(A, B, N, Addr);
}

inline vx_t vx_splice(vx_t A, vx_t B, long P) {
  using T = simdize_x86_detail::VecOf<int8_t>::type;
  // Byte indices and P are in [0, V], V <= 64: the signed compare is exact.
  constexpr T Index = simdize_x86_detail::Iota<SIMDIZE_NATIVE_V>::Value;
  return (vx_t)(Index < static_cast<int8_t>(P) ? (T)A : (T)B);
}

inline vx_t vx_sel(vx_t Mask, vx_t IfSet, vx_t IfClear) {
  return (Mask & IfSet) | (~Mask & IfClear);
}

#endif // SIMDIZE_NATIVE_ISA_SHIM

//===----------------------------------------------------------------------===//
// Every ISA: the splats and the lane rows.
//===----------------------------------------------------------------------===//

inline vx_t vx_splat_i8(long V) { return simdize_x86_detail::splat<1>(V); }
inline vx_t vx_splat_i16(long V) { return simdize_x86_detail::splat<2>(V); }
inline vx_t vx_splat_i32(long V) { return simdize_x86_detail::splat<4>(V); }

#define SIMDIZE_X86_LANES(KIND, NAME, SIGN, EXPR)                            \
  inline vx_t NAME##_i8(vx_t A, vx_t B) {                                    \
    return simdize_x86_detail::lanes<simdize_vm::NAME, 1>(A, B);             \
  }                                                                          \
  inline vx_t NAME##_i16(vx_t A, vx_t B) {                                   \
    return simdize_x86_detail::lanes<simdize_vm::NAME, 2>(A, B);             \
  }                                                                          \
  inline vx_t NAME##_i32(vx_t A, vx_t B) {                                   \
    return simdize_x86_detail::lanes<simdize_vm::NAME, 4>(A, B);             \
  }
SIMDIZE_VM_BINOPS(SIMDIZE_X86_LANES)
SIMDIZE_VM_CMPS(SIMDIZE_X86_LANES)
#undef SIMDIZE_X86_LANES

#endif // SIMDIZE_NATIVE_SIMDIZE_X86_H
