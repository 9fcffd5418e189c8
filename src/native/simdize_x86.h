//===- native/simdize_x86.h - Host-SIMD wrapper for emitted kernels ------===//
//
// Part of the simdize project (PLDI 2004 alignment-constrained simdization).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The thin per-ISA wrapper layer the native backend's emitted kernels
/// compile against: one `vx_*` function per generic vector operation of
/// the VM. The register operations are defined once, in simdize_vm_ops.h,
/// which this header includes and which the decoded engine shares; the
/// portable shim only wraps them, and the SSE2, AVX2 and AVX-512 rows
/// are intrinsics that must be bit-identical to them on every input
/// (tests/VmOpsTest.cpp and tests/NativeShiftTest.cpp check every row on
/// every ISA the host runs). The translation unit defines
/// SIMDIZE_NATIVE_V to the vector byte width and exactly one ISA selector
/// before including this header:
///
///   SIMDIZE_NATIVE_ISA_SHIM    portable scalar model, any power-of-2 V
///   SIMDIZE_NATIVE_ISA_SSE2    __m128i intrinsics, V = 16
///   SIMDIZE_NATIVE_ISA_AVX2    __m256i intrinsics, V = 32
///   SIMDIZE_NATIVE_ISA_AVX512  __m512i intrinsics (F+BW), V = 64
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

namespace simdize_x86_detail {

/// The V bytes at trunc(Addr) + N: on x86 one unaligned load reads what
/// the register shift of the chunk pair at trunc(Addr) computes.
template <typename T>
inline const T *realigned(const unsigned char *Addr, long N) {
  uintptr_t P = reinterpret_cast<uintptr_t>(Addr) &
                ~static_cast<uintptr_t>(SIMDIZE_NATIVE_V - 1);
  return reinterpret_cast<const T *>(P + N);
}

} // namespace simdize_x86_detail

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

inline vx_t vx_splat_i8(long V) { return simdize_x86_detail::splat<1>(V); }
inline vx_t vx_splat_i16(long V) { return simdize_x86_detail::splat<2>(V); }
inline vx_t vx_splat_i32(long V) { return simdize_x86_detail::splat<4>(V); }

#define SIMDIZE_X86_SHIM_LANES(KIND, NAME, SIGN, EXPR)                       \
  inline vx_t NAME##_i8(vx_t A, vx_t B) {                                    \
    return simdize_x86_detail::lanes<simdize_vm::NAME, 1>(A, B);             \
  }                                                                          \
  inline vx_t NAME##_i16(vx_t A, vx_t B) {                                   \
    return simdize_x86_detail::lanes<simdize_vm::NAME, 2>(A, B);             \
  }                                                                          \
  inline vx_t NAME##_i32(vx_t A, vx_t B) {                                   \
    return simdize_x86_detail::lanes<simdize_vm::NAME, 4>(A, B);             \
  }
SIMDIZE_VM_BINOPS(SIMDIZE_X86_SHIM_LANES)
SIMDIZE_VM_CMPS(SIMDIZE_X86_SHIM_LANES)
#undef SIMDIZE_X86_SHIM_LANES

//===----------------------------------------------------------------------===//
// SSE2: __m128i, V = 16. Baseline x86-64 — always compilable there.
// SSE2 has no epi32 mullo, no signed epi8/epi32 min/max, and no byte
// mullo, so those fall back to the classic widen/compare sequences.
//===----------------------------------------------------------------------===//
#elif defined(SIMDIZE_NATIVE_ISA_SSE2)

#if SIMDIZE_NATIVE_V != 16
#error "SSE2 lowering requires V = 16"
#endif

#include <emmintrin.h>

typedef __m128i vx_t;

inline vx_t vx_ld(const unsigned char *Addr) {
  uintptr_t P =
      reinterpret_cast<uintptr_t>(Addr) & ~static_cast<uintptr_t>(15);
  return _mm_load_si128(reinterpret_cast<const __m128i *>(P));
}

inline void vx_st(unsigned char *Addr, vx_t V) {
  uintptr_t P =
      reinterpret_cast<uintptr_t>(Addr) & ~static_cast<uintptr_t>(15);
  _mm_store_si128(reinterpret_cast<__m128i *>(P), V);
}

template <int N> inline vx_t vx_sld(vx_t A, vx_t B) {
  static_assert(N >= 0 && N <= 16, "shift immediate out of range");
  if constexpr (N == 0)
    return A;
  else if constexpr (N == 16)
    return B;
  else
    return _mm_or_si128(_mm_srli_si128(A, N), _mm_slli_si128(B, 16 - N));
}

inline vx_t vx_shiftpair(vx_t A, vx_t B, long S) {
  alignas(16) unsigned char Concat[32];
  _mm_store_si128(reinterpret_cast<__m128i *>(Concat), A);
  _mm_store_si128(reinterpret_cast<__m128i *>(Concat + 16), B);
  return _mm_loadu_si128(reinterpret_cast<const __m128i *>(Concat + S));
}

/// One unaligned load replaces the two-shift-and-or network.
template <int N>
inline vx_t vx_sld_at(vx_t, vx_t, const unsigned char *Addr) {
  static_assert(N >= 0 && N <= 16, "shift immediate out of range");
  return _mm_loadu_si128(simdize_x86_detail::realigned<__m128i>(Addr, N));
}

inline vx_t vx_shiftpair_at(vx_t, vx_t, long S, const unsigned char *Addr) {
  return _mm_loadu_si128(simdize_x86_detail::realigned<__m128i>(Addr, S));
}

/// 0xFF in bytes [0, P), 0x00 above — the vsplice select mask.
inline vx_t vx_splice_mask(long P) {
  const __m128i Idx = _mm_setr_epi8(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11,
                                    12, 13, 14, 15);
  return _mm_cmplt_epi8(Idx, _mm_set1_epi8(static_cast<char>(P)));
}

inline vx_t vx_select(vx_t Mask, vx_t IfSet, vx_t IfClear) {
  return _mm_or_si128(_mm_and_si128(Mask, IfSet),
                      _mm_andnot_si128(Mask, IfClear));
}

inline vx_t vx_splice(vx_t A, vx_t B, long P) {
  return vx_select(vx_splice_mask(P), A, B);
}

inline vx_t vx_splat_i8(long V) {
  return _mm_set1_epi8(static_cast<char>(V));
}
inline vx_t vx_splat_i16(long V) {
  return _mm_set1_epi16(static_cast<short>(V));
}
inline vx_t vx_splat_i32(long V) {
  return _mm_set1_epi32(static_cast<int>(V));
}

inline vx_t vx_add_i8(vx_t A, vx_t B) { return _mm_add_epi8(A, B); }
inline vx_t vx_sub_i8(vx_t A, vx_t B) { return _mm_sub_epi8(A, B); }
inline vx_t vx_add_i16(vx_t A, vx_t B) { return _mm_add_epi16(A, B); }
inline vx_t vx_sub_i16(vx_t A, vx_t B) { return _mm_sub_epi16(A, B); }
inline vx_t vx_add_i32(vx_t A, vx_t B) { return _mm_add_epi32(A, B); }
inline vx_t vx_sub_i32(vx_t A, vx_t B) { return _mm_sub_epi32(A, B); }
inline vx_t vx_mul_i16(vx_t A, vx_t B) { return _mm_mullo_epi16(A, B); }

/// Byte mullo: widen each half to i16, multiply, mask to the low byte,
/// and pack (exact because every lane is already in [0, 255]).
inline vx_t vx_mul_i8(vx_t A, vx_t B) {
  __m128i Z = _mm_setzero_si128();
  __m128i Lo = _mm_mullo_epi16(_mm_unpacklo_epi8(A, Z),
                               _mm_unpacklo_epi8(B, Z));
  __m128i Hi = _mm_mullo_epi16(_mm_unpackhi_epi8(A, Z),
                               _mm_unpackhi_epi8(B, Z));
  __m128i M = _mm_set1_epi16(0x00FF);
  return _mm_packus_epi16(_mm_and_si128(Lo, M), _mm_and_si128(Hi, M));
}

/// 32-bit mullo from the even/odd _mm_mul_epu32 pair (no _mm_mullo_epi32
/// before SSE4.1).
inline vx_t vx_mul_i32(vx_t A, vx_t B) {
  __m128i Even = _mm_mul_epu32(A, B);
  __m128i Odd = _mm_mul_epu32(_mm_srli_si128(A, 4), _mm_srli_si128(B, 4));
  __m128i EvenLo = _mm_shuffle_epi32(Even, _MM_SHUFFLE(0, 0, 2, 0));
  __m128i OddLo = _mm_shuffle_epi32(Odd, _MM_SHUFFLE(0, 0, 2, 0));
  return _mm_unpacklo_epi32(EvenLo, OddLo);
}

inline vx_t vx_and_i8(vx_t A, vx_t B) { return _mm_and_si128(A, B); }
inline vx_t vx_or_i8(vx_t A, vx_t B) { return _mm_or_si128(A, B); }
inline vx_t vx_xor_i8(vx_t A, vx_t B) { return _mm_xor_si128(A, B); }
inline vx_t vx_and_i16(vx_t A, vx_t B) { return _mm_and_si128(A, B); }
inline vx_t vx_or_i16(vx_t A, vx_t B) { return _mm_or_si128(A, B); }
inline vx_t vx_xor_i16(vx_t A, vx_t B) { return _mm_xor_si128(A, B); }
inline vx_t vx_and_i32(vx_t A, vx_t B) { return _mm_and_si128(A, B); }
inline vx_t vx_or_i32(vx_t A, vx_t B) { return _mm_or_si128(A, B); }
inline vx_t vx_xor_i32(vx_t A, vx_t B) { return _mm_xor_si128(A, B); }

inline vx_t vx_min_i16(vx_t A, vx_t B) { return _mm_min_epi16(A, B); }
inline vx_t vx_max_i16(vx_t A, vx_t B) { return _mm_max_epi16(A, B); }
inline vx_t vx_min_i8(vx_t A, vx_t B) {
  return vx_select(_mm_cmpgt_epi8(A, B), B, A);
}
inline vx_t vx_max_i8(vx_t A, vx_t B) {
  return vx_select(_mm_cmpgt_epi8(A, B), A, B);
}
inline vx_t vx_min_i32(vx_t A, vx_t B) {
  return vx_select(_mm_cmpgt_epi32(A, B), B, A);
}
inline vx_t vx_max_i32(vx_t A, vx_t B) {
  return vx_select(_mm_cmpgt_epi32(A, B), A, B);
}

inline vx_t vx_sel(vx_t Mask, vx_t IfSet, vx_t IfClear) {
  return vx_select(Mask, IfSet, IfClear);
}

// Signed lane compares. SSE2 has eq/gt/lt natively; the other three are
// their complements (xor with all-ones).
inline vx_t vx_not(vx_t A) { return _mm_xor_si128(A, _mm_set1_epi8(-1)); }

inline vx_t vx_cmp_eq_i8(vx_t A, vx_t B) { return _mm_cmpeq_epi8(A, B); }
inline vx_t vx_cmp_eq_i16(vx_t A, vx_t B) { return _mm_cmpeq_epi16(A, B); }
inline vx_t vx_cmp_eq_i32(vx_t A, vx_t B) { return _mm_cmpeq_epi32(A, B); }
inline vx_t vx_cmp_ne_i8(vx_t A, vx_t B) { return vx_not(vx_cmp_eq_i8(A, B)); }
inline vx_t vx_cmp_ne_i16(vx_t A, vx_t B) {
  return vx_not(vx_cmp_eq_i16(A, B));
}
inline vx_t vx_cmp_ne_i32(vx_t A, vx_t B) {
  return vx_not(vx_cmp_eq_i32(A, B));
}
inline vx_t vx_cmp_gt_i8(vx_t A, vx_t B) { return _mm_cmpgt_epi8(A, B); }
inline vx_t vx_cmp_gt_i16(vx_t A, vx_t B) { return _mm_cmpgt_epi16(A, B); }
inline vx_t vx_cmp_gt_i32(vx_t A, vx_t B) { return _mm_cmpgt_epi32(A, B); }
inline vx_t vx_cmp_lt_i8(vx_t A, vx_t B) { return _mm_cmplt_epi8(A, B); }
inline vx_t vx_cmp_lt_i16(vx_t A, vx_t B) { return _mm_cmplt_epi16(A, B); }
inline vx_t vx_cmp_lt_i32(vx_t A, vx_t B) { return _mm_cmplt_epi32(A, B); }
inline vx_t vx_cmp_le_i8(vx_t A, vx_t B) { return vx_not(vx_cmp_gt_i8(A, B)); }
inline vx_t vx_cmp_le_i16(vx_t A, vx_t B) {
  return vx_not(vx_cmp_gt_i16(A, B));
}
inline vx_t vx_cmp_le_i32(vx_t A, vx_t B) {
  return vx_not(vx_cmp_gt_i32(A, B));
}
inline vx_t vx_cmp_ge_i8(vx_t A, vx_t B) { return vx_not(vx_cmp_lt_i8(A, B)); }
inline vx_t vx_cmp_ge_i16(vx_t A, vx_t B) {
  return vx_not(vx_cmp_lt_i16(A, B));
}
inline vx_t vx_cmp_ge_i32(vx_t A, vx_t B) {
  return vx_not(vx_cmp_lt_i32(A, B));
}

//===----------------------------------------------------------------------===//
// AVX2: __m256i, V = 32. The cross-lane shift pair composes vperm2i128
// with the per-128-lane vpalignr; lanewise arithmetic is all native
// except byte mullo (widen/pack is per-lane symmetric, so the SSE2
// sequence carries over).
//===----------------------------------------------------------------------===//
#elif defined(SIMDIZE_NATIVE_ISA_AVX2)

#if SIMDIZE_NATIVE_V != 32
#error "AVX2 lowering requires V = 32"
#endif

#include <immintrin.h>

typedef __m256i vx_t;

inline vx_t vx_ld(const unsigned char *Addr) {
  uintptr_t P =
      reinterpret_cast<uintptr_t>(Addr) & ~static_cast<uintptr_t>(31);
  return _mm256_load_si256(reinterpret_cast<const __m256i *>(P));
}

inline void vx_st(unsigned char *Addr, vx_t V) {
  uintptr_t P =
      reinterpret_cast<uintptr_t>(Addr) & ~static_cast<uintptr_t>(31);
  _mm256_store_si256(reinterpret_cast<__m256i *>(P), V);
}

template <int N> inline vx_t vx_sld(vx_t A, vx_t B) {
  static_assert(N >= 0 && N <= 32, "shift immediate out of range");
  if constexpr (N == 0)
    return A;
  else if constexpr (N == 32)
    return B;
  else if constexpr (N == 16)
    return _mm256_permute2x128_si256(A, B, 0x21);
  else if constexpr (N < 16) {
    // Lane l of the result needs bytes [N, N+16) of concat(C_l, C_{l+1})
    // where C = [A_lo, A_hi, B_lo]; M = [A_hi, B_lo] supplies C_{l+1}.
    __m256i M = _mm256_permute2x128_si256(A, B, 0x21);
    return _mm256_alignr_epi8(M, A, N);
  } else {
    __m256i M = _mm256_permute2x128_si256(A, B, 0x21);
    return _mm256_alignr_epi8(B, M, N - 16);
  }
}

inline vx_t vx_shiftpair(vx_t A, vx_t B, long S) {
  alignas(32) unsigned char Concat[64];
  _mm256_store_si256(reinterpret_cast<__m256i *>(Concat), A);
  _mm256_store_si256(reinterpret_cast<__m256i *>(Concat + 32), B);
  return _mm256_loadu_si256(reinterpret_cast<const __m256i *>(Concat + S));
}

/// One unaligned load replaces vperm2i128 + vpalignr.
template <int N>
inline vx_t vx_sld_at(vx_t, vx_t, const unsigned char *Addr) {
  static_assert(N >= 0 && N <= 32, "shift immediate out of range");
  return _mm256_loadu_si256(simdize_x86_detail::realigned<__m256i>(Addr, N));
}

inline vx_t vx_shiftpair_at(vx_t, vx_t, long S, const unsigned char *Addr) {
  return _mm256_loadu_si256(simdize_x86_detail::realigned<__m256i>(Addr, S));
}

inline vx_t vx_splice(vx_t A, vx_t B, long P) {
  const __m256i Idx = _mm256_setr_epi8(
      0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19,
      20, 21, 22, 23, 24, 25, 26, 27, 28, 29, 30, 31);
  // Idx and P are in [0, 32], so the signed byte compare is exact.
  __m256i M = _mm256_cmpgt_epi8(_mm256_set1_epi8(static_cast<char>(P)), Idx);
  return _mm256_blendv_epi8(B, A, M);
}

inline vx_t vx_splat_i8(long V) {
  return _mm256_set1_epi8(static_cast<char>(V));
}
inline vx_t vx_splat_i16(long V) {
  return _mm256_set1_epi16(static_cast<short>(V));
}
inline vx_t vx_splat_i32(long V) {
  return _mm256_set1_epi32(static_cast<int>(V));
}

inline vx_t vx_add_i8(vx_t A, vx_t B) { return _mm256_add_epi8(A, B); }
inline vx_t vx_sub_i8(vx_t A, vx_t B) { return _mm256_sub_epi8(A, B); }
inline vx_t vx_add_i16(vx_t A, vx_t B) { return _mm256_add_epi16(A, B); }
inline vx_t vx_sub_i16(vx_t A, vx_t B) { return _mm256_sub_epi16(A, B); }
inline vx_t vx_add_i32(vx_t A, vx_t B) { return _mm256_add_epi32(A, B); }
inline vx_t vx_sub_i32(vx_t A, vx_t B) { return _mm256_sub_epi32(A, B); }
inline vx_t vx_mul_i16(vx_t A, vx_t B) { return _mm256_mullo_epi16(A, B); }
inline vx_t vx_mul_i32(vx_t A, vx_t B) { return _mm256_mullo_epi32(A, B); }

inline vx_t vx_mul_i8(vx_t A, vx_t B) {
  __m256i Z = _mm256_setzero_si256();
  __m256i Lo = _mm256_mullo_epi16(_mm256_unpacklo_epi8(A, Z),
                                  _mm256_unpacklo_epi8(B, Z));
  __m256i Hi = _mm256_mullo_epi16(_mm256_unpackhi_epi8(A, Z),
                                  _mm256_unpackhi_epi8(B, Z));
  __m256i M = _mm256_set1_epi16(0x00FF);
  return _mm256_packus_epi16(_mm256_and_si256(Lo, M),
                             _mm256_and_si256(Hi, M));
}

inline vx_t vx_and_i8(vx_t A, vx_t B) { return _mm256_and_si256(A, B); }
inline vx_t vx_or_i8(vx_t A, vx_t B) { return _mm256_or_si256(A, B); }
inline vx_t vx_xor_i8(vx_t A, vx_t B) { return _mm256_xor_si256(A, B); }
inline vx_t vx_and_i16(vx_t A, vx_t B) { return _mm256_and_si256(A, B); }
inline vx_t vx_or_i16(vx_t A, vx_t B) { return _mm256_or_si256(A, B); }
inline vx_t vx_xor_i16(vx_t A, vx_t B) { return _mm256_xor_si256(A, B); }
inline vx_t vx_and_i32(vx_t A, vx_t B) { return _mm256_and_si256(A, B); }
inline vx_t vx_or_i32(vx_t A, vx_t B) { return _mm256_or_si256(A, B); }
inline vx_t vx_xor_i32(vx_t A, vx_t B) { return _mm256_xor_si256(A, B); }

inline vx_t vx_min_i8(vx_t A, vx_t B) { return _mm256_min_epi8(A, B); }
inline vx_t vx_max_i8(vx_t A, vx_t B) { return _mm256_max_epi8(A, B); }
inline vx_t vx_min_i16(vx_t A, vx_t B) { return _mm256_min_epi16(A, B); }
inline vx_t vx_max_i16(vx_t A, vx_t B) { return _mm256_max_epi16(A, B); }
inline vx_t vx_min_i32(vx_t A, vx_t B) { return _mm256_min_epi32(A, B); }
inline vx_t vx_max_i32(vx_t A, vx_t B) { return _mm256_max_epi32(A, B); }

inline vx_t vx_sel(vx_t Mask, vx_t IfSet, vx_t IfClear) {
  return _mm256_or_si256(_mm256_and_si256(Mask, IfSet),
                         _mm256_andnot_si256(Mask, IfClear));
}

// Signed lane compares: eq/gt native, the rest by complement or swap.
inline vx_t vx_not256(vx_t A) {
  return _mm256_xor_si256(A, _mm256_set1_epi8(-1));
}

inline vx_t vx_cmp_eq_i8(vx_t A, vx_t B) { return _mm256_cmpeq_epi8(A, B); }
inline vx_t vx_cmp_eq_i16(vx_t A, vx_t B) { return _mm256_cmpeq_epi16(A, B); }
inline vx_t vx_cmp_eq_i32(vx_t A, vx_t B) { return _mm256_cmpeq_epi32(A, B); }
inline vx_t vx_cmp_ne_i8(vx_t A, vx_t B) {
  return vx_not256(vx_cmp_eq_i8(A, B));
}
inline vx_t vx_cmp_ne_i16(vx_t A, vx_t B) {
  return vx_not256(vx_cmp_eq_i16(A, B));
}
inline vx_t vx_cmp_ne_i32(vx_t A, vx_t B) {
  return vx_not256(vx_cmp_eq_i32(A, B));
}
inline vx_t vx_cmp_gt_i8(vx_t A, vx_t B) { return _mm256_cmpgt_epi8(A, B); }
inline vx_t vx_cmp_gt_i16(vx_t A, vx_t B) { return _mm256_cmpgt_epi16(A, B); }
inline vx_t vx_cmp_gt_i32(vx_t A, vx_t B) { return _mm256_cmpgt_epi32(A, B); }
inline vx_t vx_cmp_lt_i8(vx_t A, vx_t B) { return _mm256_cmpgt_epi8(B, A); }
inline vx_t vx_cmp_lt_i16(vx_t A, vx_t B) { return _mm256_cmpgt_epi16(B, A); }
inline vx_t vx_cmp_lt_i32(vx_t A, vx_t B) { return _mm256_cmpgt_epi32(B, A); }
inline vx_t vx_cmp_le_i8(vx_t A, vx_t B) {
  return vx_not256(vx_cmp_gt_i8(A, B));
}
inline vx_t vx_cmp_le_i16(vx_t A, vx_t B) {
  return vx_not256(vx_cmp_gt_i16(A, B));
}
inline vx_t vx_cmp_le_i32(vx_t A, vx_t B) {
  return vx_not256(vx_cmp_gt_i32(A, B));
}
inline vx_t vx_cmp_ge_i8(vx_t A, vx_t B) {
  return vx_not256(vx_cmp_lt_i8(A, B));
}
inline vx_t vx_cmp_ge_i16(vx_t A, vx_t B) {
  return vx_not256(vx_cmp_lt_i16(A, B));
}
inline vx_t vx_cmp_ge_i32(vx_t A, vx_t B) {
  return vx_not256(vx_cmp_lt_i32(A, B));
}

//===----------------------------------------------------------------------===//
// AVX-512 (F + BW): __m512i, V = 64. vsplice is a single masked blend.
// Immediate shifts stay in registers: valignd shifts the 128-byte pair by
// whole dwords, and byte-granular amounts widen the AVX2 trick to four
// lanes (two valignd pick adjacent 16-byte windows, one vpalignr
// finishes per lane). A runtime-amount vx_shiftpair of computed values
// still goes through an aligned spill of the pair; on load streams the
// emitter calls vx_shiftpair_at, one unaligned load.
//===----------------------------------------------------------------------===//
#elif defined(SIMDIZE_NATIVE_ISA_AVX512)

#if SIMDIZE_NATIVE_V != 64
#error "AVX-512 lowering requires V = 64"
#endif

#include <immintrin.h>

typedef __m512i vx_t;

inline vx_t vx_ld(const unsigned char *Addr) {
  uintptr_t P =
      reinterpret_cast<uintptr_t>(Addr) & ~static_cast<uintptr_t>(63);
  return _mm512_load_si512(reinterpret_cast<const void *>(P));
}

inline void vx_st(unsigned char *Addr, vx_t V) {
  uintptr_t P =
      reinterpret_cast<uintptr_t>(Addr) & ~static_cast<uintptr_t>(63);
  _mm512_store_si512(reinterpret_cast<void *>(P), V);
}

/// Runtime shift amount: valignd and vpalignr take only immediates, so
/// this spills the pair and reloads it unaligned.
inline vx_t vx_shiftpair(vx_t A, vx_t B, long S) {
  alignas(64) unsigned char Concat[128];
  _mm512_store_si512(reinterpret_cast<void *>(Concat), A);
  _mm512_store_si512(reinterpret_cast<void *>(Concat + 64), B);
  return _mm512_loadu_si512(reinterpret_cast<const void *>(Concat + S));
}

namespace simdize_x86_detail {

/// Bytes [4 K, 4 K + 64) of A ++ B, K in [0, 16]: one valignd. The
/// all-ones masked intrinsic is the same instruction; the unmasked one
/// merges from an undefined vector, which GCC 12 flags under -Wall.
template <int K> inline vx_t dwords(vx_t A, vx_t B) {
  static_assert(K >= 0 && K <= 16, "dword shift out of range");
  if constexpr (K == 0)
    return A;
  else if constexpr (K == 16)
    return B;
  else
    return _mm512_maskz_alignr_epi32(static_cast<__mmask16>(-1), B, A, K);
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
    return _mm512_alignr_epi8(simdize_x86_detail::dwords<4 * Q + 4>(A, B),
                              simdize_x86_detail::dwords<4 * Q>(A, B),
                              N % 16);
  }
}

/// A whole-dword amount keeps its single valignd: every unaligned 64-byte
/// load splits a cache line, and loading those too slowed the i16 and i32
/// kernels by up to a fifth (docs/NATIVE.md). Any other amount is one
/// unaligned load in place of two valignd and a vpalignr.
template <int N>
inline vx_t vx_sld_at(vx_t A, vx_t B, const unsigned char *Addr) {
  static_assert(N >= 0 && N <= 64, "shift immediate out of range");
  if constexpr (N % 4 == 0)
    return simdize_x86_detail::dwords<N / 4>(A, B);
  else
    return _mm512_loadu_si512(simdize_x86_detail::realigned<void>(Addr, N));
}

inline vx_t vx_shiftpair_at(vx_t, vx_t, long S, const unsigned char *Addr) {
  return _mm512_loadu_si512(simdize_x86_detail::realigned<void>(Addr, S));
}

inline vx_t vx_splice(vx_t A, vx_t B, long P) {
  __mmask64 M = P >= 64 ? ~static_cast<__mmask64>(0)
                        : ((static_cast<__mmask64>(1) << P) - 1);
  return _mm512_mask_blend_epi8(M, B, A);
}

inline vx_t vx_splat_i8(long V) {
  return _mm512_set1_epi8(static_cast<char>(V));
}
inline vx_t vx_splat_i16(long V) {
  return _mm512_set1_epi16(static_cast<short>(V));
}
inline vx_t vx_splat_i32(long V) {
  return _mm512_set1_epi32(static_cast<int>(V));
}

inline vx_t vx_add_i8(vx_t A, vx_t B) { return _mm512_add_epi8(A, B); }
inline vx_t vx_sub_i8(vx_t A, vx_t B) { return _mm512_sub_epi8(A, B); }
inline vx_t vx_add_i16(vx_t A, vx_t B) { return _mm512_add_epi16(A, B); }
inline vx_t vx_sub_i16(vx_t A, vx_t B) { return _mm512_sub_epi16(A, B); }
inline vx_t vx_add_i32(vx_t A, vx_t B) { return _mm512_add_epi32(A, B); }
inline vx_t vx_sub_i32(vx_t A, vx_t B) { return _mm512_sub_epi32(A, B); }
inline vx_t vx_mul_i16(vx_t A, vx_t B) { return _mm512_mullo_epi16(A, B); }
inline vx_t vx_mul_i32(vx_t A, vx_t B) { return _mm512_mullo_epi32(A, B); }

inline vx_t vx_mul_i8(vx_t A, vx_t B) {
  __m512i Z = _mm512_setzero_si512();
  __m512i Lo = _mm512_mullo_epi16(_mm512_unpacklo_epi8(A, Z),
                                  _mm512_unpacklo_epi8(B, Z));
  __m512i Hi = _mm512_mullo_epi16(_mm512_unpackhi_epi8(A, Z),
                                  _mm512_unpackhi_epi8(B, Z));
  __m512i M = _mm512_set1_epi16(0x00FF);
  return _mm512_packus_epi16(_mm512_and_si512(Lo, M),
                             _mm512_and_si512(Hi, M));
}

inline vx_t vx_and_i8(vx_t A, vx_t B) { return _mm512_and_si512(A, B); }
inline vx_t vx_or_i8(vx_t A, vx_t B) { return _mm512_or_si512(A, B); }
inline vx_t vx_xor_i8(vx_t A, vx_t B) { return _mm512_xor_si512(A, B); }
inline vx_t vx_and_i16(vx_t A, vx_t B) { return _mm512_and_si512(A, B); }
inline vx_t vx_or_i16(vx_t A, vx_t B) { return _mm512_or_si512(A, B); }
inline vx_t vx_xor_i16(vx_t A, vx_t B) { return _mm512_xor_si512(A, B); }
inline vx_t vx_and_i32(vx_t A, vx_t B) { return _mm512_and_si512(A, B); }
inline vx_t vx_or_i32(vx_t A, vx_t B) { return _mm512_or_si512(A, B); }
inline vx_t vx_xor_i32(vx_t A, vx_t B) { return _mm512_xor_si512(A, B); }

inline vx_t vx_min_i8(vx_t A, vx_t B) { return _mm512_min_epi8(A, B); }
inline vx_t vx_max_i8(vx_t A, vx_t B) { return _mm512_max_epi8(A, B); }
inline vx_t vx_min_i16(vx_t A, vx_t B) { return _mm512_min_epi16(A, B); }
inline vx_t vx_max_i16(vx_t A, vx_t B) { return _mm512_max_epi16(A, B); }
inline vx_t vx_min_i32(vx_t A, vx_t B) { return _mm512_min_epi32(A, B); }
inline vx_t vx_max_i32(vx_t A, vx_t B) { return _mm512_max_epi32(A, B); }

/// (Mask & IfSet) | (~Mask & IfClear) in one vpternlogd (truth table 0xCA:
/// bit = a ? b : c for operand order (Mask, IfSet, IfClear)).
inline vx_t vx_sel(vx_t Mask, vx_t IfSet, vx_t IfClear) {
  return _mm512_ternarylogic_epi64(Mask, IfSet, IfClear, 0xCA);
}

// AVX-512 compares produce predicate masks; expand them back to the
// all-ones/zero lane masks the VM models (maskz_set1 of -1).
inline vx_t vx_cmp_eq_i8(vx_t A, vx_t B) {
  return _mm512_maskz_set1_epi8(_mm512_cmpeq_epi8_mask(A, B), -1);
}
inline vx_t vx_cmp_ne_i8(vx_t A, vx_t B) {
  return _mm512_maskz_set1_epi8(_mm512_cmpneq_epi8_mask(A, B), -1);
}
inline vx_t vx_cmp_lt_i8(vx_t A, vx_t B) {
  return _mm512_maskz_set1_epi8(_mm512_cmplt_epi8_mask(A, B), -1);
}
inline vx_t vx_cmp_le_i8(vx_t A, vx_t B) {
  return _mm512_maskz_set1_epi8(_mm512_cmple_epi8_mask(A, B), -1);
}
inline vx_t vx_cmp_gt_i8(vx_t A, vx_t B) {
  return _mm512_maskz_set1_epi8(_mm512_cmpgt_epi8_mask(A, B), -1);
}
inline vx_t vx_cmp_ge_i8(vx_t A, vx_t B) {
  return _mm512_maskz_set1_epi8(_mm512_cmpge_epi8_mask(A, B), -1);
}
inline vx_t vx_cmp_eq_i16(vx_t A, vx_t B) {
  return _mm512_maskz_set1_epi16(_mm512_cmpeq_epi16_mask(A, B), -1);
}
inline vx_t vx_cmp_ne_i16(vx_t A, vx_t B) {
  return _mm512_maskz_set1_epi16(_mm512_cmpneq_epi16_mask(A, B), -1);
}
inline vx_t vx_cmp_lt_i16(vx_t A, vx_t B) {
  return _mm512_maskz_set1_epi16(_mm512_cmplt_epi16_mask(A, B), -1);
}
inline vx_t vx_cmp_le_i16(vx_t A, vx_t B) {
  return _mm512_maskz_set1_epi16(_mm512_cmple_epi16_mask(A, B), -1);
}
inline vx_t vx_cmp_gt_i16(vx_t A, vx_t B) {
  return _mm512_maskz_set1_epi16(_mm512_cmpgt_epi16_mask(A, B), -1);
}
inline vx_t vx_cmp_ge_i16(vx_t A, vx_t B) {
  return _mm512_maskz_set1_epi16(_mm512_cmpge_epi16_mask(A, B), -1);
}
inline vx_t vx_cmp_eq_i32(vx_t A, vx_t B) {
  return _mm512_maskz_set1_epi32(_mm512_cmpeq_epi32_mask(A, B), -1);
}
inline vx_t vx_cmp_ne_i32(vx_t A, vx_t B) {
  return _mm512_maskz_set1_epi32(_mm512_cmpneq_epi32_mask(A, B), -1);
}
inline vx_t vx_cmp_lt_i32(vx_t A, vx_t B) {
  return _mm512_maskz_set1_epi32(_mm512_cmplt_epi32_mask(A, B), -1);
}
inline vx_t vx_cmp_le_i32(vx_t A, vx_t B) {
  return _mm512_maskz_set1_epi32(_mm512_cmple_epi32_mask(A, B), -1);
}
inline vx_t vx_cmp_gt_i32(vx_t A, vx_t B) {
  return _mm512_maskz_set1_epi32(_mm512_cmpgt_epi32_mask(A, B), -1);
}
inline vx_t vx_cmp_ge_i32(vx_t A, vx_t B) {
  return _mm512_maskz_set1_epi32(_mm512_cmpge_epi32_mask(A, B), -1);
}

#else
#error "define exactly one SIMDIZE_NATIVE_ISA_{SHIM,SSE2,AVX2,AVX512}"
#endif

#endif // SIMDIZE_NATIVE_SIMDIZE_X86_H
