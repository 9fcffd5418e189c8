//===- tests/native/vx_every_op.cpp - Every vx_ operation, compiled ------===//
//
// Part of the simdize project (PLDI 2004 alignment-constrained simdization).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// One call of every operation of simdize_x86.h: each lane row of
/// SIMDIZE_VM_BINOPS and SIMDIZE_VM_CMPS at i8, i16 and i32, the splats,
/// vx_sel, vx_splice, vx_sld<N> and vx_sld_at<N> for every N in [0, V],
/// vx_shiftpair and vx_shiftpair_at. An emitted kernel reaches only the
/// operations its loop uses, so compiling this under each ISA's feature
/// flags with -Wall -Wextra -Werror is what keeps a warning out of every
/// row (CI's native-isa-matrix job does, on every push):
///
///   c++ -std=c++20 -O2 -Wall -Wextra -Werror -mavx2
///       -DSIMDIZE_NATIVE_V=32 -DSIMDIZE_NATIVE_ISA_AVX2 -I src/native
///       -c tests/native/vx_every_op.cpp -o /dev/null
///
/// tests/VmOpsTest.cpp and tests/NativeShiftTest.cpp run the same
/// operations against the shared definition on the ISAs the host has.
///
//===----------------------------------------------------------------------===//

#include "simdize_x86.h"

#include <utility>

constexpr long V = SIMDIZE_NATIVE_V;

#define EVERY_OP_ROW(KIND, NAME, SIGN, EXPR)                                 \
  extern "C" void every_##NAME(const unsigned char *In, unsigned char *Out) { \
    vx_t A = vx_ld(In), B = vx_ld(In + V);                                   \
    vx_st(Out, NAME##_i8(A, B));                                             \
    vx_st(Out + V, NAME##_i16(A, B));                                        \
    vx_st(Out + 2 * V, NAME##_i32(A, B));                                    \
  }
SIMDIZE_VM_BINOPS(EVERY_OP_ROW)
SIMDIZE_VM_CMPS(EVERY_OP_ROW)
#undef EVERY_OP_ROW

extern "C" void every_register_op(const unsigned char *In, long Value,
                                  long P, unsigned char *Out) {
  vx_t A = vx_ld(In), B = vx_ld(In + V), C = vx_ld(In + 2 * V);
  vx_st(Out, vx_splat_i8(Value));
  vx_st(Out + V, vx_splat_i16(Value));
  vx_st(Out + 2 * V, vx_splat_i32(Value));
  vx_st(Out + 3 * V, vx_sel(A, B, C));
  vx_st(Out + 4 * V, vx_splice(A, B, P));
}

/// Out[2N] = vx_sld<N>, Out[2N + 1] = vx_sld_at<N> for every N, then the
/// two runtime-amount forms.
template <int... N>
void everyShift(const unsigned char *In, long S, unsigned char *Out,
                std::integer_sequence<int, N...>) {
  vx_t A = vx_ld(In), B = vx_ld(In + V);
  (vx_st(Out + 2 * N * V, vx_sld<N>(A, B)), ...);
  (vx_st(Out + (2 * N + 1) * V, vx_sld_at<N>(A, B, In)), ...);
  vx_st(Out + 2 * (V + 1) * V, vx_shiftpair(A, B, S));
  vx_st(Out + (2 * (V + 1) + 1) * V, vx_shiftpair_at(A, B, S, In));
}

extern "C" void every_shift(const unsigned char *In, long S,
                            unsigned char *Out) {
  everyShift(In, S, Out, std::make_integer_sequence<int, V + 1>());
}
