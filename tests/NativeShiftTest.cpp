//===- tests/NativeShiftTest.cpp - Every stream shift on every ISA --------===//
//
// Part of the simdize project (PLDI 2004 alignment-constrained simdization).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Exhaustive check of the wrapper header's stream-shift primitives: for
/// each (ISA, V) the host can run, one probe TU built through
/// native::compileAndLoad applies vx_sld<N> and vx_sld_at<N> for every
/// immediate N in [0, V], and vx_shiftpair(A, B, S) and
/// vx_shiftpair_at(A, B, S, P) for every runtime S in [0, V], to random
/// bytes, and each result must equal bytes [N, N+V) of A ++ B. The _at
/// forms get A and B loaded from the chunks at trunc(P) and trunc(P) + V,
/// with P anywhere in the first chunk, as the emitter calls them on a load
/// stream; on AVX-512 vx_sld_at takes both of its branches (valignd for
/// whole dwords, an unaligned load otherwise). Emitted kernels reach only
/// the shift amounts their loops need; this reaches all of them,
/// including every byte-granular one.
///
//===----------------------------------------------------------------------===//

#include "native/NativeCompile.h"
#include "support/Format.h"

#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <random>

using namespace simdize;

namespace {

constexpr unsigned MaxV = 64;

/// The probe TU: probe_sld stores vx_sld<N>(A, B) at Out + N*V for every
/// N; probe_shiftpair stores vx_shiftpair(A, B, S) for one runtime S. The
/// probe_*_at entries do the same through the _at forms with the chunk
/// pair's address In + Off.
std::string probeSource(native::ISA Isa, unsigned V) {
  std::string Src = strf("#define SIMDIZE_NATIVE_V %u\n#define %s 1\n", V,
                         native::isaDefine(Isa));
  Src += R"(#include "simdize_x86.h"
#include <utility>

template <int... N>
void sldAll(vx_t A, vx_t B, unsigned char *Out,
            std::integer_sequence<int, N...>) {
  (vx_st(Out + N * SIMDIZE_NATIVE_V, vx_sld<N>(A, B)), ...);
}

extern "C" void probe_sld(const unsigned char *In, unsigned char *Out) {
  sldAll(vx_ld(In), vx_ld(In + SIMDIZE_NATIVE_V), Out,
         std::make_integer_sequence<int, SIMDIZE_NATIVE_V + 1>());
}

extern "C" void probe_shiftpair(const unsigned char *In, long S,
                                unsigned char *Out) {
  vx_st(Out, vx_shiftpair(vx_ld(In), vx_ld(In + SIMDIZE_NATIVE_V), S));
}

template <int... N>
void sldAtAll(const unsigned char *P, unsigned char *Out,
              std::integer_sequence<int, N...>) {
  vx_t A = vx_ld(P), B = vx_ld(P + SIMDIZE_NATIVE_V);
  (vx_st(Out + N * SIMDIZE_NATIVE_V, vx_sld_at<N>(A, B, P)), ...);
}

extern "C" void probe_sld_at(const unsigned char *In, long Off,
                             unsigned char *Out) {
  sldAtAll(In + Off, Out,
           std::make_integer_sequence<int, SIMDIZE_NATIVE_V + 1>());
}

extern "C" void probe_shiftpair_at(const unsigned char *In, long Off, long S,
                                   unsigned char *Out) {
  const unsigned char *P = In + Off;
  vx_st(Out, vx_shiftpair_at(vx_ld(P), vx_ld(P + SIMDIZE_NATIVE_V), S, P));
}
)";
  return Src;
}

/// V-aligned buffers: vx_ld / vx_st truncate addresses to V bytes.
struct alignas(MaxV) ProbeBuffers {
  unsigned char In[2 * MaxV];
  unsigned char Out[(MaxV + 1) * MaxV];
};

struct ShiftCase {
  native::ISA Isa;
  unsigned V;
};

class NativeShifts : public ::testing::TestWithParam<ShiftCase> {};

TEST_P(NativeShifts, EveryAmountMatchesConcatWindow) {
  auto [Isa, V] = GetParam();
  if (!native::hostSupportsISA(Isa))
    GTEST_SKIP() << native::isaName(Isa) << " is not available on this CPU";

  std::string Error;
  const native::CompiledModule *M =
      native::compileAndLoad(probeSource(Isa, V), Isa, &Error);
  ASSERT_NE(M, nullptr) << Error;
  using SldFn = void (*)(const unsigned char *, unsigned char *);
  using PairFn = void (*)(const unsigned char *, long, unsigned char *);
  using SldAtFn = void (*)(const unsigned char *, long, unsigned char *);
  using PairAtFn = void (*)(const unsigned char *, long, long,
                            unsigned char *);
  auto Sld = reinterpret_cast<SldFn>(M->symbol("probe_sld"));
  auto Pair = reinterpret_cast<PairFn>(M->symbol("probe_shiftpair"));
  auto SldAt = reinterpret_cast<SldAtFn>(M->symbol("probe_sld_at"));
  auto PairAt = reinterpret_cast<PairAtFn>(M->symbol("probe_shiftpair_at"));
  ASSERT_NE(Sld, nullptr);
  ASSERT_NE(Pair, nullptr);
  ASSERT_NE(SldAt, nullptr);
  ASSERT_NE(PairAt, nullptr);

  auto Buf = std::make_unique<ProbeBuffers>();
  std::mt19937 Rng(V * 31 + static_cast<unsigned>(Isa));
  for (int Draw = 0; Draw < 4; ++Draw) {
    for (unsigned K = 0; K < 2 * V; ++K)
      Buf->In[K] = static_cast<unsigned char>(Rng());

    std::memset(Buf->Out, 0, sizeof(Buf->Out));
    Sld(Buf->In, Buf->Out);
    for (unsigned N = 0; N <= V; ++N)
      EXPECT_EQ(std::memcmp(Buf->Out + N * V, Buf->In + N, V), 0)
          << "vx_sld<" << N << "> draw " << Draw;

    for (unsigned S = 0; S <= V; ++S) {
      std::memset(Buf->Out, 0, V);
      Pair(Buf->In, static_cast<long>(S), Buf->Out);
      EXPECT_EQ(std::memcmp(Buf->Out, Buf->In + S, V), 0)
          << "vx_shiftpair(A, B, " << S << ") draw " << Draw;
    }

    // The chunk pair's address anywhere in its first chunk: the first and
    // last byte, and a random one.
    for (long Off : {0L, static_cast<long>(V - 1),
                     static_cast<long>(Rng() % V)}) {
      std::memset(Buf->Out, 0, sizeof(Buf->Out));
      SldAt(Buf->In, Off, Buf->Out);
      for (unsigned N = 0; N <= V; ++N)
        EXPECT_EQ(std::memcmp(Buf->Out + N * V, Buf->In + N, V), 0)
            << "vx_sld_at<" << N << "> at +" << Off << " draw " << Draw;

      for (unsigned S = 0; S <= V; ++S) {
        std::memset(Buf->Out, 0, V);
        PairAt(Buf->In, Off, static_cast<long>(S), Buf->Out);
        EXPECT_EQ(std::memcmp(Buf->Out, Buf->In + S, V), 0)
            << "vx_shiftpair_at(A, B, " << S << ") at +" << Off << " draw "
            << Draw;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllISAs, NativeShifts,
    ::testing::Values(ShiftCase{native::ISA::Shim, 16},
                      ShiftCase{native::ISA::Shim, 32},
                      ShiftCase{native::ISA::Shim, 64},
                      ShiftCase{native::ISA::SSE2, 16},
                      ShiftCase{native::ISA::AVX2, 32},
                      ShiftCase{native::ISA::AVX512, 64}),
    [](const ::testing::TestParamInfo<ShiftCase> &Info) {
      return strf("%s_v%u", native::isaName(Info.param.Isa), Info.param.V);
    });

} // namespace
