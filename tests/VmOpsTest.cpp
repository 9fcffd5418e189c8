//===- tests/VmOpsTest.cpp - The shared register operations, checked -----===//
//
// Part of the simdize project (PLDI 2004 alignment-constrained simdization).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Checks of native/simdize_vm_ops.h, the one definition of the VM's
/// register operations that the decoded engine and every native ISA share:
///
///  * a compile-time battery: every lane row at every lane width on every
///    pair of edge lanes (0, 1, -1 = the unsigned maximum, the signed
///    minimum and maximum) equals the reference interpreter's 64-bit
///    arithmetic. Constant evaluation rejects undefined behaviour, so a
///    row spelled to overflow int (uint16_t * uint16_t promotes to int)
///    stops this file from compiling;
///  * each row's name is the vx_ spelling the native emitter prints;
///  * a lane probe per (ISA, V): one TU applies every vx_<op>_i8/i16/i32
///    and vx_cmp_<pred>_i8/i16/i32 the rows name, and vx_splat, vx_splice
///    and vx_sel. Every host compiles and loads it for every ISA; where
///    the CPU runs the ISA, each result must equal the shared definition's
///    on all 65,536 i8 lane pairs, edge and random lanes at i16 and i32,
///    and every splice point. Emitted kernels reach an operation only when
///    their loops use it; this reaches all of them.
///
//===----------------------------------------------------------------------===//

#include "ir/Expr.h"
#include "native/NativeCompile.h"
#include "native/simdize_vm_ops.h"
#include "support/Format.h"
#include "vir/VInst.h"

#include <gtest/gtest.h>

#include <array>
#include <cstring>
#include <memory>
#include <random>
#include <string>
#include <vector>

using namespace simdize;

namespace {

//===----------------------------------------------------------------------===//
// Compile-time battery
//===----------------------------------------------------------------------===//

constexpr uint64_t laneMask(unsigned Bytes) {
  return (uint64_t(1) << (8 * Bytes)) - 1;
}

constexpr int64_t signExtend(uint64_t Bits, unsigned Bytes) {
  unsigned Shift = 64 - 8 * Bytes;
  return static_cast<int64_t>(Bits << Shift) >> Shift;
}

/// sim/Machine.cpp's lane arithmetic: 64-bit values, signed views for the
/// ordered operations, truncated to the lane.
constexpr uint64_t reference(ir::BinOpKind Kind, uint64_t X, uint64_t Y,
                             unsigned Bytes) {
  int64_t SX = signExtend(X, Bytes), SY = signExtend(Y, Bytes);
  uint64_t Res = 0;
  switch (Kind) {
  case ir::BinOpKind::Add:
    Res = X + Y;
    break;
  case ir::BinOpKind::Sub:
    Res = X - Y;
    break;
  case ir::BinOpKind::Mul:
    Res = X * Y;
    break;
  case ir::BinOpKind::Min:
    Res = SX < SY ? X : Y;
    break;
  case ir::BinOpKind::Max:
    Res = SX > SY ? X : Y;
    break;
  case ir::BinOpKind::And:
    Res = X & Y;
    break;
  case ir::BinOpKind::Or:
    Res = X | Y;
    break;
  case ir::BinOpKind::Xor:
    Res = X ^ Y;
    break;
  }
  return Res & laneMask(Bytes);
}

constexpr uint64_t reference(vir::SCmpKind Kind, uint64_t X, uint64_t Y,
                             unsigned Bytes) {
  int64_t SX = signExtend(X, Bytes), SY = signExtend(Y, Bytes);
  bool Taken = false;
  switch (Kind) {
  case vir::SCmpKind::LT:
    Taken = SX < SY;
    break;
  case vir::SCmpKind::LE:
    Taken = SX <= SY;
    break;
  case vir::SCmpKind::GT:
    Taken = SX > SY;
    break;
  case vir::SCmpKind::GE:
    Taken = SX >= SY;
    break;
  case vir::SCmpKind::EQ:
    Taken = SX == SY;
    break;
  case vir::SCmpKind::NE:
    Taken = SX != SY;
    break;
  }
  return Taken ? laneMask(Bytes) : 0;
}

/// Row \p Op at Bytes-wide lanes equals the reference on every pair of
/// 0, 1, -1 (the unsigned maximum), the signed minimum and maximum.
template <typename Op, unsigned Bytes, typename KindT>
constexpr bool rowMatchesReference(KindT Kind) {
  using U = typename simdize_vm::LaneOf<Bytes>::U;
  constexpr uint64_t Max = laneMask(Bytes);
  constexpr std::array<uint64_t, 5> Edges = {0, 1, Max, Max / 2 + 1, Max / 2};
  for (uint64_t X : Edges)
    for (uint64_t Y : Edges)
      if (simdize_vm::lane<Op, Bytes>(static_cast<U>(X), static_cast<U>(Y)) !=
          reference(Kind, X, Y, Bytes))
        return false;
  return true;
}

#define SIMDIZE_TEST_BATTERY(KIND_TYPE, KIND, NAME)                          \
  static_assert(                                                             \
      rowMatchesReference<simdize_vm::NAME, 1>(KIND_TYPE::KIND) &&           \
          rowMatchesReference<simdize_vm::NAME, 2>(KIND_TYPE::KIND) &&       \
          rowMatchesReference<simdize_vm::NAME, 4>(KIND_TYPE::KIND),         \
      #NAME " disagrees with the reference on an edge lane");
#define SIMDIZE_TEST_BINOP(KIND, NAME, SIGN, EXPR)                           \
  SIMDIZE_TEST_BATTERY(ir::BinOpKind, KIND, NAME)
#define SIMDIZE_TEST_CMP(KIND, NAME, SIGN, EXPR)                             \
  SIMDIZE_TEST_BATTERY(vir::SCmpKind, KIND, NAME)
SIMDIZE_VM_BINOPS(SIMDIZE_TEST_BINOP)
SIMDIZE_VM_CMPS(SIMDIZE_TEST_CMP)
#undef SIMDIZE_TEST_CMP
#undef SIMDIZE_TEST_BINOP
#undef SIMDIZE_TEST_BATTERY

//===----------------------------------------------------------------------===//
// Names
//===----------------------------------------------------------------------===//

TEST(VmOps, RowNamesAreTheEmitterSpellings) {
  // NativeEmitter prints vx_<binOpMnemonic>_iN and vx_cmp_<sCmpName>_iN;
  // the shim defines NAME_iN from the rows.
#define SIMDIZE_TEST_BINOP(KIND, NAME, SIGN, EXPR)                           \
  EXPECT_EQ(std::string(#NAME),                                              \
            std::string("vx_") + ir::binOpMnemonic(ir::BinOpKind::KIND));
#define SIMDIZE_TEST_CMP(KIND, NAME, SIGN, EXPR)                             \
  EXPECT_EQ(std::string(#NAME),                                              \
            std::string("vx_cmp_") + vir::sCmpName(vir::SCmpKind::KIND));
  SIMDIZE_VM_BINOPS(SIMDIZE_TEST_BINOP)
  SIMDIZE_VM_CMPS(SIMDIZE_TEST_CMP)
#undef SIMDIZE_TEST_CMP
#undef SIMDIZE_TEST_BINOP
}

//===----------------------------------------------------------------------===//
// Lane probe
//===----------------------------------------------------------------------===//

/// Bytes per probe input: one i8 lane pair per byte, every pair once.
constexpr size_t ProbeBytes = size_t(1) << 16;

/// The probe TU. probe_<NAME>_<iN> runs one row's wrapper over whole
/// buffers V bytes at a time; probe_splat, probe_splice and probe_sel run
/// the other register operations.
std::string probeSource(native::ISA Isa, unsigned V) {
  std::string Src = strf("#define SIMDIZE_NATIVE_V %u\n#define %s 1\n", V,
                         native::isaDefine(Isa));
  Src += R"(#include "simdize_x86.h"

#define PROBE_AT(NAME, W)                                                    \
  extern "C" void probe_##NAME##_##W(const unsigned char *A,                 \
                                     const unsigned char *B,                 \
                                     unsigned char *Out, long Bytes) {       \
    for (long K = 0; K < Bytes; K += SIMDIZE_NATIVE_V)                       \
      vx_st(Out + K, NAME##_##W(vx_ld(A + K), vx_ld(B + K)));                \
  }
#define PROBE(KIND, NAME, SIGN, EXPR)                                        \
  PROBE_AT(NAME, i8) PROBE_AT(NAME, i16) PROBE_AT(NAME, i32)
SIMDIZE_VM_BINOPS(PROBE)
SIMDIZE_VM_CMPS(PROBE)

extern "C" void probe_splat(long Value, unsigned char *Out) {
  vx_st(Out, vx_splat_i8(Value));
  vx_st(Out + SIMDIZE_NATIVE_V, vx_splat_i16(Value));
  vx_st(Out + 2 * SIMDIZE_NATIVE_V, vx_splat_i32(Value));
}

extern "C" void probe_splice(const unsigned char *A, const unsigned char *B,
                             long P, unsigned char *Out) {
  vx_st(Out, vx_splice(vx_ld(A), vx_ld(B), P));
}

extern "C" void probe_sel(const unsigned char *M, const unsigned char *S,
                          const unsigned char *C, unsigned char *Out,
                          long Bytes) {
  for (long K = 0; K < Bytes; K += SIMDIZE_NATIVE_V)
    vx_st(Out + K, vx_sel(vx_ld(M + K), vx_ld(S + K), vx_ld(C + K)));
}
)";
  return Src;
}

using LaneKernel = void (*)(uint8_t *, const uint8_t *, const uint8_t *,
                            unsigned);

/// One row at one lane width: its probe symbol and the shared definition.
struct LaneRow {
  const char *Symbol;
  unsigned Bytes;
  LaneKernel Shared;
};

std::vector<LaneRow> laneRows() {
  std::vector<LaneRow> Rows;
#define SIMDIZE_TEST_ROW(KIND, NAME, SIGN, EXPR)                             \
  Rows.push_back(                                                            \
      {"probe_" #NAME "_i8", 1, simdize_vm::lanes<simdize_vm::NAME, 1>});    \
  Rows.push_back(                                                            \
      {"probe_" #NAME "_i16", 2, simdize_vm::lanes<simdize_vm::NAME, 2>});   \
  Rows.push_back(                                                            \
      {"probe_" #NAME "_i32", 4, simdize_vm::lanes<simdize_vm::NAME, 4>});
  SIMDIZE_VM_BINOPS(SIMDIZE_TEST_ROW)
  SIMDIZE_VM_CMPS(SIMDIZE_TEST_ROW)
#undef SIMDIZE_TEST_ROW
  return Rows;
}

/// V-aligned probe buffers: vx_ld / vx_st truncate addresses to V bytes.
struct alignas(64) ProbeBuffers {
  uint8_t A[ProbeBytes], B[ProbeBytes], C[ProbeBytes];
  uint8_t Got[ProbeBytes], Want[ProbeBytes];
};

/// Lane pairs of A and B at \p Bytes: at i8 every pair once; wider, every
/// pair of edge lanes (0, 1, 2, the unsigned maximum and one below, the
/// signed maximum and minimum and their neighbours), then random lanes.
void fillLanes(ProbeBuffers &Buf, unsigned Bytes, std::mt19937 &Rng) {
  if (Bytes == 1) {
    for (size_t K = 0; K < ProbeBytes; ++K) {
      Buf.A[K] = static_cast<uint8_t>(K);
      Buf.B[K] = static_cast<uint8_t>(K >> 8);
    }
    return;
  }
  for (size_t K = 0; K < ProbeBytes; ++K) {
    Buf.A[K] = static_cast<uint8_t>(Rng());
    Buf.B[K] = static_cast<uint8_t>(Rng());
  }
  const uint64_t Max = laneMask(Bytes);
  const uint64_t Edges[] = {0,           1,           2,
                            Max,         Max - 1,     Max / 2,
                            Max / 2 - 1, Max / 2 + 1, Max / 2 + 2};
  size_t At = 0;
  for (uint64_t X : Edges)
    for (uint64_t Y : Edges) {
      // The low Bytes bytes of a little-endian uint64_t.
      std::memcpy(Buf.A + At, &X, Bytes);
      std::memcpy(Buf.B + At, &Y, Bytes);
      At += Bytes;
    }
}

/// "" when the Bytes-wide lanes of Got and Want agree, else the first lane
/// that differs with its inputs.
std::string firstMismatch(const ProbeBuffers &Buf, unsigned Bytes) {
  for (size_t K = 0; K < ProbeBytes; K += Bytes) {
    if (std::memcmp(Buf.Got + K, Buf.Want + K, Bytes) == 0)
      continue;
    auto Hex = [&](const uint8_t *P) {
      uint64_t Lane = 0;
      std::memcpy(&Lane, P + K, Bytes);
      return strf("0x%llx", static_cast<unsigned long long>(Lane));
    };
    return strf("lane %zu: (%s, %s) gave %s, want %s", K / Bytes,
                Hex(Buf.A).c_str(), Hex(Buf.B).c_str(), Hex(Buf.Got).c_str(),
                Hex(Buf.Want).c_str());
  }
  return std::string();
}

struct LaneCase {
  native::ISA Isa;
  unsigned V;
};

class NativeLanes : public ::testing::TestWithParam<LaneCase> {};

TEST_P(NativeLanes, EveryOperationMatchesTheSharedDefinition) {
  auto [Isa, V] = GetParam();
  // Every host builds and loads each ISA's whole lowering; only running it
  // needs the CPU feature.
  std::string Error;
  const native::CompiledModule *M =
      native::compileAndLoad(probeSource(Isa, V), Isa, &Error);
  ASSERT_NE(M, nullptr) << Error;
  using LaneFn = void (*)(const uint8_t *, const uint8_t *, uint8_t *, long);
  using SplatFn = void (*)(long, uint8_t *);
  using SpliceFn = void (*)(const uint8_t *, const uint8_t *, long,
                            uint8_t *);
  using SelFn = void (*)(const uint8_t *, const uint8_t *, const uint8_t *,
                         uint8_t *, long);
  auto Splat = reinterpret_cast<SplatFn>(M->symbol("probe_splat"));
  auto Splice = reinterpret_cast<SpliceFn>(M->symbol("probe_splice"));
  auto Sel = reinterpret_cast<SelFn>(M->symbol("probe_sel"));
  ASSERT_NE(Splat, nullptr);
  ASSERT_NE(Splice, nullptr);
  ASSERT_NE(Sel, nullptr);
  const std::vector<LaneRow> Rows = laneRows();
  for (const LaneRow &Row : Rows)
    ASSERT_NE(M->symbol(Row.Symbol), nullptr) << Row.Symbol;
  if (!native::hostSupportsISA(Isa))
    GTEST_SKIP() << native::isaName(Isa) << " is not available on this CPU";

  auto Buf = std::make_unique<ProbeBuffers>();
  std::mt19937 Rng(V * 31 + static_cast<unsigned>(Isa));
  for (unsigned Bytes : {1u, 2u, 4u}) {
    fillLanes(*Buf, Bytes, Rng);
    for (const LaneRow &Row : Rows) {
      if (Row.Bytes != Bytes)
        continue;
      auto Probe = reinterpret_cast<LaneFn>(M->symbol(Row.Symbol));
      Probe(Buf->A, Buf->B, Buf->Got, static_cast<long>(ProbeBytes));
      Row.Shared(Buf->Want, Buf->A, Buf->B, ProbeBytes);
      EXPECT_EQ(firstMismatch(*Buf, Bytes), "") << Row.Symbol;
    }
  }

  for (size_t K = 0; K < ProbeBytes; ++K) {
    Buf->A[K] = static_cast<uint8_t>(Rng());
    Buf->B[K] = static_cast<uint8_t>(Rng());
    Buf->C[K] = static_cast<uint8_t>(Rng());
  }
  Sel(Buf->A, Buf->B, Buf->C, Buf->Got, static_cast<long>(ProbeBytes));
  simdize_vm::vselect(Buf->Want, Buf->A, Buf->B, Buf->C, ProbeBytes);
  EXPECT_EQ(std::memcmp(Buf->Got, Buf->Want, ProbeBytes), 0) << "vx_sel";

  for (unsigned P = 0; P <= V; ++P) {
    Splice(Buf->A, Buf->B, static_cast<long>(P), Buf->Got);
    simdize_vm::vsplice(Buf->Want, Buf->A, Buf->B, P, V);
    EXPECT_EQ(std::memcmp(Buf->Got, Buf->Want, V), 0)
        << "vx_splice(A, B, " << P << ")";
  }

  for (long Value : {0L, 1L, -1L, 127L, 128L, -128L, 255L, 32767L, -32768L,
                     65535L, 2147483647L, -2147483648L, 0x123456789abcL,
                     static_cast<long>(Rng())}) {
    Splat(Value, Buf->Got);
    for (unsigned K = 0; K < 3; ++K)
      simdize_vm::splat(Buf->Want + K * V, Value, 1u << K, V);
    EXPECT_EQ(std::memcmp(Buf->Got, Buf->Want, 3 * V), 0)
        << "vx_splat_i8/i16/i32(" << Value << ")";
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllISAs, NativeLanes,
    ::testing::Values(LaneCase{native::ISA::Shim, 16},
                      LaneCase{native::ISA::Shim, 32},
                      LaneCase{native::ISA::Shim, 64},
                      LaneCase{native::ISA::SSE2, 16},
                      LaneCase{native::ISA::AVX2, 32},
                      LaneCase{native::ISA::AVX512, 64}),
    [](const ::testing::TestParamInfo<LaneCase> &Info) {
      return strf("%s_v%u", native::isaName(Info.param.Isa), Info.param.V);
    });

} // namespace
