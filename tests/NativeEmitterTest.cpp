//===- tests/NativeEmitterTest.cpp - The native host-SIMD execution tier -===//
//
// Part of the simdize project (PLDI 2004 alignment-constrained simdization).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The native backend end to end: structural checks on the emitted
/// intrinsic text, ISA/width admissibility and CPUID-based degradation,
/// the portable shim at V = 32/64 (vshiftpair/vsplice edge lanes,
/// truncating loads/stores, predicated epilogue stores) compiled and run
/// like LowerToCTest, the hardware ISAs gated on host support, the
/// content-hash compile cache, batched multi-kernel modules, and the
/// pipeline facade's native execution tier.
///
//===----------------------------------------------------------------------===//

#include "ir/IRBuilder.h"
#include "ir/Loop.h"
#include "lower/AltiVecEmitter.h"
#include "lower/KernelEmitter.h"
#include "native/NativeCompile.h"
#include "native/NativeEmitter.h"
#include "native/NativeRun.h"
#include "pipeline/Pipeline.h"
#include "sim/Checker.h"
#include "support/Format.h"
#include "synth/LoopSynth.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <iterator>
#include <random>

using namespace simdize;

namespace {

/// Figure 1's loop shape at an arbitrary element type / alignment set.
ir::Loop figureOneLoop(ir::ElemType Ty) {
  ir::Loop L;
  ir::Array *A = L.createArray("a", Ty, 256, 0, true);
  ir::Array *B = L.createArray("b", Ty, 256, 0, true);
  ir::Array *C = L.createArray("c", Ty, 256, 0, true);
  L.addStmt(A, 3, ir::add(ir::ref(B, 1), ir::ref(C, 2)));
  L.setUpperBound(100, true);
  return L;
}

vir::VProgram compileFor(const ir::Loop &L, unsigned V,
                         policies::PolicyKind Policy, bool SP) {
  pipeline::CompileRequest Req;
  Req.Simd.Policy = Policy;
  Req.Simd.SoftwarePipelining = SP;
  Req.Simd.Tgt = Target(V);
  pipeline::CompileResult R = pipeline::runPipeline(L, Req);
  EXPECT_TRUE(R.ok()) << R.error();
  return std::move(*R.Simd.Program);
}

TEST(NativeEmitter, StructuralMapping) {
  ir::Loop L = figureOneLoop(ir::ElemType::Int32);
  vir::VProgram P = compileFor(L, 32, policies::PolicyKind::Eager, false);
  lower::LowerResult Lowered =
      native::emitNativeKernel(P, L, "kern", native::ISA::AVX2);
  ASSERT_TRUE(Lowered.ok()) << Lowered.Error;
  const std::string &Src = Lowered.Code;

  // The module selects the wrapper ISA/width and maps every vector op
  // onto vx_* calls; the signature is the shared KernelEmitter one.
  EXPECT_NE(Src.find("#define SIMDIZE_NATIVE_V 32"), std::string::npos);
  EXPECT_NE(Src.find("#define SIMDIZE_NATIVE_ISA_AVX2 1"),
            std::string::npos);
  EXPECT_NE(Src.find("#include \"simdize_x86.h\""), std::string::npos);
  EXPECT_NE(Src.find("void kern(unsigned char *a, unsigned char *b, "
                     "unsigned char *c, long ub)"),
            std::string::npos);
  EXPECT_NE(Src.find("vx_ld("), std::string::npos);
  EXPECT_NE(Src.find("vx_st("), std::string::npos);
  EXPECT_NE(Src.find("vx_sld<"), std::string::npos);
  EXPECT_NE(Src.find("vx_splice("), std::string::npos);
  EXPECT_NE(Src.find("vx_add_i32("), std::string::npos);
  // Emission is host-independent: no image adapter was requested.
  EXPECT_EQ(Src.find("_image"), std::string::npos);
}

TEST(NativeEmitter, SharesSignatureWithAltiVec) {
  ir::Loop L = figureOneLoop(ir::ElemType::Int32);
  vir::VProgram P = compileFor(L, 16, policies::PolicyKind::Zero, false);
  lower::LowerResult Alti = lower::emitAltiVecKernel(P, L, "kern");
  lower::LowerResult Nat =
      native::emitNativeKernel(P, L, "kern", native::ISA::SSE2);
  ASSERT_TRUE(Alti.ok());
  ASSERT_TRUE(Nat.ok());
  std::string Sig = lower::KernelEmitter::signature(L, "kern");
  EXPECT_NE(Alti.Code.find(Sig), std::string::npos);
  EXPECT_NE(Nat.Code.find(Sig), std::string::npos);
}

TEST(NativeEmitter, RejectsWidthISAMismatch) {
  ir::Loop L = figureOneLoop(ir::ElemType::Int32);
  vir::VProgram P = compileFor(L, 32, policies::PolicyKind::Zero, false);
  lower::LowerResult R =
      native::emitNativeKernel(P, L, "kern", native::ISA::SSE2);
  EXPECT_FALSE(R.ok());
  EXPECT_NE(R.Error.find("cannot realize V = 32"), std::string::npos);

  // Mixed widths inside one module are rejected too.
  vir::VProgram P16 = compileFor(L, 16, policies::PolicyKind::Zero, false);
  native::KernelSpec K1{&P, &L, "k0", {}};
  native::KernelSpec K2{&P16, &L, "k1", {}};
  lower::LowerResult Mixed =
      native::emitNativeModule({K1, K2}, 32, native::ISA::Shim);
  EXPECT_FALSE(Mixed.ok());
  EXPECT_NE(Mixed.Error.find("simdized for V = 16"), std::string::npos);
}

TEST(NativeISA, WidthAdmissibilityAndNames) {
  using native::ISA;
  EXPECT_TRUE(native::isaSupportsWidth(ISA::SSE2, 16));
  EXPECT_FALSE(native::isaSupportsWidth(ISA::SSE2, 32));
  EXPECT_TRUE(native::isaSupportsWidth(ISA::AVX2, 32));
  EXPECT_FALSE(native::isaSupportsWidth(ISA::AVX2, 64));
  EXPECT_TRUE(native::isaSupportsWidth(ISA::AVX512, 64));
  EXPECT_FALSE(native::isaSupportsWidth(ISA::AVX512, 16));
  for (unsigned V : {4u, 8u, 16u, 32u, 64u})
    EXPECT_TRUE(native::isaSupportsWidth(ISA::Shim, V)) << V;
  EXPECT_FALSE(native::isaSupportsWidth(ISA::Shim, 24));

  for (ISA I : native::AllISAs)
    EXPECT_EQ(native::parseISAName(native::isaName(I)), I);
  EXPECT_FALSE(native::parseISAName("avx1024").has_value());

  EXPECT_EQ(native::canonicalISAForWidth(16), ISA::SSE2);
  EXPECT_EQ(native::canonicalISAForWidth(32), ISA::AVX2);
  EXPECT_EQ(native::canonicalISAForWidth(64), ISA::AVX512);
  EXPECT_EQ(native::canonicalISAForWidth(8), ISA::Shim);
}

TEST(NativeISA, DegradationIsAlwaysRunnable) {
  // Whatever the host, every width resolves to an ISA that both supports
  // the width and runs here — the graceful-degradation guarantee.
  for (unsigned V : {16u, 32u, 64u}) {
    for (native::ISA Req : native::AllISAs) {
      native::ISA Used = native::resolveISAForRun(V, Req);
      EXPECT_TRUE(native::isaSupportsWidth(Used, V));
      EXPECT_TRUE(native::hostSupportsISA(Used));
    }
    native::ISA Best = native::bestISAForWidth(V);
    EXPECT_TRUE(native::hostSupportsISA(Best));
    EXPECT_TRUE(native::isaSupportsWidth(Best, V));
  }
}

/// Compiles \p L at width \p V under \p Policy, then runs it natively on
/// the reference image with \p Isa and requires bit-identity with the
/// scalar oracle.
void expectNativeMatches(const ir::Loop &L, unsigned V,
                         policies::PolicyKind Policy, bool SP,
                         native::ISA Isa, uint64_t Seed = 7) {
  vir::VProgram P = compileFor(L, V, Policy, SP);
  sim::ReferenceImage Ref(L, V, Seed);
  std::optional<std::string> Err =
      native::diffNativeAgainstOracle(L, P, Ref, Isa);
  EXPECT_FALSE(Err.has_value()) << *Err;
}

// Satellite coverage: the portable shim at V = 32/64 — immediate
// vshiftpair (edge lanes included via offsets spanning a whole register),
// vsplice on the first/last lanes of prologue/epilogue stores, and
// truncating loads/stores on misaligned streams.
TEST(NativeShimWide, ShiftAndSpliceV32) {
  ir::Loop L = figureOneLoop(ir::ElemType::Int32);
  expectNativeMatches(L, 32, policies::PolicyKind::Eager, false,
                      native::ISA::Shim);
  expectNativeMatches(L, 32, policies::PolicyKind::Lazy, true,
                      native::ISA::Shim);
}

TEST(NativeShimWide, ByteLanesSpanningRegisterV64) {
  // i8 lanes with offsets up to a full 64-byte register: immediate
  // shifts land on 0, 1, and V-1 boundary lanes across the shift network.
  ir::Loop L;
  ir::Array *A = L.createArray("a", ir::ElemType::Int8, 512, 0, true);
  ir::Array *B = L.createArray("b", ir::ElemType::Int8, 512, 63, true);
  ir::Array *C = L.createArray("c", ir::ElemType::Int8, 512, 1, true);
  L.addStmt(A, 5, ir::mul(ir::ref(B, 64), ir::ref(C, 0)));
  L.setUpperBound(300, true);
  expectNativeMatches(L, 64, policies::PolicyKind::Eager, false,
                      native::ISA::Shim);
  expectNativeMatches(L, 64, policies::PolicyKind::Dominant, true,
                      native::ISA::Shim);
}

TEST(NativeShimWide, RuntimeAlignmentShiftsV32) {
  // Runtime alignments force SBase arithmetic plus register-operand
  // vshiftpair/vsplice — the host-pointer alignment equivalence path.
  ir::Loop L;
  ir::Array *A = L.createArray("a", ir::ElemType::Int16, 256, 0, false);
  ir::Array *B = L.createArray("b", ir::ElemType::Int16, 256, 0, false);
  L.addStmt(A, 3, ir::add(ir::ref(B, 1), ir::splat(5)));
  L.setUpperBound(120, true);
  expectNativeMatches(L, 32, policies::PolicyKind::Zero, false,
                      native::ISA::Shim);
}

TEST(NativeShimWide, PredicatedEpilogueStoresV64) {
  // A runtime trip count keeps the epilogue's final stores predicated;
  // the emitted `if (s%u) { vx_st... }` guards must agree with the VM.
  ir::Loop L;
  ir::Array *A = L.createArray("a", ir::ElemType::Int32, 256, 4, true);
  ir::Array *B = L.createArray("b", ir::ElemType::Int32, 256, 8, true);
  L.addStmt(A, 1, ir::add(ir::ref(B, 2), ir::splat(9)));
  L.setUpperBound(97, false);
  expectNativeMatches(L, 64, policies::PolicyKind::Lazy, false,
                      native::ISA::Shim);
  expectNativeMatches(L, 64, policies::PolicyKind::Zero, true,
                      native::ISA::Shim);
}

// CPUID-gated smoke of each hardware ISA at its width; on hosts without
// the feature the loop body skips (degradation is covered above).
TEST(NativeHost, HardwareISAsMatchOracle) {
  struct {
    native::ISA Isa;
    unsigned V;
  } Cases[] = {{native::ISA::SSE2, 16},
               {native::ISA::AVX2, 32},
               {native::ISA::AVX512, 64}};
  for (auto [Isa, V] : Cases) {
    if (!native::hostSupportsISA(Isa))
      continue;
    ir::Loop L = figureOneLoop(ir::ElemType::Int32);
    expectNativeMatches(L, V, policies::PolicyKind::Eager, true, Isa);
  }
}

TEST(NativeHost, AutoISARunsEverywhere) {
  // The default-request path: no explicit ISA anywhere, every width runs.
  for (unsigned V : {16u, 32u, 64u}) {
    synth::SynthParams SP;
    SP.Statements = 2;
    SP.LoadsPerStmt = 3;
    SP.TripCount = 200;
    SP.Seed = 11;
    SP.VectorLen = V;
    ir::Loop L = synth::synthesizeLoop(SP);
    vir::VProgram P = compileFor(L, V, policies::PolicyKind::Dominant, true);
    sim::ReferenceImage Ref(L, V, 13);
    std::optional<std::string> Err =
        native::diffNativeAgainstOracle(L, P, Ref);
    EXPECT_FALSE(Err.has_value()) << *Err;
  }
}

TEST(NativeCache, RepeatedCompileHitsCache) {
  ir::Loop L = figureOneLoop(ir::ElemType::Int16);
  vir::VProgram P = compileFor(L, 16, policies::PolicyKind::Lazy, false);
  lower::LowerResult Lowered =
      native::emitNativeKernel(P, L, "cache_probe", native::ISA::Shim);
  ASSERT_TRUE(Lowered.ok());

  std::string Error;
  const native::CompiledModule *First =
      native::compileAndLoad(Lowered.Code, native::ISA::Shim, &Error);
  ASSERT_NE(First, nullptr) << Error;
  native::NativeCompileStats Before = native::nativeCompileStats();
  const native::CompiledModule *Second =
      native::compileAndLoad(Lowered.Code, native::ISA::Shim, &Error);
  ASSERT_NE(Second, nullptr) << Error;
  native::NativeCompileStats After = native::nativeCompileStats();
  EXPECT_EQ(Second, First); // One handle per content hash.
  EXPECT_EQ(After.MemoryHits, Before.MemoryHits + 1);
  EXPECT_EQ(After.Compiles, Before.Compiles);
}

TEST(NativeCache, KeyCoversWrapperHeader) {
  // The TU only #includes simdize_x86.h, so the header's bytes must be
  // part of the key or a cache filled against an older header keeps
  // serving kernels built from it.
  ir::Loop L = figureOneLoop(ir::ElemType::Int16);
  vir::VProgram P = compileFor(L, 16, policies::PolicyKind::Eager, false);
  lower::LowerResult Lowered =
      native::emitNativeKernel(P, L, "header_probe", native::ISA::Shim);
  ASSERT_TRUE(Lowered.ok());
  // A nonce makes the TU new to every cache, so only the compile below
  // can publish its .so.
  std::random_device Rd;
  std::string Source = Lowered.Code + strf("// nonce %08x%08x\n", Rd(), Rd());
  std::ifstream In(SIMDIZE_NATIVE_DIR "/simdize_x86.h", std::ios::binary);
  std::string Header{std::istreambuf_iterator<char>(In),
                     std::istreambuf_iterator<char>()};
  ASSERT_FALSE(Header.empty());

  uint64_t Key = native::compileCacheKey(Source, native::ISA::Shim, Header);
  EXPECT_EQ(Key, native::compileCacheKey(Source, native::ISA::Shim, Header));
  std::string Edited = Header;
  Edited[Edited.size() / 2] ^= 1;
  EXPECT_NE(Key, native::compileCacheKey(Source, native::ISA::Shim, Edited));
  EXPECT_NE(Key,
            native::compileCacheKey(Source, native::ISA::Shim, Header + "\n"));

  // compileAndLoad keys on the header its compiler command includes.
  std::string Error;
  ASSERT_NE(native::compileAndLoad(Source, native::ISA::Shim, &Error), nullptr)
      << Error;
  std::string So = strf("%s/nk_%016llx.so", native::nativeCacheDir().c_str(),
                        static_cast<unsigned long long>(Key));
  EXPECT_TRUE(std::filesystem::exists(So));
  std::error_code EC;
  std::filesystem::remove(So, EC); // A one-off TU; keep the store small.
}

TEST(NativeBatch, ManyKernelsOneModule) {
  // One compiler invocation serves a whole policy matrix.
  ir::Loop L = figureOneLoop(ir::ElemType::Int32);
  std::vector<vir::VProgram> Programs;
  Programs.push_back(compileFor(L, 16, policies::PolicyKind::Zero, false));
  Programs.push_back(compileFor(L, 16, policies::PolicyKind::Eager, true));
  Programs.push_back(compileFor(L, 16, policies::PolicyKind::Lazy, true));

  sim::ReferenceImage Ref(L, 16, 21);
  native::NativeBatch Batch(native::bestISAForWidth(16));
  for (const vir::VProgram &P : Programs)
    Batch.add(L, P, Ref.getLayout());
  std::string Error;
  ASSERT_TRUE(Batch.compile(&Error)) << Error;
  ASSERT_EQ(Batch.size(), Programs.size());
  for (size_t K = 0; K < Batch.size(); ++K) {
    sim::Memory M = Ref.getInitial();
    native::runNativeOnMemory(Batch.kernel(K), M);
    EXPECT_TRUE(M == Ref.getExpected()) << "kernel " << K;
  }
}

TEST(PipelineTier, NativeTierChecksClean) {
  ir::Loop L = figureOneLoop(ir::ElemType::Int32);
  pipeline::CompileRequest Req;
  Req.Simd.Policy = policies::PolicyKind::Lazy;
  Req.Simd.SoftwarePipelining = true;
  Req.Tier = pipeline::ExecTier::Native;
  EXPECT_EQ(Req.name(), "LAZY-sp/opt+native");

  pipeline::CompileResult R = pipeline::runPipeline(L, Req);
  ASSERT_TRUE(R.ok()) << R.error();
  sim::CheckResult C = pipeline::checkCompiled(L, R, 7);
  EXPECT_TRUE(C.Ok) << C.Message;
}

} // namespace
