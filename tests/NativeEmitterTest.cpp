//===- tests/NativeEmitterTest.cpp - The native host-SIMD execution tier -===//
//
// Part of the simdize project (PLDI 2004 alignment-constrained simdization).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The native backend end to end: structural checks on the emitted
/// intrinsic text, the load-stream realignment (which steady shifts
/// become vx_sld_at / vx_shiftpair_at, and hand-edited programs whose
/// shifts must not, each run against the decoded VM), ISA/width
/// admissibility and CPUID-based degradation,
/// compile-and-run of V = 16 schemes and kernels (runtime alignments and
/// trip counts, parameters, min/max/bitwise, an i16 FIR) on the portable
/// shim and the host ISA, the shim at V = 32/64 (vshiftpair/vsplice edge
/// lanes, truncating loads/stores, predicated epilogue stores), the
/// hardware ISAs gated on host support, the content-hash compile cache
/// and its concurrent callers, batched multi-kernel modules, and the
/// pipeline facade's native execution tier.
///
//===----------------------------------------------------------------------===//

#include "ir/IRBuilder.h"
#include "ir/Loop.h"
#include "native/NativeCompile.h"
#include "native/NativeEmitter.h"
#include "native/NativeRun.h"
#include "parser/LoopParser.h"
#include "pipeline/Pipeline.h"
#include "sim/Checker.h"
#include "sim/Decoder.h"
#include "support/Format.h"
#include "synth/LoopSynth.h"
#include "vir/VVerifier.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iterator>
#include <optional>
#include <ostream>
#include <random>
#include <thread>
#include <utility>
#include <vector>

#include <unistd.h>

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
                         policies::PolicyKind Policy, bool SP,
                         pipeline::OptLevel Opt = pipeline::OptLevel::Std) {
  pipeline::CompileRequest Req;
  Req.Simd.Policy = Policy;
  Req.Simd.SoftwarePipelining = SP;
  Req.Simd.Tgt = Target(V);
  Req.Opt = Opt;
  pipeline::CompileResult R = pipeline::runPipeline(L, Req);
  EXPECT_TRUE(R.ok()) << R.error();
  return std::move(*R.Simd.Program);
}

TEST(NativeEmitter, StructuralMapping) {
  ir::Loop L = figureOneLoop(ir::ElemType::Int32);
  vir::VProgram P = compileFor(L, 32, policies::PolicyKind::Eager, false);
  native::LowerResult Lowered =
      native::emitNativeKernel(P, L, "kern", native::ISA::AVX2);
  ASSERT_TRUE(Lowered.ok()) << Lowered.Error;
  const std::string &Src = Lowered.Code;

  // The module selects the wrapper ISA/width and maps every vector op
  // onto vx_* calls.
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

TEST(NativeEmitter, RejectsWidthISAMismatch) {
  ir::Loop L = figureOneLoop(ir::ElemType::Int32);
  vir::VProgram P = compileFor(L, 32, policies::PolicyKind::Zero, false);
  native::LowerResult R =
      native::emitNativeKernel(P, L, "kern", native::ISA::SSE2);
  EXPECT_FALSE(R.ok());
  EXPECT_NE(R.Error.find("cannot realize V = 32"), std::string::npos);

  // Mixed widths inside one module are rejected too.
  vir::VProgram P16 = compileFor(L, 16, policies::PolicyKind::Zero, false);
  native::KernelSpec K1{&P, &L, "k0", {}};
  native::KernelSpec K2{&P16, &L, "k1", {}};
  native::LowerResult Mixed =
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
                         native::ISA Isa, uint64_t Seed = 7,
                         pipeline::OptLevel Opt = pipeline::OptLevel::Std) {
  vir::VProgram P = compileFor(L, V, Policy, SP, Opt);
  sim::ReferenceImage Ref(L, V, Seed);
  std::optional<std::string> Err =
      native::diffNativeAgainstOracle(L, P, Ref, Isa);
  EXPECT_FALSE(Err.has_value()) << *Err;
}

/// expectNativeMatches at V = 16 on the portable shim and on the host's
/// best 16-byte ISA.
void expectNativeMatchesV16(const ir::Loop &L, policies::PolicyKind Policy,
                            bool SP, pipeline::OptLevel Opt, uint64_t Seed) {
  for (native::ISA Isa : {native::ISA::Shim, native::bestISAForWidth(16)})
    expectNativeMatches(L, 16, Policy, SP, Isa, Seed, Opt);
}

/// The steady loop of an emitted kernel: from its `for (` line through the
/// closing brace.
std::string steadyBody(const std::string &Src) {
  size_t Begin = Src.find("  for (");
  size_t End = Src.find("\n  }\n", Begin);
  EXPECT_NE(Begin, std::string::npos) << Src;
  EXPECT_NE(End, std::string::npos) << Src;
  return Src.substr(Begin, End + 4 - Begin);
}

ir::Loop parsed(const std::string &Text) {
  parser::ParseResult R = parser::parseLoop(Text);
  EXPECT_TRUE(R.ok()) << R.Error;
  return std::move(*R.Loop);
}

/// Two misaligned i16 load streams into an aligned store: EAGER shifts
/// both streams to offset 0 and stores without a shift.
const char *const EagerI16 = "array o i16 256 align 0\n"
                             "array x i16 256 align 6\n"
                             "array y i16 256 align byte 13\n"
                             "loop 200\n"
                             "o[i] = x[i+1] + y[i+2]\n";

TEST(NativeEmitter, LoadStreamShiftsBecomeRealignedLoads) {
  // Every steady shift of EAGER-sp combines two consecutive chunks of one
  // load stream, one of them loop-carried: all become vx_sld_at, with the
  // first chunk's address. Setup and the epilogue keep vx_sld.
  ir::Loop L = parsed(EagerI16);
  vir::VProgram P = compileFor(L, 16, policies::PolicyKind::Eager, true);
  native::LowerResult Lowered =
      native::emitNativeKernel(P, L, "kern", native::ISA::SSE2);
  ASSERT_TRUE(Lowered.ok()) << Lowered.Error;
  std::string Body = steadyBody(Lowered.Code);
  EXPECT_EQ(Body.find("vx_sld<"), std::string::npos) << Body;
  EXPECT_NE(Body.find("vx_sld_at<"), std::string::npos) << Body;
  EXPECT_NE(Body.find(", x + 2 * ((s0) + ("), std::string::npos) << Body;
  EXPECT_NE(Body.find(", y + 2 * ((s0) + ("), std::string::npos) << Body;
  EXPECT_NE(Lowered.Code.find("vx_sld<"), std::string::npos);
  for (native::ISA Isa : {native::ISA::Shim, native::bestISAForWidth(16)})
    expectNativeMatches(L, 16, policies::PolicyKind::Eager, true, Isa);

  // Two streams of one array share a chunk, and memory normalization
  // keeps one load of it: a carried register's Setup seed (d[41]) and its
  // body load one step back (d[33]) differ by 8 elements yet read one
  // chunk, known from d's alignment, so that shift is realigned too.
  ir::Loop Shared = parsed("array o i16 512 align 0\n"
                           "array d i16 512 align 14\n"
                           "loop 400\n"
                           "o[i] = d[i+1] + d[i+9]\n");
  P = compileFor(Shared, 64, policies::PolicyKind::Eager, true);
  Lowered = native::emitNativeKernel(P, Shared, "kern", native::ISA::AVX512);
  ASSERT_TRUE(Lowered.ok()) << Lowered.Error;
  Body = steadyBody(Lowered.Code);
  EXPECT_EQ(Body.find("vx_sld<"), std::string::npos) << Body;
  for (native::ISA Isa : {native::ISA::Shim, native::bestISAForWidth(64)})
    expectNativeMatches(Shared, 64, policies::PolicyKind::Eager, true, Isa);
}

TEST(NativeEmitter, ComputedValueShiftsKeepTheRegisterShift) {
  // DOM computes at the loads' common offset and shifts the sum to the
  // store's: a shift of computed values, which keeps vx_sld.
  ir::Loop L = parsed("array o i32 256 align 0\n"
                      "array x i32 256 align 4\n"
                      "array y i32 256 align 4\n"
                      "loop 200\n"
                      "o[i] = x[i] + y[i]\n");
  vir::VProgram P = compileFor(L, 16, policies::PolicyKind::Dominant, true);
  native::LowerResult Lowered =
      native::emitNativeKernel(P, L, "kern", native::ISA::SSE2);
  ASSERT_TRUE(Lowered.ok()) << Lowered.Error;
  std::string Body = steadyBody(Lowered.Code);
  EXPECT_NE(Body.find("vx_sld<"), std::string::npos) << Body;
  EXPECT_EQ(Body.find("_at"), std::string::npos) << Body;

  // The same for runtime amounts: the load stream's vx_shiftpair reads
  // one realigned load, the store side keeps the register shift.
  ir::Loop RT = parsed("array o i32 256 align ? 12\n"
                       "array x i32 256 align ? 4\n"
                       "loop runtime 200\n"
                       "o[i] = x[i+1] + x[i+2]\n");
  vir::VProgram PRT = compileFor(RT, 16, policies::PolicyKind::Zero, true);
  Lowered = native::emitNativeKernel(PRT, RT, "kern", native::ISA::SSE2);
  ASSERT_TRUE(Lowered.ok()) << Lowered.Error;
  Body = steadyBody(Lowered.Code);
  EXPECT_NE(Body.find("vx_shiftpair_at("), std::string::npos) << Body;
  EXPECT_NE(Body.find("vx_shiftpair("), std::string::npos) << Body;
}

/// Compiles EagerI16 (EAGER-sp, V = 16), applies \p Edit to the program,
/// and requires that the edited program still verifies, that its steady
/// body lowers to exactly \p Realigned vx_sld_at calls, and that its
/// native image on the host ISA equals the decoded VM's byte for byte.
void expectHonestLowering(const std::function<void(vir::VProgram &)> &Edit,
                          size_t Realigned) {
  ir::Loop L = parsed(EagerI16);
  vir::VProgram P = compileFor(L, 16, policies::PolicyKind::Eager, true);
  Edit(P);
  std::optional<std::string> Invalid = vir::verifyProgram(P);
  ASSERT_FALSE(Invalid.has_value()) << *Invalid;

  native::LowerResult Lowered =
      native::emitNativeKernel(P, L, "kern", native::ISA::SSE2);
  ASSERT_TRUE(Lowered.ok()) << Lowered.Error;
  std::string Body = steadyBody(Lowered.Code);
  size_t Count = 0;
  for (size_t At = Body.find("vx_sld_at<"); At != std::string::npos;
       At = Body.find("vx_sld_at<", At + 1))
    ++Count;
  EXPECT_EQ(Count, Realigned) << Body;

  sim::ReferenceImage Ref(L, 16, 7);
  sim::Memory VM = Ref.getInitial();
  sim::runDecoded(sim::DecodedProgram(P, Ref.getLayout()), VM);
  std::string Error;
  native::NativeKernel K = native::prepareNativeKernel(
      L, P, Ref.getLayout(), native::bestISAForWidth(16), &Error);
  ASSERT_TRUE(K.ok()) << Error;
  sim::Memory Native = Ref.getInitial();
  native::runNativeOnMemory(K, Native);
  EXPECT_TRUE(Native == VM) << Lowered.Code;
  EXPECT_FALSE(VM == Ref.getExpected()) << "the edit changed nothing";
}

/// The body instruction loading \p Base at counter offset \p Elem.
vir::VInst &bodyLoad(vir::VProgram &P, const char *Base, int64_t Elem) {
  for (vir::VInst &I : P.getBody())
    if (I.Op == vir::VOpcode::VLoad && I.Addr.Base->getName() == Base &&
        I.Addr.ElemOffset == Elem)
      return I;
  ADD_FAILURE() << "no body load of " << Base << "[i+" << Elem << "]";
  return P.getBody().front();
}

TEST(NativeEmitter, HonestLoweringOfAForeignSeed) {
  // Setup seeds x's carried chunk (x[LB + 1]) from the load of x[1], one
  // step too early. The program still verifies but computes other bytes
  // on the first iteration, so the shift that reads the carried chunk
  // must keep vx_sld.
  expectHonestLowering(
      [](vir::VProgram &P) {
        vir::Block &Setup = P.getSetup();
        // The last Setup load of x[Elem].
        auto LoadOf = [&](int64_t Elem) {
          vir::VRegId Last;
          for (const vir::VInst &I : Setup)
            if (I.Op == vir::VOpcode::VLoad && I.Addr.Base->getName() == "x" &&
                I.Addr.ConstIndex + I.Addr.ElemOffset == Elem)
              Last = I.VDst;
          EXPECT_TRUE(Last.isValid()) << "Setup loads no x[" << Elem << "]";
          return Last;
        };
        const int64_t LB = P.getLowerBound().getImm();
        vir::VRegId Seed = LoadOf(LB + 1), Early = LoadOf(1);
        for (vir::VInst &I : Setup)
          if (I.Op == vir::VOpcode::VCopy && I.VSrc1 == Seed)
            I.VSrc1 = Early;
      },
      3);
  // The seed load itself moved to x[LB - 4]: only 10 bytes before
  // x[LB + 1], but at x's alignment of 6 bytes in the chunk before it.
  expectHonestLowering(
      [](vir::VProgram &P) {
        const int64_t LB = P.getLowerBound().getImm();
        vir::VInst *Seed = nullptr;
        for (vir::VInst &I : P.getSetup())
          if (I.Op == vir::VOpcode::VLoad && I.Addr.Base->getName() == "x" &&
              I.Addr.ConstIndex + I.Addr.ElemOffset == LB + 1)
            Seed = &I;
        ASSERT_NE(Seed, nullptr);
        Seed->Addr.ElemOffset -= 5;
      },
      3);
}

TEST(NativeEmitter, HonestLoweringOfAChunkGap) {
  // x's fresh chunk is loaded from one chunk further on: its two shifts
  // then pair chunks 2V and 0 bytes apart, and both must keep vx_sld.
  expectHonestLowering(
      [](vir::VProgram &P) { bodyLoad(P, "x", 9).Addr.ElemOffset = 17; }, 2);
}

TEST(NativeEmitter, HonestLoweringAcrossAStore) {
  // A store into x's fresh chunk between its load and the two shifts that
  // read it: the register keeps the old bytes, memory holds the new ones,
  // so both shifts must keep vx_sld.
  expectHonestLowering(
      [](vir::VProgram &P) {
        vir::Block &Body = P.getBody();
        const vir::VInst &Load = bodyLoad(P, "x", 9);
        size_t After = static_cast<size_t>(&Load - Body.data()) + 1;
        // The carried y chunk: defined in Setup, so live at this point.
        vir::VInst Store =
            vir::VInst::makeVStore(Load.Addr, bodyLoad(P, "y", 18).VDst);
        Body.insert(Body.begin() + static_cast<std::ptrdiff_t>(After), Store);
      },
      2);
}

struct SchemeCase {
  policies::PolicyKind Policy;
  bool SP;
  bool AlignKnown;
  bool UBKnown;
  const char *Tag;
};

/// Without a printer gtest prints the struct's bytes, Tag's address among
/// them, and the listed test names would change from run to run.
void PrintTo(const SchemeCase &Case, std::ostream *OS) { *OS << Case.Tag; }

class CompileAndRun : public ::testing::TestWithParam<SchemeCase> {};

TEST_P(CompileAndRun, MatchesScalarOracle) {
  SchemeCase Case = GetParam();
  synth::SynthParams P;
  P.Statements = 2;
  P.LoadsPerStmt = 3;
  P.TripCount = 101;
  P.AlignKnown = Case.AlignKnown;
  P.UBKnown = Case.UBKnown;
  P.Seed = 3131;
  ir::Loop L = synth::synthesizeLoop(P);
  // Predictive commoning where software pipelining is off.
  expectNativeMatchesV16(L, Case.Policy, Case.SP,
                         Case.SP ? pipeline::OptLevel::Std
                                 : pipeline::OptLevel::PC,
                         7171);
}

INSTANTIATE_TEST_SUITE_P(
    Schemes, CompileAndRun,
    ::testing::Values(
        SchemeCase{policies::PolicyKind::Lazy, true, true, true, "lazy_sp"},
        SchemeCase{policies::PolicyKind::Dominant, false, true, true,
                   "dom_pc"},
        SchemeCase{policies::PolicyKind::Zero, true, false, false,
                   "zero_rt"}),
    [](const ::testing::TestParamInfo<SchemeCase> &Info) {
      return std::string(Info.param.Tag);
    });

TEST(CompileAndRunExtra, RuntimeParameterKernel) {
  // A runtime blend factor flows through the kernel's argument list into
  // the splat.
  ir::Loop L;
  ir::Array *Out = L.createArray("out", ir::ElemType::Int32, 160, 4, true);
  ir::Array *X = L.createArray("x", ir::ElemType::Int32, 160, 8, true);
  ir::Param *Alpha = L.createParam("alpha", 37);
  L.addStmt(Out, 1, ir::mul(ir::param(Alpha), ir::ref(X, 2)));
  L.setUpperBound(120, true);
  expectNativeMatchesV16(L, policies::PolicyKind::Lazy, true,
                         pipeline::OptLevel::Std, 4242);
}

TEST(CompileAndRunExtra, MinMaxBitwiseKernel) {
  ir::Loop L;
  ir::Array *Out = L.createArray("out", ir::ElemType::Int8, 200, 3, true);
  ir::Array *X = L.createArray("x", ir::ElemType::Int8, 200, 9, true);
  ir::Array *Y = L.createArray("y", ir::ElemType::Int8, 200, 0, true);
  L.addStmt(Out, 0,
            ir::bitXor(ir::min(ir::ref(X, 1), ir::ref(Y, 0)),
                       ir::max(ir::ref(X, 0), ir::splat(-3))));
  L.setUpperBound(160, true);
  expectNativeMatchesV16(L, policies::PolicyKind::Dominant, false,
                         pipeline::OptLevel::PC, 9912);
}

TEST(CompileAndRunExtra, Int16FirFilter) {
  ir::Loop L;
  ir::Array *Y = L.createArray("y", ir::ElemType::Int16, 300, 2, true);
  ir::Array *X = L.createArray("x", ir::ElemType::Int16, 300, 6, true);
  auto Tap = [&](int64_t Coeff, int64_t Off) {
    return ir::mul(ir::splat(Coeff), ir::ref(X, Off));
  };
  L.addStmt(Y, 0,
            ir::add(ir::add(Tap(7, 0), Tap(-3, 1)),
                    ir::add(Tap(5, 2), Tap(2, 3))));
  L.setUpperBound(250, true);
  expectNativeMatchesV16(L, policies::PolicyKind::Dominant, true,
                         pipeline::OptLevel::Std, 8989);
}

TEST(NativeEmitter, BindsParametersByName) {
  // Parameter registers are declared at first use, not in argument order:
  // each must still bind the argument of its own name, and an argument no
  // statement reads must still be used, or -Wextra -Werror rejects it.
  const char *Stmts[] = {"o[i] = beta * x[i] + alpha", "o[i] = beta * x[i]",
                         "o[i] = gamma * x[i+1] + beta"};
  for (const char *Stmt : Stmts) {
    parser::ParseResult R =
        parser::parseLoop(std::string("array o i32 128 align 0\n"
                                      "array x i32 128 align 4\n"
                                      "param alpha 3\n"
                                      "param beta 5\n"
                                      "param gamma 7\n"
                                      "loop 100\n") +
                          Stmt + "\n");
    ASSERT_TRUE(R.ok()) << R.Error;
    const ir::Loop &L = *R.Loop;
    vir::VProgram P = compileFor(L, 16, policies::PolicyKind::Lazy, false);
    native::LowerResult Lowered =
        native::emitNativeKernel(P, L, "kern", native::ISA::Shim);
    ASSERT_TRUE(Lowered.ok()) << Lowered.Error;
    for (const auto &Prm : L.getParams()) {
      const std::string &Name = Prm->getName();
      bool Read = std::string(Stmt).find(Name) != std::string::npos;
      EXPECT_NE(Lowered.Code.find(Read ? " = " + Name + ";"
                                       : "(void)" + Name + ";"),
                std::string::npos)
          << Stmt << ": " << Name << "\n"
          << Lowered.Code;
    }
    expectNativeMatchesV16(L, policies::PolicyKind::Lazy, false,
                           pipeline::OptLevel::Std, 7);
  }
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
  native::LowerResult Lowered =
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
  // The TU only #includes simdize_x86.h, which includes simdize_vm_ops.h,
  // so the bytes of both must be part of the key or a cache filled against
  // an older header keeps serving kernels built from it.
  ir::Loop L = figureOneLoop(ir::ElemType::Int16);
  vir::VProgram P = compileFor(L, 16, policies::PolicyKind::Eager, false);
  native::LowerResult Lowered =
      native::emitNativeKernel(P, L, "header_probe", native::ISA::Shim);
  ASSERT_TRUE(Lowered.ok());
  // A nonce makes the TU new to every cache, so only the compile below
  // can publish its .so.
  std::random_device Rd;
  std::string Source = Lowered.Code + strf("// nonce %08x%08x\n", Rd(), Rd());
  auto ReadHeader = [](const char *Path) {
    std::ifstream In(Path, std::ios::binary);
    return std::string{std::istreambuf_iterator<char>(In),
                       std::istreambuf_iterator<char>()};
  };
  std::string Wrapper = ReadHeader(SIMDIZE_NATIVE_DIR "/simdize_x86.h");
  std::string Ops = ReadHeader(SIMDIZE_NATIVE_DIR "/simdize_vm_ops.h");
  ASSERT_FALSE(Wrapper.empty());
  ASSERT_FALSE(Ops.empty());
  std::string Header = Wrapper + Ops;

  uint64_t Key = native::compileCacheKey(Source, native::ISA::Shim, Header);
  EXPECT_EQ(Key, native::compileCacheKey(Source, native::ISA::Shim, Header));
  // A one-byte edit to either file changes the key.
  for (std::string *File : {&Wrapper, &Ops}) {
    std::string Saved = *File;
    (*File)[File->size() / 2] ^= 1;
    EXPECT_NE(Key, native::compileCacheKey(Source, native::ISA::Shim,
                                           Wrapper + Ops));
    *File = Saved;
  }
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

/// A one-function TU that is new to every cache.
std::string nonceTU(const char *Fn) {
  std::random_device Rd;
  return strf("extern \"C\" int %s() { return 7; }\n// nonce %08x%08x\n", Fn,
              Rd(), Rd());
}

/// A fresh on-disk store and a wrapper compiler for one test, installed
/// through SIMDIZE_NATIVE_CACHE and SIMDIZE_NATIVE_CXX until destruction.
/// The wrapper counts its runs, holds a TU containing BlockMarker until
/// release() (at most 30 s), then runs the real compiler. For a TU
/// containing SquatMarker it then occupies the final nk_<key>.so path
/// with a non-empty directory, so publishing the .so fails.
class CompilerSandbox {
public:
  static constexpr const char *BlockMarker = "SIMDIZE_TEST_BLOCK";
  static constexpr const char *SquatMarker = "SIMDIZE_TEST_SQUAT";

  explicit CompilerSandbox(const char *Name)
      : Dir(std::filesystem::temp_directory_path() /
            strf("simdize-cache-test-%ld-%s", static_cast<long>(getpid()),
                 Name)) {
    std::filesystem::remove_all(Dir);
    std::filesystem::create_directories(Dir / "store");
    std::string Script = path("cxx.sh");
    std::ofstream Out(Script);
    Out << "#!/bin/sh\n"
        << "echo >> '" << path("calls") << "'\n"
        // The TU is the last argument; the .so goes to nk_<key>.so.<pid>.
        << "Prev=; for Arg; do [ \"$Prev\" = -o ] && Out=$Arg; "
        << "Prev=$Arg; Tu=$Arg; done\n"
        << "if grep -q " << BlockMarker << " \"$Tu\"; then\n"
        << "  : > '" << path("blocked") << "'\n"
        << "  N=0\n"
        << "  while [ ! -e '" << path("release") << "' ] && [ $N -lt 300 ]; "
        << "do sleep 0.1; N=$((N + 1)); done\n"
        << "fi\n"
        << "if grep -q " << SquatMarker << " \"$Tu\"; then\n"
        << "  '" SIMDIZE_TEST_CXX "' \"$@\" || exit 1\n"
        << "  exec mkdir -p \"${Out%.*}/squat\"\n"
        << "fi\n"
        << "exec '" SIMDIZE_TEST_CXX "' \"$@\"\n";
    Out.close();
    std::filesystem::permissions(Script, std::filesystem::perms::owner_exec,
                                 std::filesystem::perm_options::add);
    setEnv("SIMDIZE_NATIVE_CXX", Script);
    setEnv("SIMDIZE_NATIVE_CACHE", path("store"));
  }
  ~CompilerSandbox() {
    for (auto &[Name, Old] : Saved) {
      if (Old)
        setenv(Name, Old->c_str(), 1);
      else
        unsetenv(Name);
    }
    std::error_code EC;
    std::filesystem::remove_all(Dir, EC);
  }
  CompilerSandbox(const CompilerSandbox &) = delete;
  CompilerSandbox &operator=(const CompilerSandbox &) = delete;

  std::string path(const char *Leaf) const { return (Dir / Leaf).string(); }

  /// Compiler runs so far (one byte per run).
  uintmax_t calls() const {
    std::error_code EC;
    uintmax_t Bytes = std::filesystem::file_size(path("calls"), EC);
    return EC ? 0 : Bytes;
  }

  /// Waits up to 30 s for the wrapper to start holding a marker TU.
  bool waitUntilBlocked() const {
    for (int I = 0; I < 3000; ++I) {
      if (std::filesystem::exists(path("blocked")))
        return true;
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    return false;
  }

  void release() const { std::ofstream Touch(path("release")); }

  /// Every file the store holds, for leak checks.
  std::vector<std::string> storeFiles() const {
    std::vector<std::string> Files;
    for (const auto &E : std::filesystem::directory_iterator(Dir / "store"))
      Files.push_back(E.path().filename().string());
    return Files;
  }

private:
  void setEnv(const char *Name, const std::string &Value) {
    const char *Old = std::getenv(Name);
    Saved.emplace_back(Name, Old ? std::optional<std::string>(Old)
                                 : std::nullopt);
    setenv(Name, Value.c_str(), 1);
  }

  std::filesystem::path Dir;
  std::vector<std::pair<const char *, std::optional<std::string>>> Saved;
};

struct CompileOutcome {
  const native::CompiledModule *Module = nullptr;
  std::string Error;
};

/// compileAndLoad(\p Source) from \p N threads at once.
std::vector<CompileOutcome> compileConcurrently(const std::string &Source,
                                                int N) {
  std::vector<CompileOutcome> Out(N);
  std::vector<std::thread> Threads;
  for (CompileOutcome &O : Out)
    Threads.emplace_back([&Source, &O] {
      O.Module = native::compileAndLoad(Source, native::ISA::Shim, &O.Error);
    });
  for (std::thread &T : Threads)
    T.join();
  return Out;
}

TEST(NativeCache, BlockedCompileDoesNotStallOtherKeys) {
  // A compiler that hangs on one key must not hold up compiles of others.
  CompilerSandbox Box("blocked");
  std::string Marked =
      strf("// %s\n", CompilerSandbox::BlockMarker) + nonceTU("slow_probe");
  const native::CompiledModule *Slow = nullptr;
  std::string SlowError;
  std::atomic<bool> SlowDone{false};
  std::thread T([&] {
    Slow = native::compileAndLoad(Marked, native::ISA::Shim, &SlowError);
    SlowDone = true;
  });
  bool Blocked = Box.waitUntilBlocked();
  const native::CompiledModule *Fast = nullptr;
  std::string Error;
  if (Blocked)
    Fast = native::compileAndLoad(nonceTU("fast_probe"), native::ISA::Shim,
                                  &Error);
  bool SlowStillBlocked = !SlowDone;
  Box.release();
  T.join();

  ASSERT_TRUE(Blocked) << "the wrapper compiler never held the marker TU";
  ASSERT_NE(Fast, nullptr) << Error;
  EXPECT_NE(Fast->symbol("fast_probe"), nullptr);
  EXPECT_TRUE(SlowStillBlocked)
      << "the compile of another key waited for the blocked one";
  ASSERT_NE(Slow, nullptr) << SlowError;
  EXPECT_NE(Slow->symbol("slow_probe"), nullptr);
}

TEST(NativeCache, ConcurrentSameKeyCompilesOnce) {
  CompilerSandbox Box("same-key");
  native::NativeCompileStats Before = native::nativeCompileStats();
  std::vector<CompileOutcome> Got =
      compileConcurrently(nonceTU("shared_probe"), 8);
  native::NativeCompileStats After = native::nativeCompileStats();

  ASSERT_NE(Got[0].Module, nullptr) << Got[0].Error;
  for (const CompileOutcome &O : Got)
    EXPECT_EQ(O.Module, Got[0].Module) << O.Error;
  EXPECT_EQ(After.Compiles, Before.Compiles + 1);
  EXPECT_EQ(After.MemoryHits, Before.MemoryHits + 7);
  EXPECT_EQ(Box.calls(), 1u);
}

TEST(NativeCache, CompileFailureReportsAndIsNotCached) {
  CompilerSandbox Box("failure");
  std::random_device Rd;
  std::string Why = strf("simdize probe failure %08x%08x", Rd(), Rd());
  std::string Source = "#error " + Why + "\n";
  native::NativeCompileStats Before = native::nativeCompileStats();
  std::vector<CompileOutcome> Got = compileConcurrently(Source, 4);
  native::NativeCompileStats After = native::nativeCompileStats();

  for (const CompileOutcome &O : Got) {
    EXPECT_EQ(O.Module, nullptr);
    EXPECT_NE(O.Error.find(Why), std::string::npos) << O.Error;
    // The compiler's own exit code, not std::system's wait status (256).
    EXPECT_NE(O.Error.find("(exit 1)"), std::string::npos) << O.Error;
  }
  EXPECT_EQ(After.Compiles, Before.Compiles);
  EXPECT_EQ(After.Failures, Before.Failures + 4); // One per failed call.
  uintmax_t Runs = Box.calls();
  EXPECT_GE(Runs, 1u);
  EXPECT_LE(Runs, 4u);
  // The failed builds cleaned up their nk_<key>.* temporaries.
  std::vector<std::string> Left = Box.storeFiles();
  EXPECT_TRUE(Left.empty()) << Left.size() << " files left, e.g. "
                            << (Left.empty() ? "" : Left.front());

  // Failures are not cached: the next call runs the compiler again.
  std::string Error;
  EXPECT_EQ(native::compileAndLoad(Source, native::ISA::Shim, &Error),
            nullptr);
  EXPECT_NE(Error.find(Why), std::string::npos) << Error;
  EXPECT_EQ(Box.calls(), Runs + 1);
}

TEST(NativeCache, PublishFailureRemovesTemporaries) {
  // The compile succeeds but its .so cannot be renamed into place.
  CompilerSandbox Box("publish");
  std::string Source =
      strf("// %s\n", CompilerSandbox::SquatMarker) + nonceTU("squat_probe");
  std::string Error;
  EXPECT_EQ(native::compileAndLoad(Source, native::ISA::Shim, &Error),
            nullptr);
  EXPECT_NE(Error.find("cannot publish"), std::string::npos) << Error;
  // Only the squatting directory is left: no .cpp, .log or .so.<pid>.
  std::vector<std::string> Left = Box.storeFiles();
  ASSERT_EQ(Left.size(), 1u) << Left.size() << " files left";
  EXPECT_EQ(Left.front().substr(Left.front().size() - 3), ".so");
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
