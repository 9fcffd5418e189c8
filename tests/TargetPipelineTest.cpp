//===- tests/TargetPipelineTest.cpp - Target + pipeline facade tests -----===//
//
// Part of the simdize project (PLDI 2004 alignment-constrained simdization).
//
//===----------------------------------------------------------------------===//

#include "ir/IRPrinter.h"
#include "parser/LoopParser.h"
#include "pipeline/Pipeline.h"
#include "simdize/Target.h"

#include <gtest/gtest.h>

using namespace simdize;
using policies::PolicyKind;

namespace {

TEST(Target, DefaultIsThePaperMachine) {
  Target T;
  EXPECT_EQ(T.VectorLen, 16u);
  EXPECT_TRUE(T.valid());
  EXPECT_EQ(T.str(), "v16");
  EXPECT_EQ(T, Target(16));
  EXPECT_NE(T, Target(32));
}

TEST(Target, ValidWidthsArePowersOfTwoWithinEngineRange) {
  for (unsigned V : {4u, 8u, 16u, 32u, 64u})
    EXPECT_TRUE(Target(V).valid()) << V;
  for (unsigned V : {0u, 1u, 2u, 3u, 12u, 24u, 48u, 128u})
    EXPECT_FALSE(Target(V).valid()) << V;
  EXPECT_EQ(Target::MaxVectorLen, 64u);
}

TEST(Target, TruncateAlignmentIsNonNegativeModV) {
  Target T(32);
  EXPECT_EQ(T.truncateAlignment(0), 0);
  EXPECT_EQ(T.truncateAlignment(35), 3);
  EXPECT_EQ(T.truncateAlignment(-1), 31);
  EXPECT_EQ(T.truncateAlignment(-32), 0);
  EXPECT_EQ(Target(64).truncateAlignment(100), 36);
}

TEST(Target, BlockingFactorAndElementSupport) {
  EXPECT_EQ(Target(16).blockingFactor(4), 4);
  EXPECT_EQ(Target(32).blockingFactor(4), 8);
  EXPECT_EQ(Target(64).blockingFactor(2), 32);
  EXPECT_TRUE(Target(32).supportsElemSize(1));
  EXPECT_TRUE(Target(32).supportsElemSize(2));
  EXPECT_TRUE(Target(32).supportsElemSize(4));
  EXPECT_FALSE(Target(32).supportsElemSize(0));
  EXPECT_FALSE(Target(4).supportsElemSize(8));
}

TEST(CompileRequest, NamesStayStableAtDefaultWidthAndCarrySuffixOtherwise) {
  pipeline::CompileRequest Req;
  Req.Simd.Policy = PolicyKind::Lazy;
  EXPECT_EQ(Req.name(), "LAZY/opt");
  Req.Opt = pipeline::OptLevel::Raw;
  EXPECT_EQ(Req.name(), "LAZY/raw");
  Req.Opt = pipeline::OptLevel::PC;
  EXPECT_EQ(Req.name(), "LAZY-pc/opt");
  Req.Opt = pipeline::OptLevel::Std;
  Req.Simd.SoftwarePipelining = true;
  Req.Simd.Tgt = Target(32);
  EXPECT_EQ(Req.name(), "LAZY-sp/opt@32");
  Req.Simd.Tgt = Target(64);
  EXPECT_EQ(Req.name(), "LAZY-sp/opt@64");
}

TEST(CompileRequest, ExploitsReuseMirrorsSpAndPc) {
  pipeline::CompileRequest Req;
  EXPECT_FALSE(Req.exploitsReuse());
  Req.Opt = pipeline::OptLevel::PC;
  EXPECT_TRUE(Req.exploitsReuse());
  Req.Opt = pipeline::OptLevel::Std;
  Req.Simd.SoftwarePipelining = true;
  EXPECT_TRUE(Req.exploitsReuse());
}

/// A small misaligned two-load loop, parsed for the given width.
ir::Loop parseAtWidth(unsigned V) {
  parser::ParseResult R = parser::parseLoop("array a i32 256 align 0\n"
                                            "array b i32 256 align 4\n"
                                            "array c i32 256 align 8\n"
                                            "loop 200\n"
                                            "a[i] = b[i] + c[i+1]\n",
                                            V);
  EXPECT_TRUE(R.ok()) << R.Error;
  return std::move(*R.Loop);
}

TEST(Pipeline, CompilesAndChecksAtEveryWidth) {
  for (unsigned V : {16u, 32u, 64u}) {
    ir::Loop L = parseAtWidth(V);
    pipeline::CompileRequest Req;
    Req.Simd.Policy = PolicyKind::Lazy;
    Req.Simd.Tgt = Target(V);
    pipeline::CompileResult R = pipeline::runPipeline(L, Req);
    ASSERT_TRUE(R.ok()) << "V=" << V << ": " << R.error();
    EXPECT_TRUE(R.OptRan);
    EXPECT_EQ(R.ConfigName, Req.name());
    EXPECT_EQ(R.Simd.Program->getVectorLen(), V);
    sim::CheckResult C = pipeline::checkCompiled(L, R, 2026);
    EXPECT_TRUE(C.Ok) << "V=" << V << ": " << C.Message;
  }
}

TEST(Pipeline, RawLevelSkipsOptimizer) {
  ir::Loop L = parseAtWidth(16);
  pipeline::CompileRequest Req;
  Req.Opt = pipeline::OptLevel::Raw;
  pipeline::CompileResult R = pipeline::runPipeline(L, Req);
  ASSERT_TRUE(R.ok()) << R.error();
  EXPECT_FALSE(R.OptRan);
}

TEST(Pipeline, ReassocRunsOnPrivateCopy) {
  // Offset reassociation must not mutate the caller's loop; the rewritten
  // one is surfaced through the result for measurement/diagnostics.
  parser::ParseResult P = parser::parseLoop("array a i32 256 align 0\n"
                                            "array b i32 256 align 0\n"
                                            "array c i32 256 align 0\n"
                                            "loop 200\n"
                                            "a[i] = b[i+5] + c[i+5]\n");
  ASSERT_TRUE(P.ok()) << P.Error;
  const ir::Loop &L = *P.Loop;
  std::string Before = ir::printStmt(*L.getStmts().front());

  pipeline::CompileRequest Req;
  Req.OffsetReassoc = true;
  pipeline::CompileResult R = pipeline::runPipeline(L, Req);
  ASSERT_TRUE(R.ok()) << R.error();
  ASSERT_TRUE(R.ReassocLoop.has_value());
  EXPECT_EQ(ir::printStmt(*L.getStmts().front()), Before);
  sim::CheckResult C = pipeline::checkCompiled(L, R, 7);
  EXPECT_TRUE(C.Ok) << C.Message;

  pipeline::CompileRequest Plain;
  pipeline::CompileResult R2 = pipeline::runPipeline(L, Plain);
  ASSERT_TRUE(R2.ok());
  EXPECT_FALSE(R2.ReassocLoop.has_value());
}

TEST(Pipeline, SurfacesSimdizerRejections) {
  // Lazy placement requires compile-time alignments; the facade must
  // flatten the simdizer's rejection into error().
  parser::ParseResult P = parser::parseLoop("array a i32 256 align ?\n"
                                            "array b i32 256 align ?\n"
                                            "loop runtime 200\n"
                                            "a[i] = b[i+1]\n");
  ASSERT_TRUE(P.ok()) << P.Error;
  pipeline::CompileRequest Req;
  Req.Simd.Policy = PolicyKind::Lazy;
  pipeline::CompileResult R = pipeline::runPipeline(*P.Loop, Req);
  EXPECT_FALSE(R.ok());
  EXPECT_FALSE(R.error().empty());
}

} // namespace
