//===- tests/ServerCacheTest.cpp - Content-addressed cache behavior -------===//
//
// Part of the simdize project (PLDI 2004 alignment-constrained simdization).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The cache contract behind the compile server: identical requests are
/// byte-identical whether they hit or miss (responses carry no cache
/// state), content keys are pairwise distinct across every configuration
/// axis (policy, software pipelining, width, opt level, memnorm, reassoc,
/// tier) and across loops that differ only in a runtime trip count, a
/// parameter value or a runtime alignment, while whitespace and comment
/// variants of one loop collapse to one key, and the entry bound evicts
/// LRU-first without ever changing what a request answers.
///
//===----------------------------------------------------------------------===//

#include "ir/IRBuilder.h"
#include "ir/IRPrinter.h"
#include "obs/Json.h"
#include "parser/LoopParser.h"
#include "policies/ShiftPolicy.h"
#include "server/Cache.h"
#include "server/Service.h"
#include "simdize/Target.h"

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

using namespace simdize;
using namespace simdize::server;

namespace {

const char *CacheLoop = "array a i32 128 align 0\n"
                        "array b i32 128 align 4\n"
                        "array c i32 128 align 8\n"
                        "loop 100\n"
                        "a[i+2] = b[i+1] * c[i+3] + b[i]\n";

std::string compileReq(uint64_t Id, const std::string &Loop,
                       const std::string &Config = "") {
  std::string Out;
  obs::json::Writer W(Out);
  W.beginObject().field("id", Id).field("kind", "compile").field("loop", Loop);
  if (!Config.empty())
    W.key("config").raw(Config);
  W.endObject();
  return Out;
}

std::string checkReq(uint64_t Id, const std::string &Loop, uint64_t Seed,
                     const std::string &Config = "") {
  std::string Out;
  obs::json::Writer W(Out);
  W.beginObject()
      .field("id", Id)
      .field("kind", "check")
      .field("loop", Loop)
      .field("seed", Seed);
  if (!Config.empty())
    W.key("config").raw(Config);
  W.endObject();
  return Out;
}

std::string explainReq(uint64_t Id, const std::string &Loop,
                       const std::string &Config) {
  std::string Out;
  obs::json::Writer W(Out);
  W.beginObject()
      .field("id", Id)
      .field("kind", "explain")
      .field("loop", Loop)
      .key("config")
      .raw(Config)
      .endObject();
  return Out;
}

/// Two loops that differ only in a value the paper's Section 4.4 leaves to
/// run time: both must get keys, programs and reference images of their
/// own.
struct LoopPair {
  const char *Name;
  std::string A, B;
};

std::vector<LoopPair> runtimePairs() {
  return {
      {"trip-count",
       "array a i32 1024 align 0\narray b i32 1024 align 4\n"
       "loop runtime 100\na[i] = b[i+1]\n",
       "array a i32 1024 align 0\narray b i32 1024 align 4\n"
       "loop runtime 600\na[i] = b[i+1]\n"},
      {"parameter",
       "array a i32 512 align 0\narray b i32 512 align 4\nparam alpha 3\n"
       "loop 100\na[i] = alpha * b[i+1]\n",
       "array a i32 512 align 0\narray b i32 512 align 4\nparam alpha 5\n"
       "loop 100\na[i] = alpha * b[i+1]\n"},
      {"alignment",
       "array a i32 512 align ? 0\narray b i32 512 align ? 0\n"
       "loop 100\na[i] = b[i+1]\n",
       "array a i32 512 align ? 0\narray b i32 512 align ? 4\n"
       "loop 100\na[i] = b[i+1]\n"},
  };
}

/// Checks A, then B under another config, and requires B's verdict to be
/// the clean one a fresh service gives. Each config gets a compile entry of
/// its own, so B can only go wrong through a reference image keyed like
/// A's.
void expectBVerifiesAfterA(const LoopPair &Pair) {
  const std::string ZeroCfg = R"({"policy":"zero"})";
  const std::string ZeroSpCfg = R"({"policy":"zero","sp":true})";
  Service Fresh;
  std::string Expected = Fresh.handle(checkReq(2, Pair.B, 1, ZeroSpCfg));
  ASSERT_NE(Expected.find(R"("verdict":{"ok":true,)"), std::string::npos)
      << Expected;

  Service S;
  S.handle(checkReq(1, Pair.A, 1, ZeroCfg));
  EXPECT_EQ(S.handle(checkReq(2, Pair.B, 1, ZeroSpCfg)), Expected)
      << Pair.Name << " pair checked against the other loop's image";
}

TEST(ServerCache, RepeatCompileIsByteIdenticalAndHits) {
  Service S;
  std::string First = S.handle(compileReq(9, CacheLoop));
  EXPECT_EQ(S.cache().stats().Misses, 1);
  EXPECT_EQ(S.cache().stats().Hits, 0);

  std::string Second = S.handle(compileReq(9, CacheLoop));
  EXPECT_EQ(First, Second); // No hit/miss/timing leak in the response.
  EXPECT_EQ(S.cache().stats().Hits, 1);
  EXPECT_EQ(S.cache().size(), 1u);
}

TEST(ServerCache, RepeatCheckReusesVerdict) {
  Service S;
  std::string First = S.handle(checkReq(4, CacheLoop, 77));
  CompileCache::Stats St = S.cache().stats();
  EXPECT_EQ(St.VerdictMisses, 1);
  EXPECT_EQ(St.VerdictHits, 0);

  std::string Second = S.handle(checkReq(4, CacheLoop, 77));
  EXPECT_EQ(First, Second);
  EXPECT_EQ(S.cache().stats().VerdictHits, 1);

  // A different seed is a distinct verdict on the same entry.
  S.handle(checkReq(4, CacheLoop, 78));
  St = S.cache().stats();
  EXPECT_EQ(St.VerdictMisses, 2);
  EXPECT_EQ(S.cache().size(), 1u);
}

TEST(ServerCache, DeterministicRejectionsAreCachedToo) {
  Service S;
  std::string Bad = "array a i32 128 align 0\nloop 100\na[i+1] = a[i] + 1\n";
  std::string First = S.handle(compileReq(2, Bad));
  std::string Second = S.handle(compileReq(2, Bad));
  EXPECT_EQ(First, Second);
  EXPECT_NE(First.find("compile_error"), std::string::npos);
  EXPECT_EQ(S.cache().stats().Hits, 1); // The rejection itself was cached.
}

TEST(ServerCache, KeysAreDistinctAcrossEveryConfigAxis) {
  parser::ParseResult P = parser::parseLoop(CacheLoop, 16);
  ASSERT_TRUE(P.ok()) << P.Error;
  std::string Text = ir::printParseable(*P.Loop);

  std::vector<pipeline::CompileRequest> Configs;
  for (policies::PolicyKind Policy :
       {policies::PolicyKind::Zero, policies::PolicyKind::Eager,
        policies::PolicyKind::Lazy, policies::PolicyKind::Dominant,
        policies::PolicyKind::Optimal})
    for (bool SP : {false, true})
      for (unsigned Width : {8u, 16u, 32u})
        for (pipeline::OptLevel Opt :
             {pipeline::OptLevel::Raw, pipeline::OptLevel::Std,
              pipeline::OptLevel::PC}) {
          pipeline::CompileRequest R;
          R.Simd.Policy = Policy;
          R.Simd.SoftwarePipelining = SP;
          R.Simd.Tgt = Target(Width);
          R.Opt = Opt;
          Configs.push_back(R);
        }
  // The axes name() omits: memnorm, reassoc, tier.
  for (bool MemNorm : {false, true})
    for (bool Reassoc : {false, true})
      for (pipeline::ExecTier Tier :
           {pipeline::ExecTier::VM, pipeline::ExecTier::Native}) {
        if (MemNorm && !Reassoc && Tier == pipeline::ExecTier::VM)
          continue; // Identical to the defaults in the matrix above.
        pipeline::CompileRequest R;
        R.MemNorm = MemNorm;
        R.OffsetReassoc = Reassoc;
        R.Tier = Tier;
        Configs.push_back(R);
      }

  std::set<std::string> Keys;
  for (const pipeline::CompileRequest &R : Configs)
    Keys.insert(CompileCache::keyOf(Text, R));
  EXPECT_EQ(Keys.size(), Configs.size()) << "config-key collision";

  // And a different loop never collides with any config of this one.
  parser::ParseResult Q = parser::parseLoop(
      "array a i32 128 align 0\narray b i32 128 align 4\n"
      "loop 100\na[i] = b[i+1] + 1\n",
      16);
  ASSERT_TRUE(Q.ok()) << Q.Error;
  EXPECT_EQ(Keys.count(CompileCache::keyOf(ir::printParseable(*Q.Loop),
                                           pipeline::CompileRequest())),
            0u);
}

TEST(ServerCache, KeysAreDistinctAcrossStatementKinds) {
  // The same arrays and the same RHS as an assignment, a guarded
  // assignment, and a reduction must produce three distinct cache keys:
  // the ir::printParseable text carries the statement kind.
  ir::Loop Assign, If, Reduce;
  for (ir::Loop *L : {&Assign, &If, &Reduce}) {
    ir::Array *S = L->createArray("s", ir::ElemType::Int32, 128, 0, true);
    ir::Array *B = L->createArray("b", ir::ElemType::Int32, 128, 4, true);
    switch (L == &Assign ? 0 : L == &If ? 1 : 2) {
    case 0:
      L->addStmt(S, 1, ir::ref(B, 2));
      break;
    case 1:
      L->addIfStmt(S, 1, ir::ref(B, 2), ir::ref(B, 0), ir::CmpKind::LT,
                   ir::splat(3));
      break;
    default:
      L->addReduceStmt(S, 1, ir::BinOpKind::Add, ir::ref(B, 2));
      break;
    }
    L->setUpperBound(100, true);
  }
  pipeline::CompileRequest R;
  std::set<std::string> Keys;
  Keys.insert(CompileCache::keyOf(ir::printParseable(Assign), R));
  Keys.insert(CompileCache::keyOf(ir::printParseable(If), R));
  Keys.insert(CompileCache::keyOf(ir::printParseable(Reduce), R));
  EXPECT_EQ(Keys.size(), 3u) << "statement kinds collide in the cache key";

  // Guard predicate and reduction operator are part of the key too.
  ir::Loop If2, Reduce2;
  for (ir::Loop *L : {&If2, &Reduce2}) {
    ir::Array *S = L->createArray("s", ir::ElemType::Int32, 128, 0, true);
    ir::Array *B = L->createArray("b", ir::ElemType::Int32, 128, 4, true);
    if (L == &If2)
      L->addIfStmt(S, 1, ir::ref(B, 2), ir::ref(B, 0), ir::CmpKind::GE,
                   ir::splat(3));
    else
      L->addReduceStmt(S, 1, ir::BinOpKind::Max, ir::ref(B, 2));
    L->setUpperBound(100, true);
  }
  Keys.insert(CompileCache::keyOf(ir::printParseable(If2), R));
  Keys.insert(CompileCache::keyOf(ir::printParseable(Reduce2), R));
  EXPECT_EQ(Keys.size(), 5u) << "guard cmp / reduce op collide";

  // So do the values Section 4.4 leaves to run time.
  for (const LoopPair &Pair : runtimePairs()) {
    parser::ParseResult A = parser::parseLoop(Pair.A);
    parser::ParseResult B = parser::parseLoop(Pair.B);
    ASSERT_TRUE(A.ok() && B.ok()) << A.Error << B.Error;
    EXPECT_NE(CompileCache::keyOf(ir::printParseable(*A.Loop), R),
              CompileCache::keyOf(ir::printParseable(*B.Loop), R))
        << Pair.Name << " pair shares a key";
  }
}

TEST(ServerCache, RuntimeTripCountsGetTheirOwnReferenceImage) {
  expectBVerifiesAfterA(runtimePairs()[0]);
}

TEST(ServerCache, ParameterValuesGetTheirOwnReferenceImage) {
  expectBVerifiesAfterA(runtimePairs()[1]);
}

TEST(ServerCache, RuntimeAlignmentsGetTheirOwnReferenceImage) {
  expectBVerifiesAfterA(runtimePairs()[2]);
}

TEST(ServerCache, ExplainAnswersForItsOwnLoop) {
  const std::string Config = R"({"policy":"zero"})";
  for (const LoopPair &Pair : runtimePairs()) {
    Service Fresh;
    std::string Expected = Fresh.handle(explainReq(2, Pair.B, Config));
    Service S;
    S.handle(explainReq(1, Pair.A, Config));
    EXPECT_EQ(S.handle(explainReq(2, Pair.B, Config)), Expected)
        << Pair.Name << " pair answered from the other loop's entry";
  }
}

TEST(ServerCache, LoopSpellingVariantsShareOneEntry) {
  Service S;
  // Same loop, different whitespace and a comment: the canonical print
  // collapses them to one content key.
  std::string Spelled = "# the figure-1 style kernel\n"
                        "array a i32 128 align 0\n"
                        "array b i32 128 align 4\n"
                        "array   c   i32   128   align 8\n"
                        "loop 100\n"
                        "a[ i + 2 ] = b[i+1] * c[i+3] + b[ i ]\n";
  std::string First = S.handle(compileReq(1, CacheLoop));
  std::string Second = S.handle(compileReq(1, Spelled));
  EXPECT_EQ(First, Second);
  EXPECT_EQ(S.cache().size(), 1u);
  EXPECT_EQ(S.cache().stats().Hits, 1);
}

TEST(ServerCache, EvictionKeepsTheBoundAndStaysCorrect) {
  ServiceOptions Opts;
  Opts.MaxCacheEntries = 4;
  Service S(Opts);

  // Six distinct loops (distinct trip counts) through a 4-entry cache.
  std::vector<std::string> Loops;
  for (int K = 0; K < 6; ++K)
    Loops.push_back("array a i32 256 align 0\n"
                    "array b i32 256 align 4\n"
                    "loop " +
                    std::to_string(96 + 16 * K) + "\na[i+1] = b[i+2] + b[i]\n");

  std::vector<std::string> FirstResponses;
  for (size_t K = 0; K < Loops.size(); ++K)
    FirstResponses.push_back(S.handle(compileReq(K, Loops[K])));

  EXPECT_LE(S.cache().size(), 4u);
  EXPECT_EQ(S.cache().stats().Evictions, 2);

  // The oldest entries were evicted; recompiling them is byte-identical.
  for (size_t K = 0; K < 2; ++K)
    EXPECT_EQ(S.handle(compileReq(K, Loops[K])), FirstResponses[K]);
  EXPECT_LE(S.cache().size(), 4u);
}

TEST(ServerCache, UnboundedWhenMaxIsZero) {
  ServiceOptions Opts;
  Opts.MaxCacheEntries = 0;
  Service S(Opts);
  for (int K = 0; K < 12; ++K)
    S.handle(compileReq(
        K, "array a i32 256 align 0\narray b i32 256 align 4\nloop " +
               std::to_string(64 + 16 * K) + "\na[i+1] = b[i+2] + b[i]\n"));
  EXPECT_EQ(S.cache().size(), 12u);
  EXPECT_EQ(S.cache().stats().Evictions, 0);
}

} // namespace
