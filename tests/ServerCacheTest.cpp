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

#include "fuzz/CorpusIO.h"
#include "ir/IRBuilder.h"
#include "ir/IRPrinter.h"
#include "obs/Json.h"
#include "parser/LoopParser.h"
#include "policies/ShiftPolicy.h"
#include "server/Cache.h"
#include "server/Service.h"
#include "simdize/Target.h"
#include "support/Hash.h"

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

  // Eviction takes the least recently used entry. Every answering path
  // refreshes its entry: a repeat compile (the alias path's find), a
  // byte-identical payload (the response memo's peek) and a check.
  // Entry order is given oldest first.
  for (int K = 6; K < 8; ++K)
    Loops.push_back("array a i32 256 align 0\n"
                    "array b i32 256 align 4\n"
                    "loop " +
                    std::to_string(96 + 16 * K) + "\na[i+1] = b[i+2] + b[i]\n");
  Service L(Opts);
  std::vector<std::string> First;
  for (size_t K = 0; K < Loops.size(); ++K)
    First.push_back(compileReq(K, Loops[K]));
  auto Evictions = [&] { return L.cache().stats().Evictions; };
  for (size_t K = 0; K < 4; ++K)
    L.handle(First[K]);                        // 0 1 2 3
  L.handle(compileReq(100, Loops[0]));         // 1 2 3 0
  L.handle(First[4]);                          // 2 3 0 4, evicts 1
  EXPECT_EQ(Evictions(), 1);
  L.handle(First[2]);                          // 3 0 4 2 (memo hit)
  EXPECT_EQ(L.cache().stats().Misses, 5);
  L.handle(First[5]);                          // 0 4 2 5, evicts 3
  L.handle(checkReq(101, Loops[0], 1));        // 4 2 5 0
  L.handle(First[6]);                          // 2 5 0 6, evicts 4
  EXPECT_EQ(Evictions(), 3);

  // A poisoned entry leaves the cache without disturbing the others'
  // order or counting as an eviction.
  parser::ParseResult P5 = parser::parseLoop(Loops[5], 16);
  ASSERT_TRUE(P5.ok());
  L.cache().poisonForTest(CompileCache::keyOf(ir::printParseable(*P5.Loop),
                                              pipeline::CompileRequest()));
  EXPECT_NE(L.handle(compileReq(102, Loops[5])).find("poisoned_cache"),
            std::string::npos);                // 2 0 6
  EXPECT_EQ(L.cache().size(), 3u);
  L.handle(First[7]);                          // 2 0 6 7
  EXPECT_EQ(Evictions(), 3);
  L.handle(compileReq(103, Loops[5]));         // 0 6 7 5, evicts 2
  EXPECT_EQ(Evictions(), 4);
  EXPECT_EQ(L.cache().size(), 4u);

  // The survivors answer without a miss; each evicted loop misses and
  // recompiles to its first bytes.
  CompileCache::Stats Before = L.cache().stats();
  for (size_t K : {0u, 6u, 7u, 5u})
    L.handle(compileReq(200 + K, Loops[K]));
  EXPECT_EQ(L.cache().stats().Misses, Before.Misses);
  EXPECT_EQ(L.cache().stats().Hits, Before.Hits + 4);
  for (size_t K : {1u, 3u, 4u, 2u}) {
    int64_t Misses = L.cache().stats().Misses;
    EXPECT_EQ(L.handle(First[K]), FirstResponses[K]);
    EXPECT_GT(L.cache().stats().Misses, Misses) << "loop " << K;
    EXPECT_EQ(L.cache().size(), 4u);
  }
}

TEST(ServerCache, ChecksumCoversEveryPayloadByte) {
  Service S;
  std::string Bad = "array a i32 128 align 0\nloop 100\na[i+1] = a[i] + 1\n";
  ASSERT_EQ(S.handle(compileReq(1, CacheLoop)).find("error"),
            std::string::npos);
  ASSERT_NE(S.handle(compileReq(2, Bad)).find("compile_error"),
            std::string::npos);

  // Flips each byte of one field in turn; every flip must move the sum.
  auto ExpectEveryFlipDetected = [](CompileCache::Entry &E, std::string &Field,
                                    const char *Name) {
    ASSERT_FALSE(Field.empty()) << Name;
    uint64_t Clean = CompileCache::checksumOf(E);
    ASSERT_EQ(Clean, E.Checksum) << Name;
    for (size_t I = 0; I < Field.size(); ++I)
      for (unsigned char Mask : {0x01, 0x80}) {
        Field[I] = static_cast<char>(Field[I] ^ Mask);
        EXPECT_NE(CompileCache::checksumOf(E), Clean)
            << Name << " byte " << I << " mask " << unsigned(Mask);
        Field[I] = static_cast<char>(Field[I] ^ Mask);
      }
    EXPECT_EQ(CompileCache::checksumOf(E), Clean) << Name;
  };
  for (const std::string &Loop : {std::string(CacheLoop), Bad}) {
    parser::ParseResult P = parser::parseLoop(Loop, 16);
    ASSERT_TRUE(P.ok()) << P.Error;
    std::shared_ptr<CompileCache::Entry> E;
    ASSERT_EQ(S.cache().find(CompileCache::keyOf(ir::printParseable(*P.Loop),
                                                 pipeline::CompileRequest()),
                             E),
              CompileCache::Outcome::Hit);
    ExpectEveryFlipDetected(*E, E->Result.ConfigName, "config name");
    if (E->Result.ok())
      ExpectEveryFlipDetected(*E, E->ProgramText, "program text");
    else
      ExpectEveryFlipDetected(*E, E->Result.Simd.Error, "error text");
  }
}

TEST(ServerCache, ResponsesArePinned) {
  // Every response byte of compile, check and explain over the corpus and
  // a config set that covers each policy, SP on and off, every opt level
  // and V = 16/32/64. Changing the hash needs a reason, not a re-record.
  const std::vector<std::string> Configs = {
      R"({"policy":"zero","opt":"raw","width":16})",
      R"({"policy":"eager","sp":true,"opt":"std","width":32})",
      R"({"policy":"lazy","opt":"pc","width":64})",
      R"({"policy":"dom","sp":true,"opt":"raw","width":64})",
      R"({"policy":"optimal","opt":"std","width":16})",
      R"({"policy":"auto","sp":true,"opt":"pc","width":32})",
      R"({"policy":"lazy","sp":true,"opt":"std","width":16})",
  };
  std::vector<std::string> Files = fuzz::listCorpusFiles(SIMDIZE_CORPUS_DIR);
  ASSERT_EQ(Files.size(), 5u);
  Service S;
  std::string All;
  uint64_t Id = 0;
  size_t Errors = 0;
  for (const std::string &Path : Files) {
    std::optional<std::string> Text = fuzz::readCorpusFile(Path);
    ASSERT_TRUE(Text.has_value()) << Path;
    for (const std::string &Config : Configs)
      for (const std::string &Resp :
           {S.handle(compileReq(++Id, *Text, Config)),
            S.handle(checkReq(++Id, *Text, 1, Config)),
            S.handle(explainReq(++Id, *Text, Config))}) {
        Errors += Resp.find(R"("kind":"error")") != std::string::npos;
        All += Resp;
        All += '\n';
      }
  }
  EXPECT_EQ(Id, 105u);
  // Deterministic rejections: trip counts under the 3B guard, and policies
  // other than zero-shift on runtime alignments.
  EXPECT_EQ(Errors, 28u);
  EXPECT_EQ(All.size(), 82503u);
  EXPECT_EQ(fnv1a(All), 2686243001615824215ULL);
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
