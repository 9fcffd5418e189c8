//===- tests/EngineEquivalenceTest.cpp - Decoded vs reference engine ------===//
//
// Part of the simdize project (PLDI 2004 alignment-constrained simdization).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Differential gate for the pre-decoded execution engine: over the
/// committed corpus and a band of synthesized loops with guards and
/// reductions, every applicable configuration at V = 16, 32 and 64 is
/// compiled through pipeline::runPipeline and run on the byte-at-a-time
/// reference interpreter (sim::runProgram) and on sim::runDecoded. Final
/// memory, OpCounts, SteadyIterations, and the per-chunk load and store
/// counts must agree bit for bit. The reference run must reproduce the
/// scalar oracle's image, and checkSimdization, the decoded check that
/// the fuzzer and every other test go through, must accept the program.
/// The decoded engine carries every correctness check in this repository,
/// so its equivalence to the reference is itself a tier-1 property.
///
//===----------------------------------------------------------------------===//

#include "fuzz/CorpusIO.h"
#include "fuzz/Fuzzer.h"
#include "ir/Loop.h"
#include "parser/LoopParser.h"
#include "pipeline/Pipeline.h"
#include "sim/Checker.h"
#include "sim/Decoder.h"
#include "vir/VProgram.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

using namespace simdize;

namespace {

constexpr unsigned Widths[] = {16, 32, 64};

/// Runs \p P on both engines over \p Ref's initial image and demands
/// identical memory, op counts, iteration counts, and chunk counts; the
/// reference run must reproduce the scalar oracle, and the checker must
/// accept the program.
void expectEnginesAgree(const ir::Loop &L, const vir::VProgram &P,
                        const sim::ReferenceImage &Ref) {
  sim::Memory RefMem = Ref.getInitial();
  sim::ExecStats RefStats = sim::runProgram(P, Ref.getLayout(), RefMem);

  sim::DecodedProgram DP(P, Ref.getLayout());
  sim::Memory DecMem = Ref.getInitial();
  sim::ExecOptions EO;
  EO.TrackChunkLoads = true;
  sim::ExecStats DecStats = sim::runDecoded(DP, DecMem, EO);

  EXPECT_TRUE(RefMem == DecMem) << "final memory images differ";
  EXPECT_TRUE(RefStats.Counts == DecStats.Counts)
      << "op counts differ: reference "
      << "L=" << RefStats.Counts.Loads << " S=" << RefStats.Counts.Stores
      << " R=" << RefStats.Counts.Reorg << " C=" << RefStats.Counts.Compute
      << " decoded L=" << DecStats.Counts.Loads
      << " S=" << DecStats.Counts.Stores << " R=" << DecStats.Counts.Reorg
      << " C=" << DecStats.Counts.Compute;
  EXPECT_EQ(RefStats.SteadyIterations, DecStats.SteadyIterations);
  EXPECT_TRUE(RefStats.ChunkLoads == DecStats.ChunkLoads)
      << "per-chunk load counts differ";
  EXPECT_TRUE(RefStats.ChunkStores == DecStats.ChunkStores)
      << "per-chunk store counts differ";

  EXPECT_TRUE(RefMem == Ref.getExpected())
      << "reference engine disagrees with the scalar oracle";
  sim::CheckResult Check = sim::checkSimdization(L, P, Ref);
  EXPECT_TRUE(Check.Ok) << Check.Message;
}

/// Every applicable configuration of \p L at every width, both engines,
/// two images.
void expectEnginesAgreeOnLoop(const ir::Loop &L, uint64_t Seed) {
  for (unsigned W : Widths) {
    const sim::ReferenceImage Images[] = {{L, W, Seed},
                                          {L, W, Seed ^ 0x5eedULL}};
    for (const fuzz::FuzzConfig &C : fuzz::configsForLoop(L, W)) {
      SCOPED_TRACE(C.name());
      pipeline::CompileResult R = pipeline::runPipeline(L, C);
      if (!R.Simd.ok())
        continue; // Declined by design (validity guard, policy gate).
      ASSERT_FALSE(R.PostOptVerifyError) << *R.PostOptVerifyError;
      for (const sim::ReferenceImage &Ref : Images)
        expectEnginesAgree(R.compiledLoop(L), *R.Simd.Program, Ref);
    }
  }
}

TEST(EngineEquivalence, CommittedCorpus) {
  std::vector<std::string> Files = fuzz::listCorpusFiles(SIMDIZE_CORPUS_DIR);
  ASSERT_FALSE(Files.empty());
  for (const std::string &Path : Files) {
    SCOPED_TRACE(Path);
    auto Text = fuzz::readCorpusFile(Path);
    ASSERT_TRUE(Text.has_value());
    // Parsed at the widest width (it only bounds `align` literals), so
    // the narrower widths run the same loop.
    parser::ParseResult Parsed = parser::parseLoop(*Text, 64);
    ASSERT_TRUE(Parsed.ok()) << Parsed.Error;
    expectEnginesAgreeOnLoop(*Parsed.Loop, 2004);
  }
}

TEST(EngineEquivalence, SynthesizedLoops) {
  // The fuzzer's own input distribution with guarded statements and
  // reductions: degenerate trip counts are rejected before execution, so
  // surviving configs stress prologue, steady state, epilogue,
  // predication, and runtime alignment.
  for (uint64_t Seed = 1; Seed <= 40; ++Seed) {
    SCOPED_TRACE("seed " + std::to_string(Seed));
    ir::Loop L = synth::synthesizeLoop(
        fuzz::paramsForSeed(Seed, 64, /*Guards=*/true, /*Reductions=*/true));
    expectEnginesAgreeOnLoop(L, Seed ^ 0xc0ffee);
  }
}

} // namespace
