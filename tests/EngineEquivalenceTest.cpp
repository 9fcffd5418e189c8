//===- tests/EngineEquivalenceTest.cpp - Decoded vs reference engine ------===//
//
// Part of the simdize project (PLDI 2004 alignment-constrained simdization).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Differential gate for the pre-decoded execution engine: over the
/// committed corpus and a band of synthesized loops, every applicable
/// pipeline configuration must execute identically on the byte-at-a-time
/// reference interpreter and on runDecoded — final memory, OpCounts,
/// SteadyIterations, and the per-chunk load and store counts all
/// bit-for-bit. The decoded engine carries every correctness check in this
/// repository, so its equivalence to the reference is itself a tier-1
/// property.
///
//===----------------------------------------------------------------------===//

#include "codegen/Simdizer.h"
#include "fuzz/CorpusIO.h"
#include "fuzz/Fuzzer.h"
#include "ir/Loop.h"
#include "opt/Pipeline.h"
#include "parser/LoopParser.h"
#include "sim/Checker.h"
#include "sim/Decoder.h"
#include "vir/VProgram.h"

#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <vector>

using namespace simdize;

namespace {

/// Simdizes + optimizes \p L under \p C; nullopt when the pipeline
/// declines the loop (validity guard, policy gate).
std::optional<vir::VProgram> buildProgram(const ir::Loop &L,
                                          const fuzz::FuzzConfig &C) {
  codegen::SimdizeOptions Opts;
  Opts.Policy = C.Simd.Policy;
  Opts.SoftwarePipelining = C.Simd.SoftwarePipelining;
  codegen::SimdizeResult R = codegen::simdize(L, Opts);
  if (!R.ok())
    return std::nullopt;
  if (C.Opt != fuzz::OptLevel::Raw) {
    opt::OptConfig Config;
    Config.PC = C.Opt == fuzz::OptLevel::PC;
    opt::runOptPipeline(*R.Program, Config);
  }
  return std::move(*R.Program);
}

/// Runs \p P on both engines over the same initial image and demands
/// identical memory, op counts, iteration counts, and chunk counts.
void expectEnginesAgree(const ir::Loop &L, const vir::VProgram &P,
                        uint64_t Seed) {
  sim::ReferenceImage Ref(L, P.getVectorLen(), Seed);

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
}

/// Every applicable configuration of \p L, both engines, two seeds.
void expectEnginesAgreeOnLoop(const ir::Loop &L, uint64_t Seed) {
  for (const fuzz::FuzzConfig &C : fuzz::configsForLoop(L)) {
    SCOPED_TRACE(C.name());
    std::optional<vir::VProgram> P = buildProgram(L, C);
    if (!P)
      continue;
    expectEnginesAgree(L, *P, Seed);
    expectEnginesAgree(L, *P, Seed ^ 0x5eedULL);
  }
}

TEST(EngineEquivalence, CommittedCorpus) {
  std::vector<std::string> Files = fuzz::listCorpusFiles(SIMDIZE_CORPUS_DIR);
  ASSERT_FALSE(Files.empty());
  for (const std::string &Path : Files) {
    SCOPED_TRACE(Path);
    auto Text = fuzz::readCorpusFile(Path);
    ASSERT_TRUE(Text.has_value());
    parser::ParseResult Parsed = parser::parseLoop(*Text);
    ASSERT_TRUE(Parsed.ok()) << Parsed.Error;
    expectEnginesAgreeOnLoop(*Parsed.Loop, 2004);
  }
}

TEST(EngineEquivalence, SynthesizedLoops) {
  // The fuzzer's own input distribution: degenerate trip counts are
  // rejected before execution, so surviving configs stress prologue,
  // steady state, epilogue, predication, and runtime alignment.
  for (uint64_t Seed = 1; Seed <= 40; ++Seed) {
    SCOPED_TRACE("seed " + std::to_string(Seed));
    ir::Loop L = synth::synthesizeLoop(fuzz::paramsForSeed(Seed));
    expectEnginesAgreeOnLoop(L, Seed ^ 0xc0ffee);
  }
}

TEST(EngineEquivalence, CheckerAgreesAcrossEngines) {
  // The same program checked through checkSimdization must verify on both
  // engines (this is the API the fuzzer and all tests go through).
  ir::Loop L = synth::synthesizeLoop(fuzz::paramsForSeed(3));
  for (const fuzz::FuzzConfig &C : fuzz::configsForLoop(L)) {
    SCOPED_TRACE(C.name());
    std::optional<vir::VProgram> P = buildProgram(L, C);
    if (!P)
      continue;
    sim::ReferenceImage Ref(L, P->getVectorLen(), 7);
    sim::CheckOptions Reference;
    Reference.UseReferenceEngine = true;
    sim::CheckResult RefCheck =
        sim::checkSimdization(L, *P, Ref, nullptr, Reference);
    sim::CheckResult DecCheck = sim::checkSimdization(L, *P, Ref);
    EXPECT_EQ(RefCheck.Ok, DecCheck.Ok);
    EXPECT_TRUE(RefCheck.Ok) << RefCheck.Message;
  }
}

} // namespace
