//===- tests/NativeDiffAcceptance.cpp - native-vs-VM differential gate ----===//
//
// Part of the simdize project (PLDI 2004 alignment-constrained simdization).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The acceptance gate of the native execution tier: every compiled
/// program from the whole tests/corpus/ (every applicable configuration)
/// plus a fresh fuzz-seed sweep, at V = 16, 32, and 64, must come back
/// from the dlopen'd intrinsic kernel with a memory image bit-identical
/// to the scalar oracle — and each program is first re-verified on the
/// decoded VM against the same image, so native and VM agree transitively
/// byte for byte. Kernels are batched (one translation unit, one system
/// compiler invocation per ~64) to keep the wall clock sane; the ISA is
/// the best the host supports per width, so the gate runs everywhere and
/// exercises real SIMD where the CPU has it.
///
/// A standalone slow-labeled ctest, not a gtest: the interesting failure
/// output is one line per differing kernel, and the run is minutes, not
/// milliseconds.
///
//===----------------------------------------------------------------------===//

#include "fuzz/Fuzzer.h"
#include "ir/Loop.h"
#include "native/NativeRun.h"
#include "parser/LoopParser.h"
#include "pipeline/Pipeline.h"
#include "sim/Checker.h"
#include "support/Format.h"
#include "synth/LoopSynth.h"

#include <algorithm>
#include <cstdio>
#include <deque>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <string>
#include <vector>

using namespace simdize;

namespace {

constexpr unsigned Widths[] = {16, 32, 64};
/// Kernels per generated translation unit: large enough to amortize the
/// system compiler, small enough to keep each invocation snappy.
constexpr size_t BatchSize = 64;
/// Fresh seed range, disjoint from the default sweeps (which start at 1),
/// sized so the verified-run floor below holds even after degenerate
/// trip-count rejections.
constexpr uint64_t FuzzStart = 1000001, FuzzSeeds = 600;
/// Acceptance floors: the gate must actually have exercised this much —
/// a regression that silently rejects everything must not pass.
constexpr uint64_t MinFuzzRuns = 500, MinCorpusRuns = 100;

/// One compiled program awaiting its native run, with everything borrowed
/// from the stable deques below.
struct Unit {
  std::string Tag;
  const ir::Loop *L = nullptr;
  const vir::VProgram *P = nullptr;
  const sim::ReferenceImage *Ref = nullptr;
  bool Fuzz = false;
};

} // namespace

int main() {
  // Owning stores; deques so references handed to Units never move.
  std::deque<ir::Loop> Loops;
  std::deque<sim::ReferenceImage> Images;
  std::deque<pipeline::CompileResult> Results;
  std::map<unsigned, std::vector<Unit>> ByWidth;
  uint64_t Rejected = 0;
  int Failures = 0;

  // Compiles Loops.back() under configurations at every width and queues
  // the survivors against one image of CheckSeed per width. Corpus loops
  // take the full configuration matrix; fuzz seeds rotate through it (one
  // configuration per width, offset per width so the three widths of a
  // seed differ) — across the sweep every policy x SP x opt-level cell is
  // hit many times per width.
  auto AddConfigs = [&](const std::string &TagBase, bool Fuzz,
                        uint64_t Rotate, uint64_t CheckSeed) {
    const ir::Loop &L = Loops.back();
    for (size_t WI = 0; WI < 3; ++WI) {
      unsigned W = Widths[WI];
      const sim::ReferenceImage &Ref = Images.emplace_back(L, W, CheckSeed);
      std::vector<fuzz::FuzzConfig> Configs = fuzz::configsForLoop(L, W);
      for (size_t I = 0; I < Configs.size(); ++I) {
        if (Fuzz && I != (Rotate + WI) % Configs.size())
          continue;
        pipeline::CompileResult R = pipeline::runPipeline(L, Configs[I]);
        if (!R.Simd.ok()) {
          ++Rejected; // validity guard or policy gate, by design
          continue;
        }
        std::string Tag = TagBase + " " + Configs[I].name();
        if (R.PostOptVerifyError) {
          std::fprintf(stderr, "FAIL %s: %s\n", Tag.c_str(),
                       R.PostOptVerifyError->c_str());
          ++Failures;
          continue;
        }
        Results.push_back(std::move(R));
        ByWidth[W].push_back({std::move(Tag), &L,
                              &*Results.back().Simd.Program,
                              &Ref, Fuzz});
      }
    }
  };

  // The whole corpus, sorted for a deterministic run order.
  namespace fs = std::filesystem;
  std::vector<fs::path> CorpusFiles;
  for (const auto &E : fs::directory_iterator(SIMDIZE_CORPUS_DIR))
    if (E.path().extension() == ".loop")
      CorpusFiles.push_back(E.path());
  std::sort(CorpusFiles.begin(), CorpusFiles.end());
  if (CorpusFiles.empty()) {
    std::fprintf(stderr, "FAIL: no .loop files under %s\n",
                 SIMDIZE_CORPUS_DIR);
    return 1;
  }
  for (const fs::path &F : CorpusFiles) {
    std::ifstream In(F);
    std::string Text(std::istreambuf_iterator<char>(In),
                     std::istreambuf_iterator<char>{});
    // Parse at the widest width of the sweep (it only bounds `align`
    // literals); narrower widths reuse the same loop, as --replay does.
    parser::ParseResult Parsed = parser::parseLoop(Text, 64);
    if (!Parsed.ok()) {
      std::fprintf(stderr, "FAIL %s: %s\n", F.filename().c_str(),
                   Parsed.Error.c_str());
      ++Failures;
      continue;
    }
    Loops.push_back(std::move(*Parsed.Loop));
    AddConfigs(F.filename().string(), /*Fuzz=*/false, 0, /*CheckSeed=*/2004);
  }

  for (uint64_t Seed = FuzzStart; Seed < FuzzStart + FuzzSeeds; ++Seed) {
    Loops.push_back(synth::synthesizeLoop(fuzz::paramsForSeed(Seed, 64)));
    AddConfigs(strf("seed%llu", static_cast<unsigned long long>(Seed)),
               /*Fuzz=*/true, Seed, Seed ^ 0xc0ffee);
  }

  // Run everything, batched per width.
  uint64_t FuzzRuns = 0, CorpusRuns = 0;
  for (auto &[W, Units] : ByWidth) {
    native::ISA Isa = native::bestISAForWidth(W);
    for (size_t Begin = 0; Begin < Units.size(); Begin += BatchSize) {
      size_t End = std::min(Begin + BatchSize, Units.size());
      native::NativeBatch Batch(Isa);
      for (size_t I = Begin; I < End; ++I)
        Batch.add(*Units[I].L, *Units[I].P, Units[I].Ref->getLayout());
      std::string Err;
      if (!Batch.compile(&Err)) {
        std::fprintf(stderr, "FAIL batch @%u [%zu,%zu): %s\n", W, Begin, End,
                     Err.c_str());
        ++Failures;
        continue;
      }
      for (size_t I = Begin; I < End; ++I) {
        const Unit &U = Units[I];
        // VM first: the expected image is then a proven stand-in for the
        // decoded VM's output, so the native comparison below is a
        // native-vs-VM differential as well.
        sim::CheckResult C = sim::checkSimdization(*U.L, *U.P, *U.Ref);
        if (!C.Ok) {
          std::fprintf(stderr, "FAIL %s (VM): %s\n", U.Tag.c_str(),
                       C.Message.c_str());
          ++Failures;
          continue;
        }
        sim::Memory Img = U.Ref->getInitial();
        native::runNativeOnMemory(Batch.kernel(I - Begin), Img);
        if (!(Img == U.Ref->getExpected())) {
          int64_t Byte = -1;
          for (int64_t K = 0; K < Img.size(); ++K)
            if (Img.data()[K] != U.Ref->getExpected().data()[K]) {
              Byte = K;
              break;
            }
          std::fprintf(stderr,
                       "FAIL %s (%s): native image differs from oracle at "
                       "byte %lld\n",
                       U.Tag.c_str(), native::isaName(Batch.usedISA()),
                       static_cast<long long>(Byte));
          ++Failures;
          continue;
        }
        ++(U.Fuzz ? FuzzRuns : CorpusRuns);
      }
    }
    std::printf("width %2u (%s): %zu kernels\n", W, native::isaName(Isa),
                Units.size());
  }

  std::printf("native differential: %llu corpus + %llu fuzz runs "
              "bit-identical, %llu rejected by design, %d failures\n",
              static_cast<unsigned long long>(CorpusRuns),
              static_cast<unsigned long long>(FuzzRuns),
              static_cast<unsigned long long>(Rejected), Failures);
  if (CorpusRuns < MinCorpusRuns || FuzzRuns < MinFuzzRuns) {
    std::fprintf(stderr,
                 "FAIL: coverage floor not met (corpus %llu < %llu or fuzz "
                 "%llu < %llu)\n",
                 static_cast<unsigned long long>(CorpusRuns),
                 static_cast<unsigned long long>(MinCorpusRuns),
                 static_cast<unsigned long long>(FuzzRuns),
                 static_cast<unsigned long long>(MinFuzzRuns));
    return 1;
  }
  return Failures ? 1 : 0;
}
