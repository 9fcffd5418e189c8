//===- tools/simdize-fuzz.cpp - Differential fuzzing driver ---------------===//
//
// Part of the simdize project (PLDI 2004 alignment-constrained simdization).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Command-line front end of the differential fuzzer (src/fuzz/): sweeps
/// synthesized loops across every applicable pipeline configuration and
/// checks each simdization bit-for-bit against the scalar oracle, plus
/// the property oracles (never-load-twice, shift counts, OPD bound)
/// unless --no-oracles is given. Any failure is minimized by the
/// shrinker, tagged with its failure kind, and written as parseable text.
///
///   simdize-fuzz [options]
///     --seeds=N         number of seeds to sweep (default 1000, N >= 1)
///     --start-seed=N    first seed (default 1)
///     --budget=SECONDS  stop early after this much wall time
///     --corpus-dir=DIR  write minimized reproducers into DIR
///     --max-failures=N  stop shrinking after N failures (16)
///     --jobs=N          worker threads sharding the seed range (default 1,
///                       1 <= N <= 256); results are merged in seed order,
///                       so without a budget the output is identical to
///                       --jobs=1
///     --metrics=FILE    write one JSONL record per (seed, config) run plus
///                       a final aggregate record with opd / shift-count
///                       percentiles; byte-identical across --jobs values
///     --widths=V,...    comma-separated vector widths to sweep (each a
///                       power of two in [4, 64]; default 16). Loops are
///                       synthesized once per seed at the widest width and
///                       every width runs against the same width-independent
///                       scalar oracle
///     --policy=NAME     restrict the policy axis to one policy
///                       (zero|eager|lazy|dom|optimal) or to the pipeline's
///                       auto-selection mode (auto); default sweeps all
///                       policies plus auto
///     --guards          enable the guarded-statement axis: seeds draw a
///                       per-loop probability of if-converted conditional
///                       assignments (if (x[i] > k) a[i] = ...)
///     --reductions      enable the reduction axis: seeds draw a per-loop
///                       probability of accumulation statements
///                       (s[k] += ...)
///     --no-oracles      bit-equality checking only, skip property oracles
///     --native          also lower every verified run to host intrinsics
///                       (best ISA the CPU supports, portable shim as the
///                       floor), compile + dlopen it, and require the full
///                       memory image to match the scalar expected image
///     --verbose         log every seed's parameters
///     --replay FILE...  instead of fuzzing, run each corpus file through
///                       all applicable configurations at every width
///                       (honors --native)
///
/// Unknown flags, malformed numbers, and out-of-range --jobs/--seeds are
/// rejected with the usage text.
///
/// Exit status: 0 when every run verified or was cleanly rejected, 1 on
/// any failure, 2 on usage errors.
///
//===----------------------------------------------------------------------===//

#include "fuzz/CorpusIO.h"
#include "fuzz/Fuzzer.h"
#include "ir/IRPrinter.h"
#include "ir/Loop.h"
#include "parser/LoopParser.h"
#include "support/CLIOptions.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

using namespace simdize;

namespace {

int usage(const char *Argv0) {
  std::fprintf(stderr,
               "usage: %s [--seeds=N] [--start-seed=N] [--budget=SEC] "
               "[--corpus-dir=DIR] [--max-failures=N] [--jobs=N] "
               "[--metrics=FILE] [--widths=V,...] "
               "[--policy=zero|eager|lazy|dom|optimal|auto] [--guards] "
               "[--reductions] [--no-oracles] [--native] [--verbose]\n"
               "       %s [--widths=V,...] --replay FILE...\n",
               Argv0, Argv0);
  return 2;
}

// Strict numeric parsing and the --policy axis come from the shared CLI
// layer (support/CLIOptions.h), which pins the same contract this tool's
// exit-code ctests do: malformed values are usage errors, exit 2.
using support::parseF64;
using support::parseU64;
using support::parseWidthList;

/// Runs one corpus file through every applicable configuration at every
/// requested width; returns false on any Failed outcome.
bool replayFile(const std::string &Path, bool Oracles, bool NativeDiff,
                const std::vector<unsigned> &Widths) {
  auto Text = fuzz::readCorpusFile(Path);
  if (!Text) {
    std::fprintf(stderr, "error: cannot read %s\n", Path.c_str());
    return false;
  }
  unsigned MaxWidth = *std::max_element(Widths.begin(), Widths.end());
  parser::ParseResult Parsed = parser::parseLoop(*Text, MaxWidth);
  if (!Parsed.ok()) {
    std::fprintf(stderr, "error: %s: %s\n", Path.c_str(),
                 Parsed.Error.c_str());
    return false;
  }
  const ir::Loop &L = *Parsed.Loop;
  std::printf("%s:\n%s", Path.c_str(), ir::printLoop(L).c_str());

  bool Ok = true;
  for (unsigned W : Widths) {
    for (const fuzz::FuzzConfig &C : fuzz::configsForLoop(L, W)) {
      fuzz::RunResult R =
          fuzz::runConfigOnLoop(L, C, 2004, {}, nullptr, Oracles, NativeDiff);
      bool Failed = R.Status == fuzz::RunStatus::Failed;
      std::string Verdict = R.Status == fuzz::RunStatus::Verified ? "ok"
                            : R.Status == fuzz::RunStatus::Rejected
                                ? "rejected"
                                : std::string("FAILED [") +
                                      oracle::failureKindName(R.Kind) + "]";
      std::printf("  %-14s %s%s%s\n", C.name().c_str(), Verdict.c_str(),
                  R.Message.empty() ? "" : ": ", R.Message.c_str());
      Ok &= !Failed;
    }
  }
  return Ok;
}

} // namespace

int main(int Argc, char **Argv) {
  fuzz::FuzzOptions Opts;
  Opts.Log = stderr;
  std::vector<std::string> ReplayFiles;
  std::string MetricsPath;
  bool Replay = false;

  // Only the policy axis is shared with simdize-tool; --vlen/--sp/--tier
  // stay unknown flags here (the fuzzer sweeps those axes itself).
  support::CLIOptions Shared(support::CLIOptions::PolicyAxis);

  for (int K = 1; K < Argc; ++K) {
    std::string Arg = Argv[K];
    switch (Shared.consume(Arg)) {
    case support::CLIOptions::Consume::Ok:
      Opts.PolicyFilter = Shared.PolicyName;
      continue;
    case support::CLIOptions::Consume::Bad:
      std::fprintf(stderr, "error: %s\n", Shared.Error.c_str());
      return usage(Argv[0]);
    case support::CLIOptions::Consume::NotMine:
      break;
    }
    auto Value = [&](const char *Prefix) -> const char * {
      return Arg.c_str() + std::strlen(Prefix);
    };
    uint64_t N = 0;
    if (Arg == "--verbose")
      Opts.Verbose = true;
    else if (Arg == "--no-oracles")
      Opts.Oracles = false;
    else if (Arg == "--native")
      Opts.NativeDiff = true;
    else if (Arg == "--guards")
      Opts.Guards = true;
    else if (Arg == "--reductions")
      Opts.Reductions = true;
    else if (Arg == "--replay")
      Replay = true;
    else if (Arg.rfind("--seeds=", 0) == 0) {
      if (!parseU64(Value("--seeds="), N) || N < 1) {
        std::fprintf(stderr, "error: --seeds needs a whole number >= 1\n");
        return usage(Argv[0]);
      }
      Opts.NumSeeds = N;
    } else if (Arg.rfind("--start-seed=", 0) == 0) {
      if (!parseU64(Value("--start-seed="), N)) {
        std::fprintf(stderr, "error: --start-seed needs a whole number\n");
        return usage(Argv[0]);
      }
      Opts.StartSeed = N;
    } else if (Arg.rfind("--budget=", 0) == 0) {
      double Sec = 0;
      if (!parseF64(Value("--budget="), Sec) || Sec < 0) {
        std::fprintf(stderr, "error: --budget needs seconds >= 0\n");
        return usage(Argv[0]);
      }
      Opts.TimeBudgetSeconds = Sec;
    } else if (Arg.rfind("--corpus-dir=", 0) == 0)
      Opts.CorpusDir = Value("--corpus-dir=");
    else if (Arg.rfind("--max-failures=", 0) == 0) {
      if (!parseU64(Value("--max-failures="), N) || N > 100000) {
        std::fprintf(stderr,
                     "error: --max-failures needs a whole number <= 100000\n");
        return usage(Argv[0]);
      }
      Opts.MaxFailures = static_cast<unsigned>(N);
    } else if (Arg.rfind("--metrics=", 0) == 0) {
      if (*Value("--metrics=") == '\0') {
        std::fprintf(stderr, "error: --metrics needs a file path\n");
        return usage(Argv[0]);
      }
      MetricsPath = Value("--metrics=");
    } else if (Arg.rfind("--widths=", 0) == 0) {
      if (!parseWidthList(Value("--widths="), Opts.Widths)) {
        std::fprintf(stderr,
                     "error: --widths needs a comma-separated list of "
                     "powers of two in [4, %u]\n",
                     Target::MaxVectorLen);
        return usage(Argv[0]);
      }
    } else if (Arg.rfind("--jobs=", 0) == 0) {
      if (!parseU64(Value("--jobs="), N) || N < 1 || N > 256) {
        std::fprintf(stderr, "error: --jobs needs a whole number in "
                             "[1, 256]\n");
        return usage(Argv[0]);
      }
      Opts.Jobs = static_cast<unsigned>(N);
    } else if (Arg.rfind("--", 0) == 0) {
      std::fprintf(stderr, "error: unknown flag '%s'\n", Arg.c_str());
      return usage(Argv[0]);
    } else if (Replay)
      ReplayFiles.push_back(Arg);
    else {
      std::fprintf(stderr, "error: stray argument '%s'\n", Arg.c_str());
      return usage(Argv[0]);
    }
  }

  if (Replay) {
    if (ReplayFiles.empty())
      return usage(Argv[0]);
    bool Ok = true;
    for (const std::string &Path : ReplayFiles)
      Ok &= replayFile(Path, Opts.Oracles, Opts.NativeDiff, Opts.Widths);
    return Ok ? 0 : 1;
  }

  std::FILE *MetricsFile = nullptr;
  if (!MetricsPath.empty()) {
    MetricsFile = std::fopen(MetricsPath.c_str(), "wb");
    if (!MetricsFile) {
      std::fprintf(stderr, "error: cannot open %s for writing\n",
                   MetricsPath.c_str());
      return 2;
    }
    Opts.MetricsOut = MetricsFile;
  }

  fuzz::FuzzStats Stats = fuzz::runFuzz(Opts);
  if (MetricsFile)
    std::fclose(MetricsFile);
  std::printf("%llu seeds: %llu runs verified, %llu rejected, %zu "
              "failures, %llu duplicates%s\n",
              static_cast<unsigned long long>(Stats.SeedsRun),
              static_cast<unsigned long long>(Stats.RunsVerified),
              static_cast<unsigned long long>(Stats.RunsRejected),
              Stats.Failures.size(),
              static_cast<unsigned long long>(Stats.DuplicateFailures),
              Stats.HitTimeBudget ? " (time budget hit)" : "");
  // Work counts go to stderr: stdout and the metrics stream report only
  // what the sweep found, byte-identical however the work was shared.
  std::fprintf(stderr, "%llu simdize calls, %llu VM checks\n",
               static_cast<unsigned long long>(Stats.SimdizeCalls),
               static_cast<unsigned long long>(Stats.VmChecks));
  for (const auto &F : Stats.Failures)
    std::printf("  seed %llu %s [%s]: %s%s%s\n",
                static_cast<unsigned long long>(F.Seed),
                F.Config.name().c_str(), oracle::failureKindName(F.Kind),
                F.Message.c_str(), F.CorpusFile.empty() ? "" : " -> ",
                F.CorpusFile.c_str());
  return Stats.ok() ? 0 : 1;
}
