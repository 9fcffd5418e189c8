//===- tools/simdize-tool.cpp - Command-line driver ------------------------===//
//
// Part of the simdize project (PLDI 2004 alignment-constrained simdization).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Simdizes a textual loop description (see parser/LoopParser.h) and shows
/// every stage of the pipeline. Usage:
///
///   simdize-tool [options] [file]        (stdin when no file)
///     --policy=zero|eager|lazy|dom|optimal|auto
///                                    shift placement policy (default lazy;
///                                    optimal = exact DP, auto = pipeline
///                                    picks per loop)
///     --vlen=N                       vector register width in bytes
///                                    (power of two, 4..64; default 16)
///     --sp                           software-pipelined codegen
///     --pc                           predictive commoning post-pass
///     --reassoc                      common offset reassociation
///     --no-memnorm                   disable memory normalization
///     --dump-graph[=dot]             print data reorganization graphs
///                                    (text, or Graphviz DOT)
///     --dump-vir                     print the vector IR program
///     --lower=native                 emit the loop's kernel as x86
///                                    intrinsics over simdize_x86.h
///     --native-isa=auto|shim|sse2|avx2|avx512
///                                    wrapper ISA for --lower=native
///                                    (auto picks the hardware ISA that
///                                    pins --vlen; emission never needs
///                                    host support). Hardware ISAs must
///                                    match --vlen: sse2=16, avx2=32,
///                                    avx512=64 — exit 2 otherwise
///     --lower-out=FILE               write the emitted kernel to FILE
///                                    instead of stdout
///     --tier=vm|native               execution tier for --run: the
///                                    decoded VM (default), or the VM
///                                    check plus the native differential
///                                    (compile, dlopen, run, compare the
///                                    full image; best host ISA, shim
///                                    fallback)
///     --run                          simulate, verify, and report opd
///     --trace=FILE                   write a Chrome trace-event JSON of
///                                    the pipeline phases to FILE and print
///                                    a per-phase summary
///     --explain[=FILE]               print the simdization decision log;
///                                    with =FILE also write it as JSON
///     --validate-json=FILE           standalone: parse FILE as JSON and
///                                    exit 0 iff well-formed
///
/// CLI contract (shared with simdize-fuzz, enforced by ctests): unknown
/// flags, stray arguments, and unreadable inputs exit 2 with usage; a
/// pipeline or verification failure exits 1.
///
/// Example:
///   echo 'array a i32 128 align 0
///         array b i32 128 align 0
///         array c i32 128 align 0
///         loop 100
///         a[i+3] = b[i+1] + c[i+2]' | simdize-tool --sp --run --dump-vir
///
//===----------------------------------------------------------------------===//

#include "codegen/Explain.h"
#include "native/NativeEmitter.h"
#include "obs/Json.h"
#include "obs/Trace.h"
#include "parser/LoopParser.h"
#include "simdize/Simdize.h"
#include "support/CLIOptions.h"
#include "support/Format.h"

#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <iterator>
#include <optional>
#include <sstream>

using namespace simdize;

namespace {

struct ToolOptions {
  /// The shared --policy/--vlen/--sp/--tier axes (support::CLIOptions).
  support::CLIOptions Shared;
  bool PC = false;
  bool Reassoc = false;
  bool MemNorm = true;
  bool DumpGraph = false;
  bool DumpGraphDot = false;
  bool DumpVir = false;
  bool LowerNative = false; ///< --lower=native: emit the intrinsic kernel.
  /// Explicit --native-isa (nullopt = auto: the hardware ISA pinning
  /// --vlen, shim for widths with no hardware mapping).
  std::optional<native::ISA> NativeISA;
  std::string LowerOut;     ///< Kernel emission target, with --lower-out=F.
  bool Run = false;
  bool Explain = false;
  std::string ExplainFile;  ///< JSON decision log target, with --explain=F.
  std::string TraceFile;    ///< Chrome trace target, with --trace=F.
  std::string ValidateFile; ///< Standalone JSON validation mode.
  std::string InputFile;
};

int usage(const char *Argv0) {
  std::fprintf(stderr,
               "usage: %s [--policy=zero|eager|lazy|dom|optimal|auto] "
               "[--vlen=N (power of two, 4..64)] [--sp] "
               "[--pc] [--reassoc] [--no-memnorm] [--dump-graph[=dot]] "
               "[--dump-vir] [--lower=native] "
               "[--native-isa=auto|shim|sse2|avx2|avx512] "
               "[--lower-out=FILE] [--tier=vm|native] [--run] "
               "[--trace=FILE] "
               "[--explain[=FILE]] [--validate-json=FILE] [file]\n",
               Argv0);
  return 2;
}

bool parseArgs(int Argc, char **Argv, ToolOptions &Opts) {
  for (int K = 1; K < Argc; ++K) {
    std::string Arg = Argv[K];
    switch (Opts.Shared.consume(Arg)) {
    case support::CLIOptions::Consume::Ok:
      continue;
    case support::CLIOptions::Consume::Bad:
      return false;
    case support::CLIOptions::Consume::NotMine:
      break;
    }
    if (Arg == "--pc")
      Opts.PC = true;
    else if (Arg == "--reassoc")
      Opts.Reassoc = true;
    else if (Arg == "--no-memnorm")
      Opts.MemNorm = false;
    else if (Arg == "--dump-graph")
      Opts.DumpGraph = true;
    else if (Arg == "--dump-graph=dot")
      Opts.DumpGraph = Opts.DumpGraphDot = true;
    else if (Arg == "--dump-vir")
      Opts.DumpVir = true;
    else if (Arg == "--lower=native")
      Opts.LowerNative = true;
    else if (Arg.rfind("--native-isa=", 0) == 0) {
      std::string Name = Arg.substr(13);
      if (Name != "auto") {
        Opts.NativeISA = native::parseISAName(Name);
        if (!Opts.NativeISA)
          return false;
      }
    } else if (Arg.rfind("--lower-out=", 0) == 0) {
      Opts.LowerOut = Arg.substr(12);
      if (Opts.LowerOut.empty())
        return false;
    } else if (Arg == "--run")
      Opts.Run = true;
    else if (Arg == "--explain")
      Opts.Explain = true;
    else if (Arg.rfind("--explain=", 0) == 0) {
      Opts.Explain = true;
      Opts.ExplainFile = Arg.substr(10);
      if (Opts.ExplainFile.empty())
        return false;
    } else if (Arg.rfind("--trace=", 0) == 0) {
      Opts.TraceFile = Arg.substr(8);
      if (Opts.TraceFile.empty())
        return false;
    } else if (Arg.rfind("--validate-json=", 0) == 0) {
      Opts.ValidateFile = Arg.substr(16);
      if (Opts.ValidateFile.empty())
        return false;
    } else if (Arg.rfind("--", 0) == 0) {
      return false;
    } else if (Opts.InputFile.empty()) {
      Opts.InputFile = Arg;
    } else {
      return false;
    }
  }
  // --native-isa only modifies --lower=native, and a hardware ISA that
  // cannot realize the requested width is a usage error — caught here at
  // parse time (exit 2) rather than surfacing as a late pipeline failure.
  if (Opts.NativeISA &&
      (!Opts.LowerNative ||
       !native::isaSupportsWidth(*Opts.NativeISA, Opts.Shared.VectorLen)))
    return false;
  if (!Opts.LowerOut.empty() && !Opts.LowerNative)
    return false;
  return true;
}

/// Reads \p Path entirely; false when unreadable.
bool readFile(const std::string &Path, std::string &Out) {
  std::ifstream In(Path);
  if (!In.good())
    return false;
  Out.assign(std::istreambuf_iterator<char>(In),
             std::istreambuf_iterator<char>());
  return true;
}

bool writeFile(const std::string &Path, const std::string &Content) {
  std::ofstream Out(Path, std::ios::trunc);
  if (!Out.good())
    return false;
  Out << Content;
  return Out.good();
}

/// --validate-json mode: exit 0 iff the file parses as one JSON document.
int validateJson(const std::string &Path) {
  std::string Text;
  if (!readFile(Path, Text)) {
    std::fprintf(stderr, "error: cannot open %s\n", Path.c_str());
    return 2;
  }
  std::string Err;
  if (!obs::json::parse(Text, &Err)) {
    std::fprintf(stderr, "invalid JSON in %s: %s\n", Path.c_str(),
                 Err.c_str());
    return 1;
  }
  std::printf("%s: valid JSON\n", Path.c_str());
  return 0;
}

int runTool(const ToolOptions &Opts) {
  std::string Text;
  if (Opts.InputFile.empty()) {
    Text.assign(std::istreambuf_iterator<char>(std::cin),
                std::istreambuf_iterator<char>());
  } else if (!readFile(Opts.InputFile, Text)) {
    std::fprintf(stderr, "error: cannot open %s\n", Opts.InputFile.c_str());
    return 2;
  }

  parser::ParseResult Parsed = parser::parseLoop(Text, Opts.Shared.VectorLen);
  if (!Parsed.ok()) {
    std::fprintf(stderr, "error: %s\n", Parsed.Error.c_str());
    return 1;
  }
  const ir::Loop &L = *Parsed.Loop;
  std::printf("%s\n", ir::printLoop(L).c_str());

  pipeline::CompileRequest Req;
  Req.Simd.Policy = Opts.Shared.Policy;
  Req.Simd.SoftwarePipelining = Opts.Shared.SP;
  Req.Simd.Tgt = Target(Opts.Shared.VectorLen);
  Req.Opt = Opts.PC ? pipeline::OptLevel::PC : pipeline::OptLevel::Std;
  Req.MemNorm = Opts.MemNorm;
  Req.OffsetReassoc = Opts.Reassoc;
  Req.AutoPolicy = Opts.Shared.AutoPolicy;
  Req.Tier = Opts.Shared.Tier;
  pipeline::CompileResult R = pipeline::runPipeline(L, Req);

  if (Opts.Shared.AutoPolicy)
    std::printf("-- auto policy: %s --\n",
                policies::policyName(R.ResolvedPolicy));
  // Stages below that re-derive graphs or explain decisions must use the
  // policy the pipeline actually compiled with.
  codegen::SimdizeOptions UsedSimd = Req.Simd;
  UsedSimd.Policy = R.ResolvedPolicy;

  // The loop the program was actually compiled from (the reassociated
  // clone when --reassoc changed anything).
  const ir::Loop &Run = R.compiledLoop(L);
  if (R.Reassociated)
    std::printf("reassociated %u statement(s):\n%s\n", R.Reassociated,
                ir::printLoop(Run).c_str());

  if (!R.Simd.ok()) {
    if (Opts.Explain) {
      obs::DecisionLog Log = codegen::explainSimdization(Run, UsedSimd, R.Simd);
      std::printf("%s", Log.explainText().c_str());
      if (!Opts.ExplainFile.empty() &&
          !writeFile(Opts.ExplainFile, Log.toJson() + "\n"))
        std::fprintf(stderr, "error: cannot write %s\n",
                     Opts.ExplainFile.c_str());
    }
    std::fprintf(stderr, "error: %s\n", R.error().c_str());
    return 1;
  }

  if (Opts.DumpGraph) {
    // Re-derive the post-placement graphs the program was compiled from.
    if (!Opts.DumpGraphDot)
      std::printf("-- data reorganization graphs (%s, %u vshiftstream) --\n",
                  policies::policyName(R.ResolvedPolicy), R.Simd.ShiftCount);
    std::unique_ptr<policies::ShiftPolicy> Policy =
        policies::createPolicy(UsedSimd.Policy, UsedSimd.SoftwarePipelining);
    const auto &Stmts = Run.getStmts();
    for (size_t K = 0; K < Stmts.size(); ++K) {
      reorg::Graph G = reorg::buildGraph(*Stmts[K], Req.Simd.vectorLen());
      if (Policy->place(G))
        continue; // proven applicable by simdize() above
      std::string Dump = Opts.DumpGraphDot
                             ? reorg::printGraphDot(G, strf("stmt%zu", K))
                             : reorg::printGraph(G);
      std::printf("%s\n", Dump.c_str());
    }
  }

  std::printf("-- pipeline: %u CSE'd, %u carried, %u copies removed, "
              "%u dead --\n",
              R.Opt.CSERemoved, R.Opt.PCReplaced, R.Opt.CopiesRemoved,
              R.Opt.DCERemoved);
  if (R.PostOptVerifyError) {
    std::fprintf(stderr, "error: %s\n", R.PostOptVerifyError->c_str());
    return 1;
  }

  if (Opts.Explain) {
    obs::DecisionLog Log = codegen::explainSimdization(Run, UsedSimd, R.Simd);
    Log.OptRan = R.OptRan;
    Log.OptRewrites = {
        {"cse", "removed", R.Opt.CSERemoved},
        {"predictive-commoning", "replaced", R.Opt.PCReplaced},
        {"unroll-copies", "removed", R.Opt.CopiesRemoved},
        {"dce", "removed", R.Opt.DCERemoved},
    };
    std::printf("%s", Log.explainText().c_str());
    if (!Opts.ExplainFile.empty() &&
        !writeFile(Opts.ExplainFile, Log.toJson() + "\n")) {
      std::fprintf(stderr, "error: cannot write %s\n",
                   Opts.ExplainFile.c_str());
      return 1;
    }
  }

  if (Opts.DumpVir)
    std::printf("%s\n", vir::printProgram(*R.Simd.Program).c_str());

  if (Opts.LowerNative) {
    native::ISA Isa = Opts.NativeISA
                          ? *Opts.NativeISA
                          : native::canonicalISAForWidth(Opts.Shared.VectorLen);
    native::LowerResult C =
        native::emitNativeKernel(*R.Simd.Program, Run, "kernel", Isa);
    if (!C.ok()) {
      std::fprintf(stderr, "error: %s\n", C.Error.c_str());
      return 1;
    }
    if (Opts.LowerOut.empty()) {
      std::printf("%s\n", C.Code.c_str());
    } else if (!writeFile(Opts.LowerOut, C.Code + "\n")) {
      std::fprintf(stderr, "error: cannot write %s\n", Opts.LowerOut.c_str());
      return 1;
    }
  }

  if (Opts.Run) {
    sim::CheckResult Check = pipeline::checkCompiled(L, R, 2004);
    if (!Check.Ok) {
      std::fprintf(stderr, "verification FAILED: %s\n",
                   Check.Message.c_str());
      return 1;
    }
    int64_t Datums =
        Run.getUpperBound() * static_cast<int64_t>(Run.getStmts().size());
    std::printf("verified OK; %lld ops for %lld datums: opd %.3f "
                "(ideal scalar %.1f, speedup %.2fx)\n",
                static_cast<long long>(Check.Stats.Counts.total()),
                static_cast<long long>(Datums),
                Check.Stats.Counts.opd(Datums), ir::scalarOpd(Run),
                ir::scalarOpd(Run) / Check.Stats.Counts.opd(Datums));
  }
  return 0;
}

} // namespace

int main(int Argc, char **Argv) {
  ToolOptions Opts;
  if (!parseArgs(Argc, Argv, Opts))
    return usage(Argv[0]);

  if (!Opts.ValidateFile.empty())
    return validateJson(Opts.ValidateFile);

  obs::Tracer Tracer;
  if (!Opts.TraceFile.empty())
    obs::installTracer(&Tracer);

  int Ret = runTool(Opts);

  if (!Opts.TraceFile.empty()) {
    obs::installTracer(nullptr);
    if (!writeFile(Opts.TraceFile, Tracer.toChromeJson() + "\n")) {
      std::fprintf(stderr, "error: cannot write %s\n", Opts.TraceFile.c_str());
      return Ret ? Ret : 1;
    }
    std::printf("-- trace: %zu events -> %s --\n%s", Tracer.eventCount(),
                Opts.TraceFile.c_str(), Tracer.summary().c_str());
  }
  return Ret;
}
