//===- perfbench/src/Kernels.cpp - The kernels workload -------------------===//
///
/// \file
/// The speed of the generated code. A seeded set of long-trip Assign, If
/// and Reduce loops over i8, i16 and i32 (one with arrays larger than a
/// 2 MiB per-core L2) runs under the five placement policies at
/// V = 16, 32 and 64.
///
/// Set-up: every kernel goes through pipeline::runPipeline and one
/// native::NativeBatch per width; the three batches, and each width's two
/// plain-C compiler baselines, compile from three threads into a fresh
/// native cache directory; every native and baseline image is checked
/// bit-identical to the scalar oracle before anything is timed.
///
/// Timed phase: every native kernel and both baselines run interleaved,
/// cell by cell, round after round, the image re-staged outside the timed
/// call; each cell's result is the median of its samples.
///
//===----------------------------------------------------------------------===//

#include "Baseline.h"
#include "Bench.h"
#include "CompilePath.h"
#include "LoopGen.h"

#include "ir/Loop.h"
#include "native/NativeCompile.h"
#include "native/NativeEmitter.h"
#include "native/NativeRun.h"
#include "parser/LoopParser.h"
#include "pipeline/Pipeline.h"
#include "reorg/ReorgGraph.h"
#include "sim/Checker.h"
#include "support/Format.h"

#include <cstdlib>
#include <deque>
#include <filesystem>
#include <memory>
#include <thread>
#include <unistd.h>

using namespace perfbench;
using namespace simdize;

using Scope = SpanLog::Scope;

namespace {

constexpr unsigned Widths[] = {16, 32, 64};
constexpr policies::PolicyKind Policies[] = {
    policies::PolicyKind::Zero, policies::PolicyKind::Eager,
    policies::PolicyKind::Lazy, policies::PolicyKind::Dominant,
    policies::PolicyKind::Optimal};
constexpr uint64_t CheckSeed = 7;

/// Cell variants beyond the five policies.
enum : int { NoVec = -1, AutoVec = -2 };

struct KernelLoop {
  std::string Name;
  std::string Text;
  std::optional<ir::Loop> L;
  double Datums = 0;
};

/// The loop set: Assign, If and Reduce over each element type, plus one
/// Assign over i32 arrays of 1M elements (4 MiB each, past the L2).
std::vector<KernelLoop> makeLoops(uint64_t Seed) {
  Rand R(Seed * 0xd1b54a32d192ed03ULL + 5);
  std::vector<KernelLoop> Out;
  const char *KindNames[] = {"assign", "if", "reduce"};
  for (unsigned D : {1u, 2u, 4u})
    for (unsigned K = 0; K < 3; ++K) {
      LoopShape S;
      S.ElemBytes = D;
      S.Stmts = {static_cast<StmtShape>(K)};
      S.LoadsPerStmt = 3;
      S.MaxAlign = 64;
      S.RandomOps = false;
      S.Trip = (48 * 1024 / D) + R.range(0, 255);
      Out.push_back({strf("%s-i%u", KindNames[K], 8 * D), makeLoopText(R, S),
                     std::nullopt, 0});
    }
  LoopShape Big;
  Big.Stmts = {StmtShape::Assign};
  Big.LoadsPerStmt = 3;
  Big.MaxAlign = 64;
  Big.RandomOps = false;
  Big.Trip = (1 << 20) + R.range(0, 255);
  Out.push_back({"assign-i32-4MiB", makeLoopText(R, Big), std::nullopt, 0});
  return Out;
}

struct Cell {
  size_t Loop = 0;
  unsigned Width = 0;
  int Variant = 0; ///< Index into Policies, or NoVec / AutoVec.
  native::NativeKernel K;
  const vir::VProgram *Program = nullptr; ///< Native cells only.
  const sim::ReferenceImage *Ref = nullptr;
  native::AlignedImage *Img = nullptr;
  double Opd = 0;
  std::vector<double> Ns; ///< Timed samples, ns per call.
};

const char *variantName(int V) {
  return V == NoVec     ? "novec"
         : V == AutoVec ? "autovec"
                        : policies::policyName(Policies[V]);
}

bool isNative(const Cell &C) { return C.Variant >= 0; }

/// Per width: its simdized kernels and both baselines.
struct WidthBuild {
  unsigned Width = 0;
  std::unique_ptr<native::NativeBatch> Batch;
  std::vector<size_t> BatchCells; ///< Cell index of each batch kernel.
  std::vector<BaselineSpec> Baselines;
  const native::CompiledModule *Modules[2] = {nullptr, nullptr};
  std::string Error;
};

class Workload {
public:
  Workload(const Options &O, SpanLog *Log, Report &R)
      : O(O), Log(Log), R(R), Loops(makeLoops(O.Seed)) {}

  bool setUp();
  /// Runs rounds until \p Seconds have passed or \p MaxRounds are done.
  unsigned timeRounds(double Seconds, unsigned MaxRounds);
  void report(unsigned Rounds);
  /// The compile-layer counts both replays must agree on.
  void tally();

private:
  void compileWidth(WidthBuild &W);
  bool verifyCell(Cell &C);
  double cellNsPerElem(const Cell &C) const {
    return median(C.Ns) / Loops[C.Loop].Datums;
  }

  const Options &O;
  SpanLog *Log;
  Report &R;
  std::vector<KernelLoop> Loops;
  std::deque<sim::ReferenceImage> Refs;
  std::deque<pipeline::CompileResult> Programs;
  std::deque<native::AlignedImage> Images;
  std::vector<Cell> Cells;
  std::vector<WidthBuild> Builds;
  LayerTally Tally;
  double StageSeconds = 0, StageDatums = 0;
};

bool Workload::setUp() {
  for (KernelLoop &K : Loops) {
    parser::ParseResult P;
    {
      Scope Sp(Log, "parser.parse");
      P = parser::parseLoop(K.Text, 64);
    }
    if (!P.ok()) {
      R.fail("generated loop does not parse: " + P.Error);
      return false;
    }
    K.L.emplace(std::move(*P.Loop));
    K.Datums = static_cast<double>(datumsOf(*K.L));
  }

  for (unsigned W : Widths) {
    WidthBuild B;
    B.Width = W;
    B.Batch =
        std::make_unique<native::NativeBatch>(native::bestISAForWidth(W));
    for (size_t LI = 0; LI < Loops.size(); ++LI) {
      const ir::Loop &L = *Loops[LI].L;
      {
        Scope Sp(Log, "sim.reference_image", LI);
        Refs.emplace_back(L, W, CheckSeed);
      }
      const sim::ReferenceImage &Ref = Refs.back();
      {
        Scope Sp(Log, "bench.image", LI);
        Images.emplace_back(Ref.getInitial().size());
      }
      for (int V = 0; V < 5; ++V) {
        pipeline::CompileRequest Req;
        Req.Simd.Policy = Policies[V];
        Req.Simd.SoftwarePipelining = true;
        Req.Simd.Tgt = Target(W);
        uint64_t Id = Cells.size();
        Cell C;
        C.Loop = LI;
        C.Width = W;
        C.Variant = V;
        C.Ref = &Ref;
        C.Img = &Images.back();
        // The untraced run compiles and checks through the facades; the
        // traced run makes the same calls itself, with a span around each.
        Programs.emplace_back();
        pipeline::CompileResult &CR = Programs.back();
        bool Compiled = false;
        if (!Log) {
          CR = pipeline::runPipeline(L, Req);
          Compiled = CR.ok();
          Tally.ShiftsPlaced += CR.Simd.ShiftCount;
          Tally.CSERemoved += CR.Opt.CSERemoved;
          Tally.PCReplaced += CR.Opt.PCReplaced;
          Tally.CopiesRemoved += CR.Opt.CopiesRemoved;
          Tally.DCERemoved += CR.Opt.DCERemoved;
        } else {
          CompiledProgram CP = compileTraced(Log, Id, false, L, Req, Tally);
          Compiled = CP.Simd.ok() && !CP.PostOptVerifyError;
          CR.Simd = std::move(CP.Simd);
        }
        if (!Compiled) {
          R.fail(strf("%s %s@%u does not compile", Loops[LI].Name.c_str(),
                      variantName(V), W));
          return false;
        }
        const vir::VProgram *P = &*CR.Simd.Program;
        sim::CheckResult Check =
            Log ? checkTraced(Log, Id, false, L, *P, Ref, false, Tally)
                : sim::checkSimdization(L, *P, Ref);
        if (!Check.Ok) {
          R.fail(Loops[LI].Name + ": VM check failed: " + Check.Message);
          return false;
        }
        C.Opd = Check.Stats.Counts.opd(datumsOf(L));
        Tally.Opd.push_back(C.Opd);
        C.Program = P;
        B.BatchCells.push_back(Cells.size());
        B.Batch->add(L, *P, Ref.getLayout());
        Cells.push_back(std::move(C));
      }
      BaselineSpec S;
      S.Loop = &L;
      S.Name = strf("b%zu", LI);
      for (const auto &A : L.getArrays())
        S.ArrayBases.push_back(Ref.getLayout().baseOf(A.get()));
      B.Baselines.push_back(std::move(S));
      for (int V : {NoVec, AutoVec}) {
        Cell C;
        C.Loop = LI;
        C.Width = W;
        C.Variant = V;
        C.Ref = &Ref;
        C.Img = &Images.back();
        Cells.push_back(std::move(C));
      }
    }
    Builds.push_back(std::move(B));
  }

  // One thread per width, as a parallel native fuzz sweep compiles.
  std::vector<std::thread> Threads;
  for (WidthBuild &B : Builds)
    Threads.emplace_back([this, &B] { compileWidth(B); });
  for (std::thread &T : Threads)
    T.join();
  for (WidthBuild &B : Builds) {
    if (!B.Error.empty()) {
      R.fail(strf("native build @%u: %s", B.Width, B.Error.c_str()));
      return false;
    }
    for (size_t K = 0; K < B.BatchCells.size(); ++K)
      Cells[B.BatchCells[K]].K = B.Batch->kernel(K);
  }
  // Baseline entry points share the batch kernels' argument packs.
  for (Cell &C : Cells) {
    if (isNative(C))
      continue;
    const WidthBuild &B = Builds[C.Width == 16 ? 0 : C.Width == 32 ? 1 : 2];
    const native::CompiledModule *M = B.Modules[C.Variant == AutoVec];
    void *Sym = M->symbol(strf("b%zu_image", C.Loop));
    if (!Sym) {
      R.fail(strf("baseline module lacks b%zu_image", C.Loop));
      return false;
    }
    C.K.Entry = reinterpret_cast<native::NativeEntry>(Sym);
    C.K.Args = Cells[B.BatchCells[C.Loop * 5]].K.Args;
  }

  bool Ok = true;
  for (Cell &C : Cells)
    Ok &= verifyCell(C);
  return Ok;
}

void Workload::compileWidth(WidthBuild &B) {
  {
    Scope Sp(Log, "native.compile", B.Width);
    if (!B.Batch->compile(&B.Error))
      return;
  }
  native::ISA Isa = B.Batch->usedISA();
  if (Log) {
    // emitNativeModule ran inside NativeBatch::compile; run it again on the
    // same kernels for a time of its own.
    std::vector<native::KernelSpec> Specs;
    for (size_t K = 0; K < B.BatchCells.size(); ++K) {
      const Cell &C = Cells[B.BatchCells[K]];
      native::KernelSpec S;
      S.Program = C.Program;
      S.Loop = &*Loops[C.Loop].L;
      S.Name = strf("k%zu", K);
      for (const auto &A : S.Loop->getArrays())
        S.ArrayBases.push_back(C.Ref->getLayout().baseOf(A.get()));
      Specs.push_back(std::move(S));
    }
    Scope Sp(Log, "native.emit", B.Width, /*Dup=*/true);
    (void)native::emitNativeModule(Specs, B.Width, Isa);
  }
  for (bool Vec : {false, true}) {
    std::string Source;
    {
      Scope Sp(Log, "baseline.emit", B.Width);
      Source = emitBaselineModule(B.Baselines, Vec);
    }
    Scope Sp(Log, "baseline.compile", B.Width);
    B.Modules[Vec] = native::compileAndLoad(Source, Isa, &B.Error);
    if (!B.Modules[Vec])
      return;
  }
}

bool Workload::verifyCell(Cell &C) {
  uint64_t Id = static_cast<uint64_t>(&C - Cells.data());
  ++R.Attempted;
  {
    Scope Sp(Log, "native.stage", Id);
    C.Img->stageFrom(C.Ref->getInitial());
  }
  {
    Scope Sp(Log, isNative(C) ? "native.run" : "baseline.run", Id);
    native::runNative(C.K, *C.Img);
  }
  Scope Sp(Log, "bench.compare", Id);
  sim::Memory Out(C.Ref->getInitial().size());
  C.Img->copyTo(Out);
  if (Out == C.Ref->getExpected())
    return true;
  R.fail(strf("%s %s@%u: image differs from the scalar oracle",
              Loops[C.Loop].Name.c_str(), variantName(C.Variant), C.Width));
  return false;
}

unsigned Workload::timeRounds(double Seconds, unsigned MaxRounds) {
  Clock::time_point Start = Clock::now();
  unsigned Rounds = 0;
  while (Rounds < MaxRounds && secondsSince(Start) < Seconds) {
    for (size_t I = 0; I < Cells.size(); ++I) {
      Cell &C = Cells[I];
      {
        Scope Sp(Log, "native.stage", I);
        Clock::time_point S0 = Clock::now();
        C.Img->stageFrom(C.Ref->getInitial());
        StageSeconds += secondsSince(S0);
        StageDatums += Loops[C.Loop].Datums;
      }
      Scope Sp(Log, isNative(C) ? "native.run" : "baseline.run", I);
      Clock::time_point T0 = Clock::now();
      native::runNative(C.K, *C.Img);
      C.Ns.push_back(
          std::chrono::duration<double, std::nano>(Clock::now() - T0).count());
    }
    ++Rounds;
    R.Attempted += Cells.size();
  }
  return Rounds;
}

void Workload::report(unsigned Rounds) {
  std::map<unsigned, std::vector<double>> NativeByWidth;
  std::map<std::pair<unsigned, int>, std::vector<double>> BaseByWidth;
  std::vector<double> AllNative, CallUs, Speedup;
  std::map<std::pair<size_t, unsigned>, double> AutoVecNs, NoVecNs;
  for (const Cell &C : Cells)
    if (!isNative(C)) {
      (C.Variant == AutoVec ? AutoVecNs : NoVecNs)[{C.Loop, C.Width}] =
          cellNsPerElem(C);
      BaseByWidth[{C.Width, C.Variant}].push_back(cellNsPerElem(C));
    }
  // The per-cell table: measured runs only, the replays print nothing.
  const bool Rows = O.RunMode == Mode::Measure;
  if (Rows)
    R.Lines.push_back(strf("%-16s %-8s %5s %7s %7s %9s %9s %9s", "loop",
                           "policy", "width", "isa", "opd", "native",
                           "novec", "autovec"));
  for (const Cell &C : Cells) {
    if (!isNative(C))
      continue;
    double Ns = cellNsPerElem(C);
    NativeByWidth[C.Width].push_back(Ns);
    AllNative.push_back(Ns);
    CallUs.push_back(median(C.Ns) * 1e-3);
    double Auto = AutoVecNs[{C.Loop, C.Width}];
    Speedup.push_back(Auto / Ns);
    if (Rows)
      R.Lines.push_back(strf(
          "%-16s %-8s %5u %7s %7.3f %9.4f %9.4f %9.4f",
          Loops[C.Loop].Name.c_str(), variantName(C.Variant), C.Width,
          native::isaName(native::bestISAForWidth(C.Width)), C.Opd, Ns,
          NoVecNs[{C.Loop, C.Width}], Auto));
  }
  if (Rows) {
    R.Lines.push_back(strf("kernels: %zu cells x %u rounds (ns per element; "
                           "opd measured on the VM)",
                           Cells.size(), Rounds));
    for (unsigned W : Widths)
      R.metric(strf("native_ns_per_elem_v%u", W), "ns/elem",
               geomean(NativeByWidth[W]));
    R.metric("speedup_vs_autovec", "x", geomean(Speedup));
    R.metric("opd", "ops/datum", geomean(Tally.Opd));
    R.Counts["sim.execute.opd"] = geomean(Tally.Opd);
    R.metric("ops_per_s", "1/s", 1e9 / geomean(AllNative));
    R.metric("p50_us", "us", geomean(CallUs));
    return;
  }
  if (!Log)
    return;
  for (unsigned W : Widths) {
    R.metric(strf("native.run.ns_per_elem_v%u", W), "ns/elem",
             geomean(NativeByWidth[W]));
    R.metric(strf("baseline.novec.ns_per_elem_v%u", W), "ns/elem",
             geomean(BaseByWidth[{W, NoVec}]));
    R.metric(strf("baseline.autovec.ns_per_elem_v%u", W), "ns/elem",
             geomean(BaseByWidth[{W, AutoVec}]));
  }
  R.metric("native.speedup_vs_autovec", "x", geomean(Speedup));
  R.metric("native.stage.ns_per_elem", "ns/elem",
           StageDatums > 0 ? StageSeconds * 1e9 / StageDatums : 0.0);
}

void Workload::tally() { addTallyMetrics(R, Tally); }

} // namespace

Report perfbench::runKernels(const Options &O, SpanLog *Log) {
  Report R;
  // A fresh native cache per run: set-up always measures a cold compile,
  // and no kernel built against another wrapper header is ever loaded.
  std::error_code EC;
  std::string Cache =
      std::filesystem::absolute(strf("%s/native-cache-%ld", O.OutDir.c_str(),
                                     static_cast<long>(getpid())),
                                EC)
          .string();
  std::filesystem::remove_all(Cache, EC);
  std::filesystem::create_directories(Cache, EC);
  ::setenv("SIMDIZE_NATIVE_CACHE", Cache.c_str(), 1);

  native::NativeCompileStats Stats0 = native::nativeCompileStats();
  uint64_t Builds0 = reorg::graphBuildCount();
  {
    Workload W(O, Log, R);
    Clock::time_point T0 = Clock::now();
    if (Log)
      Log->start();
    bool Ok = W.setUp();
    R.SetupS = secondsSince(T0);
    if (Ok && O.RunMode != Mode::Setup) {
      // The replays run a fixed number of rounds, so both do equal work.
      bool Replay = O.RunMode == Mode::Replay;
      unsigned Rounds = W.timeRounds(Replay ? 1e9 : O.Seconds,
                                     Replay ? 40 : ~0u);
      W.report(Rounds);
      if (Replay)
        W.tally();
    }
    R.WallS = secondsSince(T0);
    if (Log)
      Log->finish();
  }
  native::NativeCompileStats Stats1 = native::nativeCompileStats();
  R.Counts["native.compile.compiles"] =
      static_cast<double>(Stats1.Compiles - Stats0.Compiles);
  if (!Log)
    R.Counts["reorg.graph_builds"] =
        static_cast<double>(reorg::graphBuildCount() - Builds0);
  if (Log) {
    R.metric("native.compile.compiles", "count",
             static_cast<double>(Stats1.Compiles - Stats0.Compiles));
    R.metric("native.compile.disk_hits", "count",
             static_cast<double>(Stats1.DiskHits - Stats0.DiskHits));
    R.metric("native.compile.memory_hits", "count",
             static_cast<double>(Stats1.MemoryHits - Stats0.MemoryHits));
  }
  std::filesystem::remove_all(Cache, EC);
  return R;
}
