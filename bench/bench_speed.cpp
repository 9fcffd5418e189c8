//===- bench/bench_speed.cpp - Wall-clock throughput of the toolchain -----===//
//
// Part of the simdize project (PLDI 2004 alignment-constrained simdization).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Google-benchmark timings of the framework itself (the paper's numbers
/// are simulated op counts; these measure this implementation): graph
/// construction + policy placement, full simdization, the optimization
/// pipeline, end-to-end simulation + verification, and the simulation
/// engine itself — program decode, decoded vs reference execution, and
/// the fuzzer's per-seed check loop with cold vs cached oracles. The
/// items_per_second counter of the BM_CheckThroughput pair is the number
/// this PR's speedup claim is measured by.
///
//===----------------------------------------------------------------------===//

#include "codegen/Simdizer.h"
#include "fuzz/Fuzzer.h"
#include "harness/Experiment.h"
#include "ir/Loop.h"
#include "native/NativeRun.h"
#include "obs/Trace.h"
#include "opt/Pipeline.h"
#include "policies/Policies.h"
#include "sim/Checker.h"
#include "sim/Decoder.h"
#include "synth/LoopSynth.h"
#include "vir/VVerifier.h"

#include <benchmark/benchmark.h>

#include <memory>
#include <utility>
#include <vector>

using namespace simdize;

namespace {

synth::SynthParams benchLoopParams() {
  synth::SynthParams P;
  P.Statements = 2;
  P.LoadsPerStmt = 6;
  P.TripCount = 1000;
  P.Seed = 99;
  return P;
}

void BM_GraphAndPolicy(benchmark::State &State) {
  ir::Loop L = synth::synthesizeLoop(benchLoopParams());
  auto Policy = policies::createPolicy(policies::PolicyKind::Lazy);
  for (auto _ : State) {
    for (const auto &S : L.getStmts()) {
      reorg::Graph G = reorg::buildGraph(*S, 16);
      benchmark::DoNotOptimize(Policy->place(G));
    }
  }
}
BENCHMARK(BM_GraphAndPolicy);

/// The shift-count prediction path before the Graph overloads existed:
/// every policy's formula rebuilds the shift-free graph from the
/// statement. The "graph_builds" counter (reorg::graphBuildCount) is the
/// per-iteration build tally the pair below is compared by.
void BM_PredictRebuildingGraphs(benchmark::State &State) {
  ir::Loop L = synth::synthesizeLoop(benchLoopParams());
  uint64_t Before = reorg::graphBuildCount();
  for (auto _ : State) {
    unsigned Total = 0;
    for (const auto &S : L.getStmts())
      for (policies::PolicyKind Kind : policies::allPolicies())
        Total += policies::predictShiftCount(Kind, *S, 16, false);
    benchmark::DoNotOptimize(Total);
  }
  State.counters["graph_builds"] = benchmark::Counter(
      static_cast<double>(reorg::graphBuildCount() - Before),
      benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_PredictRebuildingGraphs);

/// What runPipeline's auto-selection and the oracle do now: build each
/// statement's graph once and hand it to every policy formula. The
/// "graph_builds" counter must read one build per statement per
/// iteration, independent of how many policies are consulted.
void BM_PredictFromPrebuiltGraphs(benchmark::State &State) {
  ir::Loop L = synth::synthesizeLoop(benchLoopParams());
  uint64_t Before = reorg::graphBuildCount();
  for (auto _ : State) {
    unsigned Total = 0;
    for (const auto &S : L.getStmts()) {
      reorg::Graph G = reorg::buildGraph(*S, 16);
      for (policies::PolicyKind Kind : policies::allPolicies())
        Total += policies::predictShiftCount(Kind, G, false);
    }
    benchmark::DoNotOptimize(Total);
  }
  State.counters["graph_builds"] = benchmark::Counter(
      static_cast<double>(reorg::graphBuildCount() - Before),
      benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_PredictFromPrebuiltGraphs);

void BM_Simdize(benchmark::State &State) {
  ir::Loop L = synth::synthesizeLoop(benchLoopParams());
  codegen::SimdizeOptions Opts;
  Opts.Policy = policies::PolicyKind::Dominant;
  Opts.SoftwarePipelining = true;
  for (auto _ : State) {
    codegen::SimdizeResult R = codegen::simdize(L, Opts);
    benchmark::DoNotOptimize(R.ok());
  }
}
BENCHMARK(BM_Simdize);

void BM_OptPipeline(benchmark::State &State) {
  ir::Loop L = synth::synthesizeLoop(benchLoopParams());
  codegen::SimdizeOptions Opts;
  Opts.Policy = policies::PolicyKind::Zero;
  for (auto _ : State) {
    State.PauseTiming();
    codegen::SimdizeResult R = codegen::simdize(L, Opts);
    State.ResumeTiming();
    opt::OptConfig Config;
    Config.PC = true;
    benchmark::DoNotOptimize(opt::runOptPipeline(*R.Program, Config));
  }
}
BENCHMARK(BM_OptPipeline);

void BM_SimulateAndVerify(benchmark::State &State) {
  ir::Loop L = synth::synthesizeLoop(benchLoopParams());
  codegen::SimdizeOptions Opts;
  Opts.Policy = policies::PolicyKind::Lazy;
  Opts.SoftwarePipelining = true;
  codegen::SimdizeResult R = codegen::simdize(L, Opts);
  opt::runOptPipeline(*R.Program, opt::OptConfig());
  for (auto _ : State) {
    sim::CheckResult C = sim::checkSimdization(L, *R.Program, 7);
    benchmark::DoNotOptimize(C.Ok);
  }
}
BENCHMARK(BM_SimulateAndVerify);

/// Simdizes + optimizes the bench loop under one representative pipeline,
/// for benches that measure the simulation side in isolation.
vir::VProgram benchProgram(const ir::Loop &L) {
  codegen::SimdizeOptions Opts;
  Opts.Policy = policies::PolicyKind::Lazy;
  Opts.SoftwarePipelining = true;
  codegen::SimdizeResult R = codegen::simdize(L, Opts);
  opt::runOptPipeline(*R.Program, opt::OptConfig());
  return std::move(*R.Program);
}

void BM_DecodeProgram(benchmark::State &State) {
  ir::Loop L = synth::synthesizeLoop(benchLoopParams());
  vir::VProgram P = benchProgram(L);
  sim::MemoryLayout Layout(L, P.getVectorLen());
  for (auto _ : State) {
    sim::DecodedProgram DP(P, Layout);
    benchmark::DoNotOptimize(DP.getNumInsts());
  }
}
BENCHMARK(BM_DecodeProgram);

void BM_ExecuteReference(benchmark::State &State) {
  ir::Loop L = synth::synthesizeLoop(benchLoopParams());
  vir::VProgram P = benchProgram(L);
  sim::ReferenceImage Ref(L, P.getVectorLen(), 7);
  for (auto _ : State) {
    sim::Memory M = Ref.getInitial();
    benchmark::DoNotOptimize(sim::runProgram(P, Ref.getLayout(), M));
  }
}
BENCHMARK(BM_ExecuteReference);

void BM_ExecuteDecoded(benchmark::State &State) {
  ir::Loop L = synth::synthesizeLoop(benchLoopParams());
  vir::VProgram P = benchProgram(L);
  sim::ReferenceImage Ref(L, P.getVectorLen(), 7);
  sim::DecodedProgram DP(P, Ref.getLayout());
  for (auto _ : State) {
    sim::Memory M = Ref.getInitial();
    benchmark::DoNotOptimize(sim::runDecoded(DP, M));
  }
}
BENCHMARK(BM_ExecuteDecoded);

/// The native tier on the same program and image as BM_ExecuteDecoded:
/// compile + dlopen happen once outside the timed loop (content-hash
/// cached anyway), each iteration stages the image and runs the real
/// machine-code kernel. Compare directly against BM_ExecuteDecoded.
void BM_ExecuteNative(benchmark::State &State) {
  ir::Loop L = synth::synthesizeLoop(benchLoopParams());
  vir::VProgram P = benchProgram(L);
  sim::ReferenceImage Ref(L, P.getVectorLen(), 7);
  std::string Err;
  native::NativeKernel K = native::prepareNativeKernel(
      L, P, Ref.getLayout(), native::bestISAForWidth(P.getVectorLen()), &Err);
  if (!K.ok()) {
    State.SkipWithError(("native compile failed: " + Err).c_str());
    return;
  }
  for (auto _ : State) {
    sim::Memory M = Ref.getInitial();
    native::runNativeOnMemory(K, M);
    benchmark::DoNotOptimize(M.data());
  }
}
BENCHMARK(BM_ExecuteNative);

/// The fuzzer's per-seed check loop: every applicable configuration of the
/// bench loop, programs pre-built so only the checking side is timed.
/// items_per_second = configurations checked per second. Baseline is the
/// pre-decoder check (verify, then the reference interpreter with its
/// always-on chunk tracking over a fresh scalar oracle per check); Fast is
/// what runFuzz does (decoded engine, one ReferenceImage per width).
void checkThroughput(benchmark::State &State, bool Fast) {
  ir::Loop L = synth::synthesizeLoop(benchLoopParams());
  std::vector<vir::VProgram> Programs;
  for (const fuzz::FuzzConfig &C : fuzz::configsForLoop(L)) {
    pipeline::CompileResult R = pipeline::runPipeline(L, C);
    if (!R.ok())
      continue;
    Programs.push_back(std::move(*R.Simd.Program));
  }

  uint64_t Checked = 0;
  for (auto _ : State) {
    if (Fast) {
      sim::ReferenceImage Ref(L, Programs.front().getVectorLen(), 7);
      for (const vir::VProgram &P : Programs) {
        sim::CheckResult C = sim::checkSimdization(L, P, Ref);
        benchmark::DoNotOptimize(C.Ok);
      }
    } else {
      for (const vir::VProgram &P : Programs) {
        sim::ReferenceImage Ref(L, P.getVectorLen(), 7);
        benchmark::DoNotOptimize(vir::verifyProgram(P));
        sim::Memory M = Ref.getInitial();
        benchmark::DoNotOptimize(sim::runProgram(P, Ref.getLayout(), M));
        benchmark::DoNotOptimize(M == Ref.getExpected());
      }
    }
    Checked += Programs.size();
  }
  State.SetItemsProcessed(static_cast<int64_t>(Checked));
}

void BM_CheckThroughputBaseline(benchmark::State &State) {
  checkThroughput(State, false);
}
BENCHMARK(BM_CheckThroughputBaseline);

void BM_CheckThroughputFast(benchmark::State &State) {
  checkThroughput(State, true);
}
BENCHMARK(BM_CheckThroughputFast);

/// The counterpart pair member for the native tier: the same
/// configuration matrix, but each check runs the batch-compiled native
/// kernel and compares the full image against the cached oracle instead
/// of simulating on the VM. items_per_second = configurations checked per
/// second; the compile (one TU for the whole matrix) is outside the
/// timed region, as a fuzz sweep amortizes it across seeds too.
void BM_CheckThroughputNative(benchmark::State &State) {
  ir::Loop L = synth::synthesizeLoop(benchLoopParams());
  sim::ReferenceImage Ref(L, 16, 7);
  std::vector<vir::VProgram> Programs;
  for (const fuzz::FuzzConfig &C : fuzz::configsForLoop(L)) {
    pipeline::CompileResult R = pipeline::runPipeline(L, C);
    if (!R.ok())
      continue;
    Programs.push_back(std::move(*R.Simd.Program));
  }
  native::NativeBatch Batch(native::bestISAForWidth(16));
  for (const vir::VProgram &P : Programs)
    Batch.add(L, P, Ref.getLayout());
  std::string Err;
  if (!Batch.compile(&Err)) {
    State.SkipWithError(("native compile failed: " + Err).c_str());
    return;
  }

  uint64_t Checked = 0;
  for (auto _ : State) {
    for (size_t I = 0; I < Programs.size(); ++I) {
      sim::Memory M = Ref.getInitial();
      native::runNativeOnMemory(Batch.kernel(I), M);
      benchmark::DoNotOptimize(M == Ref.getExpected());
    }
    Checked += Programs.size();
  }
  State.SetItemsProcessed(static_cast<int64_t>(Checked));
}
BENCHMARK(BM_CheckThroughputNative);

/// One full pipeline pass (simdize → optimize → simulate + verify), the
/// instrumented path whose tracing cost the next two benches compare.
void tracedPipelineOnce(const ir::Loop &L) {
  codegen::SimdizeOptions Opts;
  Opts.Policy = policies::PolicyKind::Lazy;
  Opts.SoftwarePipelining = true;
  codegen::SimdizeResult R = codegen::simdize(L, Opts);
  opt::runOptPipeline(*R.Program, opt::OptConfig());
  sim::CheckResult C = sim::checkSimdization(L, *R.Program, 7);
  benchmark::DoNotOptimize(C.Ok);
}

/// Tracing disabled — every span constructor takes the null-tracer fast
/// path (one relaxed atomic load). The regression gate: this must stay
/// within noise of the pre-observability pipeline cost.
void BM_PipelineTracedOff(benchmark::State &State) {
  ir::Loop L = synth::synthesizeLoop(benchLoopParams());
  for (auto _ : State)
    tracedPipelineOnce(L);
}
BENCHMARK(BM_PipelineTracedOff);

/// Tracer installed — spans record under the tracer mutex. The per-
/// iteration clear() keeps memory bounded and is charged to the tracing
/// cost, as a real `--trace` run pays for event storage too.
void BM_PipelineTracedOn(benchmark::State &State) {
  ir::Loop L = synth::synthesizeLoop(benchLoopParams());
  obs::Tracer Tracer;
  obs::installTracer(&Tracer);
  for (auto _ : State) {
    tracedPipelineOnce(L);
    Tracer.clear();
  }
  obs::installTracer(nullptr);
}
BENCHMARK(BM_PipelineTracedOn);

/// The compile server's shape: a fresh per-request Tracer installed as a
/// thread-local TraceContext, no global tracer at all. Measures what one
/// traced request pays over BM_PipelineTracedOff, including tracer
/// construction and the context install/restore.
void BM_PipelineTracedPerRequest(benchmark::State &State) {
  ir::Loop L = synth::synthesizeLoop(benchLoopParams());
  for (auto _ : State) {
    obs::Tracer Tracer;
    obs::TraceContext Ctx(&Tracer);
    tracedPipelineOnce(L);
    benchmark::DoNotOptimize(Tracer.eventCount());
  }
}
BENCHMARK(BM_PipelineTracedPerRequest);

void BM_FullScheme(benchmark::State &State) {
  synth::SynthParams P = benchLoopParams();
  pipeline::CompileRequest S = harness::scheme(
      policies::PolicyKind::Dominant, harness::ReuseKind::SP);
  for (auto _ : State) {
    harness::Measurement M = harness::runScheme(P, S);
    benchmark::DoNotOptimize(M.Ok);
  }
}
BENCHMARK(BM_FullScheme);

} // namespace

BENCHMARK_MAIN();
