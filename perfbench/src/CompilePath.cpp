//===- perfbench/src/CompilePath.cpp --------------------------------------===//

#include "CompilePath.h"

#include "ir/Array.h"
#include "ir/Loop.h"
#include "opt/CSE.h"
#include "opt/DCE.h"
#include "opt/PredictiveCommoning.h"
#include "opt/UnrollRemoveCopies.h"
#include "policies/ShiftPolicy.h"
#include "reorg/ReorgGraph.h"
#include "sim/Decoder.h"
#include "vir/VVerifier.h"

using namespace perfbench;
using namespace simdize;

using Scope = SpanLog::Scope;

void perfbench::addTallyMetrics(Report &R, const LayerTally &T) {
  R.metric("codegen.shifts_placed", "count",
           static_cast<double>(T.ShiftsPlaced));
  R.metric("opt.cse.removed", "count", static_cast<double>(T.CSERemoved));
  R.metric("opt.pc.replaced", "count", static_cast<double>(T.PCReplaced));
  R.metric("opt.unroll.removed", "count",
           static_cast<double>(T.CopiesRemoved));
  R.metric("opt.dce.removed", "count", static_cast<double>(T.DCERemoved));
  R.metric("sim.execute.ns_per_elem", "ns/elem",
           T.ExecDatums > 0 ? T.ExecSeconds * 1e9 / T.ExecDatums : 0.0);
  R.metric("sim.execute.opd", "ops/datum", geomean(T.Opd));
  R.Counts["codegen.shifts_placed"] = static_cast<double>(T.ShiftsPlaced);
  R.Counts["opt.cse.removed"] = static_cast<double>(T.CSERemoved);
  R.Counts["opt.pc.replaced"] = static_cast<double>(T.PCReplaced);
  R.Counts["opt.unroll.removed"] = static_cast<double>(T.CopiesRemoved);
  R.Counts["opt.dce.removed"] = static_cast<double>(T.DCERemoved);
  R.Counts["sim.execute.opd"] = geomean(T.Opd);
}

int64_t perfbench::datumsOf(const ir::Loop &L) {
  return L.getUpperBound() * static_cast<int64_t>(L.getStmts().size());
}

/// The auto policy of pipeline::runPipeline: the fewest predicted steady
/// shifts over once-built shift-free graphs, dominant first, strict
/// improvement only; zero-shift under runtime alignment.
static policies::PolicyKind resolveAuto(SpanLog *Log, uint64_t Id, bool Dup,
                                        const ir::Loop &L,
                                        const codegen::SimdizeOptions &Simd) {
  for (const auto &A : L.getArrays())
    if (!A->isAlignmentKnown())
      return policies::PolicyKind::Zero;

  std::vector<reorg::Graph> Graphs;
  Graphs.reserve(L.getStmts().size());
  for (const auto &S : L.getStmts()) {
    Scope Sp(Log, "reorg.build_graph", Id, Dup);
    Graphs.push_back(reorg::buildGraph(*S, Simd.vectorLen()));
  }
  const policies::PolicyKind Order[] = {
      policies::PolicyKind::Dominant, policies::PolicyKind::Zero,
      policies::PolicyKind::Eager, policies::PolicyKind::Lazy,
      policies::PolicyKind::Optimal};
  policies::PolicyKind Best = policies::PolicyKind::Dominant;
  uint64_t BestTotal = UINT64_MAX;
  for (policies::PolicyKind Kind : Order) {
    uint64_t Total = 0;
    for (const reorg::Graph &G : Graphs) {
      Scope Sp(Log, "policies.predict", Id, Dup);
      Total += policies::predictSteadyShiftCount(Kind, G,
                                                 Simd.SoftwarePipelining);
    }
    if (Total < BestTotal) {
      Best = Kind;
      BestTotal = Total;
    }
  }
  return Best;
}

CompiledProgram perfbench::compileTraced(SpanLog *Log, uint64_t Id, bool Dup,
                                         const ir::Loop &L,
                                         const pipeline::CompileRequest &Req,
                                         LayerTally &T, const RawHook &Hook) {
  CompiledProgram Out;
  codegen::SimdizeOptions Simd = Req.Simd;
  if (Req.AutoPolicy)
    Simd.Policy = resolveAuto(Log, Id, Dup, L, Simd);
  Out.ResolvedPolicy = Simd.Policy;

  {
    Scope Sp(Log, "codegen.simdize", Id, Dup);
    Out.Simd = codegen::simdize(L, Simd);
  }
  // Graph building and placement ran inside simdize; run them again on the
  // same statements so each layer gets a time of its own.
  if (Log && Out.Simd.ok()) {
    auto Policy = policies::createPolicy(Simd.Policy, Simd.SoftwarePipelining);
    for (const auto &S : L.getStmts()) {
      std::optional<reorg::Graph> G;
      {
        Scope Sp(Log, "reorg.build_graph", Id, /*Dup=*/true);
        G.emplace(reorg::buildGraph(*S, Simd.vectorLen()));
      }
      Scope Sp(Log, "policies.place", Id, /*Dup=*/true);
      (void)Policy->place(*G);
    }
  }
  if (!Out.Simd.ok())
    return Out;
  T.ShiftsPlaced += Out.Simd.ShiftCount;

  if (Hook && !Hook(Out.Simd, Simd.Policy)) {
    Out.HookAborted = true;
    return Out;
  }
  if (Req.Opt == pipeline::OptLevel::Raw)
    return Out;

  // opt::runOptPipeline with the configuration runPipeline builds.
  vir::VProgram &P = *Out.Simd.Program;
  {
    Scope Sp(Log, "opt.cse", Id, Dup);
    T.CSERemoved += opt::runCSE(P, Req.MemNorm);
  }
  if (Req.Opt == pipeline::OptLevel::PC) {
    Scope Sp(Log, "opt.pc", Id, Dup);
    T.PCReplaced += opt::runPredictiveCommoning(P, Req.MemNorm);
  }
  {
    Scope Sp(Log, "opt.unroll", Id, Dup);
    T.CopiesRemoved += opt::runUnrollRemoveCopies(P);
  }
  {
    Scope Sp(Log, "opt.dce", Id, Dup);
    T.DCERemoved += opt::runDCE(P);
  }
  Scope Sp(Log, "vir.verify", Id, Dup);
  if (auto Err = vir::verifyProgram(P))
    Out.PostOptVerifyError = "optimized program is invalid: " + *Err;
  return Out;
}

sim::CheckResult perfbench::checkTraced(SpanLog *Log, uint64_t Id, bool Dup,
                                        const ir::Loop &L,
                                        const vir::VProgram &P,
                                        const sim::ReferenceImage &Ref,
                                        bool TrackChunkLoads, LayerTally &T) {
  sim::CheckResult Result;
  {
    Scope Sp(Log, "vir.verify", Id, Dup);
    if (auto Err = vir::verifyProgram(P)) {
      Result.Message = "program fails verification: " + *Err;
      Result.VerifierFailed = true;
      return Result;
    }
  }
  std::optional<sim::DecodedProgram> DP;
  {
    Scope Sp(Log, "sim.decode", Id, Dup);
    DP.emplace(P, Ref.getLayout());
  }
  std::optional<sim::Memory> Actual;
  {
    Scope Sp(Log, "sim.execute", Id, Dup);
    Clock::time_point T0 = Clock::now();
    Actual.emplace(Ref.getInitial());
    sim::ExecOptions EO;
    EO.TrackChunkLoads = TrackChunkLoads;
    Result.Stats = sim::runDecoded(*DP, *Actual, EO);
    T.ExecSeconds += secondsSince(T0);
    T.ExecDatums += static_cast<double>(datumsOf(L));
  }
  {
    Scope Sp(Log, "sim.compare", Id, Dup);
    if (!(Ref.getExpected() == *Actual)) {
      Result.Message = "memory mismatch against the scalar oracle";
      return Result;
    }
  }
  Result.Ok = true;
  return Result;
}
