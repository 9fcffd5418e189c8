//===- pipeline/Pipeline.cpp ----------------------------------------------===//
//
// Part of the simdize project (PLDI 2004 alignment-constrained simdization).
//
//===----------------------------------------------------------------------===//

#include "pipeline/Pipeline.h"

#include "ir/Array.h"
#include "ir/Loop.h"
#include "native/NativeRun.h"
#include "obs/Trace.h"
#include "opt/OffsetReassoc.h"
#include "reorg/ReorgGraph.h"
#include "vir/VVerifier.h"

using namespace simdize;
using namespace simdize::pipeline;

std::string CompileRequest::name() const {
  std::string Name =
      AutoPolicy ? "AUTO" : policies::policyName(Simd.Policy);
  if (Simd.SoftwarePipelining)
    Name += "-sp";
  switch (Opt) {
  case OptLevel::Raw:
    Name += "/raw";
    break;
  case OptLevel::Std:
    Name += "/opt";
    break;
  case OptLevel::PC:
    Name += "-pc/opt";
    break;
  }
  if (Simd.Tgt.VectorLen != 16) {
    Name += '@';
    Name += std::to_string(Simd.Tgt.VectorLen);
  }
  if (Tier == ExecTier::Native)
    Name += "+native";
  return Name;
}

/// Picks the policy with the fewest predicted steady-state shifts for
/// \p L, summed over its statements on once-built shift-free graphs.
/// Candidates are scanned dominant-first with strict-improvement
/// replacement, so ties resolve to the paper's greedy policies (and to
/// dominant-shift among those) — the optimal DP is chosen only when its
/// exactness buys an actual shift. Runtime alignments leave zero-shift as
/// the only applicable policy.
static policies::PolicyKind
resolveAutoPolicy(const ir::Loop &L, const codegen::SimdizeOptions &Simd) {
  bool AllAlignKnown = true;
  for (const auto &A : L.getArrays())
    AllAlignKnown &= A->isAlignmentKnown();
  if (!AllAlignKnown)
    return policies::PolicyKind::Zero;

  std::vector<reorg::Graph> Graphs;
  Graphs.reserve(L.getStmts().size());
  for (const auto &S : L.getStmts())
    Graphs.push_back(reorg::buildGraph(*S, Simd.vectorLen()));

  const policies::PolicyKind Order[] = {
      policies::PolicyKind::Dominant, policies::PolicyKind::Zero,
      policies::PolicyKind::Eager, policies::PolicyKind::Lazy,
      policies::PolicyKind::Optimal};
  policies::PolicyKind Best = policies::PolicyKind::Dominant;
  uint64_t BestTotal = UINT64_MAX;
  for (policies::PolicyKind Kind : Order) {
    uint64_t Total = 0;
    for (const reorg::Graph &G : Graphs)
      Total += policies::predictSteadyShiftCount(Kind, G,
                                                 Simd.SoftwarePipelining);
    if (Total < BestTotal) {
      Best = Kind;
      BestTotal = Total;
    }
  }
  return Best;
}

policies::PolicyKind pipeline::resolvePolicy(const ir::Loop &L,
                                             const CompileRequest &Req) {
  return Req.AutoPolicy ? resolveAutoPolicy(L, Req.Simd) : Req.Simd.Policy;
}

CompileResult pipeline::runPipeline(const ir::Loop &L,
                                    const CompileRequest &Req) {
  obs::Span PipelineSpan("pipeline");
  if (PipelineSpan.active())
    PipelineSpan.argStr("config", Req.name());

  CompileResult Res = compileRaw(L, Req);
  if (!Res.Simd.ok())
    return Res;

  optimize(Res, Req);
  return Res;
}

CompileResult pipeline::compileRaw(const ir::Loop &L,
                                   const CompileRequest &Req) {
  CompileResult Res;
  Res.ConfigName = Req.name();
  Res.Tier = Req.Tier;

  // Offset reassociation is a scalar source transformation; it runs on a
  // private clone so one loop can be compiled under many requests (the
  // fuzzer's config matrix shares loop identity with its oracle cache).
  const ir::Loop *Compiled = &L;
  if (Req.OffsetReassoc) {
    Res.ReassocLoop.emplace(ir::cloneLoop(L));
    Res.Reassociated =
        opt::runOffsetReassociation(*Res.ReassocLoop, Req.Simd.vectorLen());
    Compiled = &*Res.ReassocLoop;
  }

  // Auto selection resolves against the loop actually compiled, so a
  // reassociated offset pattern is judged in its rewritten form.
  codegen::SimdizeOptions Simd = Req.Simd;
  Simd.Policy = resolvePolicy(*Compiled, Req);
  Res.ResolvedPolicy = Simd.Policy;

  Res.Simd = codegen::simdize(*Compiled, Simd);
  return Res;
}

void pipeline::optimize(CompileResult &R, const CompileRequest &Req) {
  assert(R.Simd.ok() && "nothing to optimize");
  if (Req.Opt == OptLevel::Raw)
    return;
  opt::OptConfig Config;
  Config.MemNorm = Req.MemNorm;
  Config.PC = Req.Opt == OptLevel::PC;
  R.Opt = opt::runOptPipeline(*R.Simd.Program, Config);
  R.OptRan = true;

  // The raw program was verified by simdize(); re-prove the optimized one
  // so a pass bug cannot masquerade as a simulation mismatch.
  if (auto Err = vir::verifyProgram(*R.Simd.Program))
    R.PostOptVerifyError = "optimized program is invalid: " + *Err;
}

sim::CheckResult pipeline::checkCompiled(const ir::Loop &L,
                                         const CompileResult &R,
                                         const sim::ReferenceImage &Ref,
                                         const std::string &SchemeName,
                                         const sim::ExecOptions &Opts) {
  const ir::Loop &Checked = R.compiledLoop(L);
  sim::CheckContext Ctx{SchemeName.empty() ? R.ConfigName : SchemeName};
  sim::CheckResult C =
      sim::checkSimdization(Checked, *R.Simd.Program, Ref, &Ctx, Opts);
  if (C.Ok && R.Tier == ExecTier::Native) {
    // The native differential rides on the VM-verified result: the same
    // reference image must come back bit-identical from the dlopen'd
    // kernel, so VM and native agree transitively on the whole image.
    if (auto Err = native::diffNativeAgainstOracle(Checked, *R.Simd.Program,
                                                   Ref)) {
      C.Ok = false;
      C.Message = "[" + Ctx.Scheme + "] " + *Err;
    }
  }
  return C;
}

sim::CheckResult pipeline::checkCompiled(const ir::Loop &L,
                                         const CompileResult &R,
                                         uint64_t CheckSeed,
                                         const std::string &SchemeName,
                                         const sim::ExecOptions &Opts) {
  sim::ReferenceImage Ref(R.compiledLoop(L), R.Simd.Program->getVectorLen(),
                          CheckSeed);
  return checkCompiled(L, R, Ref, SchemeName, Opts);
}
