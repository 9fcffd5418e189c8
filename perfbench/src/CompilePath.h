//===- perfbench/src/CompilePath.h - The compile and check path, traced --===//
///
/// \file
/// The traced runs need a span around each call into a module, but
/// pipeline::runPipeline and sim::checkSimdization make those calls
/// internally. These functions make the same calls, in the same order, from
/// the benchmark, with a span around each one. Their verdicts are compared
/// with the program's own path (fuzz::runFuzz, server::Service) on the same
/// seed, so a replay that drifts from the program fails the run.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_COMPILEPATH_H
#define PERFBENCH_COMPILEPATH_H

#include "Bench.h"

#include "codegen/Simdizer.h"
#include "pipeline/Pipeline.h"
#include "sim/Checker.h"

#include <functional>
#include <optional>
#include <string>
#include <vector>

namespace perfbench {

namespace codegen = simdize::codegen;
namespace ir = simdize::ir;
namespace pipeline = simdize::pipeline;
namespace policies = simdize::policies;
namespace sim = simdize::sim;
namespace vir = simdize::vir;

/// Counts the traced compile and check paths accumulate.
struct LayerTally {
  uint64_t ShiftsPlaced = 0;
  uint64_t CSERemoved = 0;
  uint64_t PCReplaced = 0;
  uint64_t CopiesRemoved = 0;
  uint64_t DCERemoved = 0;
  double ExecSeconds = 0;  ///< Time inside sim::runDecoded.
  double ExecDatums = 0;   ///< Datums those runs computed.
  std::vector<double> Opd; ///< OPD of every checked run that verified.
};

struct CompiledProgram {
  codegen::SimdizeResult Simd;
  policies::PolicyKind ResolvedPolicy = policies::PolicyKind::Zero;
  /// Set when the raw-program hook rejected the program.
  bool HookAborted = false;
  /// Set when the optimized program failed vir::verifyProgram.
  std::optional<std::string> PostOptVerifyError;
};

/// Called on the raw program, as pipeline::PipelineHooks::RawProgram is;
/// returning false aborts the compile.
using RawHook = std::function<bool(codegen::SimdizeResult &,
                                   policies::PolicyKind ResolvedPolicy)>;

/// pipeline::runPipeline(L, Req) without offset reassociation: auto
/// policy resolution, codegen::simdize, the hook, the four optimizer
/// passes and the post-optimization verification. Every span is marked
/// duplicate when \p Dup is set (the work already ran inside an outer
/// call).
CompiledProgram compileTraced(SpanLog *Log, uint64_t Id, bool Dup,
                              const ir::Loop &L,
                              const pipeline::CompileRequest &Req,
                              LayerTally &T, const RawHook &Hook = {});

/// sim::checkSimdization(L, P, Ref, nullptr, {TrackChunkLoads}) call by
/// call: verification, decode, execute and the image comparison.
sim::CheckResult checkTraced(SpanLog *Log, uint64_t Id, bool Dup,
                             const ir::Loop &L, const vir::VProgram &P,
                             const sim::ReferenceImage &Ref,
                             bool TrackChunkLoads, LayerTally &T);

/// Adds the tally's per-layer metrics (codegen.shifts_placed, the opt.*
/// rewrite counts, sim.execute.ns_per_elem and sim.execute.opd) and the
/// counts among them that must repeat exactly on one seed.
void addTallyMetrics(Report &R, const LayerTally &T);

/// Datums one run of \p L computes: trip count times statements, the OPD
/// denominator the fuzzer uses.
int64_t datumsOf(const ir::Loop &L);

} // namespace perfbench

#endif // PERFBENCH_COMPILEPATH_H
