//===- opt/Pipeline.cpp ---------------------------------------------------===//
//
// Part of the simdize project (PLDI 2004 alignment-constrained simdization).
//
//===----------------------------------------------------------------------===//

#include "opt/Pipeline.h"

#include "obs/Trace.h"
#include "opt/CSE.h"
#include "opt/DCE.h"
#include "opt/PredictiveCommoning.h"
#include "opt/UnrollRemoveCopies.h"

using namespace simdize;
using namespace simdize::opt;

OptStats opt::runOptPipeline(vir::VProgram &P, const OptConfig &Config) {
  OptStats Stats;
  obs::Span PipelineSp("opt-pipeline", "opt");
  {
    obs::Span Sp("opt-cse", "opt");
    Stats.CSERemoved = runCSE(P, Config.MemNorm);
    Sp.arg("removed", Stats.CSERemoved);
  }
  if (Config.PC) {
    obs::Span Sp("opt-predictive-commoning", "opt");
    Stats.PCReplaced = runPredictiveCommoning(P, Config.MemNorm);
    Sp.arg("replaced", Stats.PCReplaced);
  }
  {
    obs::Span Sp("opt-unroll-copies", "opt");
    Stats.CopiesRemoved = runUnrollRemoveCopies(P);
    Sp.arg("removed", Stats.CopiesRemoved);
  }
  {
    obs::Span Sp("opt-dce", "opt");
    Stats.DCERemoved = runDCE(P);
    Sp.arg("removed", Stats.DCERemoved);
  }
  return Stats;
}
