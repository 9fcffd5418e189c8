//===- codegen/Simdizer.cpp -----------------------------------------------===//
//
// Part of the simdize project (PLDI 2004 alignment-constrained simdization).
//
//===----------------------------------------------------------------------===//

#include "codegen/Simdizer.h"

#include "codegen/CodeGenContext.h"
#include "codegen/StmtEmitter.h"
#include "ir/IRVerifier.h"
#include "ir/Loop.h"
#include "obs/Trace.h"
#include "support/Format.h"
#include "vir/VVerifier.h"

#include <set>

using namespace simdize;
using namespace simdize::codegen;
using namespace simdize::vir;

std::optional<std::string> codegen::checkSimdizable(const ir::Loop &L,
                                                    unsigned VectorLen) {
  if (auto Err = ir::verifyLoop(L))
    return Err;

  if (VectorLen % L.getElemSize() != 0)
    return std::string("element size does not divide the vector length");

  // No loop-carried dependences: every store array must be distinct and
  // never appear as a load.
  std::set<const ir::Array *> StoreArrays;
  for (const auto &S : L.getStmts())
    if (!StoreArrays.insert(S->getStoreArray()).second)
      return strf("array '%s' is stored by more than one statement",
                  S->getStoreArray()->getName().c_str());
  std::optional<std::string> DepErr;
  for (const auto &S : L.getStmts())
    S->forEachExpr([&](const ir::Expr &Root) {
      Root.walk([&](const ir::Expr &E) {
        if (const auto *Ref = ir::dyn_cast<ir::ArrayRefExpr>(E))
          if (StoreArrays.count(Ref->getArray()) && !DepErr)
            DepErr = strf("array '%s' is both stored and loaded",
                          Ref->getArray()->getName().c_str());
      });
    });
  if (DepErr)
    return DepErr;

  // A reduction privatizes its accumulator cell in a vector register and
  // read-modify-writes it once after the loop; that final vsplice needs
  // the cell inside a single chunk at a compile-time position, i.e. a
  // naturally aligned base with known alignment.
  for (const auto &S : L.getStmts()) {
    if (!S->isReduce())
      continue;
    const ir::Array *A = S->getStoreArray();
    if (!A->isAlignmentKnown())
      return strf("reduction accumulator '%s' needs a compile-time known "
                  "alignment",
                  A->getName().c_str());
    if (A->getAlignment() % A->getElemSize() != 0)
      return strf("reduction accumulator '%s' must be naturally aligned",
                  A->getName().c_str());
  }

  // The paper guards the simdized path with ub > 3B (Section 4.4); the
  // prologue/steady/epilogue structure needs at least one full steady
  // iteration.
  int64_t B = VectorLen / L.getElemSize();
  if (L.getUpperBound() <= 3 * B)
    return strf("trip count %lld not above the 3B = %lld validity guard",
                static_cast<long long>(L.getUpperBound()),
                static_cast<long long>(3 * B));
  return std::nullopt;
}

SimdizeResult codegen::simdize(const ir::Loop &L, const SimdizeOptions &Opts) {
  SimdizeResult Result;
  obs::Span SimdizeSp("simdize");
  SimdizeSp.argStr("policy", policies::policyName(Opts.Policy));
  SimdizeSp.argStr("target", Opts.Tgt.str());

  if (!Opts.Tgt.valid()) {
    Result.Error = strf("target %s is not usable: V must be a power of two "
                        "in [4, %u]",
                        Opts.Tgt.str().c_str(), Target::MaxVectorLen);
    Result.ErrorKind = SimdizeErrorKind::NotSimdizable;
    return Result;
  }
  if (auto Err = checkSimdizable(L, Opts.vectorLen())) {
    Result.Error = *Err;
    Result.ErrorKind = SimdizeErrorKind::NotSimdizable;
    return Result;
  }

  std::unique_ptr<policies::ShiftPolicy> Policy =
      policies::createPolicy(Opts.Policy, Opts.SoftwarePipelining);

  VProgram Program(Opts.vectorLen(), L.getElemSize());
  CodeGenContext Ctx(L, Program);
  int64_t B = Program.getBlockingFactor();

  // Steady-loop bounds: LB = B (Eq. 12); UB = ub - B + 1 (Eq. 15), which is
  // safe for every statement regardless of its store alignment.
  Program.setLoopBounds(ScalarOperand::imm(B), ScalarOperand::imm(0));
  ScalarOperand UBOrig = Ctx.getUpperBoundOperand();
  if (UBOrig.isImm()) {
    Program.setLoopBounds(ScalarOperand::imm(B),
                          ScalarOperand::imm(UBOrig.getImm() - B + 1));
  } else {
    SRegId UBReg = Program.allocSReg();
    VInst Sub = VInst::makeSBinOp(SBinOpKind::Sub, UBReg, UBOrig,
                                  ScalarOperand::imm(B - 1));
    Sub.Comment = "steady-state upper bound (Eq. 15)";
    Program.getSetup().push_back(Sub);
    Program.setLoopBounds(ScalarOperand::imm(B), ScalarOperand::reg(UBReg));
  }

  // Phase 1 + 2 per statement: graph, placement, validation, emission.
  StmtEmitter Emitter(Ctx, Opts.SoftwarePipelining);
  for (const auto &S : L.getStmts()) {
    reorg::Graph G = [&] {
      obs::Span Sp("reorg-graph");
      return reorg::buildGraph(*S, Opts.vectorLen());
    }();
    {
      obs::Span Sp("shift-placement");
      Sp.argStr("policy", Policy->name());
      if (auto Err = Policy->place(G)) {
        Result.Error =
            strf("policy %s inapplicable: %s", Policy->name(), Err->c_str());
        Result.ErrorKind = SimdizeErrorKind::PolicyInapplicable;
        return Result;
      }
      if (auto Err = reorg::verifyGraph(G)) {
        Result.Error = strf("internal error: invalid reorganization graph: %s",
                            Err->c_str());
        Result.ErrorKind = SimdizeErrorKind::Internal;
        return Result;
      }
    }
    unsigned Placed = reorg::countShifts(G);
    Result.ShiftCount += Placed;
    Result.StmtPlacedShifts.push_back(Placed);
    Result.StmtSteadyShifts.push_back(
        reorg::countSteadyShifts(G, Opts.SoftwarePipelining));
    obs::Span Sp("codegen-emit");
    Emitter.emit(G);
  }
  Ctx.flushLoopBottomCopies();

  {
    obs::Span Sp("vverify");
    if (auto Err = vir::verifyProgram(Program)) {
      Result.Error = strf("internal error: generated program is invalid: %s",
                          Err->c_str());
      Result.ErrorKind = SimdizeErrorKind::Internal;
      return Result;
    }
  }

  Result.Program.emplace(std::move(Program));
  return Result;
}
