//===- oracle/Oracle.cpp --------------------------------------------------===//
//
// Part of the simdize project (PLDI 2004 alignment-constrained simdization).
//
//===----------------------------------------------------------------------===//

#include "oracle/Oracle.h"

#include "ir/Loop.h"
#include "sim/Memory.h"
#include "support/Debug.h"
#include "support/Format.h"
#include "support/Interner.h"
#include "support/MathExtras.h"
#include "synth/LowerBound.h"

#include <algorithm>
#include <set>
#include <vector>

using namespace simdize;
using namespace simdize::oracle;

const char *oracle::failureKindName(FailureKind Kind) {
  switch (Kind) {
  case FailureKind::None:
    return "none";
  case FailureKind::Internal:
    return "internal";
  case FailureKind::Verifier:
    return "verifier";
  case FailureKind::Mismatch:
    return "mismatch";
  case FailureKind::DoubleLoad:
    return "double-load";
  case FailureKind::ShiftCount:
    return "shift-count";
  case FailureKind::OpdBound:
    return "opd-bound";
  }
  simdize_unreachable("unknown failure kind");
}

std::optional<Violation>
oracle::checkShiftCounts(const ir::Loop &L, const codegen::SimdizeResult &R,
                         policies::PolicyKind Policy,
                         bool SoftwarePipelining) {
  const auto &Stmts = L.getStmts();
  if (R.StmtPlacedShifts.size() != Stmts.size() ||
      R.StmtSteadyShifts.size() != Stmts.size())
    return Violation{FailureKind::ShiftCount,
                     strf("simdize recorded shift counts for %zu of %zu "
                          "statements",
                          R.StmtPlacedShifts.size(), Stmts.size())};

  unsigned V = R.Program->getVectorLen();
  unsigned ExpectedBody = 0;
  for (size_t K = 0; K < Stmts.size(); ++K) {
    // One graph build per statement serves every per-statement check.
    reorg::Graph G = reorg::buildGraph(*Stmts[K], V);
    unsigned Predicted =
        policies::predictShiftCount(Policy, G, SoftwarePipelining);
    if (R.StmtPlacedShifts[K] != Predicted)
      return Violation{
          FailureKind::ShiftCount,
          strf("statement %zu: policy %s placed %u vshiftstream nodes, "
               "prediction says %u",
               K, policies::policyName(Policy), R.StmtPlacedShifts[K],
               Predicted)};

    // The optimal policy's defining contract: never more steady-state
    // shift work than any of the paper's four greedy placements.
    if (Policy == policies::PolicyKind::Optimal)
      for (policies::PolicyKind Paper : policies::paperPolicies()) {
        unsigned Greedy =
            policies::predictSteadyShiftCount(Paper, G, SoftwarePipelining);
        if (R.StmtSteadyShifts[K] > Greedy)
          return Violation{
              FailureKind::ShiftCount,
              strf("statement %zu: OPT placement executes %u steady "
                   "vshiftpairs but %s would execute only %u (sp=%d) — "
                   "the DP is not optimal",
                   K, R.StmtSteadyShifts[K], policies::policyName(Paper),
                   Greedy, SoftwarePipelining)};
      }
    ExpectedBody += R.StmtSteadyShifts[K];
  }

  // The raw steady loop advances by B, so the body holds exactly one
  // instance of every statement's emission (the unroll that changes the
  // step is an optimizer pass, and this oracle runs pre-optimization).
  unsigned Emitted =
      vir::countOps(R.Program->getBody(), vir::VOpcode::VShiftPair);
  if (Emitted != ExpectedBody)
    return Violation{
        FailureKind::ShiftCount,
        strf("steady body executes %u vshiftpairs per iteration, emission "
             "model (%s, sp=%d) predicts %u",
             Emitted, policies::policyName(Policy), SoftwarePipelining,
             ExpectedBody)};
  return std::nullopt;
}

std::optional<Violation>
oracle::checkNeverLoadTwice(const ir::Loop &L, unsigned VectorLen,
                            const sim::ExecStats &Stats) {
  // Static accesses and accessed element-offset range per loaded array,
  // by declaration index; chunks of store arrays (touched by the
  // prologue/epilogue partial-store reads) are exempt.
  struct ArrayInfo {
    int64_t Accesses = 0;
    int64_t MinOff = INT64_MAX;
    int64_t MaxOff = INT64_MIN;
  };
  std::vector<ArrayInfo> Arrays(L.getArrays().size());
  auto AddAccess = [&Arrays](const ir::Array *A, int64_t Off) {
    ArrayInfo &AI = Arrays[A->getIndex()];
    ++AI.Accesses;
    AI.MinOff = std::min(AI.MinOff, Off);
    AI.MaxOff = std::max(AI.MaxOff, Off);
  };
  for (const auto &S : L.getStmts()) {
    S->forEachExpr([&](const ir::Expr &Root) {
      Root.walk([&](const ir::Expr &E) {
        if (const auto *Ref = ir::dyn_cast<ir::ArrayRefExpr>(E))
          AddAccess(Ref->getArray(), Ref->getOffset());
      });
    });
    // An if-converted statement reloads its target stream every iteration
    // to blend untaken lanes: one legitimate extra access.
    if (S->isIf())
      AddAccess(S->getStoreArray(), S->getStoreOffset());
  }

  // The checker's layout is deterministic in (loop, V): rebuild it to map
  // array positions to chunk addresses. The Section 4.3 guarantee is
  // about the steady state, so "interior" chunks must be margin vectors
  // away from *every* stream's prologue/epilogue zone, not just the bytes
  // the loop touches overall: when one array is read at several element
  // offsets, each offset is its own stream with its own boundary region,
  // so the window starts after the latest-starting stream's prologue
  // (MaxOff) and ends before the earliest-ending stream's epilogue
  // (MinOff). For a single-offset array this is the accessed byte range.
  //
  // Chunks are counted by address alone. That attributes them exactly:
  // arrays lie at least 4V apart and the window sits 4V inside the
  // accessed range, so no other array's stream reaches it.
  sim::MemoryLayout Layout(L, VectorLen);
  const int64_t V = VectorLen;
  const int64_t Margin = 4 * V;
  const int64_t UB = L.getUpperBound();
  const int64_t Tracked = static_cast<int64_t>(Stats.ChunkLoads.size());
  for (const auto &Arr : L.getArrays()) {
    const ArrayInfo &AI = Arrays[Arr->getIndex()];
    if (AI.Accesses == 0)
      continue;
    int64_t Elem = Arr->getElemSize();
    int64_t Base = Layout.baseOf(Arr.get());
    int64_t Lo = Base + AI.MaxOff * Elem;
    int64_t End = Base + (UB - 1 + AI.MinOff) * Elem + Elem;
    for (int64_t ChunkAddr = std::max<int64_t>(0, alignTo(Lo + Margin, V));
         ChunkAddr + V <= End - Margin && ChunkAddr / V < Tracked;
         ChunkAddr += V) {
      int64_t Count = Stats.ChunkLoads[static_cast<size_t>(ChunkAddr / V)];
      if (Count > AI.Accesses)
        return Violation{
            FailureKind::DoubleLoad,
            strf("interior chunk @%lld of array '%s' loaded %lld times for "
                 "%lld static accesses: steady state reloaded stream data "
                 "(Section 4.3)",
                 static_cast<long long>(ChunkAddr), Arr->getName().c_str(),
                 static_cast<long long>(Count),
                 static_cast<long long>(AI.Accesses))};
    }
  }
  return std::nullopt;
}

namespace {

/// Byte-offset alignment class of an access modulo V: the constant class
/// when the base is known, the congruence class of the scaled offset alone
/// otherwise (the unknown base cancels between congruent accesses).
int64_t alignClassModV(const ir::Array *A, int64_t C, unsigned V) {
  int64_t Scaled = C * static_cast<int64_t>(A->getElemSize());
  if (A->isAlignmentKnown())
    return nonNegMod(A->getAlignment() + Scaled, V);
  return nonNegMod(Scaled, V);
}

bool isMisalignedAccess(const ir::Array *A, int64_t C, unsigned V) {
  if (!A->isAlignmentKnown())
    return true; // Must be treated (and is realigned) as misaligned.
  return alignClassModV(A, C, V) != 0;
}

/// First field of every tuple the OPD floor numbers.
enum FloorTag : int64_t {
  RefTag,          ///< (array index, element offset)
  SplatTag,        ///< (value)
  ParamTag,        ///< (parameter object)
  BinOpTag,        ///< (operator, lhs, rhs)
  GuardTag,        ///< (comparison, lhs, rhs): an if-statement's compare
  BlendTag,        ///< (statement): an if-statement's blend
  AccumulateTag,   ///< (statement): a reduction's accumulate
  IfStoreShiftTag, ///< (statement): an if-statement's store realignment
  StoreShiftTag,   ///< (value, store class): a static store realignment
  RuntimeShiftTag, ///< (value, array index): a runtime store realignment
};

/// Value numbers of expression subtrees: equal numbers mean structurally
/// equal subtrees. \p FoldB > 0 folds element offsets modulo B: predictive
/// commoning carries values across iterations, so subtrees whose
/// references differ by whole blocking factors produce the same stream
/// and may legitimately be merged.
class FloorNumbering {
public:
  explicit FloorNumbering(int64_t FoldB) : FoldB(FoldB) {}

  /// Numbers \p E and its subtrees in one post-order pass. \returns the
  /// number of \p E and whether it reads an array; appends every array
  /// reference to Refs and the number of every BinOp that reads an array
  /// to Compute.
  std::pair<uint32_t, bool> number(const ir::Expr &E) {
    switch (E.getKind()) {
    case ir::ExprKind::ArrayRef: {
      const auto &Ref = ir::cast<ir::ArrayRefExpr>(E);
      Refs.push_back(&Ref);
      int64_t Off = FoldB > 0 ? nonNegMod(Ref.getOffset(), FoldB)
                              : Ref.getOffset();
      return {intern({RefTag, Ref.getArray()->getIndex(), Off}), true};
    }
    case ir::ExprKind::Splat:
      return {intern({SplatTag, ir::cast<ir::SplatExpr>(E).getValue()}),
              false};
    case ir::ExprKind::Param:
      return {intern({ParamTag, reinterpret_cast<intptr_t>(
                                    ir::cast<ir::ParamExpr>(E).getParam())}),
              false};
    case ir::ExprKind::BinOp: {
      const auto &Bin = ir::cast<ir::BinOpExpr>(E);
      auto [L, LRef] = number(Bin.getLHS());
      auto [R, RRef] = number(Bin.getRHS());
      uint32_t Id = intern({BinOpTag, static_cast<int64_t>(Bin.getOp()), L, R});
      if (LRef || RRef)
        Compute.push_back(Id);
      return {Id, LRef || RRef};
    }
    }
    simdize_unreachable("unknown expression kind");
  }

  uint32_t intern(const TupleInterner<4>::Tuple &T) { return Ids.intern(T); }

  std::vector<const ir::ArrayRefExpr *> Refs;
  std::vector<uint32_t> Compute;

private:
  int64_t FoldB;
  TupleInterner<4> Ids;
};

/// Number of distinct values in \p Ids.
int64_t countDistinct(std::vector<uint32_t> &Ids) {
  std::sort(Ids.begin(), Ids.end());
  return std::unique(Ids.begin(), Ids.end()) - Ids.begin();
}

} // namespace

double oracle::opdFloor(const ir::Loop &L, unsigned VectorLen,
                        policies::PolicyKind Policy, OptLevel Opt) {
  unsigned Stmts = static_cast<unsigned>(L.getStmts().size());
  int64_t B = VectorLen / L.getElemSize();

  // Unoptimized programs execute at least the full Section 5.3 bound per
  // steady iteration: a load per distinct stream, the placed shifts, every
  // compute node, a store per statement.
  if (Opt == OptLevel::Raw)
    return synth::computeLowerBound(L, VectorLen, Policy).opd(B, Stmts);

  // Optimized configurations can legitimately beat components of that
  // bound, so each component is floored at the optimizer's capability:
  //
  //  * loads — CSE/MemNorm merge only same-chunk loads (already one per
  //    stream); predictive commoning additionally carries chunks across
  //    iterations, and any two references of one array walk the same
  //    consecutive chunk sequence merely phase-shifted, so under PC every
  //    array can collapse to a single load per iteration;
  //  * compute — CSE merges identical subtrees across statements; PC
  //    merges subtrees congruent modulo B. Loop-invariant (splat-only)
  //    subtrees are excluded: no pass hoists them today, but the floor
  //    must stay sound if one ever does;
  //  * shifts — only zero-shift keeps a deterministic floor: realignment
  //    is per misaligned stream class, plus per distinct (RHS key, store
  //    class) store realignment (identical statements' store shifts are
  //    CSE-mergeable). Other policies' placements can collapse under CSE
  //    in graph-dependent ways, so their optimized floor is 0;
  //  * stores — never removed: one per statement.
  bool PC = Opt == OptLevel::PC;
  FloorNumbering Num(PC ? B : 0);

  std::set<const ir::Array *> LoadedArrays;
  std::set<std::pair<const ir::Array *, int64_t>> MisalignedClasses;
  auto AddLoad = [&](const ir::Array *A, int64_t Off) {
    LoadedArrays.insert(A);
    if (isMisalignedAccess(A, Off, VectorLen))
      MisalignedClasses.insert({A, alignClassModV(A, Off, VectorLen)});
  };
  std::vector<uint32_t> StoreShifts;
  for (size_t Idx = 0; Idx < L.getStmts().size(); ++Idx) {
    const ir::Stmt &S = *L.getStmts()[Idx];
    const int64_t Stmt = static_cast<int64_t>(Idx);
    const ir::Array *A = S.getStoreArray();
    if (S.isIf()) {
      // The implicit old-value reload is a per-iteration load of the store
      // target; loads of stored arrays are never keyable, so the blend can
      // never merge — one per statement. The comparison reads only guard
      // streams and does dedup structurally.
      AddLoad(A, S.getStoreOffset());
      uint32_t GuardL = Num.number(S.getGuardLHS()).first;
      uint32_t GuardR = Num.number(S.getGuardRHS()).first;
      Num.Compute.push_back(Num.intern(
          {GuardTag, static_cast<int64_t>(S.getCmpKind()), GuardL, GuardR}));
      Num.Compute.push_back(Num.intern({BlendTag, Stmt}));
    }
    auto [Value, ReadsMemory] = Num.number(S.getRHS());
    if (S.isReduce()) {
      // The accumulate reads a multiply-defined carry register: unkeyable,
      // one per statement per iteration. Accumulated in a register, it
      // has no steady store stream either.
      Num.Compute.push_back(Num.intern({AccumulateTag, Stmt}));
      continue;
    }
    if (Policy != policies::PolicyKind::Zero ||
        !isMisalignedAccess(A, S.getStoreOffset(), VectorLen))
      continue;
    if (S.isIf())
      // The blended value feeds the store shift and the blend is never
      // mergeable, so the shift executes per statement.
      StoreShifts.push_back(Num.intern({IfStoreShiftTag, Stmt}));
    else if (!ReadsMemory)
      continue; // Pure-splat source: ⊥ satisfies C.2, no store shift.
    else if (A->isAlignmentKnown())
      StoreShifts.push_back(Num.intern(
          {StoreShiftTag, Value,
           alignClassModV(A, S.getStoreOffset(), VectorLen)}));
    else
      StoreShifts.push_back(
          Num.intern({RuntimeShiftTag, Value, A->getIndex()}));
  }
  for (const ir::ArrayRefExpr *Ref : Num.Refs)
    AddLoad(Ref->getArray(), Ref->getOffset());

  int64_t Loads =
      PC ? static_cast<int64_t>(LoadedArrays.size())
         : synth::computeLowerBound(L, VectorLen, Policy).DistinctLoads;

  int64_t Shifts = 0;
  if (Policy == policies::PolicyKind::Zero)
    Shifts = static_cast<int64_t>(MisalignedClasses.size()) +
             countDistinct(StoreShifts);

  unsigned StoringStmts = 0;
  for (const auto &S : L.getStmts())
    if (!S->isReduce())
      ++StoringStmts;

  synth::LowerBound Floor;
  Floor.DistinctLoads = Loads;
  Floor.Stores = StoringStmts;
  Floor.Shifts = Shifts;
  Floor.Compute = countDistinct(Num.Compute);
  return Floor.opd(static_cast<unsigned>(B), Stmts);
}

std::optional<Violation>
oracle::checkOpdBound(const ir::Loop &L, unsigned VectorLen,
                      policies::PolicyKind Policy, OptLevel Opt,
                      const sim::ExecStats &Stats) {
  int64_t Datums =
      L.getUpperBound() * static_cast<int64_t>(L.getStmts().size());
  double Floor = opdFloor(L, VectorLen, Policy, Opt);
  double Measured = Stats.Counts.opd(Datums);
  if (Measured + 1e-9 < Floor)
    return Violation{
        FailureKind::OpdBound,
        strf("measured %.4f operations per datum, below the Section 5.3 "
             "floor %.4f (policy %s, opt level %d)",
             Measured, Floor, policies::policyName(Policy),
             static_cast<int>(Opt))};
  return std::nullopt;
}
