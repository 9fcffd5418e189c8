//===- opt/PredictiveCommoning.cpp ----------------------------------------===//
//
// Part of the simdize project (PLDI 2004 alignment-constrained simdization).
//
//===----------------------------------------------------------------------===//

#include "opt/PredictiveCommoning.h"

#include "opt/SymbolicKey.h"
#include "support/Debug.h"

#include <map>
#include <set>
#include <unordered_map>
#include <vector>

using namespace simdize;
using namespace simdize::opt;
using namespace simdize::vir;

namespace {

/// Clones the body def tree of registers into Setup, evaluated at a
/// compile-time counter value — the initialization of carried registers.
class ConstCloner {
public:
  ConstCloner(VProgram &P, const Block &OrigBody, const BodyKeys &Keys)
      : P(P), OrigBody(OrigBody), Keys(Keys) {}

  /// Emits code into Setup computing the value \p R has at loop counter
  /// \p CV; returns the register holding it. Registers not defined in the
  /// body are loop invariants and are returned as-is.
  VRegId cloneAt(VRegId R, int64_t CV) {
    int DefIdx = Keys.defIndexOf(R);
    if (DefIdx < 0)
      return R; // Setup-defined loop invariant.
    auto MemoKey = std::make_pair(R.Id, CV);
    if (auto It = Memo.find(MemoKey); It != Memo.end())
      return It->second;

    VInst I = OrigBody[static_cast<size_t>(DefIdx)];
    assert(I.isPure() && "cannot clone an impure instruction");
    if (I.Op == VOpcode::VLoad) {
      assert(I.Addr.Index && "body loads are counter-indexed");
      I.Addr = Address::constant(I.Addr.Base, I.Addr.ElemOffset, CV);
    }
    forEachVectorUse(I, [&](VRegId &Use) { Use = cloneAt(Use, CV); });
    I.VDst = P.allocVReg();
    I.Comment = "predictive-commoning init";
    P.getSetup().push_back(I);
    Memo.emplace(MemoKey, I.VDst);
    return I.VDst;
  }

private:
  VProgram &P;
  const Block &OrigBody;
  const BodyKeys &Keys;
  std::map<std::pair<unsigned, int64_t>, VRegId> Memo;
};

} // namespace

unsigned opt::runPredictiveCommoning(VProgram &P, bool MemNorm) {
  BodyKeys Keys(P, MemNorm);
  const Block OrigBody = P.getBody(); // Copy: rewrites must not disturb keys.
  int64_t B = P.getBlockingFactor();
  int64_t LB = P.getLowerBound().isImm() ? P.getLowerBound().getImm() : B;

  // Map each keyable value to its first defining instruction.
  std::unordered_map<uint32_t, int> ByKey;
  for (unsigned Idx = 0; Idx < OrigBody.size(); ++Idx) {
    const VInst &I = OrigBody[Idx];
    if (!I.isPure() || !I.definesVector())
      continue;
    if (uint32_t Key = Keys.keyOfVReg(I.VDst, 0))
      ByKey.try_emplace(Key, static_cast<int>(Idx));
  }

  // Identify candidates: hoistable invariants and carried values.
  std::set<int> Hoisted;
  struct CarryInfo {
    int XIdx;
    int YIdx;
    VRegId CarryReg;
  };
  std::vector<CarryInfo> Carries;
  std::map<int, int> CarrySucc; // XIdx -> YIdx, for cycle detection.

  for (unsigned Idx = 0; Idx < OrigBody.size(); ++Idx) {
    const VInst &I = OrigBody[Idx];
    if (!I.isPure() || !I.definesVector())
      continue;
    uint32_t K0 = Keys.keyOfVReg(I.VDst, 0);
    if (K0 == 0)
      continue;
    uint32_t KB = Keys.keyOfVReg(I.VDst, B);
    if (KB == 0)
      continue;

    if (KB == K0) {
      // Loop invariant; hoistable when all operands are invariant too
      // (ext regs or previously hoisted defs — guaranteed by K0 == KB
      // recursively, and body order puts operand defs first).
      Hoisted.insert(static_cast<int>(Idx));
      continue;
    }
    if (auto It = ByKey.find(KB); It != ByKey.end()) {
      int YIdx = It->second;
      if (YIdx != static_cast<int>(Idx) && !Hoisted.count(YIdx)) {
        Carries.push_back({static_cast<int>(Idx), YIdx, VRegId{}});
        CarrySucc[static_cast<int>(Idx)] = YIdx;
      }
    }
  }

  // Drop carries that participate in cycles (defensive; cannot arise from
  // stride-one codegen, where load offsets strictly increase with B).
  for (auto It = Carries.begin(); It != Carries.end();) {
    std::set<int> Seen;
    int Cur = It->XIdx;
    bool Cycle = false;
    while (CarrySucc.count(Cur)) {
      if (!Seen.insert(Cur).second) {
        Cycle = true;
        break;
      }
      Cur = CarrySucc[Cur];
    }
    if (Cycle) {
      CarrySucc.erase(It->XIdx);
      It = Carries.erase(It);
      continue;
    }
    ++It;
  }

  if (Hoisted.empty() && Carries.empty())
    return 0;

  // Materialize carried registers and their Setup initialization: the value
  // X holds in the first steady iteration, computed at counter LB.
  ConstCloner Cloner(P, OrigBody, Keys);
  std::map<unsigned, VRegId> Rename; // Old dst -> carried register.
  std::set<int> RemovedIdx;
  for (CarryInfo &C : Carries) {
    C.CarryReg = P.allocVReg();
    VRegId Init = Cloner.cloneAt(OrigBody[C.XIdx].VDst, LB);
    VInst Copy = VInst::makeVCopy(C.CarryReg, Init);
    Copy.Comment = "carried-value init";
    P.getSetup().push_back(Copy);
    Rename[OrigBody[C.XIdx].VDst.Id] = C.CarryReg;
    RemovedIdx.insert(C.XIdx);
  }

  // Hoist invariants: move them (in order) to Setup unchanged; their
  // operands are invariant registers.
  for (int Idx : Hoisted) {
    VInst I = OrigBody[static_cast<size_t>(Idx)];
    I.Comment = "hoisted loop invariant";
    P.getSetup().push_back(I);
    RemovedIdx.insert(Idx);
  }

  // Rebuild the body without the removed instructions, renaming uses.
  auto Renamed = [&Rename](VRegId R) {
    auto It = Rename.find(R.Id);
    return It == Rename.end() ? R : It->second;
  };
  Block NewBody;
  NewBody.reserve(OrigBody.size());
  for (unsigned Idx = 0; Idx < OrigBody.size(); ++Idx) {
    if (RemovedIdx.count(static_cast<int>(Idx)))
      continue;
    VInst I = OrigBody[Idx];
    forEachVectorUse(I, [&](VRegId &R) { R = Renamed(R); });
    NewBody.push_back(std::move(I));
  }

  // Back-edge copies, ordered so that a carry reading another carried
  // register is copied before that register is overwritten (chains only;
  // Kahn-style emission).
  std::map<int, const CarryInfo *> ByXIdx;
  for (const CarryInfo &C : Carries)
    ByXIdx.emplace(C.XIdx, &C);
  std::set<int> Emitted;
  // Copy source register for carry C: Y's value this iteration.
  auto SourceOf = [&](const CarryInfo &C) {
    if (auto It = ByXIdx.find(C.YIdx); It != ByXIdx.end())
      return It->second->CarryReg; // Y itself is carried.
    return OrigBody[static_cast<size_t>(C.YIdx)].VDst;
  };
  while (Emitted.size() < Carries.size()) {
    bool Progress = false;
    for (const CarryInfo &C : Carries) {
      if (Emitted.count(C.XIdx))
        continue;
      // C's copy overwrites C.CarryReg; every carry that reads that
      // register's old value (its source is C.CarryReg) must be copied
      // first.
      bool Blocked = false;
      for (const CarryInfo &Other : Carries)
        if (!Emitted.count(Other.XIdx) && Other.XIdx != C.XIdx &&
            SourceOf(Other) == C.CarryReg) {
          Blocked = true;
          break;
        }
      if (Blocked)
        continue;
      VInst Copy = VInst::makeVCopy(C.CarryReg, SourceOf(C));
      Copy.Comment = "carried-value rotate";
      NewBody.push_back(Copy);
      Emitted.insert(C.XIdx);
      Progress = true;
    }
    if (!Progress)
      simdize_unreachable("cyclic carried-copy dependence survived filter");
  }

  P.getBody() = std::move(NewBody);
  return static_cast<unsigned>(Carries.size() + Hoisted.size());
}
