//===- opt/UnrollRemoveCopies.cpp -----------------------------------------===//
//
// Part of the simdize project (PLDI 2004 alignment-constrained simdization).
//
//===----------------------------------------------------------------------===//

#include "opt/UnrollRemoveCopies.h"

#include "vir/VProgram.h"

#include <map>
#include <vector>

using namespace simdize;
using namespace simdize::opt;
using namespace simdize::vir;

namespace {

/// Remaps the registers of the unrolled second instance.
struct InstanceRenamer {
  VProgram &P;
  /// Original work-defined register -> second-instance register.
  std::map<unsigned, VRegId> Map;
  /// Carried register -> propagated first-instance source.
  std::map<unsigned, VRegId> Propagate;

  VRegId use(VRegId R) const {
    if (auto It = Propagate.find(R.Id); It != Propagate.end())
      return It->second;
    if (auto It = Map.find(R.Id); It != Map.end())
      return It->second;
    return R; // Loop invariant from Setup.
  }

  VRegId def(VRegId R) {
    VRegId Fresh = P.allocVReg();
    Map[R.Id] = Fresh;
    return Fresh;
  }
};

} // namespace

unsigned opt::runUnrollRemoveCopies(VProgram &P) {
  int64_t B = P.getBlockingFactor();
  if (P.getLoopStep() != static_cast<unsigned>(B))
    return 0; // Already unrolled.

  Block &Body = P.getBody();

  // Peel the trailing run of back-edge copies. The verifier's steady-body
  // contract (vector-only, unpredicated, counter-indexed) is what lets the
  // second instance below be a renamed copy advanced by B.
  size_t WorkEnd = Body.size();
  while (WorkEnd > 0 && Body[WorkEnd - 1].Op == VOpcode::VCopy)
    --WorkEnd;
  if (WorkEnd == Body.size())
    return 0; // Nothing to remove.

  std::vector<std::pair<VRegId, VRegId>> Copies; // (carried, source)
  for (size_t K = WorkEnd; K < Body.size(); ++K)
    Copies.emplace_back(Body[K].VDst, Body[K].VSrc1);
  Block Work(Body.begin(), Body.begin() + static_cast<long>(WorkEnd));

  // Carried registers whose copy source is itself a carried register form
  // chains (predictive commoning produces them when one array is read at
  // offsets B apart). The second instance must then read the *body-entry*
  // value of the source carry, which coalescing overwrites mid-body; a
  // snapshot copy at the top of the body preserves it.
  std::map<unsigned, VRegId> CarryOf; // carried reg -> its copy source
  for (auto [Old, Src] : Copies)
    CarryOf[Old.Id] = Src;

  std::map<unsigned, VRegId> Snapshot; // carried reg -> top-of-body snap
  Block Snaps;
  auto SnapshotOf = [&](VRegId Carried) {
    if (auto It = Snapshot.find(Carried.Id); It != Snapshot.end())
      return It->second;
    VRegId Snap = P.allocVReg();
    VInst Copy = VInst::makeVCopy(Snap, Carried);
    Copy.Comment = "carry-chain snapshot";
    Snaps.push_back(Copy);
    Snapshot.emplace(Carried.Id, Snap);
    return Snap;
  };

  // Build the second instance: registers renamed, addresses advanced by B,
  // carried-register reads forward-propagated — to the first instance's
  // freshly computed source when the source is body-computed, or to the
  // body-entry snapshot when the source is another carry.
  InstanceRenamer Renamer{P, {}, {}};
  for (auto [Old, Src] : Copies)
    Renamer.Propagate[Old.Id] =
        CarryOf.count(Src.Id) ? SnapshotOf(Src) : Src;

  Block Second;
  Second.reserve(Work.size());
  for (const VInst &Orig : Work) {
    VInst I = Orig;
    if (I.Op == VOpcode::VLoad || I.Op == VOpcode::VStore)
      I.Addr.ElemOffset += B;
    forEachVectorUse(I, [&](VRegId &R) { R = Renamer.use(R); });
    if (I.definesVector())
      I.VDst = Renamer.def(Orig.VDst);
    Second.push_back(std::move(I));
  }

  // Coalesce and update the carries for the next double iteration. For a
  // copy Old <- Src:
  //  * Src body-computed: Old must end up with the second instance's Src.
  //    Its producer writes Old directly (legal: after propagation nothing
  //    reads Old past the first instance, and snapshots were taken at the
  //    top). Several Olds sharing one source keep explicit copies beyond
  //    the first.
  //  * Src is itself a carry Old_j: two composed rotations give Old the
  //    value Old_j would have received after the first instance — the
  //    first instance's value of Src_j when that is body-computed, or the
  //    body-entry snapshot of Src_j when the chain is deeper.
  //  * Src loop-invariant: the carry never changes; drop the copy.
  std::map<unsigned, std::vector<VRegId>> BySource; // source -> carried regs
  for (auto [Old, Src] : Copies)
    BySource[Src.Id].push_back(Old);

  Block Extra;
  for (auto &[SrcId, Olds] : BySource) {
    if (auto ChainIt = CarryOf.find(SrcId); ChainIt != CarryOf.end()) {
      VRegId SrcOfSrc = ChainIt->second;
      VRegId Value = CarryOf.count(SrcOfSrc.Id) ? SnapshotOf(SrcOfSrc)
                                                : SrcOfSrc;
      for (VRegId Old : Olds) {
        VInst Copy = VInst::makeVCopy(Old, Value);
        Copy.Comment = "carry-chain rotate";
        Extra.push_back(Copy);
      }
      continue;
    }
    auto MappedIt = Renamer.Map.find(SrcId);
    if (MappedIt == Renamer.Map.end())
      continue; // Loop-invariant source: the carry never changes.
    VRegId SrcR = MappedIt->second;
    VRegId Primary = Olds.front();
    // Rename SrcR -> Primary throughout the second instance.
    for (VInst &I : Second) {
      if (I.definesVector() && I.VDst == SrcR)
        I.VDst = Primary;
      forEachVectorUse(I, [&](VRegId &Use) {
        if (Use == SrcR)
          Use = Primary;
      });
    }
    for (size_t K = 1; K < Olds.size(); ++K)
      Extra.push_back(VInst::makeVCopy(Olds[K], Primary));
  }

  Block NewBody;
  NewBody.reserve(Snaps.size() + Work.size() + Second.size() + Extra.size());
  NewBody.insert(NewBody.end(), Snaps.begin(), Snaps.end());
  NewBody.insert(NewBody.end(), Work.begin(), Work.end());
  NewBody.insert(NewBody.end(), Second.begin(), Second.end());
  NewBody.insert(NewBody.end(), Extra.begin(), Extra.end());

  // Loop control: step 2B, bound dropped by B so both sub-iterations stay
  // within the original range.
  ScalarOperand OrigUB = P.getUpperBound();
  ScalarOperand NewUB;
  if (OrigUB.isImm()) {
    NewUB = ScalarOperand::imm(OrigUB.getImm() - B);
  } else {
    SRegId R = P.allocSReg();
    VInst Sub = VInst::makeSBinOp(SBinOpKind::Sub, R, OrigUB,
                                  ScalarOperand::imm(B));
    Sub.Comment = "unrolled-loop bound";
    P.getSetup().push_back(Sub);
    NewUB = ScalarOperand::reg(R);
  }

  // Leftover odd iteration, in front of the existing epilogue.
  Block NewEpilogue;
  int64_t LB = P.getLowerBound().getImm();
  if (OrigUB.isImm()) {
    // Steady iterations of the original loop: i = LB, LB+B, ... < UB.
    int64_t UB = OrigUB.getImm();
    assert(UB > LB && "simdized loops always have steady iterations");
    int64_t N = (UB - 1 - LB) / B + 1;
    bool Leftover = (N % 2) != 0;
    if (Leftover) {
      NewEpilogue.insert(NewEpilogue.end(), Work.begin(), Work.end());
      // The epilogue reads the carried registers (pipeline "old" values,
      // reduction accumulators); replay the peeled back-edge copies so
      // they reflect the consumed leftover block.
      for (auto [Old, Src] : Copies)
        NewEpilogue.push_back(VInst::makeVCopy(Old, Src));
    }
    // The statement epilogues expected the counter at the first unexecuted
    // iteration; with a consumed leftover that is one more block ahead.
    for (VInst I : P.getEpilogue()) {
      if (Leftover && I.Addr.Index &&
          *I.Addr.Index == P.getIndexReg())
        I.Addr.ElemOffset += B;
      NewEpilogue.push_back(std::move(I));
    }
  } else {
    // Runtime bound: predicate the leftover on i < UB and index the
    // existing epilogue with iEpi = i + B * leftover.
    SRegId Flag = P.allocSReg();
    {
      VInst Cmp =
          VInst::makeSCmp(SCmpKind::LT, Flag,
                          ScalarOperand::reg(P.getIndexReg()), OrigUB);
      Cmp.Comment = "odd leftover iteration?";
      NewEpilogue.push_back(Cmp);
    }
    for (VInst I : Work) {
      I.Predicate = Flag;
      NewEpilogue.push_back(std::move(I));
    }
    // Carried registers must advance with the consumed block; the copies
    // share the leftover's predicate so they fire only when it ran.
    for (auto [Old, Src] : Copies) {
      VInst Copy = VInst::makeVCopy(Old, Src);
      Copy.Predicate = Flag;
      NewEpilogue.push_back(std::move(Copy));
    }
    SRegId Scaled = P.allocSReg();
    NewEpilogue.push_back(VInst::makeSBinOp(SBinOpKind::Mul, Scaled,
                                            ScalarOperand::reg(Flag),
                                            ScalarOperand::imm(B)));
    SRegId IEpi = P.allocSReg();
    {
      VInst Add = VInst::makeSBinOp(SBinOpKind::Add, IEpi,
                                    ScalarOperand::reg(P.getIndexReg()),
                                    ScalarOperand::reg(Scaled));
      Add.Comment = "epilogue counter";
      NewEpilogue.push_back(Add);
    }
    for (VInst I : P.getEpilogue()) {
      if (I.Addr.Index && *I.Addr.Index == P.getIndexReg())
        I.Addr.Index = IEpi;
      NewEpilogue.push_back(std::move(I));
    }
  }

  P.getBody() = std::move(NewBody);
  P.getEpilogue() = std::move(NewEpilogue);
  P.setLoopBounds(P.getLowerBound(), NewUB);
  P.setLoopStep(static_cast<unsigned>(2 * B));
  return static_cast<unsigned>(Copies.size());
}
