//===- opt/DCE.cpp --------------------------------------------------------===//
//
// Part of the simdize project (PLDI 2004 alignment-constrained simdization).
//
//===----------------------------------------------------------------------===//

#include "opt/DCE.h"

#include "vir/VProgram.h"

#include <vector>

using namespace simdize;
using namespace simdize::opt;
using namespace simdize::vir;

namespace {

/// Accumulates every register read by the program.
struct UseSets {
  std::vector<bool> V;
  std::vector<bool> S;

  explicit UseSets(const VProgram &P)
      : V(P.getNumVRegs(), false), S(P.getNumSRegs(), false) {
    if (P.getLowerBound().IsReg)
      S[P.getLowerBound().Reg.Id] = true;
    if (P.getUpperBound().IsReg)
      S[P.getUpperBound().Reg.Id] = true;
    for (BlockKind Kind :
         {BlockKind::Setup, BlockKind::Body, BlockKind::Epilogue})
      for (const VInst &I : P.getBlock(Kind)) {
        forEachVectorUse(I, [&](VRegId R) { V[R.Id] = true; });
        forEachScalarUse(I, [&](SRegId R) { S[R.Id] = true; });
      }
  }
};

} // namespace

unsigned opt::runDCE(VProgram &P) {
  unsigned TotalRemoved = 0;
  bool Changed = true;
  while (Changed) {
    Changed = false;
    UseSets Uses(P);
    for (BlockKind Kind :
         {BlockKind::Setup, BlockKind::Body, BlockKind::Epilogue}) {
      Block &B = P.getBlock(Kind);
      Block Kept;
      Kept.reserve(B.size());
      for (VInst &I : B) {
        bool Dead = I.isPure() &&
                    ((I.definesVector() && !Uses.V[I.VDst.Id]) ||
                     (I.definesScalar() && !Uses.S[I.SDst.Id]));
        if (Dead) {
          ++TotalRemoved;
          Changed = true;
          continue;
        }
        Kept.push_back(std::move(I));
      }
      B = std::move(Kept);
    }
  }
  return TotalRemoved;
}
