//===- opt/CSE.cpp --------------------------------------------------------===//
//
// Part of the simdize project (PLDI 2004 alignment-constrained simdization).
//
//===----------------------------------------------------------------------===//

#include "opt/CSE.h"

#include "opt/SymbolicKey.h"

#include <map>
#include <unordered_map>

using namespace simdize;
using namespace simdize::opt;
using namespace simdize::vir;

unsigned opt::runCSE(VProgram &P, bool MemNorm) {
  BodyKeys Keys(P, MemNorm);
  Block &Body = P.getBody();

  std::unordered_map<uint32_t, VRegId> Leader;
  std::map<unsigned, VRegId> Rename;
  Block NewBody;
  NewBody.reserve(Body.size());
  unsigned Removed = 0;

  auto Renamed = [&Rename](VRegId R) {
    auto It = Rename.find(R.Id);
    return It == Rename.end() ? R : It->second;
  };

  for (const VInst &I : Body) {
    VInst Copy = I;
    // Apply pending renames to the uses first.
    forEachVectorUse(Copy, [&](VRegId &R) { R = Renamed(R); });

    // Copies are the loop-carry mechanism, never redundant computation;
    // the unroll pass is responsible for removing them.
    if (Copy.isPure() && Copy.definesVector() && Copy.Op != VOpcode::VCopy) {
      if (uint32_t Key = Keys.keyOfVReg(I.VDst, 0)) {
        if (auto It = Leader.find(Key); It != Leader.end()) {
          // Redundant: route uses to the leader and drop the instruction.
          Rename[I.VDst.Id] = It->second;
          ++Removed;
          continue;
        }
        Leader.emplace(Key, I.VDst);
      }
    }
    NewBody.push_back(std::move(Copy));
  }

  Body = std::move(NewBody);
  return Removed;
}
