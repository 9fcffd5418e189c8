//===- opt/SymbolicKey.h - Symbolic values of steady-state registers -----===//
//
// Part of the simdize project (PLDI 2004 alignment-constrained simdization).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Assigns each vector register defined in the steady-state body a value
/// number: a dense integer id naming its symbolic value over (array,
/// address, shift amount, operator), parameterized by the loop counter.
/// Numbers are hash-consed (support/Interner.h): an operator's number is
/// the id of (tag, operand numbers, immediates), so two registers with
/// equal numbers hold equal values in the same iteration (CSE), and a
/// register whose number at counter i+B equals another's at i holds, one
/// iteration later, the value the other holds now (predictive commoning).
///
/// Load leaves are (array declaration index, element offset). With memory
/// normalization enabled, loads of statically aligned arrays use the
/// chunk the truncating load actually reads instead of the offset, so
/// a[i] and a[i+1] unify whenever they fall into the same chunk.
///
//===----------------------------------------------------------------------===//

#ifndef SIMDIZE_OPT_SYMBOLICKEY_H
#define SIMDIZE_OPT_SYMBOLICKEY_H

#include "support/Interner.h"
#include "vir/VProgram.h"

#include <cstdint>
#include <utility>
#include <vector>

namespace simdize {
namespace opt {

/// Value numbering over one program's steady-state body.
class BodyKeys {
public:
  /// \param MemNorm enables chunk-based load keys for statically aligned
  /// arrays.
  BodyKeys(const vir::VProgram &P, bool MemNorm);

  /// Value number of vector register \p R with the loop counter advanced
  /// by \p DeltaElems elements. Returns 0 when the value cannot be keyed:
  /// the register is written more than once in the body (a loop-carried
  /// copy target) or by an impure path.
  ///
  /// Registers defined only outside the body are loop invariants and are
  /// numbered by register id, independent of the delta.
  uint32_t keyOfVReg(vir::VRegId R, int64_t DeltaElems);

  /// Index into the body of the pure instruction defining \p R, or -1 when
  /// \p R is not (uniquely) defined in the body.
  int defIndexOf(vir::VRegId R) const;

private:
  uint32_t keyOfInst(const vir::VInst &I, int64_t DeltaElems);
  /// Numbers already computed at counter delta \p DeltaElems, by register
  /// id; Unvisited marks registers not reached yet.
  std::vector<uint32_t> &memoAt(int64_t DeltaElems);

  static constexpr uint32_t Unvisited = UINT32_MAX;

  const vir::VProgram &P;
  bool MemNorm;
  /// Body def index per vector register; -1 undefined here, -2 multiple.
  std::vector<int> DefIndex;
  TupleInterner<5> Numbers;
  /// One memo per counter delta asked for (CSE asks for 0, predictive
  /// commoning for 0 and B).
  std::vector<std::pair<int64_t, std::vector<uint32_t>>> Memo;
};

} // namespace opt
} // namespace simdize

#endif // SIMDIZE_OPT_SYMBOLICKEY_H
