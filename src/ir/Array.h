//===- ir/Array.h - Arrays referenced by the loop IR ---------------------===//
//
// Part of the simdize project (PLDI 2004 alignment-constrained simdization).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// An Array describes one memory object accessed by stride-one references.
/// Its base alignment — the byte offset of the base address modulo the
/// vector length V — is the quantity the whole paper revolves around. The
/// alignment always exists at runtime (the simulator places the array), but
/// the simdizer may only exploit it when AlignmentKnown is set; otherwise
/// it must generate runtime-alignment code (Section 4.4).
///
//===----------------------------------------------------------------------===//

#ifndef SIMDIZE_IR_ARRAY_H
#define SIMDIZE_IR_ARRAY_H

#include "ir/Type.h"

#include <cassert>
#include <cstdint>
#include <string>

namespace simdize {
namespace ir {

/// One array (memory object) accessed by the loop.
class Array {
public:
  Array(std::string Name, ElemType Ty, int64_t NumElems, unsigned Alignment,
        bool AlignmentKnown, unsigned Index)
      : Name(std::move(Name)), Ty(Ty), NumElems(NumElems),
        Alignment(Alignment), AlignmentKnown(AlignmentKnown), Index(Index) {
    assert(NumElems >= 0 && "array size must be nonnegative");
    // Section 4.1 assumes naturally aligned bases, but the framework also
    // supports byte-misaligned ones (a Section 7 "future issue"): their
    // streams simply carry offsets that are not lane multiples, and the
    // placement policies realign them to lane boundaries before any
    // arithmetic (see reorg::verifyGraph's lane rule).
  }

  const std::string &getName() const { return Name; }
  ElemType getElemType() const { return Ty; }
  unsigned getElemSize() const { return elemSize(Ty); }
  int64_t getNumElems() const { return NumElems; }
  int64_t getSizeInBytes() const { return NumElems * elemSize(Ty); }

  /// Byte offset of the base address modulo the vector length. This is the
  /// ground truth used by the simulator when laying out memory.
  unsigned getAlignment() const { return Alignment; }

  /// Whether the simdizer is allowed to see getAlignment(). When false the
  /// compiler must treat the alignment as a runtime value.
  bool isAlignmentKnown() const { return AlignmentKnown; }

  /// Whether the base address is a multiple of the element size — the
  /// Section 4.1 assumption. Streams of naturally aligned arrays always
  /// carry lane-multiple offsets.
  bool isNaturallyAligned() const { return Alignment % elemSize(Ty) == 0; }

  /// Position in the owning loop's declaration order. Every parse of one
  /// loop text numbers its arrays alike, so state keyed by index (the
  /// simulator's memory layout) carries over between parses.
  unsigned getIndex() const { return Index; }

private:
  std::string Name;
  ElemType Ty;
  int64_t NumElems;
  unsigned Alignment;
  bool AlignmentKnown;
  unsigned Index;
};

} // namespace ir
} // namespace simdize

#endif // SIMDIZE_IR_ARRAY_H
