//===- sim/Memory.h - Simulated byte-addressable memory ------------------===//
//
// Part of the simdize project (PLDI 2004 alignment-constrained simdization).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The simulated machine's memory, plus the layout policy that places each
/// array at a base address realizing exactly the alignment its ir::Array
/// declares (base mod V == alignment). Arrays are separated by guard gaps
/// of at least 2V bytes so that the truncating vector loads and the
/// splice-back partial stores of the prologue/epilogue can never touch a
/// neighboring array — mirroring the padding a real runtime would ensure.
///
//===----------------------------------------------------------------------===//

#ifndef SIMDIZE_SIM_MEMORY_H
#define SIMDIZE_SIM_MEMORY_H

#include <cstddef>
#include <cstdint>
#include <vector>

namespace simdize {

namespace ir {
class Array;
class Loop;
} // namespace ir

namespace sim {

/// Assigns a base byte address to every array of a loop. Bases are kept
/// by array declaration index, so a layout built from one parse of a loop
/// text serves every other parse of the same text.
class MemoryLayout {
public:
  /// Places the arrays of \p L for vector length \p VectorLen.
  MemoryLayout(const ir::Loop &L, unsigned VectorLen);

  /// Base byte address of \p A. The array must belong to the loop this
  /// layout was built from, or to another parse of that loop's text.
  int64_t baseOf(const ir::Array *A) const;

  /// Total bytes of memory required, including guard gaps.
  int64_t getTotalSize() const { return TotalSize; }

  unsigned getVectorLen() const { return VectorLen; }

private:
  std::vector<int64_t> BaseAddr; ///< Indexed by ir::Array::getIndex().
  int64_t TotalSize = 0;
  unsigned VectorLen;
};

/// A flat byte-addressable memory image.
class Memory {
public:
  explicit Memory(int64_t Size) : Bytes(static_cast<size_t>(Size), 0) {}

  int64_t size() const { return static_cast<int64_t>(Bytes.size()); }

  uint8_t *data() { return Bytes.data(); }
  const uint8_t *data() const { return Bytes.data(); }

  /// Reads a signed element of \p ElemSize bytes at byte address \p Addr
  /// (little-endian), sign-extended to 64 bits.
  int64_t readElem(int64_t Addr, unsigned ElemSize) const;

  /// Writes the low \p ElemSize bytes of \p Value at byte address \p Addr.
  void writeElem(int64_t Addr, unsigned ElemSize, int64_t Value);

  /// Fills the image with a deterministic pseudo-random pattern seeded by
  /// \p Seed; used so the scalar and vector executions start from identical,
  /// non-trivial contents.
  void fillPattern(uint64_t Seed);

  bool operator==(const Memory &O) const { return Bytes == O.Bytes; }

private:
  std::vector<uint8_t> Bytes;
};

} // namespace sim
} // namespace simdize

#endif // SIMDIZE_SIM_MEMORY_H
