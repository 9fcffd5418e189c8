//===- support/Interner.h - Dense ids for fixed-width integer tuples ------===//
//
// Part of the simdize project (PLDI 2004 alignment-constrained simdization).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Hash-consing for value numbering: a tuple of N int64_t maps to a dense
/// id, assigned 1, 2, 3, ... in first-seen order. Equal tuples get equal
/// ids, so a tuple whose fields are the ids of its operands names a whole
/// expression tree, and two trees are equal exactly when their ids are.
/// Id 0 is never assigned; callers use it for "no value".
///
/// Open addressing with linear probing over support/Hash.h's FNV-1a of the
/// tuple's bytes; the table stays at most half full.
///
//===----------------------------------------------------------------------===//

#ifndef SIMDIZE_SUPPORT_INTERNER_H
#define SIMDIZE_SUPPORT_INTERNER_H

#include "support/Hash.h"

#include <array>
#include <cstddef>
#include <cstdint>
#include <string_view>
#include <vector>

namespace simdize {

template <size_t N> class TupleInterner {
public:
  using Tuple = std::array<int64_t, N>;

  /// The id of \p T, assigning the next free one if \p T is new.
  uint32_t intern(const Tuple &T) {
    if (2 * (Tuples.size() + 1) > Slots.size())
      grow();
    const size_t Mask = Slots.size() - 1;
    for (size_t I = hashOf(T) & Mask;; I = (I + 1) & Mask) {
      uint32_t Id = Slots[I];
      if (Id == 0) {
        Tuples.push_back(T);
        Slots[I] = static_cast<uint32_t>(Tuples.size());
        return Slots[I];
      }
      if (Tuples[Id - 1] == T)
        return Id;
    }
  }

  /// Number of distinct tuples interned: the largest id handed out.
  uint32_t size() const { return static_cast<uint32_t>(Tuples.size()); }

private:
  static size_t hashOf(const Tuple &T) {
    return static_cast<size_t>(fnv1a(
        std::string_view(reinterpret_cast<const char *>(T.data()), sizeof T)));
  }

  void grow() {
    Slots.assign(Slots.empty() ? 16 : 2 * Slots.size(), 0);
    const size_t Mask = Slots.size() - 1;
    for (uint32_t Id = 1; Id <= size(); ++Id) {
      size_t I = hashOf(Tuples[Id - 1]) & Mask;
      while (Slots[I] != 0)
        I = (I + 1) & Mask;
      Slots[I] = Id;
    }
  }

  std::vector<Tuple> Tuples;   ///< Tuples[Id - 1] is the tuple of Id.
  std::vector<uint32_t> Slots; ///< Power-of-two table of ids; 0 is empty.
};

} // namespace simdize

#endif // SIMDIZE_SUPPORT_INTERNER_H
