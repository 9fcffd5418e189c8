//===- support/LruOrder.h - O(1) recency order for a node-based map ------===//
//
// Part of the simdize project (PLDI 2004 alignment-constrained simdization).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The recency list behind the server's bounded caches. The map keeps its
/// entries; this keeps their keys most recently used first. Each map slot
/// stores the Position add() returned, so marking a hit and dropping an
/// entry are O(1), and evicting pops the back. The list points at the keys
/// inside the map's nodes, which std::unordered_map never moves, rehash
/// included. Not thread-safe: callers hold the lock that guards the map.
///
//===----------------------------------------------------------------------===//

#ifndef SIMDIZE_SUPPORT_LRUORDER_H
#define SIMDIZE_SUPPORT_LRUORDER_H

#include <cstddef>
#include <list>

namespace simdize {

template <typename Key> class LruOrder {
public:
  using Position = typename std::list<const Key *>::iterator;

  /// Records a key just inserted into the map as the most recent one.
  /// \p K must be the key stored in the map node, not a copy.
  Position add(const Key &K) {
    Order.push_front(&K);
    return Order.begin();
  }

  /// Marks the entry at \p P as the most recently used.
  void touch(Position P) { Order.splice(Order.begin(), Order, P); }

  /// Forgets an entry the caller is about to erase from the map.
  void remove(Position P) { Order.erase(P); }

  /// Erases the least recently used entries of \p M until it holds at most
  /// \p Max (0 means unbounded); returns how many were erased.
  template <typename Map> size_t evictOverflow(Map &M, size_t Max) {
    size_t Evicted = 0;
    while (Max != 0 && M.size() > Max) {
      auto Victim = M.find(*Order.back());
      Order.pop_back();
      M.erase(Victim);
      ++Evicted;
    }
    return Evicted;
  }

private:
  std::list<const Key *> Order;
};

} // namespace simdize

#endif // SIMDIZE_SUPPORT_LRUORDER_H
