//===- support/Hash.h - FNV-1a over byte strings --------------------------===//
//
// Part of the simdize project (PLDI 2004 alignment-constrained simdization).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The project's one 64-bit FNV-1a: native .so cache keys, server entry
/// checksums, and the hashes diagnostics print. The server's caches
/// compare content rather than trust it.
///
//===----------------------------------------------------------------------===//

#ifndef SIMDIZE_SUPPORT_HASH_H
#define SIMDIZE_SUPPORT_HASH_H

#include <cstdint>
#include <string_view>

namespace simdize {

/// 64-bit FNV-1a over \p S, continuing from \p H (the offset basis by
/// default). Chained calls hash the concatenation of their inputs.
inline uint64_t fnv1a(std::string_view S,
                      uint64_t H = 14695981039346656037ULL) {
  for (unsigned char C : S) {
    H ^= C;
    H *= 1099511628211ULL;
  }
  return H;
}

} // namespace simdize

#endif // SIMDIZE_SUPPORT_HASH_H
