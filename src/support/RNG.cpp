//===- support/RNG.cpp ----------------------------------------------------===//
//
// Part of the simdize project (PLDI 2004 alignment-constrained simdization).
//
//===----------------------------------------------------------------------===//

#include "support/RNG.h"

#include <cassert>

using namespace simdize;

int64_t RNG::uniformInt(int64_t Lo, int64_t Hi) {
  assert(Lo <= Hi && "empty range");
  uint64_t Span = static_cast<uint64_t>(Hi - Lo) + 1;
  if (Span == 0) // Full 64-bit range.
    return static_cast<int64_t>(next());
  // Rejection sampling to avoid modulo bias.
  uint64_t Limit = UINT64_MAX - UINT64_MAX % Span;
  uint64_t V = next();
  while (V >= Limit)
    V = next();
  return Lo + static_cast<int64_t>(V % Span);
}

double RNG::uniformReal() {
  // 53 random bits into [0, 1).
  return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

bool RNG::withProbability(double P) {
  if (P <= 0.0)
    return false;
  if (P >= 1.0)
    return true;
  return uniformReal() < P;
}
