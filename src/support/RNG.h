//===- support/RNG.h - Deterministic random number generation ------------===//
//
// Part of the simdize project (PLDI 2004 alignment-constrained simdization).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A small deterministic PRNG (splitmix64/xoshiro-style) so the loop
/// synthesizer produces identical benchmark suites on every platform and
/// run. std::mt19937 would also be deterministic, but the distributions
/// (uniform_int_distribution et al.) are not portable across standard
/// library implementations; we implement our own.
///
//===----------------------------------------------------------------------===//

#ifndef SIMDIZE_SUPPORT_RNG_H
#define SIMDIZE_SUPPORT_RNG_H

#include <cstdint>

namespace simdize {

/// Deterministic 64-bit PRNG with convenience draws used by the loop
/// synthesizer (uniform integers, probabilities, biased choices).
class RNG {
public:
  /// splitmix64's counter increment (the golden ratio in 64 bits).
  static constexpr uint64_t Gamma = 0x9e3779b97f4a7c15ULL;

  explicit RNG(uint64_t Seed) : State(initialState(Seed)) {}

  /// The state RNG(Seed) starts from. splitmix64 is counter-based: the
  /// k-th next(), k from 0, returns mix(initialState(Seed) + (k + 1) *
  /// Gamma), so any draw can be computed without the ones before it.
  static constexpr uint64_t initialState(uint64_t Seed) {
    return Seed == 0 ? Gamma : Seed;
  }

  /// splitmix64's output function.
  static constexpr uint64_t mix(uint64_t Z) {
    Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebULL;
    return Z ^ (Z >> 31);
  }

  /// Returns the next raw 64-bit value (splitmix64 step).
  uint64_t next() {
    State += Gamma;
    return mix(State);
  }

  /// Returns a uniform integer in [Lo, Hi], inclusive. Requires Lo <= Hi.
  int64_t uniformInt(int64_t Lo, int64_t Hi);

  /// Returns a uniform double in [0, 1).
  double uniformReal();

  /// Returns true with probability \p P (clamped to [0, 1]).
  bool withProbability(double P);

private:
  uint64_t State;
};

} // namespace simdize

#endif // SIMDIZE_SUPPORT_RNG_H
