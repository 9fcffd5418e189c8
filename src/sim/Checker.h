//===- sim/Checker.h - End-to-end correctness oracle ----------------------===//
//
// Part of the simdize project (PLDI 2004 alignment-constrained simdization).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Runs a simdized program and the scalar reference over identical memory
/// images and demands a bit-identical result — including guard bytes
/// between arrays, so stray writes are caught. This is the machinery behind
/// the paper's coverage analysis ("the results were verified", Section 5.4)
/// and behind every correctness test in this repository.
///
/// The scalar side of the check — layout, patterned image, reference run —
/// depends only on (loop, seed, vector length), not on the program under
/// test. ReferenceImage captures it once; OracleCache shares it across the
/// ~24 configurations the fuzzer checks per seed, so the scalar interpreter
/// and the pattern fill run once per seed instead of once per config.
///
//===----------------------------------------------------------------------===//

#ifndef SIMDIZE_SIM_CHECKER_H
#define SIMDIZE_SIM_CHECKER_H

#include "sim/Machine.h"
#include "sim/Memory.h"

#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

namespace simdize {

namespace ir {
class Loop;
} // namespace ir

namespace sim {

/// Outcome of one verification run.
struct CheckResult {
  bool Ok = false;
  std::string Message; ///< Failure description when !Ok.
  ExecStats Stats;     ///< Vector execution statistics (valid when Ok).
  /// True when the failure was the VVerifier rejecting the program rather
  /// than a memory mismatch; the fuzzer's failure-kind tagging keys on
  /// this instead of matching message strings.
  bool VerifierFailed = false;
};

/// Optional provenance attached to mismatch diagnostics so that bulk runs
/// (the fuzzer, the experiment suites) produce triageable reports without
/// a debugger: which scheme/policy produced the program being checked.
struct CheckContext {
  std::string Scheme; ///< e.g. "LAZY-sp" or "DOM opt=off".
};

/// Per-check switches.
struct CheckOptions {
  /// Maintain exact per-(array, chunk) load and store provenance in the
  /// returned ExecStats (what NeverLoadTwiceTest and the heatmap
  /// inspect). Costs a map insert per dynamic access; bulk throughput
  /// paths leave it off.
  bool TrackChunkLoads = false;
  /// Maintain per-VInst-PC execution counts (ExecStats::PCCounts) with
  /// setup/body/epilogue attribution. The reference engine maintains them
  /// regardless.
  bool TrackPCCounts = false;
  /// Execute on the byte-at-a-time reference interpreter instead of the
  /// decoded engine — for differential testing of the engines themselves.
  bool UseReferenceEngine = false;
};

/// The program-independent half of one verification: the memory layout,
/// the patterned initial image, and the scalar interpreter's output for a
/// given (loop, vector length, seed). Computing it dominates the cost of
/// checkSimdization, so bulk callers build it once and check many programs
/// against it.
class ReferenceImage {
public:
  ReferenceImage(const ir::Loop &L, unsigned VectorLen, uint64_t Seed);

  const MemoryLayout &getLayout() const { return Layout; }
  const Memory &getInitial() const { return Initial; }
  const Memory &getExpected() const { return Expected; }
  unsigned getVectorLen() const { return Layout.getVectorLen(); }
  uint64_t getSeed() const { return Seed; }

private:
  MemoryLayout Layout;
  Memory Initial;
  Memory Expected;
  uint64_t Seed;
};

/// Thread-safe, content-addressed generalization of the per-(loop, seed)
/// OracleCache: ReferenceImages shared across loops, seeds, and widths,
/// keyed by (LoopKey, VectorLen, Seed), where LoopKey is the loop's exact
/// text (ir::printParseable; empty is fine when the caller owns a single
/// loop). Layouts are indexed by array declaration order, so an image
/// built from one parse serves every parse of the same text. Entries are
/// handed out as shared_ptr so LRU eviction never invalidates a
/// borrower; MaxEntries of 0 means unbounded. The compile server shares
/// one across requests so millions of check requests re-verify a small
/// working set of loops without rebuilding the scalar oracle each time.
class ReferenceImageCache {
public:
  struct Stats {
    int64_t Hits = 0;
    int64_t Misses = 0;
    int64_t Evictions = 0;
  };

  explicit ReferenceImageCache(size_t MaxEntries = 256) : Max(MaxEntries) {}

  /// Returns the image for (LoopKey, VectorLen, Seed), building it from
  /// \p L outside the cache lock on a miss. Concurrent misses on one key
  /// may build twice; the first insert wins (images are deterministic, so
  /// the loser is byte-identical and simply dropped).
  std::shared_ptr<const ReferenceImage> get(const std::string &LoopKey,
                                            const ir::Loop &L,
                                            unsigned VectorLen, uint64_t Seed);

  Stats stats() const;
  size_t size() const;

private:
  struct Slot {
    std::shared_ptr<const ReferenceImage> Img;
    uint64_t Tick = 0;
  };

  mutable std::mutex Mu;
  std::unordered_map<std::string, Slot> Map; ///< LoopKey \x1f V \x1f Seed.
  size_t Max;
  uint64_t Tick = 0;
  Stats St;
};

/// Lazily-built ReferenceImages for one (loop, seed), keyed by vector
/// length (all fuzzer configs use V = 16, so this normally holds a single
/// entry). A thin veneer over an unbounded ReferenceImageCache, so
/// references returned by get() stay valid for the cache lifetime.
class OracleCache {
public:
  OracleCache(const ir::Loop &L, uint64_t Seed)
      : L(L), Seed(Seed), Cache(/*MaxEntries=*/0) {}

  const ReferenceImage &get(unsigned VectorLen) {
    return *Cache.get(/*LoopKey=*/"", L, VectorLen, Seed);
  }

private:
  const ir::Loop &L;
  uint64_t Seed;
  ReferenceImageCache Cache;
};

/// Verifies that \p P computes exactly what the loop behind \p Ref
/// computes: runs \p P (on the decoded engine unless \p Opts says
/// otherwise) over a copy of the initial image and compares bit-for-bit
/// against the precomputed scalar result. \p L is used only to attribute a
/// mismatching byte to an array element and its owning statement; it must
/// be the loop \p Ref was built from.
CheckResult checkSimdization(const ir::Loop &L, const vir::VProgram &P,
                             const ReferenceImage &Ref,
                             const CheckContext *Ctx = nullptr,
                             const CheckOptions &Opts = {});

/// Convenience overload that builds the ReferenceImage in place from a
/// pseudo-random memory image derived from \p Seed. Chunk-load tracking is
/// on, matching the historical behavior tests rely on. On a mismatch the
/// diagnostic names the byte, the owning array element, the statement that
/// stores to that array, and — when \p Ctx is given — the scheme under
/// test.
CheckResult checkSimdization(const ir::Loop &L, const vir::VProgram &P,
                             uint64_t Seed,
                             const CheckContext *Ctx = nullptr);

} // namespace sim
} // namespace simdize

#endif // SIMDIZE_SIM_CHECKER_H
