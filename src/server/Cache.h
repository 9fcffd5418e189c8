//===- server/Cache.h - Content-addressed compile/verdict cache ----------===//
//
// Part of the simdize project (PLDI 2004 alignment-constrained simdization).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The server's memory: compiled programs and oracle verdicts keyed by
/// content, not by identity. The key is the content itself, compared as
/// bytes:
///
///   loop text \x1f CompileRequest::name() \x1f memnorm/reassoc
///
/// — the ir::printParseable text keeps every runtime alignment, trip
/// count and parameter value, while whitespace and comment variations of
/// one loop collapse to one entry. CompileRequest::name() encodes policy,
/// software pipelining, opt level, width, and tier; the two evaluation
/// toggles it omits (MemNorm, OffsetReassoc) are appended explicitly so
/// no two distinct configurations can collide.
///
/// An entry owns the parsed loop, the full pipeline::CompileResult (the
/// live VProgram — check requests re-run it without recompiling), the
/// canonical program text, and a map of per-seed check verdicts. Entries
/// carry an integrity checksum over their immutable payload; a hit whose
/// bytes no longer match (a poisoned entry) is evicted and surfaced as a
/// structured error, never served. Capacity is bounded with LRU eviction
/// in O(1): a recency list (support/LruOrder.h) that every answering
/// lookup splices its entry to the front of, and eviction pops the back.
/// Entries are shared_ptr so eviction never invalidates an in-flight
/// request. Deterministic compilation makes races benign: concurrent
/// misses on one key build byte-identical entries and the first insert
/// wins.
///
//===----------------------------------------------------------------------===//

#ifndef SIMDIZE_SERVER_CACHE_H
#define SIMDIZE_SERVER_CACHE_H

#include "ir/Loop.h"
#include "pipeline/Pipeline.h"
#include "support/LruOrder.h"

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>

namespace simdize {
namespace server {

class CompileCache {
public:
  /// A cached check outcome for one seed.
  struct Verdict {
    bool Ok = false;
    std::string Message;
  };

  /// One compiled (loop, request) pair. Immutable after insert() — the
  /// verdict map lives under the cache lock, not in the entry.
  struct Entry {
    std::shared_ptr<const ir::Loop> SourceLoop;
    pipeline::CompileResult Result;
    /// Canonical vir::printProgram text; empty when the pipeline rejected
    /// the loop (rejections are deterministic and cached too).
    std::string ProgramText;
    /// checksumOf() at insert; verified on every hit so a corrupted entry
    /// is detected instead of served.
    uint64_t Checksum = 0;
  };

  struct Stats {
    int64_t Hits = 0;
    int64_t Misses = 0;
    int64_t Evictions = 0;
    int64_t Poisoned = 0;
    int64_t VerdictHits = 0;
    int64_t VerdictMisses = 0;
  };

  enum class Outcome { Miss, Hit, Poisoned };

  explicit CompileCache(size_t MaxEntries = 1024) : Max(MaxEntries) {}

  /// The content key of (loop text, request): the key material itself.
  static std::string keyOf(const std::string &LoopText,
                           const pipeline::CompileRequest &Req);

  /// The integrity checksum an entry must carry: std::hash (libstdc++'s
  /// word-at-a-time Murmur hash) of the program text, the config name and
  /// the error text, chained so that a change to any one field changes
  /// the sum whenever it changes that field's hash.
  static uint64_t checksumOf(const Entry &E);

  /// Looks up \p Key. Hit: \p Out is set and the entry becomes the most
  /// recently used. Poisoned: the entry failed its checksum; it is evicted
  /// (so the next identical request recompiles) and \p Out left empty.
  Outcome find(const std::string &Key, std::shared_ptr<Entry> &Out);

  /// Validity probe for the rendered-response memo: like find(), but a
  /// Poisoned or Miss outcome mutates nothing and counts nothing — the
  /// caller falls through to the full path, where find() evicts, counts,
  /// and surfaces the structured error exactly as it always did. Only a
  /// clean Hit counts (and makes the entry the most recently used), since
  /// it answers the request.
  Outcome peek(const std::string &Key);

  /// Inserts \p E under \p Key as the most recently used entry, evicting
  /// the least recently used one when over capacity. First writer wins: if
  /// a concurrent miss already inserted this key, the existing entry is
  /// returned instead (and refreshed), so every caller responds from one
  /// canonical entry.
  std::shared_ptr<Entry> insert(const std::string &Key,
                                std::shared_ptr<Entry> E);

  /// Per-seed verdict lookup/record for an entry still present under
  /// \p Key. Recording against an evicted key is a no-op.
  bool findVerdict(const std::string &Key, uint64_t Seed, Verdict &Out);
  void recordVerdict(const std::string &Key, uint64_t Seed, const Verdict &V);

  /// First-level memo from the key of a request's RAW loop text (keyOf
  /// over the unparsed spelling) to the canonical content key, letting a
  /// byte-identical resubmission skip the parse and canonical print that
  /// otherwise dominate a warm hit. Purely an accelerator: a memo miss,
  /// or an alias whose target has been evicted, only costs the slow path.
  std::optional<std::string> findAlias(const std::string &TextKey);
  void recordAlias(const std::string &TextKey, const std::string &Key);

  Stats stats() const;
  size_t size() const;

  /// Test hook: silently corrupts the cached program text of \p Key
  /// without updating the checksum, simulating a poisoned entry.
  void poisonForTest(const std::string &Key);

private:
  struct Slot {
    std::shared_ptr<Entry> E;
    std::map<uint64_t, Verdict> Verdicts;
    LruOrder<std::string>::Position Recency;
  };

  mutable std::mutex Mu;
  std::unordered_map<std::string, Slot> Map;
  LruOrder<std::string> Lru; ///< Map's keys, most recently used first.
  std::unordered_map<std::string, std::string> Aliases; ///< Raw -> canonical.
  size_t Max;
  Stats St;
};

} // namespace server
} // namespace simdize

#endif // SIMDIZE_SERVER_CACHE_H
