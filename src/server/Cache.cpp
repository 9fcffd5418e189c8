//===- server/Cache.cpp ---------------------------------------------------===//
//
// Part of the simdize project (PLDI 2004 alignment-constrained simdization).
//
//===----------------------------------------------------------------------===//

#include "server/Cache.h"

#include "support/Hash.h"

using namespace simdize;
using namespace simdize::server;

std::string CompileCache::keyOf(const std::string &LoopText,
                                const pipeline::CompileRequest &Req) {
  // CompileRequest::name() covers policy/sp/opt/width/tier (and AUTO);
  // MemNorm and OffsetReassoc are evaluation toggles it omits, appended
  // here so distinct configurations can never share a key.
  std::string Key = LoopText;
  Key += '\x1f';
  Key += Req.name();
  Key += '\x1f';
  Key += Req.MemNorm ? 'm' : '-';
  Key += Req.OffsetReassoc ? 'r' : '-';
  return Key;
}

uint64_t CompileCache::checksumOf(const Entry &E) {
  uint64_t H = fnv1a(E.ProgramText);
  H = fnv1a("\x1f", H);
  H = fnv1a(E.Result.ConfigName, H);
  H = fnv1a("\x1f", H);
  return fnv1a(E.Result.error(), H);
}

CompileCache::Outcome CompileCache::find(const std::string &Key,
                                         std::shared_ptr<Entry> &Out) {
  std::lock_guard<std::mutex> Lock(Mu);
  auto It = Map.find(Key);
  if (It == Map.end()) {
    ++St.Misses;
    return Outcome::Miss;
  }
  if (checksumOf(*It->second.E) != It->second.E->Checksum) {
    // Poisoned: evict so the next identical request recompiles cleanly.
    Map.erase(It);
    ++St.Poisoned;
    return Outcome::Poisoned;
  }
  ++St.Hits;
  It->second.Tick = ++Tick;
  Out = It->second.E;
  return Outcome::Hit;
}

CompileCache::Outcome CompileCache::peek(const std::string &Key) {
  std::lock_guard<std::mutex> Lock(Mu);
  auto It = Map.find(Key);
  if (It == Map.end())
    return Outcome::Miss;
  if (checksumOf(*It->second.E) != It->second.E->Checksum)
    return Outcome::Poisoned;
  ++St.Hits;
  It->second.Tick = ++Tick;
  return Outcome::Hit;
}

std::shared_ptr<CompileCache::Entry>
CompileCache::insert(const std::string &Key, std::shared_ptr<Entry> E) {
  std::lock_guard<std::mutex> Lock(Mu);
  auto [It, Inserted] = Map.try_emplace(Key);
  if (Inserted)
    It->second.E = std::move(E);
  It->second.Tick = ++Tick;
  evictOverflowLocked();
  return It->second.E;
}

bool CompileCache::findVerdict(const std::string &Key, uint64_t Seed,
                               Verdict &Out) {
  std::lock_guard<std::mutex> Lock(Mu);
  auto It = Map.find(Key);
  if (It != Map.end()) {
    auto V = It->second.Verdicts.find(Seed);
    if (V != It->second.Verdicts.end()) {
      ++St.VerdictHits;
      Out = V->second;
      return true;
    }
  }
  ++St.VerdictMisses;
  return false;
}

void CompileCache::recordVerdict(const std::string &Key, uint64_t Seed,
                                 const Verdict &V) {
  std::lock_guard<std::mutex> Lock(Mu);
  auto It = Map.find(Key);
  if (It != Map.end())
    It->second.Verdicts.emplace(Seed, V);
}

std::optional<std::string>
CompileCache::findAlias(const std::string &TextKey) {
  std::lock_guard<std::mutex> Lock(Mu);
  auto It = Aliases.find(TextKey);
  if (It == Aliases.end())
    return std::nullopt;
  return It->second;
}

void CompileCache::recordAlias(const std::string &TextKey,
                               const std::string &Key) {
  std::lock_guard<std::mutex> Lock(Mu);
  // The memo is rebuilt on demand, so the bound is a crude wholesale
  // reset — correctness never depends on what survives here.
  if (Aliases.size() >= 4096 + 4 * Max)
    Aliases.clear();
  Aliases[TextKey] = Key;
}

void CompileCache::evictOverflowLocked() {
  while (Max != 0 && Map.size() > Max) {
    auto Oldest = Map.begin();
    for (auto I = Map.begin(); I != Map.end(); ++I)
      if (I->second.Tick < Oldest->second.Tick)
        Oldest = I;
    Map.erase(Oldest);
    ++St.Evictions;
  }
}

CompileCache::Stats CompileCache::stats() const {
  std::lock_guard<std::mutex> Lock(Mu);
  return St;
}

size_t CompileCache::size() const {
  std::lock_guard<std::mutex> Lock(Mu);
  return Map.size();
}

void CompileCache::poisonForTest(const std::string &Key) {
  std::lock_guard<std::mutex> Lock(Mu);
  auto It = Map.find(Key);
  if (It != Map.end())
    It->second.E->ProgramText += " ";
}
