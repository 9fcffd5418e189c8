//===- sim/Checker.cpp ----------------------------------------------------===//
//
// Part of the simdize project (PLDI 2004 alignment-constrained simdization).
//
//===----------------------------------------------------------------------===//

#include "sim/Checker.h"

#include "ir/IRPrinter.h"
#include "ir/Loop.h"
#include "obs/Trace.h"
#include "sim/Decoder.h"
#include "sim/ScalarInterp.h"
#include "support/Format.h"
#include "vir/VVerifier.h"

#include <optional>

using namespace simdize;
using namespace simdize::sim;

ReferenceImage::ReferenceImage(const ir::Loop &L, unsigned VectorLen,
                               uint64_t Seed)
    : Layout(L, VectorLen), Initial(Layout.getTotalSize()),
      Expected(Layout.getTotalSize()), Seed(Seed) {
  obs::Span Sp("reference-image", "sim");
  Initial.fillPattern(Seed);
  Expected = Initial;
  runScalarLoop(L, Layout, Expected);
}

std::shared_ptr<const ReferenceImage>
ReferenceImageCache::get(const std::string &LoopKey, const ir::Loop &L,
                         unsigned VectorLen, uint64_t Seed) {
  std::string Key = strf("%s\x1f%u\x1f%llu", LoopKey.c_str(), VectorLen,
                         static_cast<unsigned long long>(Seed));
  {
    std::lock_guard<std::mutex> Lock(Mu);
    auto It = Map.find(Key);
    if (It != Map.end()) {
      ++St.Hits;
      It->second.Tick = ++Tick;
      return It->second.Img;
    }
    ++St.Misses;
  }

  // Build outside the lock: image construction runs the scalar
  // interpreter and must not serialize concurrent misses on other keys.
  auto Img = std::make_shared<const ReferenceImage>(L, VectorLen, Seed);

  std::lock_guard<std::mutex> Lock(Mu);
  auto [It, Inserted] = Map.try_emplace(std::move(Key));
  if (Inserted)
    It->second.Img = std::move(Img);
  It->second.Tick = ++Tick;
  if (Max != 0 && Map.size() > Max) {
    auto Oldest = Map.begin();
    for (auto I = Map.begin(); I != Map.end(); ++I)
      if (I->second.Tick < Oldest->second.Tick)
        Oldest = I;
    Map.erase(Oldest);
    ++St.Evictions;
  }
  return It->second.Img;
}

ReferenceImageCache::Stats ReferenceImageCache::stats() const {
  std::lock_guard<std::mutex> Lock(Mu);
  return St;
}

size_t ReferenceImageCache::size() const {
  std::lock_guard<std::mutex> Lock(Mu);
  return Map.size();
}

/// Finds the statement storing to \p A; store arrays are unique per
/// statement (a simdizability precondition), so the owner is unambiguous.
static std::string owningStmt(const ir::Loop &L, const ir::Array *A) {
  const auto &Stmts = L.getStmts();
  for (size_t K = 0; K < Stmts.size(); ++K)
    if (Stmts[K]->getStoreArray() == A)
      return strf("; written by statement %zu: %s", K,
                  ir::printStmt(*Stmts[K]).c_str());
  return "; not a store target of any statement";
}

/// Locates the first mismatching byte and attributes it to an array
/// element and its owning statement.
static std::string mismatchMessage(const ir::Loop &L,
                                   const MemoryLayout &Layout,
                                   const Memory &Expected,
                                   const Memory &Actual,
                                   const std::string &Under) {
  for (int64_t Addr = 0; Addr < Expected.size(); ++Addr) {
    if (Expected.data()[Addr] != Actual.data()[Addr]) {
      std::string Where = "guard region";
      for (const auto &A : L.getArrays()) {
        int64_t Base = Layout.baseOf(A.get());
        if (Addr >= Base && Addr < Base + A->getSizeInBytes()) {
          Where = strf("%s[%lld]%s", A->getName().c_str(),
                       static_cast<long long>((Addr - Base) /
                                              A->getElemSize()),
                       owningStmt(L, A.get()).c_str());
          break;
        }
      }
      return strf(
          "memory mismatch%s at byte %lld (%s): expected 0x%02x, got "
          "0x%02x",
          Under.c_str(), static_cast<long long>(Addr), Where.c_str(),
          Expected.data()[Addr], Actual.data()[Addr]);
    }
  }
  return "memory mismatch" + Under + " (location not identified)";
}

CheckResult sim::checkSimdization(const ir::Loop &L, const vir::VProgram &P,
                                  const ReferenceImage &Ref,
                                  const CheckContext *Ctx,
                                  const CheckOptions &Opts) {
  CheckResult Result;
  obs::Span CheckSp("check", "sim");
  std::string Under =
      Ctx && !Ctx->Scheme.empty() ? " under scheme " + Ctx->Scheme : "";

  {
    obs::Span Sp("vverify", "sim");
    if (auto Err = vir::verifyProgram(P)) {
      Result.Message = "program fails verification" + Under + ": " + *Err;
      Result.VerifierFailed = true;
      return Result;
    }
  }
  assert(Ref.getVectorLen() == P.getVectorLen() &&
         "reference image built for a different vector length");

  Memory Actual = Ref.getInitial();
  if (Opts.UseReferenceEngine) {
    obs::Span Sp("execute", "sim");
    Sp.argStr("engine", "reference");
    Result.Stats = runProgram(P, Ref.getLayout(), Actual);
  } else {
    std::optional<DecodedProgram> DP;
    {
      obs::Span Sp("decode", "sim");
      DP.emplace(P, Ref.getLayout());
    }
    obs::Span Sp("execute", "sim");
    Sp.argStr("engine", "decoded");
    ExecOptions EO;
    EO.TrackChunkLoads = Opts.TrackChunkLoads;
    EO.TrackPCCounts = Opts.TrackPCCounts;
    Result.Stats = runDecoded(*DP, Actual, EO);
  }

  {
    obs::Span Sp("compare", "sim");
    if (!(Ref.getExpected() == Actual)) {
      Result.Message = mismatchMessage(L, Ref.getLayout(), Ref.getExpected(),
                                       Actual, Under);
      return Result;
    }
  }

  Result.Ok = true;
  return Result;
}

CheckResult sim::checkSimdization(const ir::Loop &L, const vir::VProgram &P,
                                  uint64_t Seed, const CheckContext *Ctx) {
  ReferenceImage Ref(L, P.getVectorLen(), Seed);
  CheckOptions Opts;
  Opts.TrackChunkLoads = true;
  return checkSimdization(L, P, Ref, Ctx, Opts);
}
