//===- obs/Trace.cpp ------------------------------------------------------===//
//
// Part of the simdize project (PLDI 2004 alignment-constrained simdization).
//
//===----------------------------------------------------------------------===//

#include "obs/Trace.h"

#include "obs/Json.h"
#include "support/Format.h"

#include <algorithm>
#include <map>

using namespace simdize;
using namespace simdize::obs;

void Tracer::record(TraceEvent E) {
  std::lock_guard<std::mutex> L(Mu);
  Events.push_back(std::move(E));
}

uint32_t Tracer::tidOf(std::thread::id Id) {
  std::lock_guard<std::mutex> L(Mu);
  for (const auto &[Known, Tid] : Tids)
    if (Known == Id)
      return Tid;
  uint32_t Tid = static_cast<uint32_t>(Tids.size());
  Tids.emplace_back(Id, Tid);
  return Tid;
}

size_t Tracer::eventCount() const {
  std::lock_guard<std::mutex> L(Mu);
  return Events.size();
}

void Tracer::clear() {
  std::lock_guard<std::mutex> L(Mu);
  Events.clear();
  Tids.clear();
}

std::string Tracer::chromeEventsFragment() const {
  std::vector<TraceEvent> Snapshot;
  {
    std::lock_guard<std::mutex> L(Mu);
    Snapshot = Events;
  }
  // Chrome's viewer nests same-tid "X" events by timestamp containment, but
  // only reliably when parents precede children; destruction order records
  // children first, so sort by (tid, start, -dur). A child that opens and
  // closes within its parent's first microsecond ties with it on both;
  // open order, which puts a parent before its children, breaks the tie.
  std::sort(Snapshot.begin(), Snapshot.end(),
            [](const TraceEvent &A, const TraceEvent &B) {
              if (A.Tid != B.Tid)
                return A.Tid < B.Tid;
              if (A.StartUs != B.StartUs)
                return A.StartUs < B.StartUs;
              if (A.DurUs != B.DurUs)
                return A.DurUs > B.DurUs;
              return A.Seq < B.Seq;
            });

  uint64_t Pid = TraceId ? TraceId : 1;
  std::string Out;
  bool First = true;
  for (const TraceEvent &E : Snapshot) {
    if (!First)
      Out += ',';
    First = false;
    json::Writer W(Out);
    W.beginObject()
        .field("name", E.Name)
        .field("cat", E.Cat)
        .field("ph", "X")
        .field("ts", E.StartUs)
        .field("dur", E.DurUs)
        .field("pid", Pid)
        .field("tid", static_cast<uint64_t>(E.Tid));
    if (!E.Args.empty()) {
      W.key("args").beginObject();
      for (const auto &[K, V] : E.Args) {
        // Values are pre-rendered JSON fragments; splice them verbatim.
        W.key(K);
        W.raw(V);
      }
      W.endObject();
    }
    W.endObject();
  }
  return Out;
}

std::string Tracer::toChromeJson() const {
  std::string Out = "{\"traceEvents\":[";
  Out += chromeEventsFragment();
  Out += "],\"displayTimeUnit\":\"ms\"}";
  return Out;
}

std::string Tracer::summary() const {
  struct Agg {
    int64_t Count = 0;
    int64_t TotalUs = 0;
  };
  std::map<std::string, Agg> ByName;
  {
    std::lock_guard<std::mutex> L(Mu);
    for (const TraceEvent &E : Events) {
      Agg &A = ByName[E.Name];
      ++A.Count;
      A.TotalUs += E.DurUs;
    }
  }
  std::vector<std::pair<std::string, Agg>> Rows(ByName.begin(), ByName.end());
  std::stable_sort(Rows.begin(), Rows.end(), [](const auto &A, const auto &B) {
    return A.second.TotalUs > B.second.TotalUs;
  });

  std::string Out = strf("%-28s %8s %12s %12s\n", "phase", "calls", "total_us",
                         "mean_us");
  for (const auto &[Name, A] : Rows)
    Out += strf("%-28s %8lld %12lld %12.1f\n", Name.c_str(),
                static_cast<long long>(A.Count),
                static_cast<long long>(A.TotalUs),
                A.Count ? static_cast<double>(A.TotalUs) / A.Count : 0.0);
  return Out;
}

//===----------------------------------------------------------------------===//
// Global installation
//===----------------------------------------------------------------------===//

namespace {
std::atomic<Tracer *> GlobalTracer{nullptr};
} // namespace

constinit thread_local Tracer *obs::detail::ThreadTracer = nullptr;

void obs::installTracer(Tracer *T) {
  GlobalTracer.store(T, std::memory_order_release);
}

Tracer *obs::activeTracer() {
  return GlobalTracer.load(std::memory_order_relaxed);
}

//===----------------------------------------------------------------------===//
// Span arguments
//===----------------------------------------------------------------------===//

void Span::arg(const char *Key, int64_t V) {
  if (T)
    Args.emplace_back(Key, strf("%lld", static_cast<long long>(V)));
}

void Span::argStr(const char *Key, const std::string &V) {
  if (!T)
    return;
  std::string Quoted = "\"";
  Quoted += json::escape(V);
  Quoted += '"';
  Args.emplace_back(Key, std::move(Quoted));
}
