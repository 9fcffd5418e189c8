//===- server/Service.h - Request dispatch over the pipeline -------------===//
//
// Part of the simdize project (PLDI 2004 alignment-constrained simdization).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The transport-independent core of the compile server: one payload in,
/// one response out. handle() parses, validates, consults the
/// content-addressed CompileCache, runs pipeline::runPipeline on misses,
/// and renders deterministic JSON — responses depend only on the request
/// (compilation, verification, and explanation are all deterministic),
/// never on cache state, timing, or scheduling, which is what makes
/// parallel serving byte-identical to serial.
///
/// Every failure path is isolated per request: malformed payloads, loops
/// that do not parse, pipeline rejections, poisoned cache entries, and
/// exceptions escaping a worker all become structured error records; no
/// request can take the service down. Batch requests shard their
/// sub-requests across BatchJobs threads from an atomic cursor and merge
/// responses in index order — the simdize-fuzz --jobs discipline.
///
/// Telemetry is strictly a side channel — none of it feeds back into
/// response bytes:
///
///  - per-request tracing: when a trace sink is configured each request
///    gets its own obs::Tracer (trace id = request sequence number),
///    installed as the thread's TraceContext for the duration of
///    dispatch, so the pipeline's spans build one well-nested tree per
///    request even under concurrent serving; completed trees stream to
///    the Chrome-trace file as they finish;
///  - flight recorder: a bounded ring of request summaries (payload
///    hash, kind, which cache layer answered, duration, outcome, policy,
///    predicted shifts), dumped to JSON automatically when a worker
///    throws or a poisoned entry is detected, and on demand via the
///    `dump` request kind;
///  - metrics: hit rates, compile latency, and per-request latency flow
///    into the embedded obs::Registry ("server.*" namespace, with
///    per-cache-layer attribution); `stats` serializes the registry and
///    prometheusText() renders it in exposition format, plus a bounded
///    slow-request log gated on Opts.SlowMs.
///
//===----------------------------------------------------------------------===//

#ifndef SIMDIZE_SERVER_SERVICE_H
#define SIMDIZE_SERVER_SERVICE_H

#include "obs/Metrics.h"
#include "obs/Trace.h"
#include "obs/TraceSink.h"
#include "server/Cache.h"
#include "server/FlightRecorder.h"
#include "server/Protocol.h"
#include "sim/Checker.h"

#include <atomic>
#include <chrono>
#include <deque>
#include <functional>
#include <mutex>
#include <string>
#include <unordered_map>

namespace simdize {
namespace server {

struct ServiceOptions {
  /// Compile-cache capacity (entries); 0 means unbounded.
  size_t MaxCacheEntries = 1024;
  /// Reference-image (scalar oracle) cache capacity; 0 means unbounded.
  size_t MaxRefImages = 256;
  /// Worker threads a batch request shards its sub-requests across.
  unsigned BatchJobs = 1;
  /// When set, completed request traces stream here as Chrome trace-event
  /// JSON (one pid row per request).
  std::string TraceFile;
  /// Flight-recorder ring capacity (requests).
  size_t FlightCapacity = 256;
  /// When set, the flight recorder dumps here automatically on a worker
  /// fault or poisoned-entry detection (and at simdized shutdown).
  std::string FlightDumpFile;
  /// Requests at least this slow (milliseconds) are counted and kept in
  /// the bounded slow-request log; negative disables the log.
  double SlowMs = -1.0;
};

class Service {
public:
  explicit Service(const ServiceOptions &Opts = {})
      : Opts(Opts), Cache(Opts.MaxCacheEntries), RefImages(Opts.MaxRefImages),
        Flight(Opts.FlightCapacity),
        Start(std::chrono::steady_clock::now()) {
    if (!Opts.TraceFile.empty())
      TraceOut.open(Opts.TraceFile);
  }

  /// Handles one frame payload end to end. Never throws: every failure,
  /// including an exception escaping the pipeline, returns a structured
  /// error record. Safe to call concurrently.
  std::string handle(const std::string &Payload);

  obs::Registry &registry() { return Reg; }
  CompileCache &cache() { return Cache; }
  sim::ReferenceImageCache &refImages() { return RefImages; }
  FlightRecorder &flightRecorder() { return Flight; }
  const ServiceOptions &options() const { return Opts; }

  /// Seconds since this service was constructed.
  double uptimeSeconds() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         Start)
        .count();
  }

  /// The registry plus per-cache-layer attribution, build info, and
  /// uptime in Prometheus text exposition format.
  std::string prometheusText() const;

  /// Dumps the flight recorder to Opts.FlightDumpFile if one is set.
  void dumpFlightRecorder();

  /// Test-only fault injection: invoked with every validated request
  /// before dispatch (batch sub-requests included); anything it throws
  /// must surface as an internal_error record for that request alone.
  std::function<void(const Request &)> FaultHook;

  /// Test-only trace sink: invoked with each request's completed tracer
  /// (in addition to the trace file, if any). Set before serving starts.
  std::function<void(const obs::Tracer &)> TraceHook;

private:
  /// What obtain() learned about how a request resolved; feeds the flight
  /// recorder and per-layer counters, never the response.
  struct RequestTelemetry {
    CacheLayer Layer = CacheLayer::None;
    std::string Policy;
    int64_t PredictedShifts = -1;
  };

  /// One slow-request log entry.
  struct SlowEntry {
    uint64_t TraceId = 0;
    std::string Kind;
    double DurationMs = 0.0;
    std::string Outcome;
  };

  /// Full per-request dispatch; never throws. When the request resolved
  /// through a live cache entry, \p MemoKey (if given) receives its
  /// content key — the validity anchor for the rendered-response memo.
  std::string dispatch(const Request &R, bool AllowBatch,
                       std::string *MemoKey = nullptr,
                       RequestTelemetry *Tel = nullptr);

  /// Parse + cache-or-compile; the shared front half of compile / check /
  /// explain. False fills \p Err.
  bool obtain(const Request &R, std::string &Key,
              std::shared_ptr<CompileCache::Entry> &E, ErrorInfo &Err,
              RequestTelemetry *Tel);

  std::string doCompile(const Request &R, std::string *MemoKey,
                        RequestTelemetry *Tel);
  std::string doCheck(const Request &R, std::string *MemoKey,
                      RequestTelemetry *Tel);
  std::string doExplain(const Request &R, std::string *MemoKey,
                        RequestTelemetry *Tel);
  std::string doStats(const Request &R);
  std::string doBatch(const Request &R);
  std::string doDump(const Request &R);

  /// Post-dispatch bookkeeping shared by both handle() paths: flight
  /// record, slow log, trace flush, fault-triggered auto-dump.
  void finishRequest(const char *Kind, uint64_t PayloadHash,
                     uint64_t TraceId, double DurationMs,
                     const std::string &Response,
                     const RequestTelemetry &Tel, const obs::Tracer *Tr);

  /// The last content-addressing layer: rendered responses memoized by
  /// exact payload bytes for the pure request kinds (compile / check /
  /// explain — their responses are deterministic functions of the
  /// payload; stats and batch are never memoized). Every hit is
  /// re-validated against the live compile-cache entry under its content
  /// key, so eviction and poisoning invalidate memoized bytes for free.
  struct MemoEntry {
    RequestKind Kind = RequestKind::Stats;
    std::string Key; ///< Compile-cache key anchoring validity.
    std::string Response;
  };

  ServiceOptions Opts;
  CompileCache Cache;
  sim::ReferenceImageCache RefImages;
  obs::Registry Reg;
  FlightRecorder Flight;
  obs::ChromeTraceWriter TraceOut;
  std::chrono::steady_clock::time_point Start;
  std::atomic<uint64_t> NextTraceId{1};
  /// Set on the paths that warrant an automatic flight dump (worker
  /// fault, poisoned entry); checked-and-cleared once per request.
  std::atomic<bool> FaultPending{false};
  std::mutex SlowMu;
  std::deque<SlowEntry> SlowLog; ///< Bounded at SlowLogCap, newest last.
  static constexpr size_t SlowLogCap = 32;
  std::mutex MemoMu;
  std::unordered_map<std::string, MemoEntry> ResponseMemo; ///< By payload.
};

} // namespace server
} // namespace simdize

#endif // SIMDIZE_SERVER_SERVICE_H
