//===- server/Service.cpp -------------------------------------------------===//
//
// Part of the simdize project (PLDI 2004 alignment-constrained simdization).
//
//===----------------------------------------------------------------------===//

#include "server/Service.h"

#include "codegen/Explain.h"
#include "ir/IRPrinter.h"
#include "obs/Json.h"
#include "obs/Prometheus.h"
#include "parser/LoopParser.h"
#include "policies/ShiftPolicy.h"
#include "server/BuildInfo.h"
#include "support/Format.h"
#include "support/Hash.h"
#include "vir/VPrinter.h"

#include <atomic>
#include <chrono>
#include <numeric>
#include <optional>
#include <thread>

using namespace simdize;
using namespace simdize::server;

namespace {

double msSince(std::chrono::steady_clock::time_point T0) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - T0)
      .count();
}

/// Opens the uniform response envelope:
/// {"id":N,"kind":K,"schema_version":V,"ok":true,...
obs::json::Writer &beginOk(obs::json::Writer &W, const Request &R) {
  return W.beginObject()
      .field("id", R.Id)
      .field("kind", requestKindName(R.Kind))
      .field("schema_version", ProtocolSchemaVersion)
      .field("ok", true);
}

/// Classifies a rendered response for the flight recorder: "ok", or the
/// structured error code. The envelope's kind is the first "kind" field
/// in the document (string values escape their quotes, so a program text
/// cannot spoof it); batch envelopes are always ok regardless of what
/// their sub-responses carry.
std::string outcomeOf(const std::string &Response) {
  size_t K = Response.find("\"kind\":\"");
  if (K == std::string::npos ||
      Response.compare(K + 8, 6, "error\"") != 0)
    return "ok";
  size_t C = Response.find("\"code\":\"");
  if (C == std::string::npos)
    return "error";
  C += 8;
  size_t End = Response.find('"', C);
  return Response.substr(C, End == std::string::npos ? std::string::npos
                                                     : End - C);
}

} // namespace

bool Service::obtain(const Request &R, std::string &Key,
                     std::shared_ptr<CompileCache::Entry> &E, ErrorInfo &Err,
                     RequestTelemetry *Tel) {
  // Telemetry is write-only here: which layer answered, and what the
  // compiled result predicts. Never read back into the response.
  auto NoteLayer = [&](CacheLayer L, const char *Counter) {
    Reg.count(Counter);
    if (Tel)
      Tel->Layer = L;
  };
  auto NoteResult = [&]() {
    if (!Tel || !E || !E->Result.ok())
      return;
    const codegen::SimdizeResult &S = E->Result.Simd;
    Tel->Policy = policies::policyName(E->Result.ResolvedPolicy);
    Tel->PredictedShifts = static_cast<int64_t>(std::accumulate(
        S.StmtSteadyShifts.begin(), S.StmtSteadyShifts.end(), 0u));
  };

  // Looks Key up: a hit answers, a poisoned entry becomes the structured
  // error (naming the key by its FNV-1a), and a miss returns nullopt.
  auto Lookup = [&](CacheLayer Layer,
                    const char *Counter) -> std::optional<bool> {
    switch (Cache.find(Key, E)) {
    case CompileCache::Outcome::Hit:
      Reg.count("server.cache.hits");
      NoteLayer(Layer, Counter);
      NoteResult();
      return true;
    case CompileCache::Outcome::Poisoned:
      Reg.count("server.cache.poisoned");
      FaultPending.store(true);
      Err.Code = ErrorCode::PoisonedCache;
      Err.Message = strf("cache entry %016llx failed its integrity checksum; "
                         "evicted — retry the request",
                         static_cast<unsigned long long>(fnv1a(Key)));
      return false;
    case CompileCache::Outcome::Miss:
      break;
    }
    return std::nullopt;
  };

  // Fast path: a byte-identical resubmission resolves through the
  // raw-text memo without parsing or printing anything. keyOf over the
  // unparsed spelling is a valid memo key — distinct spellings get
  // distinct memo slots that converge on one canonical entry. An alias
  // that outlived its entry falls through to the slow path.
  std::string TextKey = CompileCache::keyOf(R.LoopText, R.Config);
  if (std::optional<std::string> Memo = Cache.findAlias(TextKey)) {
    Key = std::move(*Memo);
    if (std::optional<bool> Done =
            Lookup(CacheLayer::Alias, "server.cache.alias_hits"))
      return *Done;
  }

  parser::ParseResult P =
      parser::parseLoop(R.LoopText, R.Config.target().VectorLen);
  if (!P.ok()) {
    Err.Code = ErrorCode::ParseError;
    Err.Message = P.Error;
    return false;
  }

  // Content addressing: the parser-dialect print keeps everything the
  // loop means and collapses whitespace/comment variants to one key.
  Key = CompileCache::keyOf(ir::printParseable(*P.Loop), R.Config);
  Cache.recordAlias(TextKey, Key);
  if (std::optional<bool> Done =
          Lookup(CacheLayer::Live, "server.cache.live_hits"))
    return *Done;
  Reg.count("server.cache.misses");
  NoteLayer(CacheLayer::Miss, "server.cache.miss_compiles");

  auto Loop = std::make_shared<const ir::Loop>(std::move(*P.Loop));
  auto Fresh = std::make_shared<CompileCache::Entry>();
  Fresh->SourceLoop = Loop;

  auto T0 = std::chrono::steady_clock::now();
  Fresh->Result = pipeline::runPipeline(*Loop, R.Config);
  Reg.observe("server.compile_ms", msSince(T0));

  if (Fresh->Result.ok())
    Fresh->ProgramText = vir::printProgram(*Fresh->Result.Simd.Program);
  Fresh->Checksum = CompileCache::checksumOf(*Fresh);

  // First writer wins under concurrent misses; compilation is
  // deterministic, so every caller responds from equivalent bytes either
  // way, but responding from the canonical entry keeps one live copy.
  E = Cache.insert(Key, std::move(Fresh));
  NoteResult();
  return true;
}

std::string Service::doCompile(const Request &R, std::string *MemoKey,
                               RequestTelemetry *Tel) {
  std::string Key;
  std::shared_ptr<CompileCache::Entry> E;
  ErrorInfo Err;
  if (!obtain(R, Key, E, Err, Tel))
    return errorResponse(R.Id, Err);
  if (MemoKey)
    *MemoKey = Key;
  if (!E->Result.ok())
    return errorResponse(
        R.Id, {ErrorCode::CompileError,
               "[" + E->Result.ConfigName + "] " + E->Result.error()});

  const codegen::SimdizeResult &S = E->Result.Simd;
  unsigned SteadyShifts =
      std::accumulate(S.StmtSteadyShifts.begin(), S.StmtSteadyShifts.end(), 0u);
  std::string Out;
  obs::json::Writer W(Out);
  beginOk(W, R)
      .field("config", E->Result.ConfigName)
      .field("policy", policies::policyName(E->Result.ResolvedPolicy))
      .field("width", R.Config.target().VectorLen)
      .field("reassociated", E->Result.Reassociated)
      .field("placed_shifts", S.ShiftCount)
      .field("steady_shifts", SteadyShifts)
      .field("program", E->ProgramText)
      .endObject();
  return Out;
}

std::string Service::doCheck(const Request &R, std::string *MemoKey,
                             RequestTelemetry *Tel) {
  std::string Key;
  std::shared_ptr<CompileCache::Entry> E;
  ErrorInfo Err;
  if (!obtain(R, Key, E, Err, Tel))
    return errorResponse(R.Id, Err);
  if (MemoKey)
    *MemoKey = Key;
  if (!E->Result.ok())
    return errorResponse(
        R.Id, {ErrorCode::CompileError,
               "[" + E->Result.ConfigName + "] " + E->Result.error()});

  CompileCache::Verdict V;
  if (Cache.findVerdict(Key, R.Seed, V)) {
    Reg.count("server.verdict.hits");
  } else {
    Reg.count("server.verdict.misses");
    auto T0 = std::chrono::steady_clock::now();
    // The scalar oracle comes from the shared reference-image cache, keyed
    // by the exact text of the loop the program computes (the rewritten
    // one when the request reassociated offsets).
    const ir::Loop &Checked = E->Result.compiledLoop(*E->SourceLoop);
    std::shared_ptr<const sim::ReferenceImage> Ref =
        RefImages.get(ir::printParseable(Checked), Checked,
                      E->Result.Simd.Program->getVectorLen(), R.Seed);
    sim::CheckResult C =
        pipeline::checkCompiled(*E->SourceLoop, E->Result, *Ref);
    V.Ok = C.Ok;
    V.Message = C.Message;
    Cache.recordVerdict(Key, R.Seed, V);
    Reg.observe("server.check_ms", msSince(T0));
  }

  std::string Out;
  obs::json::Writer W(Out);
  beginOk(W, R)
      .field("config", E->Result.ConfigName)
      .field("seed", R.Seed)
      .key("verdict")
      .beginObject()
      .field("ok", V.Ok)
      .field("message", V.Message)
      .endObject()
      .endObject();
  return Out;
}

std::string Service::doExplain(const Request &R, std::string *MemoKey,
                               RequestTelemetry *Tel) {
  std::string Key;
  std::shared_ptr<CompileCache::Entry> E;
  ErrorInfo Err;
  if (!obtain(R, Key, E, Err, Tel))
    return errorResponse(R.Id, Err);
  if (MemoKey)
    *MemoKey = Key;

  // Explanation is legitimate for rejected loops too — the log carries
  // the classified error — so no CompileError gate here.
  const ir::Loop &Run = E->Result.compiledLoop(*E->SourceLoop);
  codegen::SimdizeOptions Used = R.Config.Simd;
  Used.Policy = E->Result.ResolvedPolicy;
  obs::DecisionLog Log = codegen::explainSimdization(Run, Used, E->Result.Simd);
  if (E->Result.OptRan) {
    Log.OptRan = true;
    Log.OptRewrites = {
        {"cse", "removed", E->Result.Opt.CSERemoved},
        {"predictive-commoning", "replaced", E->Result.Opt.PCReplaced},
        {"unroll-copies", "removed", E->Result.Opt.CopiesRemoved},
        {"dce", "removed", E->Result.Opt.DCERemoved},
    };
  }

  std::string Out;
  obs::json::Writer W(Out);
  beginOk(W, R)
      .field("config", E->Result.ConfigName)
      .key("decisions")
      .raw(Log.toJson())
      .endObject();
  return Out;
}

std::string Service::doStats(const Request &R) {
  CompileCache::Stats CS = Cache.stats();
  sim::ReferenceImageCache::Stats RS = RefImages.stats();
  const BuildInfo &B = buildInfo();
  std::string Out;
  obs::json::Writer W(Out);
  beginOk(W, R)
      .key("cache")
      .beginObject()
      .field("entries", static_cast<uint64_t>(Cache.size()))
      .field("hits", CS.Hits)
      .field("misses", CS.Misses)
      .field("evictions", CS.Evictions)
      .field("poisoned", CS.Poisoned)
      .field("verdict_hits", CS.VerdictHits)
      .field("verdict_misses", CS.VerdictMisses)
      .endObject()
      .key("ref_images")
      .beginObject()
      .field("entries", static_cast<uint64_t>(RefImages.size()))
      .field("hits", RS.Hits)
      .field("misses", RS.Misses)
      .field("evictions", RS.Evictions)
      .endObject()
      .key("build")
      .beginObject()
      .field("git", B.GitDescribe)
      .field("compiler", B.Compiler)
      .field("isa", B.BestISA)
      .field("uptime_seconds", uptimeSeconds())
      .endObject()
      .key("flight")
      .beginObject()
      .field("capacity", static_cast<uint64_t>(Flight.capacity()))
      .field("recorded", Flight.recorded())
      .field("dropped", Flight.dropped())
      .endObject();
  W.key("slow").beginObject().field("threshold_ms", Opts.SlowMs).field(
      "count", Reg.counterValue("server.requests.slow"));
  W.key("recent").beginArray();
  {
    std::lock_guard<std::mutex> L(SlowMu);
    for (const SlowEntry &S : SlowLog)
      W.beginObject()
          .field("trace_id", S.TraceId)
          .field("kind", S.Kind)
          .field("duration_ms", S.DurationMs)
          .field("outcome", S.Outcome)
          .endObject();
  }
  W.endArray().endObject();
  W.key("metrics").raw(Reg.toJson()).endObject();
  return Out;
}

std::string Service::doDump(const Request &R) {
  // Rendered before this request's own record lands (finishRequest runs
  // after dispatch), so the dump never contains itself.
  std::string Out;
  obs::json::Writer W(Out);
  beginOk(W, R).key("flight").raw(Flight.toJson()).endObject();
  return Out;
}

std::string Service::doBatch(const Request &R) {
  // The simdize-fuzz --jobs discipline: workers pull sub-requests from an
  // atomic cursor, results land by index, and the merge walks them in
  // order — responses are byte-identical whatever BatchJobs is.
  std::vector<std::string> Sub(R.Batch.size());
  std::atomic<size_t> Cursor{0};
  // Thread-local trace contexts do not propagate; each worker re-installs
  // this request's tracer so sub-request spans land in the same tree.
  obs::Tracer *Tr = obs::currentTracer();
  auto Work = [&, Tr]() {
    obs::TraceContext Ctx(Tr);
    for (;;) {
      size_t I = Cursor.fetch_add(1);
      if (I >= R.Batch.size())
        return;
      Sub[I] = dispatch(R.Batch[I], /*AllowBatch=*/false);
    }
  };
  unsigned Jobs =
      static_cast<unsigned>(std::min<size_t>(std::max(1u, Opts.BatchJobs),
                                             std::max<size_t>(1, R.Batch.size())));
  if (Jobs <= 1) {
    Work();
  } else {
    std::vector<std::thread> Workers;
    Workers.reserve(Jobs);
    for (unsigned T = 0; T < Jobs; ++T)
      Workers.emplace_back(Work);
    for (std::thread &W : Workers)
      W.join();
  }

  std::string Out;
  obs::json::Writer W(Out);
  beginOk(W, R).key("responses").beginArray();
  for (const std::string &S : Sub)
    W.raw(S);
  W.endArray().endObject();
  return Out;
}

std::string Service::dispatch(const Request &R, bool AllowBatch,
                              std::string *MemoKey, RequestTelemetry *Tel) {
  auto T0 = std::chrono::steady_clock::now();
  Reg.count("server.requests");
  Reg.count(std::string("server.requests.") + requestKindName(R.Kind));
  std::string Out;
  {
    obs::Span S("request", "server");
    if (S.active()) {
      S.arg("id", static_cast<int64_t>(R.Id));
      S.argStr("kind", requestKindName(R.Kind));
    }
    try {
      if (FaultHook)
        FaultHook(R);
      switch (R.Kind) {
      case RequestKind::Compile:
        Out = doCompile(R, MemoKey, Tel);
        break;
      case RequestKind::Check:
        Out = doCheck(R, MemoKey, Tel);
        break;
      case RequestKind::Explain:
        Out = doExplain(R, MemoKey, Tel);
        break;
      case RequestKind::Stats:
        Out = doStats(R);
        break;
      case RequestKind::Batch:
        Out = AllowBatch
                  ? doBatch(R)
                  : errorResponse(R.Id, {ErrorCode::BadRequest,
                                         "batch requests cannot nest"});
        break;
      case RequestKind::Dump:
        Out = doDump(R);
        break;
      }
    } catch (const std::exception &Ex) {
      Reg.count("server.errors.internal");
      FaultPending.store(true);
      if (MemoKey)
        MemoKey->clear(); // Never memoize a response shaped by a fault.
      Out = errorResponse(
          R.Id, {ErrorCode::Internal,
                 std::string("exception escaped the worker: ") + Ex.what()});
    } catch (...) {
      Reg.count("server.errors.internal");
      FaultPending.store(true);
      if (MemoKey)
        MemoKey->clear();
      Out = errorResponse(R.Id, {ErrorCode::Internal,
                                 "non-standard exception escaped the worker"});
    }
  }
  Reg.observe("server.request_ms", msSince(T0));
  return Out;
}

void Service::finishRequest(const char *Kind, uint64_t PayloadHash,
                            uint64_t TraceId, double DurationMs,
                            const std::string &Response,
                            const RequestTelemetry &Tel,
                            const obs::Tracer *Tr) {
  std::string Outcome = outcomeOf(Response);

  FlightRecord FR;
  FR.TraceId = TraceId;
  FR.PayloadHash = PayloadHash;
  FR.Kind = Kind;
  FR.Layer = Tel.Layer;
  FR.DurationMs = DurationMs;
  FR.Outcome = Outcome;
  FR.Policy = Tel.Policy;
  FR.PredictedShifts = Tel.PredictedShifts;
  Flight.record(std::move(FR));

  if (Opts.SlowMs >= 0.0 && DurationMs >= Opts.SlowMs) {
    Reg.count("server.requests.slow");
    std::lock_guard<std::mutex> L(SlowMu);
    SlowLog.push_back({TraceId, Kind, DurationMs, Outcome});
    while (SlowLog.size() > SlowLogCap)
      SlowLog.pop_front();
  }

  if (Tr) {
    if (TraceHook)
      TraceHook(*Tr);
    TraceOut.append(*Tr);
  }

  // Incident auto-dump: a worker fault or poisoned entry anywhere in the
  // request (batch sub-requests set the flag from the nested dispatch)
  // snapshots the ring right after the offending record landed.
  bool Fault = FaultPending.exchange(false) || Outcome == "internal_error" ||
               Outcome == "poisoned_cache";
  if (Fault) {
    Reg.count("server.flight.auto_dumps");
    if (!Opts.FlightDumpFile.empty())
      Flight.dumpToFile(Opts.FlightDumpFile);
  }
}

void Service::dumpFlightRecorder() {
  if (!Opts.FlightDumpFile.empty())
    Flight.dumpToFile(Opts.FlightDumpFile);
}

std::string Service::prometheusText() const {
  std::string Out = obs::toPrometheusText(Reg);
  obs::PromWriter W(Out, "simdize_");

  // Per-layer cache attribution under one family, labeled by cache and
  // event, so a scrape can graph the full content-addressing funnel.
  CompileCache::Stats CS = Cache.stats();
  sim::ReferenceImageCache::Stats RS = RefImages.stats();
  W.type("cache_events_total", "counter");
  auto Event = [&](const char *CacheName, const char *EventName, double V) {
    W.sample("cache_events_total", V,
             {{"cache", CacheName}, {"event", EventName}});
  };
  Event("compile", "hit", static_cast<double>(CS.Hits));
  Event("compile", "miss", static_cast<double>(CS.Misses));
  Event("compile", "evict", static_cast<double>(CS.Evictions));
  Event("compile", "poison", static_cast<double>(CS.Poisoned));
  Event("verdict", "hit", static_cast<double>(CS.VerdictHits));
  Event("verdict", "miss", static_cast<double>(CS.VerdictMisses));
  Event("ref_image", "hit", static_cast<double>(RS.Hits));
  Event("ref_image", "miss", static_cast<double>(RS.Misses));
  Event("ref_image", "evict", static_cast<double>(RS.Evictions));
  W.type("cache_entries", "gauge");
  W.sample("cache_entries", static_cast<double>(Cache.size()),
           {{"cache", "compile"}});
  W.sample("cache_entries", static_cast<double>(RefImages.size()),
           {{"cache", "ref_image"}});

  W.type("flight_recorded_total", "counter");
  W.sample("flight_recorded_total", static_cast<double>(Flight.recorded()));
  W.type("flight_dropped_total", "counter");
  W.sample("flight_dropped_total", static_cast<double>(Flight.dropped()));

  const BuildInfo &B = buildInfo();
  W.type("build_info", "gauge");
  W.sample("build_info", 1.0,
           {{"git", B.GitDescribe},
            {"compiler", B.Compiler},
            {"isa", B.BestISA}});
  W.type("uptime_seconds", "gauge");
  W.sample("uptime_seconds", uptimeSeconds());
  return Out;
}

std::string Service::handle(const std::string &Payload) {
  auto T0 = std::chrono::steady_clock::now();
  uint64_t PayloadHash = fnv1a(Payload);

  // Per-request tracing: a tracer exists only when a sink wants it, and
  // installs as this thread's context so concurrent requests each grow
  // their own well-nested span tree. Purely a side channel — response
  // bytes are identical with tracing on or off.
  std::optional<obs::Tracer> Tr;
  std::optional<obs::TraceContext> Ctx;
  if (TraceOut.isOpen() || TraceHook) {
    Tr.emplace();
    Tr->setTraceId(NextTraceId.fetch_add(1));
    Ctx.emplace(&*Tr);
  }
  uint64_t TraceId = Tr ? Tr->traceId() : 0;
  const obs::Tracer *TrPtr = Tr ? &*Tr : nullptr;

  // Rendered-response fast path: exact payload bytes seen before, for a
  // pure kind, anchored to a compile-cache entry that is still live and
  // checksum-clean — skip parsing, dispatch, and rendering entirely. The
  // re-validation through Cache.find keeps poisoning and eviction
  // observable: a dead anchor falls through to the full path.
  {
    MemoEntry Hit;
    bool Found = false;
    {
      std::lock_guard<std::mutex> Lock(MemoMu);
      auto It = ResponseMemo.find(Payload);
      if (It != ResponseMemo.end()) {
        Hit = It->second;
        Found = true;
      }
    }
    if (Found && Cache.peek(Hit.Key) == CompileCache::Outcome::Hit) {
      Reg.count("server.requests");
      Reg.count(std::string("server.requests.") + requestKindName(Hit.Kind));
      Reg.count("server.cache.hits");
      Reg.count("server.cache.memo_hits");
      RequestTelemetry Tel;
      Tel.Layer = CacheLayer::ResponseMemo;
      finishRequest(requestKindName(Hit.Kind), PayloadHash, TraceId,
                    msSince(T0), Hit.Response, Tel, TrPtr);
      return Hit.Response;
    }
  }

  ErrorInfo Err;
  std::optional<Request> R = parseRequest(Payload, Err);
  if (!R) {
    Reg.count("server.requests");
    Reg.count("server.errors.rejected");
    // Malformed payloads carry no trustworthy id; the record uses 0.
    std::string Out = errorResponse(0, Err);
    finishRequest("error", PayloadHash, TraceId, msSince(T0), Out,
                  RequestTelemetry(), TrPtr);
    return Out;
  }

  std::string MemoKey;
  RequestTelemetry Tel;
  std::string Out = dispatch(*R, /*AllowBatch=*/true, &MemoKey, &Tel);
  // Check responses stay un-memoized: they are pure too, but routing
  // repeats through the verdict cache keeps that layer exercised and its
  // hit counters meaningful; the alias fast path already skips the parse.
  if (!MemoKey.empty() &&
      (R->Kind == RequestKind::Compile || R->Kind == RequestKind::Explain)) {
    std::lock_guard<std::mutex> Lock(MemoMu);
    // Rebuilt on demand, so the bound is a crude wholesale reset.
    if (ResponseMemo.size() >= 4096 + 4 * Opts.MaxCacheEntries)
      ResponseMemo.clear();
    ResponseMemo[Payload] = {R->Kind, std::move(MemoKey), Out};
  }
  finishRequest(requestKindName(R->Kind), PayloadHash, TraceId, msSince(T0),
                Out, Tel, TrPtr);
  return Out;
}
