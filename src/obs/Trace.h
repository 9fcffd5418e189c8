//===- obs/Trace.h - Span-based pipeline tracing -------------------------===//
//
// Part of the simdize project (PLDI 2004 alignment-constrained simdization).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Phase-level tracing of the simdization pipeline. Every pipeline stage
/// (parse, stream-offset analysis, reorganization graph, shift placement,
/// codegen, the optimization passes, the VVerifier, decode, execute,
/// check) opens a Span; when a Tracer is installed the span records a
/// Chrome trace-event "complete" event (name, category, start, duration,
/// thread), exportable with toChromeJson() and loadable in Perfetto or
/// chrome://tracing. See docs/OBSERVABILITY.md.
///
/// The subsystem is near-zero-overhead when disabled: installTracer(nullptr)
/// is the default state, and a Span on the disabled path costs one relaxed
/// atomic load and a branch — no clock reads, no allocation, no locking.
/// This is measured by the BM_PipelineTraced{Off,On} pair in bench_speed.
///
/// Tracers are thread-safe: spans from concurrent fuzz workers record
/// under a mutex and carry a small per-tracer thread id, so one trace can
/// absorb a whole --jobs=N sweep.
///
/// Two installation scopes coexist:
///
///  - installTracer(): one process-global tracer, what the CLI tools use
///    for whole-run traces;
///  - TraceContext: an RAII thread-local override, what the compile
///    server uses to give every concurrent request its own span tree.
///    A span binds to currentTracer() — the thread's context if one is
///    active, the global tracer otherwise — so the same instrumented
///    pipeline code serves both scopes unchanged. Contexts do not
///    propagate to spawned threads; a worker that should record into a
///    request's tracer re-installs it with its own TraceContext.
///
/// Each Tracer carries a trace id (0 when unset) rendered as the Chrome
/// "pid" field, so per-request traces group as separate process rows in
/// the viewer.
///
//===----------------------------------------------------------------------===//

#ifndef SIMDIZE_OBS_TRACE_H
#define SIMDIZE_OBS_TRACE_H

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

namespace simdize {
namespace obs {

/// One completed span, in Chrome trace-event "X" form.
struct TraceEvent {
  const char *Name = "";  ///< Phase name; string literals only.
  const char *Cat = "";   ///< Category ("pipeline", "sim", "opt", ...).
  int64_t StartUs = 0;    ///< Microseconds since the tracer's epoch.
  int64_t DurUs = 0;      ///< Span duration in microseconds.
  uint32_t Tid = 0;       ///< Small per-tracer thread id.
  uint64_t Seq = 0;       ///< Open order within the tracer.
  /// Optional (key, pre-rendered JSON value) arguments; values must be
  /// valid JSON fragments (use json::Writer or plain number strings).
  std::vector<std::pair<const char *, std::string>> Args;
};

/// Collects spans and renders them as Chrome trace-event JSON plus a
/// human-readable per-phase summary.
class Tracer {
public:
  Tracer() : Epoch(std::chrono::steady_clock::now()) {}

  /// Microseconds since this tracer was created.
  int64_t nowUs() const {
    return std::chrono::duration_cast<std::chrono::microseconds>(
               std::chrono::steady_clock::now() - Epoch)
        .count();
  }

  /// Records one completed span. Thread-safe.
  void record(TraceEvent E);

  /// Small dense id for the calling thread, allocated on first use.
  uint32_t tidOf(std::thread::id Id);

  /// The next span's place in open order. Thread-safe.
  uint64_t openSeq() {
    return NextSeq.fetch_add(1, std::memory_order_relaxed);
  }

  size_t eventCount() const;

  /// Drops every recorded event (the epoch is kept).
  void clear();

  /// The trace/request id this tracer's events belong to; rendered as the
  /// Chrome "pid" (0 means unset and renders as pid 1).
  void setTraceId(uint64_t Id) { TraceId = Id; }
  uint64_t traceId() const { return TraceId; }

  /// The full trace as a Chrome trace-event JSON document:
  /// {"traceEvents":[{"name":...,"ph":"X","ts":...,"dur":...,...},...]}.
  std::string toChromeJson() const;

  /// The sorted events alone, as a comma-joined sequence of JSON objects
  /// (no enclosing brackets) — the splice a streaming trace file appends
  /// per completed request. Empty string when no events were recorded.
  std::string chromeEventsFragment() const;

  /// Human-readable per-phase aggregation: one line per span name with
  /// call count, total and mean duration, sorted by total descending.
  std::string summary() const;

private:
  std::chrono::steady_clock::time_point Epoch;
  uint64_t TraceId = 0;
  std::atomic<uint64_t> NextSeq{0};
  mutable std::mutex Mu;
  std::vector<TraceEvent> Events;
  std::vector<std::pair<std::thread::id, uint32_t>> Tids;
};

/// \name Global tracer installation
/// The pipeline libraries reach the tracer through one global atomic
/// pointer, so enabling tracing requires no API plumbing through every
/// layer. Install before the traced work, uninstall (nullptr) before the
/// tracer is destroyed. Not owned.
/// @{
void installTracer(Tracer *T);
Tracer *activeTracer();
/// @}

namespace detail {
/// The thread's context override; nullptr means "fall back to the global
/// tracer". Managed exclusively by TraceContext. constinit tells every
/// includer that there is no dynamic initializer, so reads are direct
/// instead of going through the thread-local init wrapper, which
/// optimized UBSan builds report as a null-pointer load.
extern constinit thread_local Tracer *ThreadTracer;
} // namespace detail

/// The tracer spans bind to on this thread: the innermost active
/// TraceContext's tracer, or the global one when no context is active.
inline Tracer *currentTracer() {
  Tracer *T = detail::ThreadTracer;
  return T ? T : activeTracer();
}

/// RAII thread-local tracer override: while alive, every Span opened on
/// this thread records into \p T instead of the global tracer. Contexts
/// nest (destruction restores the previous override) and are how the
/// compile server attaches each request's span tree to its own Tracer
/// while requests run concurrently. Not owned; \p T must outlive the
/// context. Thread-locals do not propagate: a worker thread serving part
/// of the request re-installs the tracer with its own TraceContext.
class TraceContext {
public:
  explicit TraceContext(Tracer *T) : Saved(detail::ThreadTracer) {
    detail::ThreadTracer = T;
  }

  TraceContext(const TraceContext &) = delete;
  TraceContext &operator=(const TraceContext &) = delete;

  ~TraceContext() { detail::ThreadTracer = Saved; }

private:
  Tracer *Saved;
};

/// RAII span: opens at construction, records at destruction — when a
/// tracer is current on this thread; otherwise every member is a no-op.
class Span {
public:
  explicit Span(const char *Name, const char *Cat = "pipeline")
      : T(currentTracer()), Name(Name), Cat(Cat) {
    if (T) {
      StartUs = T->nowUs();
      Seq = T->openSeq();
    }
  }

  Span(const Span &) = delete;
  Span &operator=(const Span &) = delete;

  ~Span() {
    if (!T)
      return;
    TraceEvent E;
    E.Name = Name;
    E.Cat = Cat;
    E.StartUs = StartUs;
    E.DurUs = T->nowUs() - StartUs;
    E.Tid = T->tidOf(std::this_thread::get_id());
    E.Seq = Seq;
    E.Args = std::move(Args);
    T->record(std::move(E));
  }

  /// Whether a tracer is installed — guard for argument computation that
  /// is not free.
  bool active() const { return T != nullptr; }

  /// Attaches an integer argument (no-op when disabled).
  void arg(const char *Key, int64_t V);
  /// Attaches a string argument (no-op when disabled).
  void argStr(const char *Key, const std::string &V);

private:
  Tracer *T;
  const char *Name;
  const char *Cat;
  int64_t StartUs = 0;
  uint64_t Seq = 0;
  std::vector<std::pair<const char *, std::string>> Args;
};

} // namespace obs
} // namespace simdize

#endif // SIMDIZE_OBS_TRACE_H
