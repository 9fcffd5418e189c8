//===- perfbench/src/Spans.h - The benchmark's own span recorder ---------===//
///
/// \file
/// Spans the benchmark records around its calls into the program's public
/// functions during a traced run. They live in the benchmark's memory and
/// are written once, at exit, as Chrome trace-event JSON. The program's
/// own tracer (obs::installTracer) is deliberately not used: switching it
/// on would also switch on every span inside the program.
///
/// A span's self time is its duration minus the part its child spans
/// cover. A *duplicate* span re-runs work that happened inside an outer
/// call (graph building inside codegen::simdize, say) on the same input,
/// so that the inner layer gets a time of its own; it is reported beside
/// the outer call, never subtracted from it, and its time is excluded
/// from the traced wall time that coverage and overhead are computed on.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_SPANS_H
#define PERFBENCH_SPANS_H

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double secondsSince(Clock::time_point T0) {
  return std::chrono::duration<double>(Clock::now() - T0).count();
}

class SpanLog {
public:
  struct Span {
    const char *Name = "";
    const char *Note = ""; ///< Static annotation (a cache layer, say).
    int64_t StartNs = 0;   ///< Relative to the log's origin.
    int64_t EndNs = 0;
    int64_t Parent = -1; ///< Index of the enclosing span on the thread.
    unsigned Tid = 0;
    uint64_t Id = 0; ///< The seed, request or cell the span belongs to.
    bool Dup = false;
  };

  /// RAII scope: records one span when \p Log is non-null, does nothing
  /// otherwise, so one code path serves the traced and untraced runs.
  class Scope {
  public:
    Scope(SpanLog *Log, const char *Name, uint64_t Id = 0, bool Dup = false);
    ~Scope();
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

    void note(const char *Note);

  private:
    SpanLog *Log;
    int64_t Index = -1;
  };

  SpanLog();

  /// Drops every span and restarts the wall clock: call right before the
  /// traced work, after any untraced preparation.
  void start();
  /// Marks the end of the traced work.
  void finish();

  /// Traced wall time minus dupSeconds().
  double wallSeconds() const;
  /// Time inside top-level duplicate spans that no other top-level span
  /// overlaps (a duplicate on one thread can overlap real work on another).
  double dupSeconds() const;
  /// Share of wallSeconds() covered by top-level, non-duplicate spans
  /// (the union over threads).
  double coverage() const;
  /// Self time per span name, in seconds, duplicates included.
  std::map<std::string, double> selfSeconds() const;
  /// The spans themselves (valid after finish()).
  const std::vector<Span> &spans() const { return Spans; }

  bool writeChromeTrace(const std::string &Path) const;

private:
  int64_t nowNs() const;

  Clock::time_point Origin;
  int64_t EndNs = 0;
  std::mutex Mu; ///< Guards Spans; kernels setup records from threads.
  std::vector<Span> Spans;
};

} // namespace perfbench

#endif // PERFBENCH_SPANS_H
