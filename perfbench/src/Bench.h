//===- perfbench/src/Bench.h - Shared workload declarations --------------===//
///
/// \file
/// What every workload receives and returns. A workload runs in one of
/// three modes:
///
///   - Setup:   only the work before the timed phase, timed as setup_s.
///   - Measure: set-up, then the timed phase with tracing off; yields the
///              end-to-end metrics.
///   - Replay:  a fixed amount of the workload's work, deterministic in the
///              seed, run either untraced (the wall-time and count baseline)
///              or traced (the per-layer metrics). The two replays run in
///              separate processes on the same seed, so their counts must
///              agree exactly.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_BENCH_H
#define PERFBENCH_BENCH_H

#include "Spans.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

enum class Mode { Setup, Measure, Replay };

struct Options {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  Mode RunMode = Mode::Measure;
  /// Scratch directory inside the checkout (native cache, trace file).
  std::string OutDir;
};

struct Metric {
  std::string Name;
  std::string Unit;
  double Value = 0;
};

struct Report {
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  std::vector<std::string> Errors; ///< First failures, for the log.
  double SetupS = 0;
  double WallS = 0; ///< Replay: wall time of the replayed work.
  /// Measure: the end-to-end metrics every workload defines (ops_per_s,
  /// p50_us) and the workload's own (seeds_per_s, socket_rps, ...).
  /// Traced replay: per-layer metrics.
  std::vector<Metric> Metrics;
  /// Counts that must repeat exactly between runs on the same seed.
  std::map<std::string, double> Counts;
  std::vector<std::string> Lines; ///< Human-readable report lines.

  void fail(const std::string &Message) {
    ++Failed;
    if (Errors.size() < 8)
      Errors.push_back(Message);
  }
  void metric(const std::string &Name, const std::string &Unit, double V) {
    Metrics.push_back({Name, Unit, V});
  }
};

Report runSweep(const Options &O, SpanLog *Log);
Report runServe(const Options &O, SpanLog *Log);
Report runKernels(const Options &O, SpanLog *Log);

/// Benchmark-owned input randomness (splitmix64), independent of the
/// program's own RNG so a change there cannot change the inputs.
class Rand {
public:
  explicit Rand(uint64_t Seed) : State(Seed) {}
  uint64_t next() {
    uint64_t Z = (State += 0x9e3779b97f4a7c15ULL);
    Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebULL;
    return Z ^ (Z >> 31);
  }
  /// Uniform in [Lo, Hi].
  int64_t range(int64_t Lo, int64_t Hi) {
    uint64_t Span = static_cast<uint64_t>(Hi - Lo) + 1;
    return Lo + static_cast<int64_t>(next() % Span);
  }
  double real() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }
  bool chance(double P) { return real() < P; }

private:
  uint64_t State;
};

/// Linear-interpolated quantile, \p Q in [0, 1]; 0 for an empty sample.
inline double quantile(std::vector<double> V, double Q) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  double Pos = Q * static_cast<double>(V.size() - 1);
  size_t Lo = static_cast<size_t>(Pos);
  size_t Hi = std::min(Lo + 1, V.size() - 1);
  return V[Lo] + (V[Hi] - V[Lo]) * (Pos - static_cast<double>(Lo));
}

inline double median(std::vector<double> V) {
  return quantile(std::move(V), 0.5);
}

/// Geometric mean of positive values; 0 for an empty sample.
inline double geomean(const std::vector<double> &V) {
  if (V.empty())
    return 0;
  double LogSum = 0;
  for (double X : V)
    LogSum += std::log(X);
  return std::exp(LogSum / static_cast<double>(V.size()));
}

} // namespace perfbench

#endif // PERFBENCH_BENCH_H
