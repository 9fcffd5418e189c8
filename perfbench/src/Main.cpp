//===- perfbench/src/Main.cpp - The benchmark binary ----------------------===//
///
/// \file
/// Runs one workload in one mode and prints a human-readable report
/// followed, on its last line, by one JSON object that perfbench/run.py
/// reads:
///
///   perfbench --workload sweep|serve|kernels --seed N --seconds S
///             --mode setup|measure|replay [--trace] --out-dir DIR
///
/// A traced replay also writes DIR/trace-<workload>-<seed>.json.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "support/Format.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <sys/resource.h>

using namespace perfbench;
using simdize::strf;

namespace {

/// Layers whose time the traced run reports as "<name>.self_s": the span
/// names the workloads record.
const char *const SelfTimeLayers[] = {
    "synth.synthesize",  "parser.parse",       "reorg.build_graph",
    "policies.place",    "policies.predict",   "codegen.simdize",
    "opt.cse",           "opt.pc",             "opt.unroll",
    "opt.dce",           "vir.verify",         "oracle.shift_counts",
    "oracle.never_load_twice", "oracle.opd_bound", "sim.reference_image",
    "sim.decode",        "sim.execute",        "sim.compare",
    "native.emit",       "native.compile",     "baseline.emit",
    "baseline.compile",  "server.frame",       "server.parse_request",
    "server.handle"};

/// Per-layer metrics a workload computes itself; a layer the workload
/// does not exercise reads 0.
const Metric WorkloadLayerMetrics[] = {
    {"codegen.shifts_placed", "count"},
    {"opt.cse.removed", "count"},
    {"opt.pc.replaced", "count"},
    {"opt.unroll.removed", "count"},
    {"opt.dce.removed", "count"},
    {"sim.execute.ns_per_elem", "ns/elem"},
    {"sim.execute.opd", "ops/datum"},
    {"sim.ref_images.hit_ratio", "ratio"},
    {"native.compile.compiles", "count"},
    {"native.compile.disk_hits", "count"},
    {"native.compile.memory_hits", "count"},
    {"native.stage.ns_per_elem", "ns/elem"},
    {"native.run.ns_per_elem_v16", "ns/elem"},
    {"native.run.ns_per_elem_v32", "ns/elem"},
    {"native.run.ns_per_elem_v64", "ns/elem"},
    {"native.speedup_vs_autovec", "x"},
    {"baseline.novec.ns_per_elem_v16", "ns/elem"},
    {"baseline.novec.ns_per_elem_v32", "ns/elem"},
    {"baseline.novec.ns_per_elem_v64", "ns/elem"},
    {"baseline.autovec.ns_per_elem_v16", "ns/elem"},
    {"baseline.autovec.ns_per_elem_v32", "ns/elem"},
    {"baseline.autovec.ns_per_elem_v64", "ns/elem"},
    {"server.handle.memo.p50_us", "us"},
    {"server.handle.alias.p50_us", "us"},
    {"server.handle.live.p50_us", "us"},
    {"server.handle.miss.p50_us", "us"},
    {"server.cache.memo_share", "ratio"},
    {"server.cache.alias_share", "ratio"},
    {"server.cache.live_share", "ratio"},
    {"server.cache.miss_share", "ratio"},
    {"server.cache.evictions", "count"},
    {"server.verdict.hit_ratio", "ratio"},
};

int usage(const char *Argv0) {
  std::fprintf(stderr,
               "usage: %s --workload sweep|serve|kernels --seed N "
               "--seconds S --mode setup|measure|replay [--trace] "
               "--out-dir DIR\n",
               Argv0);
  return 2;
}

bool parseArgs(int Argc, char **Argv, Options &O, bool &Trace) {
  for (int K = 1; K < Argc; ++K) {
    std::string Arg = Argv[K];
    if (Arg == "--trace") {
      Trace = true;
      continue;
    }
    if (K + 1 >= Argc)
      return false;
    std::string Val = Argv[++K];
    char *End = nullptr;
    if (Arg == "--workload") {
      O.Workload = Val;
    } else if (Arg == "--seed") {
      O.Seed = std::strtoull(Val.c_str(), &End, 10);
      if (*End)
        return false;
    } else if (Arg == "--seconds") {
      O.Seconds = std::strtod(Val.c_str(), &End);
      if (*End || !(O.Seconds > 0))
        return false;
    } else if (Arg == "--mode") {
      if (Val == "setup")
        O.RunMode = Mode::Setup;
      else if (Val == "measure")
        O.RunMode = Mode::Measure;
      else if (Val == "replay")
        O.RunMode = Mode::Replay;
      else
        return false;
    } else if (Arg == "--out-dir") {
      O.OutDir = Val;
    } else {
      return false;
    }
  }
  return !O.Workload.empty() && !O.OutDir.empty() &&
         (!Trace || O.RunMode == Mode::Replay);
}

std::string jsonString(const std::string &S) {
  std::string Out = "\"";
  for (char C : S) {
    if (C == '"' || C == '\\')
      Out += '\\';
    if (static_cast<unsigned char>(C) < 0x20)
      Out += strf("\\u%04x", C);
    else
      Out += C;
  }
  return Out + "\"";
}

/// The traced run's full per-layer metric set, in a fixed order.
std::vector<Metric> layerMetrics(const Report &R, const SpanLog &Log) {
  std::vector<Metric> Out;
  std::map<std::string, double> Self = Log.selfSeconds();
  for (const char *Name : SelfTimeLayers)
    Out.push_back({std::string(Name) + ".self_s", "s", Self[Name]});
  std::map<std::string, double> Given;
  for (const Metric &M : R.Metrics)
    Given[M.Name] = M.Value;
  for (const Metric &M : WorkloadLayerMetrics) {
    Out.push_back({M.Name, M.Unit, Given[M.Name]});
    Given.erase(M.Name);
  }
  for (const auto &[Name, V] : Given)
    std::fprintf(stderr, "warning: unlisted layer metric %s\n", Name.c_str());
  Out.push_back({"trace.coverage", "ratio", Log.coverage()});
  return Out;
}

} // namespace

int main(int Argc, char **Argv) {
  Options O;
  bool Trace = false;
  if (!parseArgs(Argc, Argv, O, Trace))
    return usage(Argv[0]);

  std::optional<SpanLog> Log;
  if (Trace)
    Log.emplace();
  Report R;
  if (O.Workload == "sweep")
    R = runSweep(O, Log ? &*Log : nullptr);
  else if (O.Workload == "serve")
    R = runServe(O, Log ? &*Log : nullptr);
  else if (O.Workload == "kernels")
    R = runKernels(O, Log ? &*Log : nullptr);
  else
    return usage(Argv[0]);

  std::string TraceFile;
  if (Log) {
    R.WallS = Log->wallSeconds();
    R.Metrics = layerMetrics(R, *Log);
    TraceFile = strf("%s/trace-%s-%llu.json", O.OutDir.c_str(),
                     O.Workload.c_str(),
                     static_cast<unsigned long long>(O.Seed));
    if (!Log->writeChromeTrace(TraceFile))
      R.fail("cannot write " + TraceFile);
  }

  for (Metric &M : R.Metrics)
    if (!std::isfinite(M.Value)) {
      R.fail("metric " + M.Name + " was not measured");
      M.Value = 0;
    }

  rusage Usage{};
  getrusage(RUSAGE_SELF, &Usage);
  double PeakRssMb = static_cast<double>(Usage.ru_maxrss) / 1024.0;

  for (const std::string &L : R.Lines)
    std::printf("%s\n", L.c_str());
  for (const std::string &E : R.Errors)
    std::printf("FAILED: %s\n", E.c_str());

  std::string Json = strf("{\"correct\":%s,\"attempted\":%llu,\"failed\":%llu,"
                          "\"setup_s\":%.17g,\"wall_s\":%.17g,"
                          "\"peak_rss_mb\":%.17g,\"trace_file\":%s,",
                          R.Failed == 0 ? "true" : "false",
                          static_cast<unsigned long long>(R.Attempted),
                          static_cast<unsigned long long>(R.Failed), R.SetupS,
                          R.WallS, PeakRssMb, jsonString(TraceFile).c_str());
  Json += "\"metrics\":{";
  for (size_t K = 0; K < R.Metrics.size(); ++K)
    Json += strf("%s%s:{\"value\":%.17g,\"unit\":%s}", K ? "," : "",
                 jsonString(R.Metrics[K].Name).c_str(), R.Metrics[K].Value,
                 jsonString(R.Metrics[K].Unit).c_str());
  Json += "},\"counts\":{";
  size_t K = 0;
  for (const auto &[Name, V] : R.Counts)
    Json += strf("%s%s:%.17g", K++ ? "," : "", jsonString(Name).c_str(), V);
  Json += "}}";
  std::printf("%s\n", Json.c_str());
  return 0;
}
