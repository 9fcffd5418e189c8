#!/usr/bin/env python3
"""The repository benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload sweep|serve|kernels --seed N \
        --seconds S --trace 0|1

--workload all runs every workload, untraced and then traced, and prints
all of it.

Run from the root of a checkout. The first run builds the program and the
benchmark from source into .bench_build/; scratch files (the kernels
workload's native cache, traces, recorded counts) go to .bench_out/.

--trace 0 runs the workload's set-up three times (twice on its own, once
before the timed phase) and reports every end-to-end metric of
BENCHMARK.json, set-up time as the median of the three. --trace 1 replays
a fixed amount of the workload twice on the same seed, untraced and
traced, and reports every per-layer metric; the trace is written as
Chrome trace-event JSON and checked with simdize-tool --validate-json.

The last line of standard output is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
Any missing source, failed build, failed check or count that differs
between runs on one seed makes the run fail; a run that cannot measure
exits non-zero without printing a result.
"""

import argparse
import fcntl
import hashlib
import json
import os
import signal
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build")
OUT = os.path.join(ROOT, ".bench_out")
CHILD_TIMEOUT_S = 150
# The compilers the build and the kernels workload run write their
# temporaries here rather than outside the checkout.
ENV = dict(os.environ, TMPDIR=os.path.join(OUT, "tmp"))

# Module prefixes of the per-layer self times, for the layer-share table.
LAYERS = ["synth", "parser", "reorg", "policies", "codegen", "opt", "vir",
          "oracle", "sim", "native", "baseline", "server"]


def die(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build():
    """Configures once, then brings the build up to date."""
    for required in ("src/CMakeLists.txt", "tools/simdize-tool.cpp",
                     "perfbench/CMakeLists.txt"):
        if not os.path.isfile(os.path.join(ROOT, required)):
            die("missing %s: run from the root of a full checkout" % required)
    os.makedirs(ENV["TMPDIR"], exist_ok=True)
    log_path = os.path.join(OUT, "build.log")
    with open(os.path.join(OUT, "build.lock"), "w") as lock, \
            open(log_path, "w") as log:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
            steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"),
                          "-B", BUILD, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
        jobs = str(max(1, min(4, os.cpu_count() or 1)))
        steps.append(["cmake", "--build", BUILD, "-j", jobs])
        for step in steps:
            if subprocess.call(step, stdout=log, stderr=subprocess.STDOUT,
                               cwd=ROOT, env=ENV) != 0:
                log.flush()
                with open(log_path) as failed:
                    sys.stderr.write(failed.read()[-4000:])
                die("build failed: " + " ".join(step))
    return os.path.join(BUILD, "perfbench"), os.path.join(BUILD,
                                                          "simdize-tool")


def run_child(binary, args, lines):
    """Runs the benchmark binary; returns its result object."""
    # Relative, so the serve workload's socket path stays short however
    # deep the checkout is.
    cmd = [binary] + args + ["--out-dir", os.path.relpath(OUT, ROOT)]
    # Its own process group, so a timeout also stops the system compiler
    # the kernels workload runs.
    proc = subprocess.Popen(cmd, cwd=ROOT, env=ENV, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        stdout, stderr = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        die("timed out after %d s: %s" % (CHILD_TIMEOUT_S, " ".join(cmd)))
    out = stdout.strip().splitlines()
    if proc.returncode != 0 or not out:
        sys.stderr.write(stderr)
        die("exit %d: %s" % (proc.returncode, " ".join(cmd)))
    lines.extend(out[:-1])
    return json.loads(out[-1])


def compare_counts(results, label, problems):
    """Counts present in several runs on one seed must agree exactly."""
    seen = {}
    for res in results:
        for name, value in res["counts"].items():
            if name in seen and seen[name] != value:
                problems.append("%s: count %s differs between runs on one "
                                "seed: %r vs %r" % (label, name, seen[name],
                                                    value))
            seen.setdefault(name, value)
    return seen


def check_recorded_counts(binary, key, counts, problems):
    """Compares with the counts an earlier run of the same build on the
    same seed recorded."""
    with open(binary, "rb") as f:
        build_id = hashlib.sha256(f.read()).hexdigest()[:16]
    path = os.path.join(OUT, "counts", "%s-%s.json" % (key, build_id))
    if os.path.isfile(path):
        with open(path) as f:
            earlier = json.load(f)
        for name, value in counts.items():
            if name in earlier and earlier[name] != value:
                problems.append("count %s differs from an earlier run on the "
                                "same seed: %r vs %r" % (name, earlier[name],
                                                         value))
        return
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as f:
        json.dump(counts, f, sort_keys=True)


def measure(binary, args, bench, lines, problems):
    base = ["--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds)]
    # Set-up runs in fresh processes: the native tier's in-process module
    # cache would otherwise make every set-up after the first warm.
    runs = [run_child(binary, base + ["--mode", "setup"], lines)
            for _ in range(2)]
    main = run_child(binary, base + ["--mode", "measure"], lines)
    runs.append(main)
    counts = compare_counts(runs, "set-up", problems)
    check_recorded_counts(binary, "%s-%d-%g-measure" % (
        args.workload, args.seed, args.seconds), counts, problems)
    values = {name: m["value"] for name, m in main["metrics"].items()}
    units = {name: m["unit"] for name, m in main["metrics"].items()}
    values["setup_s"] = statistics.median(r["setup_s"] for r in runs)
    units["setup_s"] = "s"
    values["peak_rss_mb"] = main["peak_rss_mb"]
    units["peak_rss_mb"] = "MiB"
    lines.append("set-up: %s s (median %.4f s)" % (
        ", ".join("%.4f" % r["setup_s"] for r in runs), values["setup_s"]))
    lines.append("end-to-end metrics of this workload:")
    for name in sorted(values):
        lines.append("  %-26s %14.6g %s" % (name, values[name], units[name]))
    return runs, {m["name"]: values.get(m["name"]) for m in
                  bench["end_to_end"]}


def trace(binary, tool, args, bench, lines, problems):
    base = ["--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--mode", "replay"]
    plain = run_child(binary, base, lines)
    traced = run_child(binary, base + ["--trace"], lines)
    counts = compare_counts([plain, traced], "replay", problems)
    check_recorded_counts(binary, "%s-%d-%g-replay" % (
        args.workload, args.seed, args.seconds), counts, problems)
    trace_file = os.path.join(ROOT, traced["trace_file"])
    check = subprocess.run([tool, "--validate-json=" + trace_file],
                           stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                           text=True, cwd=ROOT)
    lines.append(check.stdout.strip())
    if check.returncode != 0:
        problems.append("trace does not validate: " + trace_file)

    values = {name: m["value"] for name, m in traced["metrics"].items()}
    values["reorg.graph_builds"] = plain["counts"]["reorg.graph_builds"]
    values["trace.overhead"] = traced["wall_s"] / plain["wall_s"]
    lines.append("traced replay: %.3f s against %.3f s untraced "
                 "(overhead %.3f, coverage %.3f)" % (
                     traced["wall_s"], plain["wall_s"],
                     values["trace.overhead"], values["trace.coverage"]))
    why = {w["name"]: w["why"] for w in bench["workloads"]}
    lines.append("expected: " + why.get(args.workload, "?"))
    shares = []
    for layer in LAYERS:
        self_s = sum(v for k, v in values.items()
                     if k.startswith(layer + ".") and k.endswith(".self_s"))
        shares.append((self_s / traced["wall_s"], layer))
    lines.append("measured layer shares of traced wall time (duplicate "
                 "spans included): " + ", ".join(
                     "%s %.1f%%" % (layer, 100 * share)
                     for share, layer in sorted(shares, reverse=True)
                     if share >= 0.001))
    return [plain, traced], {m["name"]: values.get(m["name"]) for m in
                             bench["per_layer"]}


def run_workload(binary, tool, bench, args, workload, traced):
    """One workload in one mode: its result object and report lines."""
    run_args = argparse.Namespace(workload=workload, seed=args.seed,
                                  seconds=args.seconds)
    lines, problems = [], []
    if traced:
        runs, metrics = trace(binary, tool, run_args, bench, lines, problems)
    else:
        runs, metrics = measure(binary, run_args, bench, lines, problems)
    units = {m["name"]: m["unit"] for m in
             bench["end_to_end"] + bench["per_layer"]}
    missing = [name for name, value in metrics.items() if value is None]
    if missing:
        problems.append("metrics not measured: " + ", ".join(missing))
    if traced:
        lines.append("per-layer metrics:")
        for name, value in metrics.items():
            lines.append("  %-36s %14.6g %s" % (name, value or 0, units[name]))
    lines.extend("FAILED: " + problem for problem in problems)
    return {
        "correct": all(r["correct"] for r in runs) and not problems,
        "attempted": max(1, sum(r["attempted"] for r in runs)),
        "failed": sum(r["failed"] for r in runs) + len(problems),
        "metrics": {name: {"value": value if value is not None else 0,
                           "unit": units[name]}
                    for name, value in metrics.items()},
    }, lines


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    names = [w["name"] for w in bench["workloads"]]
    if args.workload != "all" and args.workload not in names:
        die("unknown workload " + args.workload)
    binary, tool = build()

    if args.workload != "all":
        result, lines = run_workload(binary, tool, bench, args, args.workload,
                                     args.trace)
        for line in lines:
            print(line)
        print(json.dumps(result))
        return

    # Every workload's end-to-end metrics, then every per-layer metric.
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for traced in (0, 1):
        for name in names:
            result, lines = run_workload(binary, tool, bench, args, name,
                                         traced)
            print("== %s, %s" % (name, "per-layer (traced replay)" if traced
                                 else "end-to-end"))
            for line in lines:
                print(line)
            total["correct"] = total["correct"] and result["correct"]
            total["attempted"] += result["attempted"]
            total["failed"] += result["failed"]
            for metric, value in result["metrics"].items():
                total["metrics"][name + "/" + metric] = value
    print(json.dumps(total))


if __name__ == "__main__":
    main()
