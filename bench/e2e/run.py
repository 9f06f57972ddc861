#!/usr/bin/env python3
"""End-to-end benchmark entry point.

    python3 bench/e2e/run.py --workload <service_mix|wafer_sim|paper_sweep> \
        --seed N --seconds S --trace <0|1>

Run from the root of a checkout. Builds the benchmark program wsc_e2e
(bench/e2e, its own CMake package compiling ../../src) into
.bench_build/e2e on first use, runs one workload, and prints one JSON object as the last line of
standard output: {"correct", "attempted", "failed", "metrics"}. With
--trace 0 the metrics are BENCHMARK.json's end_to_end set, with
--trace 1 its per_layer set (a metric metrics.json lists as not
reported by the workload reads 0; any other missing metric is an
error). Everything wsc_e2e measured, the host it ran on and the trace go
to .bench_build/e2e-runs/.
"""

import argparse
import fcntl
import fnmatch
import json
import os
import platform
import resource
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
BUILD = os.path.join(ROOT, ".bench_build", "e2e")
RUNS = os.path.join(ROOT, ".bench_build", "e2e-runs")
RUN_TIMEOUT_S = 170


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build(source_root=ROOT, build_dir=BUILD):
    """Configure and build wsc_e2e; build output goes to stderr."""
    os.makedirs(build_dir, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    with open(os.path.join(build_dir, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        subprocess.run(
            ["cmake", "-S", HERE, "-B", build_dir,
             "-DCMAKE_BUILD_TYPE=Release",
             "-DWSC_SOURCE_ROOT=" + source_root],
            check=True, stdout=sys.stderr, stderr=sys.stderr)
        subprocess.run(["cmake", "--build", build_dir, "-j", jobs],
                       check=True, stdout=sys.stderr, stderr=sys.stderr)
    return os.path.join(build_dir, "wsc_e2e")


def host_context():
    """Who ran this: recorded beside every run, never a metric."""
    model = ""
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "node": platform.node(),
        "platform": platform.platform(),
        "cpu_model": model,
        "cpu_count": os.cpu_count(),
        "loadavg": list(os.getloadavg()),
        "python": platform.python_version(),
    }


def declared_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return spec["per_layer" if trace else "end_to_end"]


def not_reported(workload, name):
    """Whether metrics.json says `workload` does not produce `name`."""
    with open(os.path.join(HERE, "metrics.json")) as f:
        patterns = json.load(f)["not_reported"][workload]
    return any(fnmatch.fnmatchcase(name, p) for p in patterns)


def run_program(binary, workload, seed, seconds, trace, root=ROOT, out=RUNS):
    """Run wsc_e2e once; returns its result object (all metrics)."""
    os.makedirs(out, exist_ok=True)
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0",
           "--root", root, "--out", out]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                          text=True, timeout=RUN_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError("wsc_e2e exited with %d" % proc.returncode)
    lines = [l for l in proc.stdout.splitlines() if l.strip()]
    if not lines:
        raise RuntimeError("wsc_e2e printed no result")
    return json.loads(lines[-1])


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["service_mix", "wafer_sim", "paper_sweep"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    wall0 = time.monotonic()
    binary = build()
    result = run_program(binary, args.workload, args.seed, args.seconds,
                        bool(args.trace))
    children = resource.getrusage(resource.RUSAGE_CHILDREN)

    metrics = {}
    for spec in declared_metrics(bool(args.trace)):
        name, unit = spec["name"], spec["unit"]
        got = result["metrics"].get(name)
        if got is None:
            if not (args.trace and not_reported(args.workload, name)):
                raise RuntimeError("wsc_e2e did not report " + name)
            got = {"value": 0, "unit": unit}
        if got["unit"] != unit:
            raise RuntimeError("%s: unit %s, declared %s"
                               % (name, got["unit"], unit))
        metrics[name] = got

    record = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "host": host_context(),
        "process": {"wall_s": time.monotonic() - wall0,
                    "child_cpu_s": children.ru_utime + children.ru_stime},
        "result": result,
    }
    stem = os.path.join(RUNS, "%s-s%d-t%d" % (args.workload, args.seed,
                                               args.trace))
    with open(stem + ".run.json", "w") as f:
        json.dump(record, f, indent=1)
    host = record["host"]
    log("host: %s, %s cpus, load %.2f; run %.1f s wall, %.1f s cpu"
        % (host["cpu_model"] or host["platform"], host["cpu_count"],
           host["loadavg"][0], record["process"]["wall_s"],
           record["process"]["child_cpu_s"]))

    print(json.dumps({"correct": result["correct"],
                      "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired,
            RuntimeError, OSError, ValueError, KeyError) as e:
        log("run.py:", e)
        sys.exit(1)
