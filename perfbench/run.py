#!/usr/bin/env python3
"""Serving benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Builds perfbench/ (which compiles the
library from src/) as a Release build under $CARGO_TARGET_DIR, default
.bench_build, then runs one workload and prints, as the last line of
stdout, one JSON object with the keys correct, attempted, failed and
metrics. With --trace 0 the metrics are BENCHMARK.json's end_to_end
metrics; with --trace 1 its per_layer metrics. Each run gets a fresh
scratch directory under .bench_run/ for its WAL files and unix sockets,
removed when the run ends; traced runs write spans to .bench_out/.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import uuid

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN_TIMEOUT_S = 170


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def build(build_dir):
    """Configures (once) and builds the benchmark; True on success."""
    if shutil.which("cmake") is None:
        log("cmake not found")
        return False
    cache = os.path.join(build_dir, "CMakeCache.txt")
    source = os.path.join(ROOT, "perfbench")
    if os.path.exists(cache):
        with open(cache, encoding="utf-8", errors="replace") as f:
            if f"CMAKE_HOME_DIRECTORY:INTERNAL={source}\n" not in f.read():
                shutil.rmtree(build_dir, ignore_errors=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(cache):
        steps.append(["cmake", "-S", source, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs])
    for step in steps:
        done = subprocess.run(step, cwd=ROOT, stdout=sys.stderr,
                              stderr=sys.stderr, check=False)
        if done.returncode != 0:
            log(f"build step failed: {' '.join(step)}")
            return False
    return True


def load_metric_names(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    return spec["per_layer" if trace else "end_to_end"]


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, build_dir)
    if not build(build_dir):
        return 1
    wanted = load_metric_names(args.trace)

    runs = os.path.join(ROOT, ".bench_run")
    out_dir = os.path.join(ROOT, ".bench_out")
    os.makedirs(runs, exist_ok=True)
    os.makedirs(out_dir, exist_ok=True)
    # Relative to ROOT, so unix socket paths stay short.
    run_dir = os.path.join(".bench_run",
                           f"{args.workload}-{os.getpid()}-{uuid.uuid4().hex[:8]}")
    command = [os.path.join(build_dir, "perfbench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--run_dir", run_dir, "--out_dir", out_dir]
    try:
        done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=sys.stderr, text=True,
                              timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        log(f"run exceeded {RUN_TIMEOUT_S} s")
        return 1
    finally:
        shutil.rmtree(os.path.join(ROOT, run_dir), ignore_errors=True)

    raw = None
    for line in done.stdout.splitlines():
        if line.startswith("PERFBENCH_RESULT "):
            raw = json.loads(line[len("PERFBENCH_RESULT "):])
        else:
            print(line)
    if raw is None:
        log(f"no result from the benchmark binary (exit {done.returncode})")
        return 1

    metrics = {}
    for spec in wanted:
        got = raw["metrics"].get(spec["name"])
        if got is None or got["unit"] != spec["unit"]:
            log(f"metric {spec['name']} missing or not in {spec['unit']}")
            return 1
        metrics[spec["name"]] = {"value": got["value"], "unit": got["unit"]}
    correct = bool(raw["correct"]) and done.returncode == 0
    for error in raw.get("errors", []):
        log(f"error: {error}")
    print(json.dumps({"correct": correct, "attempted": raw["attempted"],
                      "failed": raw["failed"], "metrics": metrics}),
          flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
