#!/usr/bin/env python3
"""POLaR benchmark runner.

Builds the benchmark (perfbench/ as its own CMake project, compiling the
repository's src/) and runs one workload:

    python3 perfbench/run.py --workload spec_access --seed 1 --seconds 10 --trace 0

Workloads: spec_access, spec_churn, kv_open, kv_threads. With --trace 0 the
result carries the end-to-end metrics of BENCHMARK.json, with --trace 1 its
per-layer metrics. Run notes go to standard output; the last line is one JSON
object with the keys correct, attempted, failed and metrics.

    python3 perfbench/run.py --selftest

builds and runs the benchmark's own tests instead.

The build tree is $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench)
under the checkout root. Exits non-zero, printing no result, when the build
fails, the run fails, or the result is malformed.
"""

import argparse
import json
import math
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def build(target):
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        log(f"no POLaR sources under {ROOT / 'src'}; nothing to benchmark")
        sys.exit(2)
    bdir = build_dir()
    if not (bdir / "CMakeCache.txt").is_file():
        subprocess.run(
            ["cmake", "-S", str(HERE), "-B", str(bdir),
             "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
            check=True, stdout=sys.stderr, stderr=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", str(bdir), "--target", target, "-j", jobs],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)
    return bdir / target


def expected_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def validate(result, expected):
    """Returns the reason a result is malformed, or None."""
    if not isinstance(result, dict) or set(result) != {"correct", "attempted", "failed", "metrics"}:
        return "result keys must be correct, attempted, failed, metrics"
    if not isinstance(result["correct"], bool):
        return "correct must be a boolean"
    for key in ("attempted", "failed"):
        if not isinstance(result[key], int) or result[key] < 0:
            return f"{key} must be a whole number"
    if result["attempted"] < 1:
        return "nothing attempted"
    metrics = result["metrics"]
    if set(metrics) != set(expected):
        missing = sorted(set(expected) - set(metrics))
        extra = sorted(set(metrics) - set(expected))
        return f"metric names differ from BENCHMARK.json: missing {missing}, extra {extra}"
    for name, unit in expected.items():
        m = metrics[name]
        if m.get("unit") != unit:
            return f"{name}: unit {m.get('unit')!r}, expected {unit!r}"
        value = m.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            return f"{name}: value {value!r} is not a finite number"
    return None


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()

    try:
        if args.selftest:
            test = build("perfbench_test")
            return subprocess.run([str(test)], timeout=RUN_TIMEOUT_S).returncode
        if not args.workload:
            ap.error("--workload is required")
        binary = build("perfbench")
    except subprocess.CalledProcessError as e:
        log(f"build failed: {e}")
        return 1

    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"run exceeded {RUN_TIMEOUT_S} s")
        return 1
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stdout.write(proc.stdout)
        log(f"run failed with exit code {proc.returncode}")
        return 1
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError as e:
        log(f"last line is not JSON: {e}")
        return 1
    problem = validate(result, expected_metrics(args.trace == 1))
    if problem:
        log(f"malformed result: {problem}")
        return 1
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
