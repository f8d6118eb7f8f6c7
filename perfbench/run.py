#!/usr/bin/env python3
"""Builds and runs the NEVERMIND workspace benchmark.

    python3 perfbench/run.py --workload trial-20k --seed 1 --seconds 10 --trace 0

Run from the repository root. The benchmark is a Cargo package of its own
(perfbench/Cargo.toml) built in release mode into $CARGO_TARGET_DIR
(default .bench_build); the first run builds it. The Rust program prints
human-readable lines, then `RESULT {json}`; this script checks that result
against BENCHMARK.json (every end-to-end metric with --trace 0, every
per-layer metric with --trace 1, each finite and in its declared unit) and
prints it as the last line:

    {"correct": true, "attempted": 23, "failed": 0, "metrics": {"run_s": {"value": 10.4, "unit": "s"}, ...}}

Traced runs write their span file to $CARGO_TARGET_DIR/perfbench-traces/.
Exits non-zero without a result line if the build, the run or the result
check fails. `--size toy` selects the seconds-long sizes used by the
benchmark's own tests (test_bench.py).
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
WORKLOADS = ("trial-20k", "plant-100k", "locate-10k")
# The benchmark process itself must finish well inside 180 s.
RUN_TIMEOUT_S = 175


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def command_output(cmd):
    try:
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def source_commit():
    if (ROOT / ".git").exists():
        commit = command_output(["git", "rev-parse", "HEAD"])
        if commit:
            return commit
    return "unknown (not a git checkout)"


def build(target_dir):
    cmd = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", str(HERE / "Cargo.toml"),
    ]
    env = dict(os.environ, CARGO_TARGET_DIR=str(target_dir))
    # Build output goes to stderr so stdout stays the benchmark's own.
    result = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr)
    if result.returncode != 0:
        fail(f"build failed ({' '.join(cmd)})")
    return target_dir / "release" / "perfbench"


def declared_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return spec["per_layer" if trace else "end_to_end"]


def final_result(raw, trace):
    metrics = {}
    for decl in declared_metrics(trace):
        name, unit = decl["name"], decl["unit"]
        got = raw["metrics"].get(name)
        if got is None:
            fail(f"metric {name} was not measured")
        if got["unit"] != unit or got["better"] != decl["better"]:
            fail(f"metric {name} is {got['unit']}/{got['better']}, declared {unit}/{decl['better']}")
        value = got["value"]
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            fail(f"metric {name} is not a finite number: {value!r}")
        metrics[name] = {"value": value, "unit": unit}
    return {
        "correct": bool(raw["correct"]),
        "attempted": int(raw["attempted"]),
        "failed": int(raw["failed"]),
        "metrics": metrics,
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--size", default="full", choices=("full", "toy"))
    args = parser.parse_args()
    if args.seed < 0:
        fail("--seed must be non-negative")

    target_dir = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target_dir.is_absolute():
        target_dir = ROOT / target_dir
    binary = build(target_dir)
    cmd = [
        str(binary),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--size", args.size,
        "--out-dir", str(target_dir / "perfbench-traces"),
        "--rustc", command_output(["rustc", "--version"]) or "unknown",
        "--commit", source_commit(),
    ]
    try:
        run = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        # subprocess.run kills the child and waits for it before raising.
        fail(f"benchmark did not finish within {RUN_TIMEOUT_S} s")
    sys.stderr.write(run.stderr)
    lines = run.stdout.splitlines()
    if run.returncode != 0 or not lines or not lines[-1].startswith("RESULT "):
        sys.stdout.write(run.stdout)
        fail(f"benchmark exited with code {run.returncode} and no RESULT line")
    for line in lines[:-1]:
        print(line)
    result = final_result(json.loads(lines[-1][len("RESULT "):]), args.trace == 1)
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
