#!/usr/bin/env python3
"""Tests of the benchmark itself, on the toy size of each workload.

    python3 perfbench/test_bench.py

Run from anywhere; builds the benchmark on first use. Each workload runs
untraced and traced at `--size toy`; the tests assert that every metric
BENCHMARK.json declares is printed by name with its unit, direction and
sample count, that the result line carries exactly the declared metrics,
and that every correctness check passes. The Rust unit tests
(`cargo test --manifest-path perfbench/Cargo.toml`) cover the checks' own
self-tests: each is fed a deliberately wrong input and must count it as a
failure.
"""

import json
import os
import re
import shutil
import subprocess
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
METRIC_LINE = re.compile(
    r"^metric (\S+)\s+=\s+(-?[0-9.]+(?:e-?\d+)?) (\S+)\s+\((lower|higher) is better, n=(\d+)\)$"
)


def run_bench(workload, trace, cwd=ROOT, env=None):
    return subprocess.run(
        ["python3", str(Path(cwd) / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace), "--size", "toy"],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=900,
    )


class ToyWorkloads(unittest.TestCase):
    def check_run(self, workload, trace):
        run = run_bench(workload, trace)
        self.assertEqual(run.returncode, 0, run.stderr[-2000:])
        lines = run.stdout.splitlines()
        result = json.loads(lines[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"], run.stdout[-3000:])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertNotIn("check FAILED", run.stdout)

        declared = SPEC["per_layer" if trace else "end_to_end"]
        self.assertEqual(set(result["metrics"]), {m["name"] for m in declared})
        printed = {}
        for line in lines:
            m = METRIC_LINE.match(line)
            if m:
                printed[m.group(1)] = (m.group(3), m.group(4), int(m.group(5)))
        for decl in declared:
            name = decl["name"]
            self.assertEqual(result["metrics"][name]["unit"], decl["unit"], name)
            self.assertIn(name, printed, f"{name} is not printed")
            unit, better, samples = printed[name]
            self.assertEqual((unit, better), (decl["unit"], decl["better"]), name)
            if not trace:
                self.assertGreater(result["metrics"][name]["value"], 0, name)
                self.assertGreaterEqual(samples, 1, name)
        self.assertIn("failed_ratio", printed)
        return run.stdout

    def check_traced(self, workload):
        out = self.check_run(workload, 1)
        self.assertNotIn("add up: false", out)
        span_file = re.search(r"^spans written to (.+)$", out, re.M)
        self.assertIsNotNone(span_file, out[-2000:])
        records = [json.loads(l) for l in Path(span_file.group(1)).read_text().splitlines()]
        header, spans = records[0], records[1:]
        for key in ("nproc", "shards", "cpu", "rustc", "commit", "seed"):
            self.assertIn(key, header["header"])
        self.assertTrue(spans)
        run_ids = {s["run"] for s in records}
        self.assertEqual(len(run_ids), 1)
        for s in spans:
            self.assertLessEqual(s["start_s"], s["end_s"])
            if s["parent"] is not None:
                parent = spans[s["parent"]]
                self.assertLessEqual(parent["start_s"], s["start_s"])
                self.assertLessEqual(s["end_s"], parent["end_s"])

    def test_trial_untraced(self):
        self.check_run("trial-20k", 0)

    def test_trial_traced(self):
        self.check_traced("trial-20k")

    def test_plant_untraced(self):
        self.check_run("plant-100k", 0)

    def test_plant_traced(self):
        self.check_traced("plant-100k")

    def test_locate_untraced(self):
        self.check_run("locate-10k", 0)

    def test_locate_traced(self):
        self.check_traced("locate-10k")


class Isolation(unittest.TestCase):
    def test_fails_without_the_repository(self):
        """With only BENCHMARK.json and the benchmark's files, the run must
        fail without printing a result line."""
        target = Path(os.environ.get("CARGO_TARGET_DIR", ROOT / ".bench_build"))
        if not target.is_absolute():
            target = ROOT / target
        lonely = target / "isolation-test"
        shutil.rmtree(lonely, ignore_errors=True)
        lonely.mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", lonely)
        shutil.copytree(HERE, lonely / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        env = dict(os.environ, CARGO_TARGET_DIR=str(lonely / ".bench_build"))
        try:
            run = run_bench("locate-10k", 0, cwd=lonely, env=env)
        finally:
            shutil.rmtree(lonely, ignore_errors=True)
        self.assertNotEqual(run.returncode, 0)
        self.assertFalse(any(l.startswith("{") for l in run.stdout.splitlines()))


if __name__ == "__main__":
    unittest.main()
