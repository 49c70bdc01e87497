#!/usr/bin/env python3
"""The benchmark's own tests.

    python3 perfbench/test_perfbench.py

Checks that BENCHMARK.json and run.py agree on every metric, that metric
names stay within [A-Za-z0-9_.-], that a smoke-sized run of each workload
(untraced and traced) passes its correctness gate and prints every metric
with its unit, and that the benchmark refuses to run without the sources.
The smoke runs build the perfbench binary first if needed.
"""

import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def load_spec():
    with open(ROOT / "BENCHMARK.json") as handle:
        return json.load(handle)


def smoke(workload, trace):
    done = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    return done


class SpecTest(unittest.TestCase):
    def test_metric_tables_match_benchmark_json(self):
        spec = load_spec()
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]},
                         run.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]},
                         run.PER_LAYER)
        self.assertEqual([w["name"] for w in spec["workloads"]],
                         list(run.WORKLOADS))

    def test_names_and_units_are_well_formed(self):
        spec = load_spec()
        metrics = spec["end_to_end"] + spec["per_layer"]
        names = [m["name"] for m in metrics + spec["workloads"]]
        self.assertEqual(len(names), len(set(names)))
        for name in names:
            self.assertRegex(name, NAME)
        for metric in metrics:
            self.assertRegex(metric["unit"], UNIT)

    def test_nominal_windows_carry_a_p99_tail(self):
        seconds = load_spec()["run_seconds"]
        for name, w in run.WORKLOADS.items():
            if w["kind"] != "serve":
                continue
            per_window = round(w["nominal_qps"] * seconds * run.TRACE_WINDOW)
            self.assertGreaterEqual(run.tail_samples(per_window), run.P99_TAIL,
                                    name)

    def test_tail_samples_is_nearest_rank(self):
        self.assertEqual(run.tail_samples(1000), 9)
        self.assertEqual(run.tail_samples(1100), 10)
        self.assertEqual(run.tail_samples(1), 0)

    def test_setup_has_the_largest_bound(self):
        bounds = {m["name"]: m["bound"] for m in load_spec()["end_to_end"]}
        self.assertEqual(bounds["setup_s"], max(bounds.values()))
        self.assertLessEqual(max(bounds.values()), 0.25)


class SelfTimeTest(unittest.TestCase):
    def test_children_are_subtracted_once_and_clipped(self):
        spans = [
            {"id": 0, "parent": None, "start_ns": 0, "end_ns": 100},
            {"id": 1, "parent": 0, "start_ns": 10, "end_ns": 60},
            {"id": 2, "parent": 0, "start_ns": 40, "end_ns": 130},
            {"id": 3, "parent": 1, "start_ns": 20, "end_ns": 30},
        ]
        selfs = run.self_times(spans)
        # Children of 0 cover [10, 100] once: self = 100 - 90.
        self.assertEqual(selfs[0], 10)
        self.assertEqual(selfs[1], 40)
        self.assertEqual(selfs[2], 90)
        self.assertEqual(selfs[3], 10)


class SmokeTest(unittest.TestCase):
    def check(self, workload, trace):
        done = smoke(workload, trace)
        self.assertEqual(done.returncode, 0, done.stderr[-2000:])
        lines = done.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed",
                                       "metrics"})
        self.assertTrue(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        expected = run.PER_LAYER if trace else run.END_TO_END
        self.assertEqual(set(result["metrics"]), set(expected))
        for name, metric in result["metrics"].items():
            self.assertEqual(metric["unit"], expected[name])
            self.assertIsInstance(metric["value"], float)
        record = json.loads(lines[-2])["record"]
        for key in ("nproc", "cpu_affinity", "hardware_threads", "build_type",
                    "source_sha256", "seed", "graph"):
            self.assertIn(key, record)
        self.assertEqual(record["build_type"], "Release")
        return result, record

    def test_serve_uniform(self):
        result, record = self.check("serve-uniform", 0)
        self.assertGreater(record["gate"]["ref_checked"], 0)
        self.assertGreater(result["metrics"]["saturated_qps"]["value"], 0)

    def test_serve_hot_sharded(self):
        _, record = self.check("serve-hot-sharded", 0)
        self.assertGreater(record["gate"]["ref_checked"], 0)

    def test_batch_er(self):
        result, record = self.check("batch-er", 0)
        self.assertEqual(record["batch"]["gate_mismatch"], 0)
        self.assertLessEqual(result["metrics"]["max_error"]["value"],
                             3 * run.ENGINE["eps"])

    def test_serve_uniform_traced(self):
        result, _ = self.check("serve-uniform", 1)
        self.assertLessEqual(
            abs(result["metrics"]["ledger.unexplained_frac"]["value"]),
            run.LEDGER_TOLERANCE)
        self.assertGreater(result["metrics"]["client.knee_qps"]["value"], 0)

    def test_serve_hot_sharded_traced(self):
        result, _ = self.check("serve-hot-sharded", 1)
        self.assertGreater(result["metrics"]["cache.lookups"]["value"], 0)

    def test_batch_er_traced(self):
        self.check("batch-er", 1)


class StandaloneTest(unittest.TestCase):
    def test_each_checkout_has_its_own_build_tree(self):
        self.assertNotEqual(run.build_dir(Path("/a/perfbench")),
                            run.build_dir(Path("/b/perfbench")))
        self.assertEqual(run.build_dir(BENCH_DIR), run.build_dir())

    def test_refuses_without_sources(self):
        # A copy of the benchmark without src/, sharing the target directory
        # of this checkout, whose build tree exists: the copy must not reuse
        # that tree (it would build and measure this checkout's sources).
        run.build()
        target = run.build_dir().parent.parent
        scratch = ROOT / ".bench_out"
        scratch.mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=scratch) as tmp:
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            shutil.copytree(BENCH_DIR, Path(tmp) / "perfbench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            done = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload",
                 "batch-er", "--seed", "1", "--seconds", "1", "--smoke"],
                cwd=tmp, capture_output=True, text=True, timeout=180,
                env=dict(os.environ, CARGO_TARGET_DIR=str(target)))
        self.assertNotEqual(done.returncode, 0)
        self.assertEqual(done.stdout.strip(), "")


if __name__ == "__main__":
    unittest.main()
