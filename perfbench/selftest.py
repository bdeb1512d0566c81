"""The benchmark's own tests, at a tiny size.

Run from the root of a checkout: ``python3 perfbench/selftest.py``
(about a minute). The file is not named ``test_*.py`` on purpose, so the
repository's test suite does not pick it up.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

ROOT = Path.cwd()
RUN = ["python3", "perfbench/run.py", "--seconds", "1", "--tiny"]

sys.path.insert(0, str(ROOT / "perfbench"))
import numpy as np  # noqa: E402

import calibrate  # noqa: E402
from workloads import WORKLOADS, build_spec  # noqa: E402


def bench(*args, cwd=ROOT):
    return subprocess.run([*RUN, *args], cwd=cwd, capture_output=True, text=True, timeout=170)


class BenchmarkTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
            cls.declared = json.load(fh)

    def result(self, proc):
        last = json.loads(proc.stdout.strip().splitlines()[-1])
        self.assertEqual(set(last), {"correct", "attempted", "failed", "metrics"})
        return last

    def check_metrics(self, last, kind):
        want = {m["name"]: m["unit"] for m in self.declared[kind]}
        got = {name: m["unit"] for name, m in last["metrics"].items()}
        self.assertEqual(got, want)
        for m in last["metrics"].values():
            self.assertIsInstance(m["value"], (int, float))

    def test_every_workload_reports_every_metric(self):
        for name in WORKLOADS:
            for trace, kind in (("0", "end_to_end"), ("1", "per_layer")):
                with self.subTest(workload=name, trace=trace):
                    proc = bench("--workload", name, "--seed", "3", "--trace", trace)
                    self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
                    last = self.result(proc)
                    self.assertTrue(last["correct"])
                    self.assertEqual(last["failed"], 0)
                    self.assertGreaterEqual(last["attempted"], 1)
                    self.check_metrics(last, kind)
                    if kind == "end_to_end":
                        self.assertTrue(all(m["value"] > 0 for m in last["metrics"].values()), last)
                    else:
                        self.assertEqual(last["metrics"]["trace.absent_sites"]["value"], 0)

    def test_injected_failures_are_counted(self):
        for workload, kind in (("ridge_demo", "nonstochastic"), ("ridge_demo_jobs2", "raise"), ("baselines_x8", "nonstochastic")):
            with self.subTest(workload=workload, inject=kind):
                proc = bench("--workload", workload, "--seed", "3", "--trace", "0", "--inject", kind)
                self.assertNotEqual(proc.returncode, 0)
                last = self.result(proc)
                self.assertFalse(last["correct"])
                self.assertGreaterEqual(last["failed"], 1)
                self.assertIn("failure:", proc.stdout)

    def test_same_seed_same_inputs(self):
        self.assertEqual(build_spec("sparse_wide", 7), build_spec("sparse_wide", 7))
        self.assertNotEqual(build_spec("sparse_wide", 7)["source"], build_spec("sparse_wide", 8)["source"])
        serial, pooled = build_spec("ridge_demo", 7), build_spec("ridge_demo_jobs2", 7)
        self.assertEqual({**serial, "workload": None, "jobs": None}, {**pooled, "workload": None, "jobs": None})

    def test_reference_seconds(self):
        ref = calibrate.REFERENCE_S
        # A serial interval 0..3 bracketed by marks, one mark inside. The
        # kernel runs at twice the reference speed before the inner mark
        # and at the reference speed after it.
        starts = np.array([-ref / 2, 1.0, 3.0])
        ends = starts + np.array([ref / 2, ref / 2, ref])
        want = 1.0 * 2.0 + (2.0 - ref / 2) * ref / ((ref / 2 + ref) / 2)
        self.assertAlmostEqual(calibrate.interval_reference_s(0.0, 3.0, 1, [(starts, ends)]), want, places=9)
        # Two workers at the reference speed: marks are taken out, the
        # rest counts at its wall time.
        workers = [(np.array([0.0, 1.0]), np.array([ref, 1.0 + ref])), (np.array([0.5]), np.array([0.5 + ref]))]
        self.assertAlmostEqual(calibrate.interval_reference_s(0.0, 2.0, 2, workers), 2.0 - 1.5 * ref, places=9)

    def test_refuses_without_the_program(self):
        with tempfile.TemporaryDirectory() as bare:
            shutil.copy(ROOT / "BENCHMARK.json", bare)
            shutil.copytree(ROOT / "perfbench", Path(bare) / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
            proc = bench("--workload", "ridge_demo", "--seed", "1", "--trace", "0", cwd=bare)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"metrics"', proc.stdout)
            self.assertEqual(sorted(os.listdir(bare)), ["BENCHMARK.json", "perfbench"])


if __name__ == "__main__":
    unittest.main()
