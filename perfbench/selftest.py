"""Self-tests of the benchmark itself.

Run from the root of a checkout (a few minutes)::

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402

os.environ.update(run.THREAD_ENV)

import numpy as np  # noqa: E402

import oracles  # noqa: E402
import workloads  # noqa: E402

FAILING_SEED = 5  # pairs-far at this seed has NotSpdError failures


def traced_report(workload: str, seed: int) -> dict:
    """A worker's raw report for the shortest traced run: one untraced and one traced pass."""
    proc = subprocess.run([sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed),
                           "--seconds", "0", "--trace", "1"], cwd=ROOT, capture_output=True, check=True, timeout=170)
    return json.loads(proc.stdout.decode().splitlines()[-1])


class OracleTest(unittest.TestCase):
    def test_univariate_and_equal_mean_closed_forms_agree(self):
        # With one mean both formulas reduce to sqrt(2) |log(s2 / s1)|.
        for var_p, var_q in ((1.0, 7.389056098930650), (0.3, 2.0), (5.0, 0.01)):
            expected = math.sqrt(2.0) * abs(math.log(math.sqrt(var_q / var_p)))
            self.assertAlmostEqual(oracles.univariate_distance(var_p, 0.4, var_q, 0.4), expected, delta=1e-13)
            got = oracles.equal_mean_distance(np.array([[var_p]]), np.array([[var_q]]))
            self.assertAlmostEqual(got, expected, delta=1e-13)

    def test_equal_mean_geodesic_ends(self):
        rng = np.random.default_rng(0)
        sigma_p, _ = workloads.random_point(rng, 3)
        sigma_q, _ = workloads.random_point(rng, 3)
        self.assertLess(oracles.rel_err(oracles.equal_mean_geodesic(sigma_p, sigma_q, 0.0), sigma_p), 1e-13)
        self.assertLess(oracles.rel_err(oracles.equal_mean_geodesic(sigma_p, sigma_q, 1.0), sigma_q), 1e-13)


class GateTest(unittest.TestCase):
    def test_perturbed_verify_is_a_failed_gate(self):
        ops = workloads.cli_ops(0, ROOT, {"verify": ["--perturb", "1e-3"]})
        (op,) = [op for op in ops if op.kind == "verify"]
        self.assertIsNotNone(op.check(op.call()))

    def test_unperturbed_verify_passes_its_gate(self):
        ops = workloads.cli_ops(0, ROOT)
        (op,) = [op for op in ops if op.kind == "verify"]
        self.assertIsNone(op.check(op.call()))

    def test_wrong_distance_is_a_failed_gate(self):
        (op,) = workloads.build("pairs-near", 0, ROOT)[:1]
        self.assertIsNone(op.check(op.call()))
        self.assertIsNotNone(op.check(op.call() * (1.0 + 1e-6)))


class RunTest(unittest.TestCase):
    def test_counts_repeat_at_one_seed(self):
        first, second = traced_report("pairs-far", FAILING_SEED), traced_report("pairs-far", FAILING_SEED)
        self.assertGreater(sum(first["errors"].values()), 0, "the seed is meant to show failures")
        for key in ("n_ops", "errors", "wrong", "runtime_warnings"):
            self.assertEqual(first[key], second[key], key)
        exact = [name for name in first["layers"] if name.endswith((".calls", ".failed", ".iters", ".steps",
                                                                    ".rhs_evals", ".out_bytes"))]
        self.assertIn("geodesic.log_map.calls", exact)
        for name in exact:
            self.assertEqual(first["layers"][name], second["layers"][name], name)

    def test_self_times_cover_op_time(self):
        layers = traced_report("pairs-near", 1)["layers"]
        # Self times of all spans add up to the time inside top-level calls;
        # the rest of an op's wall time is the benchmark's own dispatch.
        self.assertGreater(layers["trace.coverage_pct"], 90.0)
        self.assertLessEqual(layers["trace.coverage_pct"], 100.0 + 1e-6)
        self.assertTrue(math.isfinite(layers["trace.overhead_pct"]))
        self.assertEqual(layers["ahm.log_per_interpolate"], 2 ** workloads.INTERP_DEPTH - 1)

    def test_refuses_to_run_without_the_package(self):
        bare = ROOT / ".perfbench" / "selftest-bare"
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        try:
            proc = subprocess.run([sys.executable, f"{HERE.name}/run.py", "--workload", "flow", "--seed", "1",
                                   "--seconds", "1", "--trace", "0"], cwd=bare, capture_output=True, timeout=180)
        finally:
            shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn(b'"metrics"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
