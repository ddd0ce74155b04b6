"""Tests of the benchmark itself, at a tiny population.

    python3 -m unittest discover -s epoch_bench/tests -v

Each case runs `epoch_bench/run.py` the way the benchmark is run (from the
repository root), with `--n 3000` so an epoch takes milliseconds.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
TINY_N = "3000"


def run(workload, trace, *extra, seed=5, cwd=ROOT, env=None):
    cmd = [sys.executable, os.path.join(os.path.basename(BENCH), "run.py"),
           "--workload", workload, "--seed", str(seed), "--seconds", "1",
           "--trace", str(trace), "--n", TINY_N, *extra]
    proc = subprocess.run(cmd, cwd=cwd, env=env, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    context = json.loads(lines[-2])["context"] if len(lines) >= 2 else None
    result = json.loads(lines[-1]) if lines else None
    return proc.returncode, context, result, proc.stderr


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


class BenchmarkContract(unittest.TestCase):
    def assert_failed(self, code, result, trace):
        self.assertNotEqual(code, 0)
        self.assertFalse(result["correct"])
        self.assertGreater(result["failed"], 0)
        if trace:
            self.assertEqual(result["metrics"]["ops_failed_frac"]["value"],
                             result["failed"] / result["attempted"])

    def test_every_metric_is_emitted_with_its_unit(self):
        s = spec()
        for workload in [w["name"] for w in s["workloads"]]:
            for trace, section in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=workload, trace=trace):
                    code, context, result, stderr = run(workload, trace)
                    self.assertEqual(code, 0, stderr)
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    want = {m["name"]: m["unit"] for m in s[section]}
                    got = {k: v["unit"] for k, v in result["metrics"].items()}
                    self.assertEqual(got, want)
                    for name, metric in result["metrics"].items():
                        self.assertIsInstance(metric["value"], (int, float), name)
                    for key in ("git_rev", "nproc", "n", "m", "seed", "features"):
                        self.assertIn(key, context)
                    if trace == 0:
                        # The factor every time was scaled by, to undo it.
                        self.assertGreater(context["reference_passes"], 0)
                        self.assertGreater(context["host_factor"], 0)

    def test_traced_run_ends_in_the_bare_state(self):
        for workload in ("churn_sharded_1m", "static_mono_1m"):
            with self.subTest(workload=workload):
                _, bare, _, _ = run(workload, 0, seed=9)
                _, again, _, _ = run(workload, 0, seed=9)
                code, traced, result, stderr = run(workload, 1, seed=9)
                self.assertEqual(code, 0, stderr)
                self.assertEqual(bare["digest"], again["digest"])
                self.assertEqual(bare["digest"], traced["digest"])
                self.assertEqual(result["metrics"]["recovery.replayed_rounds"]["value"], 8)
                self.assertLess(result["metrics"]["trace.unattributed_frac"]["value"], 0.05)
                # Only the workload with telemetry runs the telemetry probe.
                probed = result["metrics"]["obs.trace_bytes"]["value"] > 0
                self.assertEqual(probed, workload == "static_mono_1m")

    def test_a_digest_mismatch_fails_the_run(self):
        for trace in (0, 1):
            with self.subTest(trace=trace):
                code, _, result, _ = run("churn_sharded_1m", trace, "--fault", "digest")
                self.assert_failed(code, result, trace)

    def test_a_failing_call_fails_the_run(self):
        for trace in (0, 1):
            with self.subTest(trace=trace):
                code, _, result, _ = run("static_mono_1m", trace, "--fault", "call")
                self.assert_failed(code, result, trace)

    def test_without_the_repository_it_fails_without_a_result(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
            shutil.copytree(BENCH, os.path.join(tmp, os.path.basename(BENCH)),
                            ignore=shutil.ignore_patterns("target", "__pycache__"))
            env = dict(os.environ, CARGO_TARGET_DIR=os.path.join(tmp, ".bench_build"))
            code, context, result, _ = run("static_mono_1m", 0, cwd=tmp, env=env)
            self.assertNotEqual(code, 0)
            self.assertIsNone(context)
            self.assertIsNone(result)


if __name__ == "__main__":
    unittest.main()
