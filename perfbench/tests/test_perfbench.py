"""Tests of the benchmark itself.

    python3 -m unittest discover -s perfbench/tests

They run perfbench/run.py (which builds the harness on first use) on short
runs of the cheapest workload.
"""

import json
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
RUN = ROOT / "perfbench" / "run.py"
BINARY = ROOT / ".bench_build" / "perfbench" / "noc_perfbench"
CHEAP = "mesh8_collectives_lowload"


def run_bench(*args, cwd=ROOT, script=RUN):
    res = subprocess.run([sys.executable, str(script), *args], cwd=cwd,
                         capture_output=True, text=True, timeout=900)
    lines = res.stdout.strip().split("\n")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        result = None
    return res, result


def quick(workload, seed, trace=0, *extra):
    return run_bench("--workload", workload, "--seed", str(seed),
                     "--seconds", "0.3", "--trace", str(trace), *extra)


def benchmark_json():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


class PerfbenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        # Builds the harness; every later call is an incremental no-op.
        res, result = quick(CHEAP, 1)
        if res.returncode != 0:
            raise RuntimeError(res.stdout + res.stderr)
        cls.seed1 = result

    def harness(self, *args):
        return subprocess.run([str(BINARY), *args], capture_output=True,
                              text=True, check=True, timeout=120).stdout

    def test_seed_changes_inputs_but_not_metric_names(self):
        for w in [w["name"] for w in benchmark_json()["workloads"]]:
            a = self.harness("--inputs-only", "--workload", w, "--seed", "1")
            b = self.harness("--inputs-only", "--workload", w, "--seed", "2")
            again = self.harness("--inputs-only", "--workload", w, "--seed", "1")
            self.assertNotEqual(a, b, w)
            self.assertEqual(a, again, w)
        res, seed2 = quick(CHEAP, 2)
        self.assertEqual(res.returncode, 0, res.stdout + res.stderr)
        self.assertEqual(set(self.seed1["metrics"]), set(seed2["metrics"]))

    def test_tampered_reference_is_caught(self):
        res, result = quick(CHEAP, 1, 0, "--tamper-reference")
        self.assertNotEqual(res.returncode, 0)
        self.assertIsNotNone(result, res.stdout + res.stderr)
        self.assertFalse(result["correct"])
        self.assertGreaterEqual(result["failed"], 1)
        self.assertLess(result["metrics"]["ok_ops_frac"]["value"], 1.0)
        self.assertIn("CHECK FAILED", res.stdout)

    def test_untampered_run_is_correct(self):
        self.assertTrue(self.seed1["correct"])
        self.assertEqual(self.seed1["failed"], 0)
        self.assertEqual(self.seed1["metrics"]["ok_ops_frac"]["value"], 1.0)
        self.assertEqual(set(self.seed1),
                         {"correct", "attempted", "failed", "metrics"})

    def test_metric_names_and_units_match_benchmark_json(self):
        spec = benchmark_json()
        listed = json.loads(self.harness("--list-metrics"))
        for tier in ("end_to_end", "per_layer"):
            declared = sorted((m["name"], m["unit"]) for m in spec[tier])
            self.assertEqual(sorted(map(tuple, listed[tier])), declared, tier)
        self.assertEqual(listed["workloads"],
                         [w["name"] for w in spec["workloads"]])
        printed = sorted((k, v["unit"])
                         for k, v in self.seed1["metrics"].items())
        self.assertEqual(
            printed, sorted((m["name"], m["unit"]) for m in spec["end_to_end"]))
        res, traced = quick(CHEAP, 1, 1)
        self.assertEqual(res.returncode, 0, res.stdout + res.stderr)
        self.assertEqual(
            sorted((k, v["unit"]) for k, v in traced["metrics"].items()),
            sorted((m["name"], m["unit"]) for m in spec["per_layer"]))
        self.assertIn("tracing overhead", res.stdout)

    def test_fails_without_engine_sources(self):
        # A directory holding only BENCHMARK.json and perfbench/ cannot build
        # the engine: the command must fail without printing a result.
        bare = ROOT / ".bench_out" / "bare_checkout"
        shutil.rmtree(bare, ignore_errors=True)
        bare.mkdir(parents=True)
        try:
            shutil.copy(ROOT / "BENCHMARK.json", bare)
            shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            res, result = run_bench("--workload", CHEAP, "--seed", "1",
                                    "--seconds", "1", "--trace", "0", cwd=bare,
                                    script=bare / "perfbench" / "run.py")
            self.assertNotEqual(res.returncode, 0)
            self.assertIsNone(result)
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
