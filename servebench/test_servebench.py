#!/usr/bin/env python3
"""Tests of the serve benchmark itself.

    python3 servebench/test_servebench.py

Builds the benchmark through run.py, then checks that
  * the request generator is deterministic in the seed and that fresh never
    repeats a kernel IR hash (the binary's --self-test),
  * the metrics the binary declares and prints are exactly those declared
    in BENCHMARK.json, with the same units,
  * outside a full checkout the command fails without printing a result.
"""
import json
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import run  # noqa: E402


def declared():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]},
            [w["name"] for w in spec["workloads"]])


class ServeBenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.binary = run.build()

    def bench(self, *args):
        return subprocess.run([self.binary] + list(args), capture_output=True, text=True,
                              cwd=ROOT, timeout=300)

    def test_generator_self_test(self):
        result = self.bench("--self-test")
        self.assertEqual(result.returncode, 0, result.stdout + result.stderr)
        self.assertIn("self-test: ok", result.stdout)

    def test_binary_declares_the_benchmark_json_metrics(self):
        listed = json.loads(self.bench("--list-metrics").stdout)
        end_to_end, per_layer, _ = declared()
        self.assertEqual({m["name"]: m["unit"] for m in listed["end_to_end"]}, end_to_end)
        self.assertEqual({m["name"]: m["unit"] for m in listed["per_layer"]}, per_layer)

    def test_printed_metrics_are_the_declared_ones(self):
        end_to_end, per_layer, workloads = declared()
        self.assertEqual(workloads, ["hot", "fresh", "tiered"])
        out_dir = os.path.join(run.build_dir(), "test-traces")
        for trace, expected in (("0", end_to_end), ("1", per_layer)):
            result = self.bench("--workload", "hot", "--seed", "3", "--seconds", "1",
                                "--trace", trace, "--out-dir", out_dir)
            self.assertEqual(result.returncode, 0, result.stderr)
            last = json.loads(result.stdout.strip().splitlines()[-1])
            self.assertEqual(set(last), {"correct", "attempted", "failed", "metrics"})
            self.assertTrue(last["correct"])
            self.assertGreaterEqual(last["attempted"], 1)
            self.assertEqual({k: v["unit"] for k, v in last["metrics"].items()}, expected)
        trace_file = os.path.join(out_dir, "trace_hot_seed3.json")
        with open(trace_file) as f:
            events = json.load(f)["traceEvents"]
        names = {e["name"] for e in events}
        for span in ("request", "submit", "queue_wait", "compute", "ir.key", "core.extract",
                     "hwsim.profile", "runtime.forward"):
            self.assertIn(span, names)

    def test_fails_without_the_library_sources(self):
        bare = os.path.join(run.build_dir(), "bare-checkout")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "servebench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        env = dict(os.environ, CARGO_TARGET_DIR=os.path.join(bare, ".bench_build"))
        result = subprocess.run(
            [sys.executable, "servebench/run.py", "--workload", "hot", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            capture_output=True, text=True, cwd=bare, env=env, timeout=180)
        shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(result.returncode, 0)
        self.assertNotIn('"metrics"', result.stdout)


if __name__ == "__main__":
    unittest.main()
