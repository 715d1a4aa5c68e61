#!/usr/bin/env python3
"""The benchmark's own tests.

    python3 perfbench/test_perfbench.py

They build the benchmark through run.py (as a measurement run would),
then check the order-statistics helpers, the command-line hygiene, that a
tiny-input run of every workload passes its output checks and reports
every metric BENCHMARK.json names, and that a wrong reference makes the
command fail.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN = [sys.executable, str(HERE / "run.py")]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run(args, cwd=ROOT, timeout=170):
    return subprocess.run(RUN + args, cwd=cwd, capture_output=True, text=True,
                          timeout=timeout)


def result(proc):
    return json.loads(proc.stdout.strip().splitlines()[-1])


def binary():
    sys.path.insert(0, str(HERE))
    import run as runpy  # noqa: E402  (the benchmark's own build helper)
    return str(runpy.build_dir() / "perfbench")


class Perfbench(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        # Builds (or checks) the benchmark once for every test below.
        proc = run(["--workload", WORKLOADS[0], "--seed", "1", "--seconds",
                    "0.2", "--trace", "0", "--tiny"], timeout=900)
        assert proc.returncode == 0, proc.stderr

    def test_order_statistics(self):
        proc = subprocess.run([binary(), "--self-test"], capture_output=True,
                              text=True)
        self.assertEqual(proc.returncode, 0, proc.stdout)
        self.assertIn("self-test passed", proc.stdout)

    def test_help_and_unknown_flags_fail_with_usage(self):
        for args in (["--help"], ["--bogus"], ["--workload", "nope"],
                     ["--workload", WORKLOADS[0], "--seed", "x",
                      "--seconds", "1", "--trace", "0"]):
            proc = run(args)
            self.assertNotEqual(proc.returncode, 0, args)
            self.assertIn("usage:", proc.stderr, args)
            self.assertEqual(proc.stdout, "", args)
        for args in (["--help"], ["--bogus"]):
            proc = subprocess.run([binary()] + args, capture_output=True,
                                  text=True)
            self.assertNotEqual(proc.returncode, 0, args)
            self.assertIn("usage:", proc.stderr, args)

    def test_tiny_runs_pass_their_checks(self):
        names = {m["name"] for m in SPEC["end_to_end"]}
        for w in WORKLOADS:
            with self.subTest(workload=w):
                proc = run(["--workload", w, "--seed", "5", "--seconds", "1",
                            "--trace", "0", "--tiny"], timeout=60)
                self.assertEqual(proc.returncode, 0, proc.stdout[-2000:])
                res = result(proc)
                self.assertTrue(res["correct"])
                self.assertGreaterEqual(res["attempted"], 1)
                self.assertEqual(res["failed"], 0)
                self.assertEqual(set(res["metrics"]), names)
                for m in SPEC["end_to_end"]:
                    got = res["metrics"][m["name"]]
                    self.assertEqual(got["unit"], m["unit"])
                    self.assertGreater(got["value"], 0, m["name"])

    def test_all_prints_every_named_figure(self):
        proc = run(["--workload", "all", "--seed", "5", "--seconds", "0.5",
                    "--trace", "0", "--tiny"], timeout=120)
        self.assertEqual(proc.returncode, 0, proc.stdout[-2000:])
        for name in ("spmm_gflops.del", "spmm_gflops.ser", "serve_rps",
                     "plan_p90_ms", "delta_p50_ms", "sim_round_s", "host:"):
            self.assertIn(name, proc.stdout)

    def test_tiny_traced_run_reports_every_layer(self):
        proc = run(["--workload", WORKLOADS[1], "--seed", "5", "--seconds",
                    "1", "--trace", "1", "--tiny"], timeout=120)
        self.assertEqual(proc.returncode, 0, proc.stdout[-2000:])
        res = result(proc)
        self.assertTrue(res["correct"])
        self.assertEqual(set(res["metrics"]),
                         {m["name"] for m in SPEC["per_layer"]})

    def test_wrong_checksum_fails_the_command(self):
        for w in ("spmm-repeat", "serve-mix"):
            with self.subTest(workload=w):
                proc = run(["--workload", w, "--seed", "5", "--seconds",
                            "0.5", "--trace", "0", "--tiny",
                            "--bad-checksum"], timeout=60)
                self.assertNotEqual(proc.returncode, 0)
                self.assertFalse(result(proc)["correct"])
                self.assertIn("CHECK FAILED", proc.stdout)

    def test_without_sources_fails_without_a_result(self):
        scratch = Path(tempfile.mkdtemp(dir=binary().rsplit("/", 1)[0]))
        try:
            shutil.copy(ROOT / "BENCHMARK.json", scratch)
            shutil.copytree(HERE, scratch / "perfbench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            env = dict(os.environ, CARGO_TARGET_DIR=str(scratch / "build"))
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload",
                 WORKLOADS[0], "--seed", "1", "--seconds", "1", "--trace",
                 "0"], cwd=scratch, env=env, capture_output=True, text=True,
                timeout=170)
            self.assertNotEqual(proc.returncode, 0)
            self.assertEqual(proc.stdout.strip(), "")
        finally:
            shutil.rmtree(scratch)


if __name__ == "__main__":
    unittest.main()
