#!/usr/bin/env python3
"""The benchmark's own tests: a pure seeded generator, the workload
properties it promises, and checks that fail loudly.

    python3 perfbench/test_perfbench.py

Builds the benchmark first (like run.py) and takes a few minutes.
"""

import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402

WORKLOADS = ("warm_serve", "cold_solve", "spill_churn")


class GeneratorTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        _, cls.driver = run.build()

    def gen(self, workload, seed, *extra):
        out = subprocess.run([str(self.driver), "gen", "--workload", workload,
                              "--seed", str(seed), "--requests", "2000", *extra],
                             capture_output=True, text=True, check=True)
        return json.loads(out.stdout.strip().splitlines()[-1])

    def test_same_seed_gives_identical_bytes(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                first = self.gen(workload, 7)
                second = self.gen(workload, 7)
                self.assertEqual(first["digest"], second["digest"])
                self.assertEqual(first["bytes"], second["bytes"])

    def test_other_seed_gives_other_stream(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                self.assertNotEqual(self.gen(workload, 7)["digest"],
                                    self.gen(workload, 8)["digest"])

    def test_mix_ratios(self):
        warm = self.gen("warm_serve", 3)
        mutations = warm["price"] + warm["leave"] + warm["join"]
        self.assertEqual(mutations, 4 * warm["solves"])
        self.assertAlmostEqual(warm["price"] / mutations, 0.70, delta=0.03)
        self.assertAlmostEqual(warm["leave"] / mutations, 0.15, delta=0.03)
        self.assertAlmostEqual(warm["join"] / mutations, 0.15, delta=0.03)
        for workload in ("cold_solve", "spill_churn"):
            with self.subTest(workload=workload):
                mix = self.gen(workload, 3)
                self.assertEqual(mix["price"], mix["solves"])
                self.assertEqual(mix["leave"] + mix["join"], 0)

    def test_component_property(self):
        # warm_serve is sub-percolation on every channel; cold_solve has a
        # giant component of more than half the buyers on every channel.
        warm = self.gen("warm_serve", 3, "--components", "1")
        self.assertLess(warm["largest_share_max"], 0.1)
        cold = self.gen("cold_solve", 3, "--components", "1")
        self.assertGreater(cold["largest_share_min"], 0.5)


class ChecksTest(unittest.TestCase):
    def bench(self, workload, *extra, cwd=run.ROOT):
        return subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                               workload, "--seed", "5", "--seconds", "1", *extra],
                              cwd=cwd, capture_output=True, text=True, timeout=600)

    def test_clean_run_passes(self):
        proc = self.bench("warm_serve")
        self.assertEqual(proc.returncode, 0, proc.stderr)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)

    def test_planted_transcript_mismatch_fails(self):
        proc = self.bench("warm_serve", "--plant", "transcript")
        self.assertNotEqual(proc.returncode, 0)
        self.assertIn("transcript mismatch", proc.stderr)
        self.assertFalse(json.loads(proc.stdout.strip().splitlines()[-1])["correct"])

    def test_planted_stats_failure_fails(self):
        proc = self.bench("spill_churn", "--plant", "stats")
        self.assertNotEqual(proc.returncode, 0)
        self.assertIn("stats tail check failed", proc.stderr)

    def test_refuses_a_directory_without_the_repository(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(run.ROOT / "BENCHMARK.json", tmp)
            shutil.copytree(run.BENCH, Path(tmp) / "perfbench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = self.bench("warm_serve", cwd=tmp)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout.strip(), "")


if __name__ == "__main__":
    unittest.main()
