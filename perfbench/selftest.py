"""Fast self-test of the benchmark harness.

    python3 perfbench/selftest.py

Runs every workload of BENCHMARK.json in both modes on tiny inputs (the
``--tiny`` flag, whose figures are never reported as metrics) and checks
the output schema, that the printed metric names and units are exactly
those BENCHMARK.json declares, and that the traced run reproduces the
untraced run's simulated counts and trace digest.  It also checks that
the benchmark refuses to run without the package source, and that the
instruments leave the package as they found it.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
SEED = 3


def run_bench(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    cmd = SPEC["command"] + [
        "--workload", workload, "--seed", str(SEED), "--seconds", "0.3",
        "--trace", str(trace), "--tiny",
    ]
    cmd[0] = sys.executable if cmd[0] == "python3" else cmd[0]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


class HarnessTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.runs = {}
        for w in SPEC["workloads"]:
            for trace in (0, 1):
                proc = run_bench(ROOT, w["name"], trace)
                lines = proc.stdout.strip().splitlines()
                cls.runs[w["name"], trace] = (proc, lines)

    def test_result_schema_and_metric_names(self):
        for (workload, trace), (proc, lines) in self.runs.items():
            with self.subTest(workload=workload, trace=trace):
                self.assertEqual(proc.returncode, 0, proc.stderr)
                result = json.loads(lines[-1])
                self.assertEqual(
                    set(result), {"correct", "attempted", "failed", "metrics"}
                )
                self.assertIs(result["correct"], True)
                self.assertIsInstance(result["attempted"], int)
                self.assertGreaterEqual(result["attempted"], 1)
                self.assertEqual(result["failed"], 0)
                declared = SPEC["per_layer" if trace else "end_to_end"]
                self.assertEqual(
                    {k: v["unit"] for k, v in result["metrics"].items()},
                    {m["name"]: m["unit"] for m in declared},
                )
                for name, metric in result["metrics"].items():
                    self.assertEqual(set(metric), {"value", "unit"}, name)
                    value = metric["value"]
                    self.assertIsInstance(value, (int, float), name)
                    self.assertNotIsInstance(value, bool, name)
                    self.assertTrue(math.isfinite(value), name)

    def test_traced_run_matches_untraced(self):
        for w in SPEC["workloads"]:
            with self.subTest(workload=w["name"]):
                records = [
                    json.loads(self.runs[w["name"], trace][1][-2])["record"]
                    for trace in (0, 1)
                ]
                for key in ("trace_digest", "sim_events", "sim_attempts"):
                    self.assertEqual(records[0][key], records[1][key], key)
                self.assertGreaterEqual(records[1]["samples"]["traced_ops"], 1)

    def test_refuses_to_run_without_package_source(self):
        with tempfile.TemporaryDirectory(dir=HERE / "out") as tmp:
            bare = Path(tmp)
            shutil.copy(ROOT / "BENCHMARK.json", bare)
            for path in SPEC["paths"]:
                shutil.copytree(
                    ROOT / path, bare / path,
                    ignore=shutil.ignore_patterns("out", "__pycache__"),
                )
            proc = run_bench(bare, SPEC["workloads"][0]["name"], 0)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"metrics"', proc.stdout)


class InstrumentsTest(unittest.TestCase):
    def test_wrappers_are_removed_on_exit(self):
        sys.path.insert(0, str(ROOT / "src"))
        sys.path.insert(0, str(HERE))
        from oblishuffle import cache, cli, txn, verify
        from tracing import Instruments

        before = (
            dict(vars(cache.CacheSim)),
            dict(vars(txn.TxnContext)),
            verify.run_txn,
            cli.main,
            verify.probe_cache_sizes,
        )
        with Instruments(traced=True):
            self.assertIsNot(verify.run_txn, before[2])
            self.assertIsNot(cli.main, before[3])
        after = (
            dict(vars(cache.CacheSim)),
            dict(vars(txn.TxnContext)),
            verify.run_txn,
            cli.main,
            verify.probe_cache_sizes,
        )
        self.assertEqual(before, after)


if __name__ == "__main__":
    unittest.main()
