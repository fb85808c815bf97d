"""Self-tests of the benchmark itself, at tiny sizes (about a minute).

Run from the root of a checkout::

    python3 seobench/selftest.py

They are not named ``test_*.py`` on purpose, so the repository's own test
suite does not collect them.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
import unittest
from pathlib import Path

import run
from harness import Checkout, invoke
from tracer import Tracer, bindings_snapshot, import_package, kernel_functions, kernel_name
from workloads import WORKLOADS

CHECKOUT = Checkout(Path.cwd())
DIGEST = CHECKOUT.source_digest()
TINY = {name: workload.scaled(episodes=2, max_steps=5) for name, workload in WORKLOADS.items()}


def deadline() -> float:
    return time.perf_counter() + run.RUN_BUDGET_S


class SmokeRuns(unittest.TestCase):
    """Every workload runs end to end, traced and untraced, at minimal size."""

    def test_timed_run_of_each_workload(self) -> None:
        for name, workload in TINY.items():
            with self.subTest(workload=name):
                metrics, tally, record = run.timed_run(
                    CHECKOUT, DIGEST, workload, seed=0, seconds=0, deadline=deadline()
                )
                # One round: setup, command, resumes.
                self.assertEqual(
                    (tally.attempted, tally.failed), (2 + run.RESUMES_PER_ROUND, 0),
                    tally.records,
                )
                self.assertEqual(set(metrics), set(run.END_TO_END))
                for metric, value in metrics.items():
                    self.assertGreater(value["value"], 0, metric)
                self.assertGreater(record["reference"]["frames"], 0)

    def test_traced_run_of_each_workload(self) -> None:
        # Layers each workload must reach (see seobench/README.md).
        exercised = {
            "paper-batch": ("batch.calls", "kernel.rk4_plant_batch.calls",
                            "comm.offload_sample_calls"),
            "suite-serial": ("framework.episode_s", "sim.scan_calls",
                             "kernel.Centerline.project_batch.calls"),
            "sweep-async-ledger": ("remote.episodes_dispatched", "remote.pool_start_s",
                                   "remote.roundtrip_p50_s", "ledger.put_s",
                                   "ledger.bytes_written", "sweep.pools_created"),
        }
        for name, workload in TINY.items():
            with self.subTest(workload=name):
                path = CHECKOUT.scratch / "trace" / f"selftest-{name}.jsonl"
                metrics, tally, record = run.traced_run(
                    CHECKOUT, DIGEST, workload, seed=0, deadline=deadline(), trace_path=path
                )
                # Untraced x2, traced x2 (each equal to the reference and to
                # its untraced twin), and the restore check.
                self.assertEqual((tally.attempted, tally.failed), (5, 0), tally.records)
                self.assertTrue(record["wrappers_restored"])
                self.assertEqual(set(metrics), set(run.per_layer_units()))
                for metric in ("trace.wall_s", "sweep.units_declared", *exercised[name]):
                    self.assertGreater(metrics[metric]["value"], 0, metric)
                self.assertEqual(metrics["ledger.hit_ratio"]["value"], 1.0)
                lines = [json.loads(line) for line in path.read_text().splitlines()]
                spans = [line for line in lines if line["type"] == "span"]
                ids = {span["id"] for span in spans}
                self.assertTrue(all(
                    span["parent"] is None or span["parent"] in ids for span in spans
                ))
                self.assertEqual(lines[-1]["type"], "summary")


class Tracing(unittest.TestCase):
    def test_wrappers_restored_after_an_error(self) -> None:
        import_package()
        before = bindings_snapshot()
        with self.assertRaises(RuntimeError), Tracer().installed():
            self.assertNotEqual(bindings_snapshot(), before)
            raise RuntimeError("boom")
        self.assertEqual(bindings_snapshot(), before)

    def test_kernel_list_matches_the_package(self) -> None:
        import_package()
        functions, methods = kernel_functions()
        found = {kernel_name(fn) for fn in [*functions, *(m[2] for m in methods)]}
        self.assertEqual(found, set(run.KERNELS))


class Contract(unittest.TestCase):
    def setUp(self) -> None:
        self.spec = json.loads((CHECKOUT.root / "BENCHMARK.json").read_text())

    def test_metrics_match_benchmark_json(self) -> None:
        self.assertEqual(
            {m["name"]: m["unit"] for m in self.spec["end_to_end"]}, run.END_TO_END
        )
        self.assertEqual(
            {m["name"]: m["unit"] for m in self.spec["per_layer"]}, run.per_layer_units()
        )

    def test_workloads_match_benchmark_json(self) -> None:
        self.assertEqual(
            {w["name"]: w["why"] for w in self.spec["workloads"]},
            {name: workload.why for name, workload in WORKLOADS.items()},
        )

    def test_refuses_a_directory_without_the_program(self) -> None:
        bare = CHECKOUT.fresh_dir("bare")
        shutil.copy(CHECKOUT.root / "BENCHMARK.json", bare)
        shutil.copytree(
            CHECKOUT.root / "seobench", bare / "seobench",
            ignore=shutil.ignore_patterns("__pycache__"),
        )
        done = subprocess.run(
            [sys.executable, *self.spec["command"][1:], "--workload", "paper-batch",
             "--seed", "0", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=60, check=False,
        )
        self.assertNotEqual(done.returncode, 0)
        self.assertEqual(done.stdout, "")
        shutil.rmtree(bare)


class Seeds(unittest.TestCase):
    def unit_keys(self, seed: int, tag: str) -> set[str]:
        """Content hashes of the work units the command declares for a seed."""
        from repro.runtime.ledger import RunLedger

        ledger = CHECKOUT.fresh_dir(f"selftest-ledger-{tag}")
        argv = [*TINY["paper-batch"].reference_argv(seed), "--ledger-dir", str(ledger)]
        self.assertEqual(invoke(CHECKOUT, argv, 120.0).returncode, 0)
        return set(RunLedger(ledger).keys())

    def test_seeds_give_different_inputs(self) -> None:
        seed0, seed1 = self.unit_keys(0, "a"), self.unit_keys(1, "b")
        self.assertTrue(seed0)
        self.assertFalse(seed0 & seed1)
        self.assertEqual(seed0, self.unit_keys(0, "c"))


if __name__ == "__main__":
    CHECKOUT.prepare()
    unittest.main(verbosity=2)
