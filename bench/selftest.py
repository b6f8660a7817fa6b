"""Self-test of the benchmark itself (not of the library).

    python3 bench/selftest.py

Checks that every workload's oracle accepts the library's answers at a
tiny size, that a corrupted answer is counted as failed (so the check
cannot pass vacuously), that inputs are a pure function of the seed,
that the tracer's computed counters match hand-known values, that a run
prints the result line the benchmark contract asks for, and that a run
without the library source fails without printing a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402  (run puts src/ on sys.path)

run._import_library()

from fstarcount import simplices  # noqa: E402
from tracer import Instrumented, Tracer, layer_times  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def _first_cycle(workload, seed):
    return run.Pool(workload, seed).inputs_for(1)


class WorkloadChecks(unittest.TestCase):
    def test_tiny_runs_have_no_failures(self):
        for workload in WORKLOADS.values():
            with self.subTest(workload=workload.name):
                pool = run.Pool(workload, 3)
                pool.inputs_for(1)
                outputs = [workload.run(inp) for inp in pool.inputs]
                failures = run.check_outputs(workload, pool, outputs, {})
                self.assertEqual(failures, {})
                self.assertEqual(len(failures) / len(outputs), 0.0)

    def test_corrupted_answer_counts_as_failed(self):
        for workload in WORKLOADS.values():
            with self.subTest(workload=workload.name):
                pool = run.Pool(workload, 4)
                pool.inputs_for(1)
                outputs = [workload.run(inp) for inp in pool.inputs[:2]]
                outputs[1] = workload.corrupt(outputs[1])
                failures = run.check_outputs(workload, pool, outputs, {})
                self.assertEqual(list(failures), [1])

    def test_inputs_are_a_function_of_the_seed(self):
        for workload in WORKLOADS.values():
            with self.subTest(workload=workload.name):
                first = json.dumps(_first_cycle(workload, 7)).encode()
                again = json.dumps(_first_cycle(workload, 7)).encode()
                other = json.dumps(_first_cycle(workload, 8)).encode()
                self.assertEqual(first, again)
                self.assertNotEqual(first, other)


class TracerChecks(unittest.TestCase):
    def test_counters_of_a_known_simplex(self):
        # det 1,776: the atomic walk visits 72,692 candidates and keeps
        # 11,085 atomic points.
        s = simplices.Simplex([(0, 0, 0, 0), (5, 1, 0, 0), (0, 6, 2, 0),
                               (1, 0, 7, 3), (2, 2, 2, 9)], is_open=True)
        tracer = Tracer()
        tracer.query = 0
        with Instrumented(tracer):
            f = simplices.fstar_simplex(s)
        self.assertFalse(hasattr(simplices.fstar_simplex, "__wrapped__"),
                         "wrappers must be removed on exit")
        layers = layer_times(tracer, {0})
        self.assertEqual(sum(f.entries), 11085)
        self.assertEqual(layers["cones.atomic"]["count"], 11085)
        self.assertEqual(layers["cones.parallelepiped"]["count"], 1776)
        self.assertEqual(tracer.extra["cones.atomic_candidates"], 72692)


class ContractChecks(unittest.TestCase):
    def test_result_line(self):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload",
             "dilate-count", "--seed", "5", "--seconds", "1", "--trace", "0"],
            capture_output=True, text=True, timeout=170)
        self.assertEqual(proc.returncode, 0, proc.stderr)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        self.assertEqual(set(result),
                         {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], run.MIN_QUERIES)
        self.assertEqual(set(result["metrics"]), set(run.END_TO_END_UNITS))
        for entry in result["metrics"].values():
            self.assertGreater(entry["value"], 0)

    def test_fails_without_library_source(self):
        bare = run.OUT / "tmp" / "bare-checkout"
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(HERE, bare / HERE.name,
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        try:
            proc = subprocess.run(
                [sys.executable, f"{HERE.name}/run.py", "--workload",
                 "fat-simplex", "--seed", "1", "--seconds", "1",
                 "--trace", "0"],
                cwd=bare, capture_output=True, text=True, timeout=170)
        finally:
            shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn("{", proc.stdout)


if __name__ == "__main__":
    unittest.main()
