"""Tests of the benchmark itself.  Run from the root of a checkout:

    python3 perfbench/selftest.py

Takes about a minute: one full-size pass of every workload, plus small
traced passes.
"""

from __future__ import annotations

import functools
import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import ballot_lattice as bl  # noqa: E402
import ballot_lattice.checks as checks  # noqa: E402
import ballot_lattice.order as order  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

#: Inputs small enough for traced passes to stay quick.
SMALL = {"analysis": {"requests": 40}, "election": {"voters": 400}}


def temp_dir() -> tempfile.TemporaryDirectory:
    out = BENCH / "out"
    out.mkdir(exist_ok=True)
    return tempfile.TemporaryDirectory(dir=out)


def small(name: str, workdir: str) -> workloads.Workload:
    return workloads.WORKLOADS[name](workloads.DEFAULT_SEED, Path(workdir), **SMALL[name])


def traced_pass(workload: workloads.Workload) -> tuple[tracing.Tracer, workloads.PassResult]:
    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.set_phase("warm_up")
        workloads.warm_up()
        result = workload.run_pass(tracer.set_phase)
    finally:
        tracer.uninstall()
    return tracer, result


class FullPass(unittest.TestCase):
    def test_each_workload_passes_its_checks_and_digest(self):
        for name, cls in workloads.WORKLOADS.items():
            with self.subTest(workload=name), temp_dir() as workdir:
                workload = cls(workloads.DEFAULT_SEED, Path(workdir))
                result = workload.run_pass()
                self.assertEqual(result.failures, [])
                self.assertEqual(result.failed, 0)
                self.assertEqual(result.digest(), workload.expected_digest(workloads.DEFAULT_SEED))


class Tracing(unittest.TestCase):
    def test_traced_outputs_are_byte_identical(self):
        for name in workloads.WORKLOADS:
            with self.subTest(workload=name), temp_dir() as workdir:
                workload = small(name, workdir)
                plain = workload.run_pass()
                tracer, traced = traced_pass(workload)
                self.assertEqual(plain.digest(), traced.digest())
                self.assertTrue(tracer.spans)

    def test_counts_repeat_across_traced_runs(self):
        for name in workloads.WORKLOADS:
            with self.subTest(workload=name), temp_dir() as workdir:
                workload = small(name, workdir)
                first, _ = traced_pass(workload)
                second, _ = traced_pass(workload)
                self.assertEqual(first.calls, second.calls)

    def test_calls_inside_the_package_are_seen(self):
        with temp_dir() as workdir:
            tracer, _ = traced_pass(small("analysis", workdir))
        calls = tracing.by_function(tracer.calls)
        self.assertGreater(calls["order.join"], 0)  # from checks
        self.assertGreater(calls["order.relation_of"], 0)  # from representation
        self.assertGreater(calls["order.covers"], 0)  # from order itself

    def test_cached_functions_stay_traced(self):
        original = order.covers
        order.covers = functools.lru_cache(maxsize=None)(original)
        try:
            self.assertIs(tracing.public_functions()["order.covers"], order.covers)
        finally:
            order.covers = original

    def test_a_named_function_that_is_not_traced_is_reported(self):
        spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())["per_layer"]
        traced = set(tracing.Tracer().originals)
        self.assertEqual(run.untraced_layers(spec, traced), [])
        traced.discard("order.relation_of")
        self.assertEqual(run.untraced_layers(spec, traced), ["order.relation_of"])

    def test_uninstall_restores_every_binding(self):
        original = order.join
        tracer = tracing.Tracer()
        tracer.install()
        self.assertIsNot(order.join, original)
        tracer.uninstall()
        self.assertIs(order.join, original)
        self.assertIs(checks.join, original)


class Checks(unittest.TestCase):
    def test_census_check_flags_a_vacuous_sweep(self):
        payload = bl.exhaustive_verify(4).to_dict()
        self.assertEqual(workloads.check_census(4, payload), [])
        for claim in payload["claims"]:
            if claim["claim"] == "T3.full":
                claim["vacuous"], claim["holds"] = claim["holds"], 0
        self.assertTrue(workloads.check_census(4, payload))

    def test_election_check_flags_a_lost_ballot(self):
        with temp_dir() as workdir:
            workload = small("election", workdir)
            payload = bl.tabulate_irv(bl.load_profile(workload.path)).to_dict()
            self.assertEqual(workload.check_tabulation(payload), [])
            payload["rounds"][0]["exhausted"] += 1
            self.assertTrue(workload.check_tabulation(payload))

    def test_tail_leaves_ten_samples_beyond(self):
        value, percentile, count = workloads._tail([float(i) for i in range(100)])
        self.assertEqual((value, count), (89.0, 100))
        self.assertEqual(percentile, 90.0)


class Contract(unittest.TestCase):
    def test_fails_without_the_package_sources(self):
        with temp_dir() as root:
            shutil.copytree(BENCH, Path(root) / "perfbench", ignore=shutil.ignore_patterns("out"))
            done = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "analysis", "--seed", "0",
                 "--seconds", "1", "--trace", "0"],
                cwd=root, capture_output=True, text=True, timeout=60,
            )
        self.assertNotEqual(done.returncode, 0)
        self.assertNotIn("{", done.stdout)


if __name__ == "__main__":
    unittest.main()
