"""The benchmark's contract with the package, checked in the tests first.

``BENCHMARK.json`` names each per-layer metric ``layer.function.metric``,
and its tracer wraps every public non-class callable in a layer's
``__all__``.  A function that is renamed, moved or made private would
leave its metrics untraced, and the benchmark marks such a run
incorrect.  Each workload's pass also checks its outputs and hashes them
against a recorded digest; a change that alters an output byte would
otherwise show only when the benchmark refuses the run.  ``BENCHMARK.json``
and ``perfbench/workloads.py`` are only read.
"""

import importlib
import inspect
import json
import sys
import types
from collections import Counter
from pathlib import Path

import pytest

from ballot_lattice import ElectionProfile, RankedBallot, election, load_profile, truncation_experiment

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
METRICS = [entry["name"] for entry in SPEC["per_layer"]]


def perfbench_workloads() -> types.ModuleType:
    """``perfbench/workloads.py`` as a module, compiled in memory so no bytecode is written."""
    name = "perfbench_workloads"
    if name not in sys.modules:
        path = ROOT / "perfbench" / "workloads.py"
        module = types.ModuleType(name)
        module.__file__ = str(path)
        # Registered first: dataclasses resolve their annotations through it.
        sys.modules[name] = module
        exec(compile(path.read_text(encoding="utf-8"), str(path), "exec"), module.__dict__)
    return sys.modules[name]


@pytest.mark.parametrize("metric", METRICS)
def test_per_layer_function_is_public(metric):
    layer, function, _ = metric.split(".", 2)
    module = importlib.import_module(f"ballot_lattice.{layer}")
    assert function in module.__all__
    fn = getattr(module, function)
    assert callable(fn) and not inspect.isclass(fn)
    # Defined in the layer itself, so the tracer files it under this name
    # even when another layer re-exports it.
    assert fn.__module__ == module.__name__


@pytest.mark.parametrize("workload", [entry["name"] for entry in SPEC["workloads"]])
def test_default_seed_pass_passes_its_checks_and_digest(workload, tmp_path):
    bench = perfbench_workloads()
    run = bench.WORKLOADS[workload](bench.DEFAULT_SEED, tmp_path)
    result = run.run_pass()
    assert result.failures == []
    assert result.failed == 0
    assert result.digest() == bench.EXPECTED_DIGESTS[workload]


def test_election_csv_load_checks_each_id_once(tmp_path, id_checks):
    bench = perfbench_workloads()
    run = bench.WORKLOADS["election"](bench.DEFAULT_SEED, tmp_path)
    profile = load_profile(run.path)
    assert len(profile.ballots) == 10_000
    assert len(id_checks) == 10
    assert Counter(id_checks) == Counter(profile.candidates)


def test_election_csv_load_groups_voters_without_the_constructor(tmp_path, monkeypatch):
    bench = perfbench_workloads()
    run = bench.WORKLOADS["election"](bench.DEFAULT_SEED, tmp_path)
    calls = Counter()
    post_init, ballot_hash = ElectionProfile.__post_init__, RankedBallot.__hash__

    def counted_post_init(self):
        calls["post_init"] += 1
        post_init(self)

    def counted_hash(self):
        calls["hash"] += 1
        return ballot_hash(self)

    monkeypatch.setattr(ElectionProfile, "__post_init__", counted_post_init)
    monkeypatch.setattr(RankedBallot, "__hash__", counted_hash)
    profile = load_profile(run.path)
    distinct = run.facts()["distinct_ballots"]
    assert len(profile._voters) == distinct == 3_618
    assert calls["post_init"] == 0
    # Once to share each distinct chain's ballot, once to key its voter group.
    assert calls["hash"] <= 2 * distinct


def test_election_truncation_counts_round_one_once(tmp_path, monkeypatch):
    bench = perfbench_workloads()
    run = bench.WORKLOADS["election"](bench.DEFAULT_SEED, tmp_path)
    profile = load_profile(run.path)
    counts, walks = [], []
    tabulate, rounds = election._tabulate, election._rounds

    def counted_tabulate(profile, depths):
        counts.append(list(depths))
        return tabulate(profile, depths)

    def counted_rounds(voters, chains, weights, ends, piles, totals):
        walks.append(max(ends))
        return rounds(voters, chains, weights, ends, piles, totals)

    monkeypatch.setattr(election, "_tabulate", counted_tabulate)
    monkeypatch.setattr(election, "_rounds", counted_rounds)
    report = truncation_experiment(profile, range(1, 11))
    assert sorted(report.results) == list(range(1, 11))
    # Round one's piles are filled by the one count; lengths 9 and 10 share depth 10.
    assert counts == [[1, 2, 3, 4, 5, 6, 7, 8, 10, 10]]
    assert walks == [1, 2, 3, 4, 5, 6, 7, 8, 10]
