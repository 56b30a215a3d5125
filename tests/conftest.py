import os
import subprocess
import sys
from pathlib import Path

import pytest

import ballot_lattice
from ballot_lattice import parse_ballot, relation_of
from ballot_lattice.order import _check_token


@pytest.fixture
def deep_ballot():
    """Three ranked candidates over a four-way tied tail."""
    return parse_ballot("x>y>z>a~b~c~d")


@pytest.fixture
def deep_relation(deep_ballot):
    return relation_of(deep_ballot)


@pytest.fixture
def relation_builds(monkeypatch):
    """Every ballot passed to ``relation_of`` from inside the package, in order."""
    calls = []

    def counting(ballot):
        calls.append(ballot)
        return relation_of(ballot)

    for name, module in list(sys.modules.items()):
        if name.startswith("ballot_lattice") and getattr(module, "relation_of", None) is relation_of:
            monkeypatch.setattr(module, "relation_of", counting)
    return calls


@pytest.fixture
def id_checks(monkeypatch):
    """Every candidate id passed to ``_check_token`` from inside the package, in order."""
    calls = []

    def counting(token):
        calls.append(token)
        return _check_token(token)

    for name, module in list(sys.modules.items()):
        if name.startswith("ballot_lattice") and getattr(module, "_check_token", None) is _check_token:
            monkeypatch.setattr(module, "_check_token", counting)
    return calls


@pytest.fixture
def child_env():
    """The environment for a child interpreter that imports this same package."""
    paths = [str(Path(ballot_lattice.__file__).resolve().parents[1])]
    if os.environ.get("PYTHONPATH"):
        paths.append(os.environ["PYTHONPATH"])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(paths))


@pytest.fixture
def stderr_by_hash_seed(child_env):
    """Run a Python snippet once under each ``PYTHONHASHSEED`` 1..6; the set of last stderr lines."""

    def run(snippet: str) -> set[str]:
        return {
            subprocess.run(
                [sys.executable, "-c", snippet],
                capture_output=True,
                text=True,
                env=dict(child_env, PYTHONHASHSEED=str(seed)),
            ).stderr.splitlines()[-1]
            for seed in range(1, 7)
        }

    return run
