import sys

import pytest

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
