"""Each public name is declared once: in its layer's ``__all__``.

The package top level re-exports the five library layers with wildcard
imports, so its public names are exactly the union of their ``__all__``
lists.  A name listed by two layers would be shadowed silently by the
later import, and a listed name the layer lacks would break the import.
"""

import types
from collections import Counter

import pytest

import ballot_lattice
from ballot_lattice import checks, election, enumeration, order, representation

LAYERS = [checks, election, enumeration, order, representation]


def test_top_level_is_the_union_of_the_layers():
    public = {
        name
        for name, value in vars(ballot_lattice).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert public == {name for layer in LAYERS for name in layer.__all__}


def test_no_name_is_listed_by_two_layers():
    counts = Counter(name for layer in LAYERS for name in layer.__all__)
    assert [name for name, count in counts.items() if count > 1] == []


@pytest.mark.parametrize("layer", LAYERS, ids=lambda layer: layer.__name__.rsplit(".", 1)[1])
def test_every_listed_name_resolves_in_its_layer(layer):
    assert [name for name in layer.__all__ if not hasattr(layer, name)] == []
    for name in layer.__all__:
        assert getattr(ballot_lattice, name) is getattr(layer, name)
