"""The benchmark's per-layer metrics name functions the package still exports.

``BENCHMARK.json`` names each per-layer metric ``layer.function.metric``,
and its tracer wraps every public non-class callable in a layer's
``__all__``.  A function that is renamed, moved or made private would
leave its metrics untraced, and the benchmark marks such a run
incorrect; this catches it in the tests first.  The file is only read.
"""

import importlib
import inspect
import json
from pathlib import Path

import pytest

SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
METRICS = [entry["name"] for entry in SPEC["per_layer"]]


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
