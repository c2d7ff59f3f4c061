"""The benchmark in ``perfbench/`` names cobarlab functions and methods by string.

A rename would break ``--trace 1`` (a traced ``Matrix`` method that no longer
exists) or silently zero a layer metric (a span name nothing records).  These
tests fail on such a rename instead; they are skipped when the checkout has
no ``perfbench/``.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

from cobarlab.exactlin import Matrix

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

pytestmark = pytest.mark.skipif(not PERFBENCH.is_dir(), reason="no perfbench/ in this checkout")


def _load(name):
    spec = importlib.util.spec_from_file_location("perfbench_" + name, PERFBENCH / (name + ".py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_matrix_methods_are_matrix_attributes():
    job = _load("job")
    assert [name for name in job.MATRIX_METHODS if not hasattr(Matrix, name)] == []


def test_layer_span_names_are_traced_public_functions():
    job = _load("job")
    layers = _load("layers")
    wildcards = [p for p in layers.SELF_TIME.values() if isinstance(p, str)]
    names = [n for p in layers.SELF_TIME.values() if not isinstance(p, str) for n in p]
    names += list(layers.DURATION.values()) + [layers.RANK, layers.KRON, layers.CORESOLUTION] + list(job.INFO)
    assert names
    for pattern in wildcards:
        assert pattern.endswith(".*") and pattern[:-2] in job.MODULES, pattern
    for name in names:
        short, _, attr = name.partition(".")
        assert short in job.MODULES, name
        if attr.startswith("Matrix."):
            assert attr[len("Matrix.") :] in job.MATRIX_METHODS, name
            continue
        module = importlib.import_module("cobarlab." + short)
        obj = getattr(module, attr, None)
        # the tracer wraps exactly these: see Tracer.install in perfbench/job.py
        assert not attr.startswith("_") and inspect.isfunction(obj) and obj.__module__ == module.__name__, name
