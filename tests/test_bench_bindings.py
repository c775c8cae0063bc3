"""The names the benchmark's tracer binds to, read from perfbench/spans.py.

The tracer wraps each layer wherever the package binds it, so a layer it
names must stay a package function, and the shared bindings its tests
assert must stay shared. The benchmark's own tests do not run in this
suite; these checks do, on its layer list, without changing it.
"""
from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

from multirate_zeros import blocking, harness, zeros

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


@pytest.fixture(scope="module")
def spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_layer_is_a_package_function(spans):
    for layer in spans.LAYERS:
        func = spans.layer_function(layer)
        assert callable(func), layer
        assert func.__module__.startswith(f"{spans.PACKAGE}."), layer


def test_bindings_the_tracer_asserts_are_shared():
    assert harness.block is blocking.block
    assert zeros.normal_rank is harness.normal_rank
