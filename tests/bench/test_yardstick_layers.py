"""The end-to-end yardstick's entry points still exist.

``benchmarks/e2e/layers.py`` names, by dotted path, every function and
method the traced run wraps.  A target that no longer resolves is only
a warning there, and every per-layer metric it feeds reads -1 — which
the yardstick's own self-tests notice, but they run outside tier-1.
This test reads the table (never changes it) and fails as soon as a
rename in ``src/`` would blank a metric.
"""

from __future__ import annotations

import importlib
import inspect
import sys
from pathlib import Path

import pytest

E2E = Path(__file__).resolve().parents[2] / "benchmarks" / "e2e"


def _load_layers():
    """Import ``layers`` (and its sibling ``tracing``) from the
    benchmark directory without writing bytecode there or leaving
    either name in ``sys.modules``."""
    saved = sys.dont_write_bytecode, list(sys.path)
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(E2E))
    try:
        return importlib.import_module("layers")
    finally:
        sys.dont_write_bytecode, sys.path[:] = saved
        sys.modules.pop("layers", None)
        sys.modules.pop("tracing", None)


LAYERS = _load_layers().LAYERS


def _resolve(target: str):
    """The object ``target`` names, the way the tracer finds it:
    ``module:function`` or ``module:Class.method``."""
    module_name, _, path = target.partition(":")
    module = importlib.import_module(module_name)
    if "." in path:
        class_name, method = path.split(".")
        return getattr(module, class_name).__dict__[method]
    return getattr(module, path)


def test_the_table_has_every_layer():
    assert len(LAYERS) == 34
    assert len({layer.span for layer in LAYERS}) == len(LAYERS)


@pytest.mark.parametrize("layer", LAYERS, ids=lambda layer: layer.span)
def test_each_entry_point_resolves(layer):
    target = _resolve(layer.target)
    assert inspect.iscoroutinefunction(target) == layer.is_async
