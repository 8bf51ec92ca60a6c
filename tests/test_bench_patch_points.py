"""The benchmark's tracer finds every name it wraps.

``bench/spans.py`` replaces package functions by timing wrappers where their
callers look them up (``PATCH_POINTS``).  Renaming or deleting one of them
would break ``bench/run.py --trace`` without failing any package test, so
this test resolves every point the way the tracer does.
"""

import importlib
import importlib.util
import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _spans():
    path = os.path.join(ROOT, "bench", "spans.py")
    spec = importlib.util.spec_from_file_location("bench_spans", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _resolve(module, attr):
    owner = importlib.import_module(module)
    for part in attr.split("."):
        owner = getattr(owner, part)
    return owner


@pytest.mark.parametrize("module,attr,span", _spans().PATCH_POINTS,
                         ids=[f"{m}.{a}" for m, a, _ in _spans().PATCH_POINTS])
def test_patch_point_resolves(module, attr, span):
    assert callable(_resolve(module, attr)), span


def test_the_tracer_installs_and_restores_every_point():
    spans = _spans()
    tracer = spans.Tracer()
    before = {(m, a): _resolve(m, a) for m, a, _ in spans.PATCH_POINTS}
    with tracer.patched():
        for m, a, _ in spans.PATCH_POINTS:
            assert _resolve(m, a) is not before[(m, a)]
    assert {(m, a): _resolve(m, a) for m, a, _ in spans.PATCH_POINTS} == before
