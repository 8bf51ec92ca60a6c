"""The benchmark's tracer finds every name it wraps, and its scripts find
every name they import.

``bench/spans.py`` replaces package functions by timing wrappers where their
callers look them up (``PATCH_POINTS``).  Renaming or deleting one of them
would break ``bench/run.py --trace`` without failing any package test, so
this test resolves every point the way the tracer does.  The same holds for
the names the scripts import from ``srlnc``, such as the ``DecoderState``
behind the traced ``coding.absorb`` layer.
"""

import ast
import glob
import importlib
import importlib.util
import os

import numpy as np
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


def _bench_imports():
    """(module, name) for every ``from srlnc... import name`` in bench/."""
    found = []
    for path in sorted(glob.glob(os.path.join(ROOT, "bench", "*.py"))):
        with open(path) as fh:
            tree = ast.parse(fh.read(), path)
        found += [(node.module, alias.name) for node in ast.walk(tree)
                  if isinstance(node, ast.ImportFrom)
                  and (node.module or "").split(".")[0] == "srlnc"
                  for alias in node.names]
    return found


@pytest.mark.parametrize("module,name", _bench_imports(),
                         ids=[f"{m}.{n}" for m, n in _bench_imports()])
def test_bench_import_resolves(module, name):
    owner = importlib.import_module(module)
    if not hasattr(owner, name):  # a submodule, which the import loads
        importlib.import_module(f"{module}.{name}")


@pytest.mark.parametrize("q", [2, 16])
def test_the_absorb_layer_runs(q):
    # the call bench/run.py times as coding.absorb, at the workloads' K
    from srlnc.coding import CodeParams, DecoderState, sample_coding_matrix

    code = CodeParams(K=20, q=q, p=1.0 / q, n_hat=40)
    dec = DecoderState(20, q)
    grew = [dec.absorb(v) for v in
            sample_coding_matrix(code, 30, np.random.default_rng(q))]
    assert sum(grew) == dec.rank == 20
