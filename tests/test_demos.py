"""The demos run to completion as scripts."""

import os
import subprocess
import sys

import pytest

import srlnc

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.mark.parametrize("demo", [
    "01_field_arithmetic.py",
    "02_sparse_coding_rank.py",
    "03_rank_probabilities.py",
    "04_intercept_chain.py",
    "05_feedback_jamming_sim.py",
    "06_sparsity_optimization.py",
])
def test_demo_exits_cleanly(demo):
    src = os.path.dirname(os.path.dirname(srlnc.__file__))
    done = subprocess.run(
        [sys.executable, os.path.join(ROOT, "demos", demo)],
        capture_output=True, text=True, timeout=300,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert done.returncode == 0, done.stderr
