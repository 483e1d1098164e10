"""The examples must stay runnable (they are part of the public API)."""

import functools
import os
import subprocess
import sys

import pytest

EXAMPLES_DIR = os.path.join(os.path.dirname(__file__), "..", "examples")

EXAMPLES = [
    "quickstart.py",
    "tensor_contraction_ttgt.py",
    "matrix_chain_reordering.py",
    "custom_tactic.py",
    "progressive_lowering_tour.py",
]


@functools.lru_cache(maxsize=None)
def run_example(example):
    """Run one example once per session; every test of it reads this result."""
    return subprocess.run(
        [sys.executable, os.path.join(EXAMPLES_DIR, example)],
        capture_output=True,
        text=True,
        timeout=180,
    )


@pytest.mark.parametrize("example", EXAMPLES)
def test_example_runs(example):
    result = run_example(example)
    assert result.returncode == 0, result.stderr[-2000:]
    assert result.stdout  # every example reports something


def test_quickstart_validates_semantics():
    result = run_example("quickstart.py")
    assert "raising preserved the program's semantics" in result.stdout
    assert "linalg.matmul" in result.stdout
