"""Shared fixtures and helpers for the test suite.

Also registers the hypothesis profiles declared in pyproject.toml
(``[tool.repro.hypothesis.profiles.*]``): ``tier1`` keeps the default
run fast, ``nightly`` widens example counts for scheduled fuzz runs.
Select with ``HYPOTHESIS_PROFILE=nightly``.
"""

from __future__ import annotations

import os
import pathlib
import tomllib

import numpy as np
import pytest
from hypothesis import settings as hypothesis_settings


def _register_hypothesis_profiles() -> None:
    pyproject = pathlib.Path(__file__).resolve().parent.parent / "pyproject.toml"
    profiles = {
        "tier1": {"max_examples": 25, "deadline": 0},
        "nightly": {"max_examples": 400, "deadline": 0},
    }
    try:
        with open(pyproject, "rb") as handle:
            data = tomllib.load(handle)
        declared = data["tool"]["repro"]["hypothesis"]["profiles"]
        profiles.update(declared)
    except (OSError, KeyError, tomllib.TOMLDecodeError):
        pass  # fall back to the built-in defaults above
    for name, options in profiles.items():
        deadline = options.get("deadline", 0)
        hypothesis_settings.register_profile(
            name,
            max_examples=int(options.get("max_examples", 25)),
            deadline=None if not deadline else deadline,
        )
    hypothesis_settings.load_profile(
        os.environ.get("HYPOTHESIS_PROFILE", "tier1")
    )


_register_hypothesis_profiles()

from repro.dialects import affine as affine_d
from repro.dialects import std
from repro.ir import (
    Builder,
    Context,
    FuncOp,
    InsertionPoint,
    ModuleOp,
    ReturnOp,
    f32,
    memref,
    verify,
)


@pytest.fixture
def context():
    return Context()


def build_gemm_module(
    m: int = 8, n: int = 9, k: int = 10, name: str = "gemm"
) -> ModuleOp:
    """A hand-built C += A*B affine module (no C frontend involved)."""
    module = ModuleOp.create()
    func = FuncOp.create(
        name,
        [memref(m, k, f32), memref(k, n, f32), memref(m, n, f32)],
    )
    module.append_function(func)
    a, b, c = func.arguments
    builder = Builder(InsertionPoint.at_end(func.entry_block))
    loops, (i, j, kk) = affine_d.build_loop_nest(
        builder, [(0, m), (0, n), (0, k)]
    )
    body = Builder(InsertionPoint(loops[-1].body, 0))
    c_val = body.insert(affine_d.AffineLoadOp.create(c, [i, j]))
    a_val = body.insert(affine_d.AffineLoadOp.create(a, [i, kk]))
    b_val = body.insert(affine_d.AffineLoadOp.create(b, [kk, j]))
    mul = body.insert(std.MulFOp.create(a_val.result, b_val.result))
    add = body.insert(std.AddFOp.create(mul.result, c_val.result))
    body.insert(affine_d.AffineStoreOp.create(add.result, c, [i, j]))
    builder.insert(ReturnOp.create())
    verify(module, Context())
    return module


def random_arrays(rng_seed: int, *shapes):
    rng = np.random.default_rng(rng_seed)
    return [rng.random(shape, dtype=np.float32) for shape in shapes]


def assert_close(a: np.ndarray, b: np.ndarray, rtol: float = 1e-4) -> None:
    np.testing.assert_allclose(a, b, rtol=rtol, atol=1e-5)


def raise_two_tiers(module: ModuleOp):
    """The TDL tier, then the synthesis fallback on what it left — as
    the pass list spells it.  Returns the two passes' merged stats."""
    from repro.tactics.stats import merge_pass_stats
    from repro.tool import build_pipeline

    pm = build_pipeline(["raise-affine-to-linalg", "raise-affine-synth"])
    pm.run(module)
    return merge_pass_stats(pm.passes)
