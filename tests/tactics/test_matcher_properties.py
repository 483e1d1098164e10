"""Property-based tests for the tactic matchers.

Invariants:
  * the GEMM tactic matches a C += A*B nest under *any* loop
    permutation, and the recovered tensors/extents are correct;
  * coefficient/offset access patterns match exactly the code they
    describe (soundness and completeness over a grid of k, c);
  * raising is always semantics-preserving on randomized shapes.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dialects.affine import AffineLoadOp, outermost_loops
from repro.execution import Interpreter
from repro.met import compile_c
from repro.tactics import raise_affine_to_linalg
from repro.tactics.raising import gemm_tactic

from .matchers import (
    AccessPatternContext,
    m_ArrayPlaceholder,
    m_Op,
    m_Placeholder,
)
from ..conftest import assert_close


def _gemm_src(order, m=5, n=6, k=7):
    loops = {
        "i": f"for (int i = 0; i < {m}; i++)",
        "j": f"for (int j = 0; j < {n}; j++)",
        "k": f"for (int k = 0; k < {k}; k++)",
    }
    nest = "\n    ".join(loops[v] for v in order)
    return (
        f"void gemm(float A[{m}][{k}], float B[{k}][{n}], "
        f"float C[{m}][{n}]) {{\n    {nest}\n"
        "        C[i][j] += A[i][k] * B[k][j];\n}\n"
    )


@pytest.mark.parametrize(
    "order", list(itertools.permutations("ijk")), ids="".join
)
def test_gemm_matches_any_loop_order(order):
    module = compile_c(_gemm_src(order))
    root = outermost_loops(module.functions[0])[0]
    result = gemm_tactic().match(root)
    assert result is not None
    func = module.functions[0]
    a, b, c = func.arguments
    assert result.memref_of["A"] is a
    assert result.memref_of["B"] is b
    assert result.memref_of["C"] is c
    assert result.extent_of == {"i": 5, "j": 6, "k": 7}


@given(
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=0, max_value=5),
)
@settings(max_examples=30, deadline=None)
def test_access_pattern_soundness(k, c):
    """The pattern k*_i + c matches exactly the access it denotes."""
    size = 4 * k + c + 1
    src = (
        f"void f(float A[{size}]) {{\n"
        "  for (int i = 0; i < 4; i++)\n"
        f"    A[{k} * i + {c}] += 1.0f;\n"
        "}\n"
    )
    module = compile_c(src, distribute=False)
    load = next(op for op in module.walk() if isinstance(op, AffineLoadOp))
    with AccessPatternContext():
        _i = m_Placeholder()
        _A = m_ArrayPlaceholder()
        assert m_Op(AffineLoadOp, _A(k * _i + c)).match(load)
    # completeness: any *other* (k', c') must not match
    for dk in (k + 1, k + 2):
        with AccessPatternContext():
            _i = m_Placeholder()
            _A = m_ArrayPlaceholder()
            assert not m_Op(AffineLoadOp, _A(dk * _i + c)).match(load)
    with AccessPatternContext():
        _i = m_Placeholder()
        _A = m_ArrayPlaceholder()
        assert not m_Op(AffineLoadOp, _A(k * _i + c + 1)).match(load)


@given(
    st.integers(min_value=2, max_value=9),
    st.integers(min_value=2, max_value=9),
    st.integers(min_value=2, max_value=9),
    st.randoms(use_true_random=False),
)
@settings(max_examples=15, deadline=None)
def test_raising_random_shapes_preserves_semantics(m, n, k, rand):
    order = list("ijk")
    rand.shuffle(order)
    src = _gemm_src(order, m, n, k)
    ref = compile_c(src)
    raised = compile_c(src)
    stats = raise_affine_to_linalg(raised)
    assert stats.callsites.get("GEMM") == 1
    rng = np.random.default_rng(m * 100 + n * 10 + k)
    a = rng.random((m, k), dtype=np.float32)
    b = rng.random((k, n), dtype=np.float32)
    c1 = np.zeros((m, n), np.float32)
    c2 = np.zeros((m, n), np.float32)
    Interpreter(ref).run("gemm", a, b, c1)
    Interpreter(raised).run("gemm", a, b, c2)
    assert_close(c1, c2)


def test_match_does_not_mutate_ir():
    module = compile_c(_gemm_src("ijk"))
    from repro.ir import print_module

    before = print_module(module)
    root = outermost_loops(module.functions[0])[0]
    gemm_tactic().match(root)
    assert print_module(module) == before


def test_failed_match_leaves_no_bindings():
    module = compile_c(_gemm_src("ijk"))
    root = outermost_loops(module.functions[0])[0]
    tactic = gemm_tactic()
    # matching an inner loop (wrong band depth) must fail cleanly
    inner = root.ops_in_body()[0]
    assert tactic.match(inner) is None
    # and the tactic stays reusable
    assert tactic.match(root) is not None
