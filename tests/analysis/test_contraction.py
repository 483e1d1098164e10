"""The one contraction reader (``analysis/contraction.py``) and the
interpreter's use of it: a generic the reader recognises runs as one
``np.einsum``, any other as scalar loops, and the two agree."""

from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.contraction import Contraction, generic_contraction_spec
from repro.dialects import linalg as linalg_d
from repro.execution import Interpreter
from repro.execution import interpreter as interpreter_module
from repro.ir import (
    AffineMap,
    Builder,
    FuncOp,
    InsertionPoint,
    ModuleOp,
    ReturnOp,
    f32,
    memref,
)
from repro.ir import affine_expr as ae


def _contraction_module(
    extents, a_dims, b_dims, out_dims, subtract, b_shape=None
):
    """``f(A, B, C)``: one multiply-accumulate generic over loops of
    ``extents``; an empty ``out_dims`` is a scalar accumulator
    ``C[0]``.  Each operand spans its loops unless ``b_shape`` says
    otherwise."""
    loops = len(extents)
    shapes = [
        [extents[d] for d in a_dims],
        b_shape or [extents[d] for d in b_dims],
        [extents[d] for d in out_dims] or [1],
    ]
    module = ModuleOp.create()
    func = FuncOp.create("f", [memref(*shape, f32) for shape in shapes])
    module.append_function(func)
    builder = Builder(InsertionPoint.at_end(func.entry_block))
    maps = [
        AffineMap(loops, 0, [ae.dim(d) for d in a_dims]),
        AffineMap(loops, 0, [ae.dim(d) for d in b_dims]),
        AffineMap(
            loops, 0, [ae.dim(d) for d in out_dims] or [ae.constant(0)]
        ),
    ]
    op = builder.insert(
        linalg_d.GenericOp.create_contraction(
            *func.arguments, maps, subtract=subtract
        )
    )
    builder.insert(ReturnOp.create())
    return module, op, shapes


@st.composite
def contractions(draw):
    """A random two-operand contraction: every loop indexes a factor,
    the output keeps any subset of the loops (none: a scalar)."""
    loops = draw(st.integers(1, 4))
    extents = draw(st.lists(st.integers(1, 4), min_size=loops, max_size=loops))
    a_dims = draw(st.permutations(range(loops)))[: draw(st.integers(1, loops))]
    rest = [d for d in range(loops) if d not in a_dims]
    extra = draw(st.lists(st.sampled_from(range(loops)), unique=True))
    b_dims = draw(st.permutations(sorted(set(rest) | set(extra) or {a_dims[0]})))
    out_dims = draw(st.permutations(range(loops)))[: draw(st.integers(0, loops))]
    return extents, list(a_dims), list(b_dims), list(out_dims), draw(st.booleans())


def small_integers(shapes, seed):
    """Inputs of small integers: every sum is exact in f32, whatever the
    order."""
    rng = np.random.default_rng(seed)
    return [rng.integers(-3, 4, size=shape).astype(np.float32) for shape in shapes]


@contextmanager
def scalar_loops():
    """The interpreter runs every generic as scalar loops over its body."""
    saved = interpreter_module.generic_contraction_spec
    interpreter_module.generic_contraction_spec = lambda op: None
    try:
        yield
    finally:
        interpreter_module.generic_contraction_spec = saved


def _run(module, shapes, seed):
    args = small_integers(shapes, seed)
    Interpreter(module).run("f", *args)
    return args


@given(contractions(), st.integers(0, 9))
@settings(max_examples=150, deadline=None)
def test_einsum_and_scalar_loops_agree(case, seed):
    extents, a_dims, b_dims, out_dims, subtract = case
    module, op, shapes = _contraction_module(
        extents, a_dims, b_dims, out_dims, subtract
    )
    read = generic_contraction_spec(op)
    assert read is not None
    assert (read.subtract, read.scalar_out) == (subtract, not out_dims)
    einsum = _run(module, shapes, seed)
    with scalar_loops():
        loops = _run(module, shapes, seed)
    for got, want in zip(einsum, loops):
        assert np.array_equal(got, want)


def test_the_reader_refuses_a_broadcast_and_a_partial_read():
    # Loop 1 indexes only the output: the product is broadcast along it.
    _, broadcast, _ = _contraction_module(
        [3, 5, 4], [2, 0], [2, 0], [0, 1], False
    )
    assert generic_contraction_spec(broadcast) is None
    # C[i][j] += A[k][i] * B[k][j] with j < 5 reads part of a 4x6 B.
    _, partial, _ = _contraction_module(
        [3, 5, 4], [2, 0], [2, 1], [0, 1], False, b_shape=[4, 6]
    )
    assert generic_contraction_spec(partial) is None
    _, whole, _ = _contraction_module([3, 5, 4], [2, 0], [2, 1], [0, 1], False)
    assert generic_contraction_spec(whole).contraction.einsum == "ca,cb->ab"


def test_the_listing_contraction():
    c = Contraction.parse("abc-acd-db")
    assert (c.summed, c.a_free, c.b_free) == ("d", "ac", "b")
    assert (c.spec, c.einsum) == ("abc-acd-db", "acd,db->abc")


@pytest.mark.parametrize(
    "spec, refusal, without_free",
    [
        ("abc-acd-db", None, None),
        ("ab-aad-db", "repeated-index", "repeated-index"),
        ("ab-ab-b", "no-contracted-index", "no-contracted-index"),
        ("-a-a", "no-free-index", None),
        # No free label in A hides B's one-sided ``b`` from the TTGT
        # planner, not from codegen's check.
        ("c-a-cab", "no-free-index", "one-sided-index"),
        ("abd-abc-bcd", "batch-index", "batch-index"),
        ("ad-abc-bd", "one-sided-index", "one-sided-index"),
    ],
)
def test_the_first_refusal_wins(spec, refusal, without_free):
    c = Contraction.parse(spec)
    assert c.refusal() == refusal
    assert c.refusal(free_needed=False) == without_free
