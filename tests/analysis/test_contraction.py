"""The one contraction reader (``analysis/contraction.py``) and the
interpreter's use of it: a generic the reader recognises runs as one
``np.einsum``, any other as scalar loops, and the two agree."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.contraction import generic_contraction_spec
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
    free = set(out_dims)
    op = builder.insert(
        linalg_d.GenericOp.create_contraction(
            *func.arguments,
            maps,
            ["parallel" if d in free else "reduction" for d in range(loops)],
            subtract=subtract,
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


def _run(module, shapes, seed):
    rng = np.random.default_rng(seed)
    # Small integers: every sum is exact in f32, whatever the order.
    args = [rng.integers(-3, 4, size=shape).astype(np.float32) for shape in shapes]
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
    saved = interpreter_module.generic_contraction_spec
    interpreter_module.generic_contraction_spec = lambda op: None
    try:
        loops = _run(module, shapes, seed)
    finally:
        interpreter_module.generic_contraction_spec = saved
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
    assert generic_contraction_spec(whole).spec == "ca,cb->ab"
