"""Property-based printer/parser round-trips over random modules of
every dialect: affine, scf, std, linalg, and blas."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dialects import affine as affine_d
from repro.dialects import blas as blas_d
from repro.dialects import linalg as linalg_d
from repro.dialects import scf as scf_d
from repro.dialects import std
from repro.execution import Interpreter
from repro.ir import (
    Builder,
    Context,
    FuncOp,
    InsertionPoint,
    ModuleOp,
    ReturnOp,
    f32,
    index,
    memref,
    print_module,
    verify,
)
from repro.ir.parser import parse_module


@st.composite
def random_affine_modules(draw):
    """Random single-function modules: a loop nest with random affine
    accesses into a couple of 1-d buffers plus float arithmetic."""
    depth = draw(st.integers(min_value=1, max_value=3))
    extents = [draw(st.integers(min_value=1, max_value=5)) for _ in range(depth)]
    buffer_size = 64

    module = ModuleOp.create()
    func = FuncOp.create(
        "f", [memref(buffer_size, f32), memref(buffer_size, f32)]
    )
    module.append_function(func)
    src, dst = func.arguments
    builder = Builder(InsertionPoint.at_end(func.entry_block))
    loops, ivs = affine_d.build_loop_nest(
        builder, [(0, e) for e in extents]
    )
    body = Builder(InsertionPoint(loops[-1].body, 0))

    from repro.ir import AffineMap
    from repro.ir import affine_expr as ae

    # random affine access into the source, bounded within the buffer
    iv_pos = draw(st.integers(min_value=0, max_value=depth - 1))
    coeff = draw(st.integers(min_value=1, max_value=4))
    const = draw(st.integers(min_value=0, max_value=8))
    expr = ae.dim(0) * coeff + const
    load = body.insert(
        affine_d.AffineLoadOp.create(
            src, [ivs[iv_pos]], AffineMap(1, 0, [expr])
        )
    )
    value = load.result
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        kind = draw(st.sampled_from([std.AddFOp, std.MulFOp, std.SubFOp]))
        constant = body.insert(
            std.ConstantOp.create(
                draw(st.floats(min_value=-4, max_value=4, width=32)), f32
            )
        )
        value = body.insert(kind.create(value, constant.result)).result
    store_pos = draw(st.integers(min_value=0, max_value=depth - 1))
    body.insert(
        affine_d.AffineStoreOp.create(value, dst, [ivs[store_pos]])
    )
    builder.insert(ReturnOp.create())
    return module


@given(random_affine_modules())
@settings(max_examples=40, deadline=None)
def test_print_parse_print_fixpoint(module):
    verify(module, Context())
    text1 = print_module(module)
    reparsed = parse_module(text1)
    verify(reparsed, Context())
    assert print_module(reparsed) == text1


@given(random_affine_modules())
@settings(max_examples=20, deadline=None)
def test_reparsed_module_executes_identically(module):
    text = print_module(module)
    reparsed = parse_module(text)
    rng = np.random.default_rng(0)
    src = rng.random(64, dtype=np.float32)
    dst1 = np.zeros(64, np.float32)
    dst2 = np.zeros(64, np.float32)
    Interpreter(module).run("f", src.copy(), dst1)
    Interpreter(reparsed).run("f", src.copy(), dst2)
    np.testing.assert_array_equal(dst1, dst2)


@given(random_affine_modules())
@settings(max_examples=20, deadline=None)
def test_clone_prints_identically(module):
    assert print_module(module.clone()) == print_module(module)


# ----------------------------------------------------------------------
# scf / std modules
# ----------------------------------------------------------------------


@st.composite
def random_scf_modules(draw):
    """Random scf.for nests (value-typed bounds) with std load/store
    arithmetic, optionally guarded by an scf.if on a cmpi."""
    depth = draw(st.integers(min_value=1, max_value=3))
    extents = [draw(st.integers(min_value=1, max_value=5)) for _ in range(depth)]
    buffer_size = 32

    module = ModuleOp.create()
    func = FuncOp.create(
        "f", [memref(buffer_size, f32), memref(buffer_size, f32)]
    )
    module.append_function(func)
    src, dst = func.arguments
    builder = Builder(InsertionPoint.at_end(func.entry_block))

    ivs = []
    body = builder
    for extent in extents:
        lb = body.insert(std.ConstantOp.create(0, index))
        ub = body.insert(std.ConstantOp.create(extent, index))
        step = body.insert(std.ConstantOp.create(1, index))
        loop = body.insert(
            scf_d.ForOp.create(lb.result, ub.result, step.result)
        )
        ivs.append(loop.induction_var)
        body = Builder(InsertionPoint(loop.body, 0))

    iv = ivs[draw(st.integers(min_value=0, max_value=depth - 1))]
    load = body.insert(std.LoadOp.create(src, [iv]))
    value = load.result
    for _ in range(draw(st.integers(min_value=0, max_value=2))):
        kind = draw(st.sampled_from([std.AddFOp, std.MulFOp, std.SubFOp]))
        constant = body.insert(
            std.ConstantOp.create(
                draw(st.floats(min_value=-4, max_value=4, width=32)), f32
            )
        )
        value = body.insert(kind.create(value, constant.result)).result

    if draw(st.booleans()):
        bound = body.insert(std.ConstantOp.create(2, index))
        cond = body.insert(
            std.CmpIOp.create(
                draw(st.sampled_from(["slt", "sle", "sgt", "eq"])),
                iv,
                bound.result,
            )
        )
        guard = body.insert(
            scf_d.IfOp.create(cond.result, with_else=draw(st.booleans()))
        )
        then = Builder(InsertionPoint(guard.then_block, 0))
        then.insert(std.StoreOp.create(value, dst, [iv]))
    else:
        body.insert(std.StoreOp.create(value, dst, [iv]))
    builder.insert(ReturnOp.create())
    return module


@st.composite
def random_std_modules(draw):
    """Straight-line std code: constants, integer/float arithmetic,
    select, index_cast, and direct memory access."""
    module = ModuleOp.create()
    func = FuncOp.create("f", [memref(8, f32)])
    module.append_function(func)
    (buf,) = func.arguments
    builder = Builder(InsertionPoint.at_end(func.entry_block))

    pos = builder.insert(
        std.ConstantOp.create(draw(st.integers(min_value=0, max_value=7)), index)
    )
    lhs = builder.insert(std.LoadOp.create(buf, [pos.result])).result
    for _ in range(draw(st.integers(min_value=1, max_value=4))):
        kind = draw(
            st.sampled_from([std.AddFOp, std.MulFOp, std.SubFOp, std.MaxFOp])
        )
        constant = builder.insert(
            std.ConstantOp.create(
                draw(st.floats(min_value=-8, max_value=8, width=32)), f32
            )
        )
        lhs = builder.insert(kind.create(lhs, constant.result)).result
    if draw(st.booleans()):
        a = builder.insert(std.ConstantOp.create(1, index))
        b = builder.insert(std.ConstantOp.create(2, index))
        cond = builder.insert(
            std.CmpIOp.create(
                draw(st.sampled_from(["slt", "ne", "sge"])), a.result, b.result
            )
        )
        other = builder.insert(std.ConstantOp.create(0.0, f32))
        lhs = builder.insert(
            std.SelectOp.create(cond.result, lhs, other.result)
        ).result
    builder.insert(std.StoreOp.create(lhs, buf, [pos.result]))
    builder.insert(ReturnOp.create())
    return module


# ----------------------------------------------------------------------
# linalg / blas modules
# ----------------------------------------------------------------------


@st.composite
def random_linalg_modules(draw):
    """Random sequences of named linalg structured ops with consistent
    shapes."""
    m = draw(st.integers(min_value=1, max_value=6))
    n = draw(st.integers(min_value=1, max_value=6))
    k = draw(st.integers(min_value=1, max_value=6))

    module = ModuleOp.create()
    func = FuncOp.create(
        "f",
        [
            memref(m, k, f32),
            memref(k, n, f32),
            memref(m, n, f32),
            memref(k, f32),
            memref(m, f32),
        ],
    )
    module.append_function(func)
    a, b, c, x, y = func.arguments
    builder = Builder(InsertionPoint.at_end(func.entry_block))

    ops = draw(
        st.lists(
            st.sampled_from(["matmul", "matvec", "fill", "copy", "transpose"]),
            min_size=1,
            max_size=4,
        )
    )
    for name in ops:
        if name == "matmul":
            builder.insert(linalg_d.MatmulOp.create(a, b, c))
        elif name == "matvec":
            if draw(st.booleans()):
                builder.insert(linalg_d.MatvecOp.create(a, x, y))
            else:
                # A^T is (k, m): consumes an m-vector, produces a k-vector
                builder.insert(linalg_d.MatvecOp.create(a, y, x, trans=True))
        elif name == "fill":
            value = builder.insert(
                std.ConstantOp.create(
                    draw(st.floats(min_value=-2, max_value=2, width=32)), f32
                )
            )
            builder.insert(linalg_d.FillOp.create(value.result, c))
        elif name == "copy":
            # An identity transpose: a copy of the whole buffer.
            builder.insert(linalg_d.TransposeOp.create(x, x, [0]))
        elif name == "transpose" and m == n == k:
            # fully square operands only, so A^T fits C's shape
            builder.insert(linalg_d.TransposeOp.create(a, c, [1, 0]))
    builder.insert(ReturnOp.create())
    return module


@st.composite
def random_blas_modules(draw):
    """Random blas call sequences with attribute payloads (alpha/beta,
    library, trans) that must survive the round-trip."""
    m = draw(st.integers(min_value=1, max_value=6))
    n = draw(st.integers(min_value=1, max_value=6))
    k = draw(st.integers(min_value=1, max_value=6))
    library = draw(st.sampled_from(blas_d.KNOWN_LIBRARIES))

    module = ModuleOp.create()
    func = FuncOp.create(
        "f",
        [
            memref(m, k, f32),
            memref(k, n, f32),
            memref(m, n, f32),
            memref(k, f32),
            memref(m, f32),
        ],
    )
    module.append_function(func)
    a, b, c, x, y = func.arguments
    builder = Builder(InsertionPoint.at_end(func.entry_block))

    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        choice = draw(st.sampled_from(["sgemm", "sgemv"]))
        if choice == "sgemm":
            builder.insert(
                blas_d.SgemmOp.create(
                    a,
                    b,
                    c,
                    alpha=float(draw(st.integers(min_value=-2, max_value=2))),
                    beta=float(draw(st.integers(min_value=0, max_value=2))),
                    library=library,
                )
            )
        elif draw(st.booleans()):
            builder.insert(blas_d.SgemvOp.create(a, x, y, library=library))
        else:
            # A^T is (k, m): consumes an m-vector, produces a k-vector
            builder.insert(
                blas_d.SgemvOp.create(a, y, x, library=library, trans=True)
            )
    builder.insert(ReturnOp.create())
    return module


ALL_DIALECT_STRATEGIES = [
    random_scf_modules,
    random_std_modules,
    random_linalg_modules,
    random_blas_modules,
]


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_all_dialects_print_parse_print_fixpoint(data):
    strategy = data.draw(st.sampled_from(ALL_DIALECT_STRATEGIES))
    module = data.draw(strategy())
    verify(module, Context())
    text1 = print_module(module)
    reparsed = parse_module(text1)
    verify(reparsed, Context())
    assert print_module(reparsed) == text1


@given(st.data())
@settings(max_examples=20, deadline=None)
def test_all_dialects_clone_prints_identically(data):
    strategy = data.draw(st.sampled_from(ALL_DIALECT_STRATEGIES))
    module = data.draw(strategy())
    assert print_module(module.clone()) == print_module(module)


@given(random_scf_modules())
@settings(max_examples=15, deadline=None)
def test_reparsed_scf_module_executes_identically(module):
    text = print_module(module)
    reparsed = parse_module(text)
    rng = np.random.default_rng(0)
    src = rng.random(32, dtype=np.float32)
    dst1 = np.zeros(32, np.float32)
    dst2 = np.zeros(32, np.float32)
    Interpreter(module).run("f", src.copy(), dst1)
    Interpreter(reparsed).run("f", src.copy(), dst2)
    np.testing.assert_array_equal(dst1, dst2)


@given(random_blas_modules())
@settings(max_examples=15, deadline=None)
def test_reparsed_blas_module_preserves_attributes(module):
    reparsed = parse_module(print_module(module))
    originals = [
        op
        for func in module.functions
        for op in func.walk()
        if op.name.startswith("blas.")
    ]
    parsed = [
        op
        for func in reparsed.functions
        for op in func.walk()
        if op.name.startswith("blas.")
    ]
    assert [op.name for op in parsed] == [op.name for op in originals]
    for original, copy in zip(originals, parsed):
        if original.name == "blas.sgemm":
            assert copy.alpha == original.alpha
            assert copy.beta == original.beta
        if original.name == "blas.sgemv":
            assert copy.trans == original.trans
