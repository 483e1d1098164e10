"""The structured-op interface: every named linalg op is a generic with
fixed indexing maps and a fixed payload.

Each named op (matmul, matvec with and without ``trans``, conv2d,
transpose, fill) is checked against the ``linalg.generic`` built from
its own ``indexing_maps`` and ``PAYLOAD``.  Both must compute the same
on the interpreter, on the compiled engine and after
``convert-linalg-to-affine-loops``, which pins the executors' per-op
fast cases to the interface.  ``flops()``, now domain x payload
arithmetic, must equal each op's closed-form count.  The verifier's
window rule rejects a subscript that overruns its buffer, and the
lowering builds each access as its printed text parses back.
"""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.dialects import linalg as linalg_d
from repro.dialects import std
from repro.execution import ExecutionEngine, Interpreter, KernelCache
from repro.ir import (
    AffineMap,
    Builder,
    Context,
    FuncOp,
    InsertionPoint,
    IRError,
    ModuleOp,
    ReturnOp,
    f32,
    memref,
    print_module,
    verify,
)
from repro.ir import affine_expr as ae
from repro.ir.parser import parse_module
from repro.transforms import lower_linalg_to_affine


def _module(shapes, build, check=True):
    module = ModuleOp.create()
    func = FuncOp.create("f", [memref(*s, f32) for s in shapes])
    module.append_function(func)
    builder = Builder(InsertionPoint.at_end(func.entry_block))
    build(builder, func.arguments)
    builder.insert(ReturnOp.create())
    if check:
        verify(module, Context())
    return module


def _generic_of(op):
    """The ``linalg.generic`` that ``op``'s maps and payload describe.
    A fill's scalar becomes a constant in the body: a generic's
    operands are memrefs."""
    operands, maps = list(op.operands), list(op.indexing_maps)
    if op.PAYLOAD == "fill":
        operands, maps = operands[1:], maps[1:]
    free = set().union(*(e.dims_used() for e in maps[-1].results))
    iterators = [
        "parallel" if d in free else "reduction" for d in range(op.num_loops)
    ]
    generic = linalg_d.GenericOp.create(
        operands[:-1], operands[-1:], maps, iterators
    )
    block = generic.body
    args = block.arguments
    if op.PAYLOAD == "mac":
        mul = block.append(std.MulFOp.create(args[0], args[1])).result
        value = block.append(std.AddFOp.create(mul, args[2])).result
    elif op.PAYLOAD == "copy":
        value = args[0]
    else:
        fill = op.fill_value.defining_op.value
        value = block.append(std.ConstantOp.create(fill, f32)).result
    block.append(linalg_d.LinalgYieldOp.create([value]))
    return generic


KINDS = ["matmul", "matvec", "matvec-trans", "conv2d", "transpose", "fill"]


@st.composite
def named_ops(draw, kind):
    """``(shapes, insert, flops)``: the argument shapes of a function of
    one named op of ``kind``, ``insert(builder, args)`` building that
    op, and its closed-form flop count."""
    size = st.integers(1, 4)
    if kind == "matmul":
        m, n, k = draw(size), draw(size), draw(size)

        def insert(builder, args):
            return builder.insert(linalg_d.MatmulOp.create(*args))

        return [(m, k), (k, n), (m, n)], insert, 2 * m * k * n
    if kind.startswith("matvec"):
        rows, cols = draw(size), draw(size)
        trans = kind == "matvec-trans"
        x, y = ((rows,), (cols,)) if trans else ((cols,), (rows,))

        def insert(builder, args):
            return builder.insert(linalg_d.MatvecOp.create(*args, trans=trans))

        return [(rows, cols), x, y], insert, 2 * rows * cols
    if kind == "conv2d":
        n, c, f, kh, kw, oh, ow = (draw(size) for _ in range(7))
        # The input may be larger than the window the op reads.
        h = oh + kh - 1 + draw(st.integers(0, 2))
        w = ow + kw - 1 + draw(st.integers(0, 2))

        def insert(builder, args):
            return builder.insert(linalg_d.Conv2DNchwOp.create(*args))

        shapes = [(n, c, h, w), (f, c, kh, kw), (n, f, oh, ow)]
        return shapes, insert, 2 * n * f * oh * ow * c * kh * kw
    rank = draw(st.integers(1, 4))
    shape = tuple(draw(st.integers(1, 3)) for _ in range(rank))
    if kind == "transpose":
        perm = draw(st.permutations(range(rank)))

        def insert(builder, args):
            return builder.insert(linalg_d.TransposeOp.create(*args, perm))

        return [shape, tuple(shape[p] for p in perm)], insert, 0
    value = draw(st.floats(-4, 4, width=32))

    def insert(builder, args):
        const = builder.insert(std.ConstantOp.create(value, f32))
        return builder.insert(linalg_d.FillOp.create(const.result, *args))

    return [shape], insert, 0


def _outputs(module, shapes, execute):
    rng = np.random.default_rng(7)
    args = [rng.standard_normal(s).astype(np.float32) for s in shapes]
    execute(module, args)
    return args


def _interpret(module, args):
    Interpreter(module).run("f", *args)


def _compiled(module, args):
    ExecutionEngine(module, cache=KernelCache()).run("f", *args)


def _accesses(module):
    return [
        (op.name, op.map, len(op.operands))
        for op in module.walk()
        if op.name in ("affine.load", "affine.store")
    ]


def _lowered(module, args):
    lower_linalg_to_affine(module)
    verify(module, Context())
    assert not any(op.dialect == "linalg" for op in module.walk())
    # No access keeps a loop it does not read: the lowered IR is the IR
    # its text parses back to.
    assert _accesses(parse_module(print_module(module))) == _accesses(module)
    Interpreter(module).run("f", *args)


class TestNamedOpsAreTheirGenerics:
    @pytest.mark.parametrize("kind", KINDS)
    @given(data=st.data())
    def test_named_op_equals_the_generic_of_its_interface(self, kind, data):
        shapes, insert, flops = data.draw(named_ops(kind))

        def generic(builder, args):
            op = insert(builder, args)
            builder.insert(_generic_of(op))
            op.erase()

        reference = _outputs(_module(shapes, insert), shapes, _interpret)
        for build in (insert, generic):
            for execute in (_interpret, _compiled, _lowered):
                got = _outputs(_module(shapes, build), shapes, execute)
                for want, have in zip(reference, got):
                    np.testing.assert_allclose(
                        have, want, rtol=1e-5, atol=1e-5
                    )

        op = next(
            op
            for op in _module(shapes, insert).walk()
            if isinstance(op, linalg_d.LinalgStructuredOp)
        )
        assert op.flops() == flops


class TestWindowRule:
    """A compound subscript's largest value over the domain stays inside
    its dimension (conv2d's window rule, for every structured op), and
    every loop's extent is known to check it against."""

    def _overrun(self, input_size, output=(4, 3)):
        # out[i, j] = in[i + j] over the 4x3 domain reads in[0..5].
        def build(builder, args):
            read = AffineMap(2, 0, [ae.dim(0) + ae.dim(1)])
            write = AffineMap(2, 0, [ae.dim(d) for d in range(len(output))])
            op = linalg_d.GenericOp.create(
                [args[0]],
                [args[1]],
                [read, write],
                ["parallel", "parallel"],
            )
            op.body.append(
                linalg_d.LinalgYieldOp.create([op.body.arguments[0]])
            )
            builder.insert(op)

        return _module([(input_size,), output], build, check=False)

    def test_a_subscript_past_its_dimension_fails_to_verify(self):
        with pytest.raises(IRError, match=r"\(d0 \+ d1\) reaches 5"):
            verify(self._overrun(4), Context())

    def test_the_printed_module_fails_to_verify_after_parsing(self):
        text = print_module(self._overrun(4))
        with pytest.raises(IRError, match=r"\(d0 \+ d1\) reaches 5"):
            verify(parse_module(text), Context())

    def test_a_loop_no_subscript_bounds_fails_to_verify(self):
        # out[i] = in[i + j]: no operand gives j's extent, so neither
        # the domain nor the window is known.
        module = self._overrun(6, output=(4,))
        with pytest.raises(IRError, match="could not infer"):
            verify(module, Context())

    def test_a_subscript_inside_its_dimension_verifies(self):
        module = self._overrun(6)
        verify(parse_module(print_module(module)), Context())
        src = np.arange(6, dtype=np.float32)
        out = np.zeros((4, 3), dtype=np.float32)
        Interpreter(module).run("f", src, out)
        assert out[3, 2] == 5.0


class TestLoweredIRIsItsText:
    def test_raised_corpus_lowers_to_what_its_text_parses_to(self):
        """Every access ``convert-linalg-to-affine-loops`` builds reads
        only the loops its subscripts name, in the order they name them,
        as the parser builds it: a pass-cache splice of the text changes
        nothing."""
        from repro.evaluation import PAPER_BENCHMARKS, get_kernel
        from repro.met import compile_c
        from repro.tactics import raise_affine_to_linalg

        for name in sorted(PAPER_BENCHMARKS):
            module = compile_c(get_kernel(name).small())
            raise_affine_to_linalg(module)
            lower_linalg_to_affine(module)
            reparsed = parse_module(print_module(module))
            assert _accesses(reparsed) == _accesses(module), name
