"""One row per op kind: the printer, the parser, the interpreter, codegen,
the cost model and the BLAS lowering resolve an op through its class.

A subclass inherits its base's row unless it declares its own:
``affine.matmul`` and every ``blas`` call are handled as their ``linalg``
twin (``blas.sgemm`` keeps its own planner and emitter for
``alpha``/``beta``), the binary arith ops share one row, and so do the
schedule ops.  A library call registered here, with no table edited,
prints, parses, runs, compiles, is priced and lowers to its symbol.
"""

from contextlib import contextmanager

import numpy as np
import pytest

from repro.dialects import blas as blas_d
from repro.dialects import linalg as linalg_d
from repro.dialects import std, transform
from repro.dialects.affine import AffineMatmulOp
from repro.execution import (
    INTEL_I9_9900K,
    CostModel,
    ExecutionEngine,
    Interpreter,
    KernelCache,
)
from repro.execution.engine import EMITTERS
from repro.execution.interpreter import _PLANNERS
from repro.ir import (
    OP_REGISTRY,
    Builder,
    Context,
    FuncOp,
    InsertionPoint,
    ModuleOp,
    OpTable,
    Operation,
    ReturnOp,
    f32,
    memref,
    print_module,
    register_op,
    verify,
)
from repro.ir.parser import _PARSERS, parse_module
from repro.ir.printer import _PRINTERS
from repro.transforms import LowerBlasToLLVMPass

TABLES = {
    "printer": _PRINTERS,
    "parser": _PARSERS,
    "interpreter": _PLANNERS,
    "codegen": EMITTERS,
}

#: Each subclass whose rows are its twin's in every table.
TWINS = [
    (AffineMatmulOp, linalg_d.MatmulOp),
    (blas_d.SgemvOp, linalg_d.MatvecOp),
    (blas_d.TransposeOp, linalg_d.TransposeOp),
    (blas_d.ReshapeOp, linalg_d.ReshapeOp),
    (blas_d.Conv2DOp, linalg_d.Conv2DNchwOp),
]


def _subclasses(base):
    return [cls for cls in OP_REGISTRY.values() if issubclass(cls, base)]


class TestResolution:
    def test_a_subclass_inherits_and_its_own_row_wins(self):
        class Base(Operation):
            pass

        class Child(Base):
            pass

        class Grandchild(Child):
            pass

        table = OpTable(lambda: {Base: "base", Grandchild: "own"})
        assert table.lookup(Child) == "base"
        assert table.lookup(Grandchild) == "own"
        assert table.lookup(Operation) is None
        assert table.lookup(Child) == "base"  # memoized

    @pytest.mark.parametrize("table", TABLES, ids=list(TABLES))
    @pytest.mark.parametrize(
        "call,twin", TWINS, ids=[call.OP_NAME for call, _ in TWINS]
    )
    def test_a_twin_subclass_has_its_twins_rows(self, table, call, twin):
        assert TABLES[table].lookup(call) is TABLES[table].lookup(twin)
        assert TABLES[table].lookup(call) is not None

    def test_sgemm_keeps_its_own_planner_and_emitter(self):
        for table in (_PLANNERS, EMITTERS):
            sgemm = table.lookup(blas_d.SgemmOp)
            assert sgemm is not table.lookup(linalg_d.MatmulOp)
            assert blas_d.SgemmOp in table.rows
        assert _PRINTERS.lookup(blas_d.SgemmOp) is _PRINTERS.lookup(
            linalg_d.MatmulOp
        )

    @pytest.mark.parametrize("table", TABLES, ids=list(TABLES))
    def test_binary_arith_ops_share_one_row(self, table):
        ops = _subclasses(std.BinaryArithOp)
        assert len(ops) == 10
        rows = {TABLES[table].lookup(cls) for cls in ops}
        assert rows == {TABLES[table].rows[std.BinaryArithOp]}

    def test_schedule_ops_share_one_executor_row(self):
        ops = _subclasses(transform.TransformOp)
        assert len(ops) == 10
        for table in (_PLANNERS, EMITTERS):
            assert {table.lookup(cls) for cls in ops} == {
                table.rows[transform.TransformOp]
            }
        steps = _subclasses(transform.TransformStepOp)
        for table in (_PRINTERS, _PARSERS):
            assert {table.lookup(cls) for cls in steps} == {
                table.rows[transform.TransformStepOp]
            }

    def test_every_library_call_lowers_to_its_symbol(self):
        calls = _subclasses(blas_d.LibraryCall)
        pass_ = LowerBlasToLLVMPass()
        lowered = {
            pattern.root_op_name: pattern.symbol
            for pattern in pass_.patterns.patterns
        }
        assert lowered == {cls.OP_NAME: cls.SYMBOL for cls in calls}
        assert len(set(lowered.values())) == len(calls)


# ----------------------------------------------------------------------
# A library call no table names
# ----------------------------------------------------------------------


class ThrowawayGemvOp(blas_d.LibraryCall, linalg_d.MatvecOp):
    """A level-2 call that is ``linalg.matvec`` under its own name."""

    OP_NAME = "blas.throwaway_gemv"
    SYMBOL = "throwaway_gemv"


@contextmanager
def _registered(op_class):
    assert op_class.OP_NAME not in OP_REGISTRY
    register_op(op_class)
    try:
        yield op_class
    finally:
        del OP_REGISTRY[op_class.OP_NAME]


@pytest.fixture
def throwaway_call():
    with _registered(ThrowawayGemvOp) as op_class:
        yield op_class


SHAPES = [(6, 5), (5,), (6,)]


def _one_op_module(op_class, shapes=SHAPES, **kwargs):
    """``@f`` over one memref per shape, applying ``op_class`` to them."""
    module = ModuleOp.create()
    func = FuncOp.create("f", [memref(*shape, f32) for shape in shapes])
    module.append_function(func)
    builder = Builder(InsertionPoint.at_end(func.entry_block))
    builder.insert(op_class.create(*func.arguments, **kwargs))
    builder.insert(ReturnOp.create())
    verify(module, Context())
    return module


def _price(op_class, shapes=SHAPES, **kwargs):
    """The modeled ``(seconds, flops)`` of one ``op_class`` op."""
    module = _one_op_module(op_class, shapes, **kwargs)
    op = module.functions[0].entry_block.operations[0]
    report = CostModel(INTEL_I9_9900K).cost_op(op)
    return report.seconds, report.flops


def _args():
    rng = np.random.default_rng(11)
    return [rng.standard_normal(shape).astype(np.float32) for shape in SHAPES]


class TestANewLibraryCall:
    def test_prints_and_parses_in_the_twins_form(self, throwaway_call):
        text = print_module(_one_op_module(throwaway_call))
        assert (
            "blas.throwaway_gemv(%arg0, %arg1, %arg2) "
            '{library = "mkl-dnn", trans = false} : ' in text
        )
        reparsed = parse_module(text)
        assert print_module(reparsed) == text
        call = next(op for op in reparsed.walk() if op.dialect == "blas")
        assert type(call) is throwaway_call

    def test_runs_as_its_twin_in_both_executors(self, throwaway_call):
        expected = _args()
        Interpreter(_one_op_module(linalg_d.MatvecOp)).run("f", *expected)
        interpreted, compiled = _args(), _args()
        module = _one_op_module(throwaway_call)
        Interpreter(module).run("f", *interpreted)
        ExecutionEngine(module, cache=KernelCache()).run("f", *compiled)
        for actual in (interpreted, compiled):
            for want, got in zip(expected, actual):
                np.testing.assert_array_equal(want, got)

    def test_is_priced_as_a_level_2_library_call(self, throwaway_call):
        assert _price(throwaway_call) == _price(blas_d.SgemvOp)
        assert _price(throwaway_call)[1] == 2 * 6 * 5

    def test_lowers_to_a_call_of_its_symbol(self, throwaway_call):
        module = _one_op_module(throwaway_call)
        LowerBlasToLLVMPass().run(module, Context())
        verify(module, Context())
        calls = [op for op in module.walk() if op.name == "llvm.call"]
        assert [call.callee for call in calls] == ["throwaway_gemv"]
        assert not any(op.dialect == "blas" for op in module.walk())


class ThrowawayMinFOp(std.FloatArithOp):
    """The smaller operand; a NaN in either operand is the result."""

    OP_NAME = "std.throwaway_minf"
    PYTHON_FUNC = staticmethod(lambda a, b: a if a <= b or a != a else b)


MIN_KERNEL = """
module {
  func @f(%arg0: memref<8xf32>, %arg1: memref<8xf32>, %arg2: memref<8xf32>) {
    affine.for %0 = 0 to 8 {
      %1 = affine.load %arg0[%0] : memref<8xf32>
      %2 = affine.load %arg1[%0] : memref<8xf32>
      %3 = std.throwaway_minf %1, %2 : f32
      affine.store %3, %arg2[%0] : memref<8xf32>
    }
    return
  }
}
"""


class TestANewArithOp:
    def test_prints_parses_and_runs_in_both_executors(self):
        with _registered(ThrowawayMinFOp):
            module = parse_module(MIN_KERNEL)
            assert print_module(module) == MIN_KERNEL.lstrip()
            rng = np.random.default_rng(5)
            a, b = rng.standard_normal((2, 8)).astype(np.float32)
            interpreted = [a, b, np.zeros(8, np.float32)]
            compiled = [a.copy(), b.copy(), np.zeros(8, np.float32)]
            Interpreter(module).run("f", *interpreted)
            ExecutionEngine(module, cache=KernelCache()).run("f", *compiled)
        np.testing.assert_array_equal(interpreted[2], np.minimum(a, b))
        np.testing.assert_array_equal(compiled[2], interpreted[2])


class TestLeafPrices:
    """The cost model prices by class: a call adds the dispatch
    overhead to its twin's price, and a transpose never takes the
    library's flop rate."""

    def test_a_transpose_call_adds_only_the_overhead(self):
        shapes, kwargs = [(8, 6), (6, 8)], {"permutation": [1, 0]}
        seconds, flops = _price(linalg_d.TransposeOp, shapes, **kwargs)
        call = _price(blas_d.TransposeOp, shapes, **kwargs)
        overhead = INTEL_I9_9900K.library_call_overhead_s
        assert call == (seconds + overhead, 0)
        assert flops == 0

    def test_both_reshapes_are_metadata_only(self):
        shapes, kwargs = [(4, 5, 6), (20, 6)], {"reassociation": [[0, 1], [2]]}
        assert _price(linalg_d.ReshapeOp, shapes, **kwargs) == (1e-7, 0)
        assert _price(blas_d.ReshapeOp, shapes, **kwargs) == (1e-7, 0)

    def test_affine_matmul_is_priced_at_the_blis_rate(self):
        shapes = [(8, 6), (6, 4), (8, 4)]
        seconds, flops = _price(AffineMatmulOp, shapes)
        assert flops == 2 * 8 * 6 * 4
        assert seconds == flops / (INTEL_I9_9900K.blis_matmul_gflops * 1e9)
