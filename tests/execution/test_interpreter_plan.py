"""The interpreter's reference semantics, pinned.

``Interpreter`` is the oracle every layer is diffed against, so its
observable behaviour is fixed here with numbers taken from the
op-by-op interpreter it replaced: the output digest and the step count
``_steps`` of five paper kernels in four forms (the MET loops, raised
to linalg, the ``mlt-blas`` pipeline, and the lowered LLVM CFG), the
exact step-budget edge, and the error behaviour of malformed IR.
"""

import hashlib

import numpy as np
import pytest

from repro.dialects import llvm as llvm_d
from repro.dialects import scf, std
from repro.evaluation import get_kernel
from repro.evaluation import kernels as K
from repro.evaluation.pipelines import build_module
from repro.execution import Interpreter, InterpreterError
from repro.fuzzing.oracle import make_args, module_arg_shapes
from repro.ir import (
    Block,
    Builder,
    FuncOp,
    InsertionPoint,
    ModuleOp,
    Operation,
    ReturnOp,
    f32,
    i1,
    index,
    memref,
)
from repro.ir.builtin import CallOp
from repro.met import compile_c
from repro.tactics import raise_affine_to_linalg
from repro.transforms import lower_to_llvm

def _source(name):
    if name == "abcd-aebf-dfce":
        # The six-index contraction at extents 2..7, as the corpus
        # oracle runs it.
        return K.contraction_source(
            name, {v: 2 + i for i, v in enumerate("abcdef")}
        )
    return get_kernel(name).small()


def _raised(source):
    module = compile_c(source)
    raise_affine_to_linalg(module)
    return module


def _lowered(source):
    module = _raised(source)
    lower_to_llvm(module)
    return module


FORMS = {
    "met": compile_c,
    "raised": _raised,
    "mlt-blas": lambda source: build_module(source, "mlt-blas"),
    "llvm": _lowered,
}

#: (kernel, form) -> (output digest, _steps), from the op-by-op
#: interpreter on ``make_args(..., seed=7)``.
PINNED = {
    ("2mm", "llvm"): ("1a825aded111f3e2", 60356),
    ("2mm", "met"): ("1a825aded111f3e2", 10478),
    ("2mm", "mlt-blas"): ("739c0b27304acb2e", 8),
    ("2mm", "raised"): ("739c0b27304acb2e", 8),
    ("abcd-aebf-dfce", "llvm"): ("d4c4838d531a5742", 341382),
    ("abcd-aebf-dfce", "met"): ("d4c4838d531a5742", 31114),
    ("abcd-aebf-dfce", "mlt-blas"): ("fafc489b75e4f8c0", 13),
    ("abcd-aebf-dfce", "raised"): ("18741dfbebcc74ff", 2),
    ("conv2d-nchw", "llvm"): ("7a38fdc0ea528186", 294364),
    ("conv2d-nchw", "met"): ("7a38fdc0ea528186", 25549),
    ("conv2d-nchw", "mlt-blas"): ("814af9bd9310f7c6", 4),
    ("conv2d-nchw", "raised"): ("814af9bd9310f7c6", 4),
    ("gemm", "llvm"): ("51de74b50a23c6ab", 47522),
    ("gemm", "met"): ("51de74b50a23c6ab", 8273),
    ("gemm", "mlt-blas"): ("8370ca2796a91db5", 4),
    ("gemm", "raised"): ("8370ca2796a91db5", 4),
    ("gesummv", "llvm"): ("58b3d42dac947891", 10342),
    ("gesummv", "met"): ("58b3d42dac947891", 2764),
    ("gesummv", "mlt-blas"): ("f2d4244dec048837", 5),
    ("gesummv", "raised"): ("f2d4244dec048837", 5),
}

#: ``op_counts`` of gemm, MET and lowered: branches are not ops.
PINNED_COUNTS = {
    "llvm": {
        "func.return": 1,
        "llvm.load": 3960,
        "llvm.store": 1430,
        "std.addf": 1320,
        "std.addi": 6950,
        "std.cmpi": 1692,
        "std.constant": 6,
        "std.mulf": 1320,
        "std.muli": 5390,
    },
    "met": {
        "affine.for": 132,
        "affine.load": 3960,
        "affine.store": 1430,
        "func.return": 1,
        "std.addf": 1320,
        "std.constant": 110,
        "std.mulf": 1320,
    },
}


def _digest(arrays):
    h = hashlib.sha256()
    for array in arrays:
        h.update(f"{array.dtype}{array.shape}".encode())
        h.update(np.ascontiguousarray(array).tobytes())
    return h.hexdigest()[:16]


def _build(name, form):
    return FORMS[form](_source(name)), get_kernel(name).func_name


def _args(module, func):
    return make_args(module_arg_shapes(module, func), 7)


def _run(name, form, **options):
    module, func = _build(name, form)
    args = _args(module, func)
    interp = Interpreter(module, max_steps=2_000_000_000, **options)
    interp.run(func, *args)
    return interp, _digest(args)


@pytest.fixture(scope="module", params=sorted(PINNED), ids="/".join)
def case(request):
    return request.param, _build(*request.param)


def test_outputs_and_steps_are_pinned(case):
    key, (module, func) = case
    args = _args(module, func)
    interp = Interpreter(module, max_steps=2_000_000_000)
    interp.run(func, *args)
    assert (_digest(args), interp._steps) == PINNED[key]


def test_budget_edge_is_exact(case):
    key, (module, func) = case
    steps = PINNED[key][1]
    Interpreter(module, max_steps=steps).run(func, *_args(module, func))
    with pytest.raises(InterpreterError) as info:
        Interpreter(module, max_steps=steps - 1).run(
            func, *_args(module, func)
        )
    assert str(info.value) == (
        f"exceeded interpreter step budget ({steps - 1}); "
        "use the cost model for large problem sizes"
    )


@pytest.mark.parametrize("form", sorted(PINNED_COUNTS))
def test_op_counts_are_pinned(form):
    interp, _ = _run("gemm", form, count_ops=True)
    assert interp.op_counts == PINNED_COUNTS[form]


# -- malformed IR -----------------------------------------------------------


def _guarded_unknown_op(taken: bool):
    """``if (cond) foo.bar``: an op no planner knows, behind a branch."""
    module = ModuleOp.create()
    func = FuncOp.create("f", [memref(4, f32)])
    module.append_function(func)
    b = Builder(InsertionPoint.at_end(func.entry_block))
    one = b.insert(std.ConstantOp.create(1, index)).result
    zero = b.insert(std.ConstantOp.create(0, index)).result
    cond = b.insert(
        std.CmpIOp.create("slt" if taken else "sgt", zero, one)
    ).result
    guard = b.insert(scf.IfOp.create(cond))
    guard.then_block.insert(0, Operation(name="foo.bar"))
    b.insert(ReturnOp.create())
    return module


def test_unknown_op_in_an_untaken_branch_does_not_raise():
    Interpreter(_guarded_unknown_op(taken=False)).run(
        "f", np.zeros(4, np.float32)
    )
    with pytest.raises(InterpreterError, match="unhandled op foo.bar"):
        Interpreter(_guarded_unknown_op(taken=True)).run(
            "f", np.zeros(4, np.float32)
        )


def test_an_unbound_value_raises():
    """A value of another function is never bound in this activation."""
    module = ModuleOp.create()
    other = FuncOp.create("other", [])
    module.append_function(other)
    b = Builder(InsertionPoint.at_end(other.entry_block))
    foreign = b.insert(std.ConstantOp.create(2.0, f32)).result
    b.insert(ReturnOp.create())
    func = FuncOp.create("f", [], [f32])
    module.append_function(func)
    b = Builder(InsertionPoint.at_end(func.entry_block))
    twice = b.insert(std.AddFOp.create(foreign, foreign)).result
    b.insert(ReturnOp.create([twice]))
    with pytest.raises(InterpreterError, match="unbound SSA value"):
        Interpreter(module).run("f")


def _diamond(taken: bool):
    """``x`` is defined on one arm of a CFG diamond and read at the join,
    which that arm does not dominate."""
    module = ModuleOp.create()
    func = FuncOp.create("f", [], [f32])
    module.append_function(func)
    entry = func.entry_block
    arm, other, join = Block(), Block(), Block()
    for block in (arm, other, join):
        func.regions[0].add_block(block)
    cond = entry.append(std.ConstantOp.create(int(taken), i1)).result
    entry.append(llvm_d.CondBrOp.create(cond, arm, other))
    x = arm.append(std.ConstantOp.create(1.5, f32)).result
    arm.append(llvm_d.BrOp.create(join))
    other.append(llvm_d.BrOp.create(join))
    join.append(ReturnOp.create([x]))
    return module


def test_a_read_its_definition_does_not_dominate_is_checked():
    interp = Interpreter(_diamond(taken=True))
    assert interp.run("f") == [1.5]
    assert interp._steps == 8
    interp = Interpreter(_diamond(taken=False))
    with pytest.raises(InterpreterError, match="unbound SSA value"):
        interp.run("f")
    assert interp._steps == 6


def test_recursion_keeps_separate_activations():
    """``rec(n, A)``: if n > 0 { rec(n - 1, A); A[n] = 1 }.  Were the
    callee's ``n`` to overwrite the caller's, each store after a call
    would land on A[n - 1]."""
    module = ModuleOp.create()
    func = FuncOp.create("rec", [index, memref(8, f32)])
    module.append_function(func)
    n, array = func.arguments
    b = Builder(InsertionPoint.at_end(func.entry_block))
    zero = b.insert(std.ConstantOp.create(0, index)).result
    cond = b.insert(std.CmpIOp.create("sgt", n, zero)).result
    guard = b.insert(scf.IfOp.create(cond))
    b.insert(ReturnOp.create())
    inner = Builder(InsertionPoint(guard.then_block, 0))
    one = inner.insert(std.ConstantOp.create(1, index)).result
    m = inner.insert(std.SubIOp.create(n, one)).result
    inner.insert(CallOp.create("rec", [m, array]))
    value = inner.insert(std.ConstantOp.create(1.0, f32)).result
    inner.insert(std.StoreOp.create(value, array, [n]))
    a = np.zeros(8, np.float32)
    Interpreter(module).run("rec", 5, a)
    np.testing.assert_array_equal(a, [0, 1, 1, 1, 1, 1, 0, 0])
