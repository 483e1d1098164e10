"""Progressive lowering: linalg -> affine -> scf -> llvm, each step
semantics-preserving (validated by interpretation)."""

import numpy as np
import pytest

from repro.dialects import linalg as linalg_d
from repro.dialects import std
from repro.execution import Interpreter
from repro.ir import (
    Builder,
    Context,
    FuncOp,
    IndexType,
    InsertionPoint,
    ModuleOp,
    ReturnOp,
    f32,
    memref,
    verify,
)
from repro.met import compile_c
from repro.tactics import raise_affine_to_linalg
from repro.transforms import (
    CanonicalizePass,
    lower_affine_to_scf,
    lower_linalg_to_affine,
    lower_scf_to_llvm,
    lower_to_llvm,
)

from ..conftest import assert_close, random_arrays


def _linalg_module(op_builder, arg_shapes):
    module = ModuleOp.create()
    func = FuncOp.create("f", [memref(*s, f32) for s in arg_shapes])
    module.append_function(func)
    builder = Builder(InsertionPoint.at_end(func.entry_block))
    op_builder(builder, func.arguments)
    builder.insert(ReturnOp.create())
    verify(module, Context())
    return module


def _check_equivalent(make_module, arg_shapes, seed=0):
    """Interpret at linalg level vs fully lowered affine level."""
    high = make_module()
    low = make_module()
    lower_linalg_to_affine(low)
    verify(low, Context())
    args_h = random_arrays(seed, *arg_shapes)
    args_l = [a.copy() for a in args_h]
    Interpreter(high).run("f", *args_h)
    Interpreter(low).run("f", *args_l)
    for h, l in zip(args_h, args_l):
        assert_close(h, l)
    return low


class TestLinalgToAffine:
    def test_matmul(self):
        low = _check_equivalent(
            lambda: _linalg_module(
                lambda b, args: b.insert(
                    linalg_d.MatmulOp.create(*args)
                ),
                [(4, 5), (5, 6), (4, 6)],
            ),
            [(4, 5), (5, 6), (4, 6)],
        )
        assert not any(op.dialect == "linalg" for op in low.walk())

    def test_matvec(self):
        _check_equivalent(
            lambda: _linalg_module(
                lambda b, args: b.insert(linalg_d.MatvecOp.create(*args)),
                [(4, 5), (5,), (4,)],
            ),
            [(4, 5), (5,), (4,)],
        )

    def test_matvec_trans(self):
        _check_equivalent(
            lambda: _linalg_module(
                lambda b, args: b.insert(
                    linalg_d.MatvecOp.create(*args, trans=True)
                ),
                [(4, 5), (4,), (5,)],
            ),
            [(4, 5), (4,), (5,)],
        )

    def test_transpose(self):
        _check_equivalent(
            lambda: _linalg_module(
                lambda b, args: b.insert(
                    linalg_d.TransposeOp.create(args[0], args[1], [2, 0, 1])
                ),
                [(3, 4, 5), (5, 3, 4)],
            ),
            [(3, 4, 5), (5, 3, 4)],
        )

    def test_reshape_collapse(self):
        _check_equivalent(
            lambda: _linalg_module(
                lambda b, args: b.insert(
                    linalg_d.ReshapeOp.create(args[0], args[1], [[0, 1], [2]])
                ),
                [(3, 4, 5), (12, 5)],
            ),
            [(3, 4, 5), (12, 5)],
        )

    def test_reshape_expand(self):
        _check_equivalent(
            lambda: _linalg_module(
                lambda b, args: b.insert(
                    linalg_d.ReshapeOp.create(args[0], args[1], [[0, 1], [2]])
                ),
                [(12, 5), (3, 4, 5)],
            ),
            [(12, 5), (3, 4, 5)],
        )

    def test_conv2d(self):
        _check_equivalent(
            lambda: _linalg_module(
                lambda b, args: b.insert(
                    linalg_d.Conv2DNchwOp.create(*args)
                ),
                [(1, 3, 8, 8), (4, 3, 3, 3), (1, 4, 6, 6)],
            ),
            [(1, 3, 8, 8), (4, 3, 3, 3), (1, 4, 6, 6)],
        )

    def test_fill_and_copy(self):
        def build(b, args):
            c = b.insert(std.ConstantOp.create(2.5, f32))
            b.insert(linalg_d.FillOp.create(c.result, args[0]))
            b.insert(linalg_d.CopyOp.create(args[0], args[1]))

        low = _check_equivalent(
            lambda: _linalg_module(build, [(4, 5), (4, 5)]),
            [(4, 5), (4, 5)],
        )

    def test_generic(self):
        from repro.ir import AffineMap

        def build(b, args):
            op = linalg_d.GenericOp.create(
                [args[0]],
                [args[1]],
                [AffineMap.identity(2), AffineMap.permutation([1, 0])],
                ["parallel", "parallel"],
            )
            block = op.body
            mul = block.append(
                std.MulFOp.create(block.arguments[0], block.arguments[0])
            )
            block.append(linalg_d.LinalgYieldOp.create([mul.result]))
            b.insert(op)

        _check_equivalent(
            lambda: _linalg_module(build, [(4, 5), (5, 4)]),
            [(4, 5), (5, 4)],
        )


GEMM_SRC = """
void gemm(float A[6][7], float B[7][8], float C[6][8]) {
  for (int i = 0; i < 6; i++)
    for (int j = 0; j < 8; j++) {
      C[i][j] = 0.0f;
      for (int k = 0; k < 7; k++)
        C[i][j] += A[i][k] * B[k][j];
    }
}
"""


class TestFullLoweringPipeline:
    def _run_all_levels(self, module_factory):
        A, B = random_arrays(5, (6, 7), (7, 8))
        results = []
        for stage in ("affine", "scf", "llvm"):
            module = module_factory()
            if stage in ("scf", "llvm"):
                for func in module.functions:
                    lower_affine_to_scf(func)
            if stage == "llvm":
                for func in module.functions:
                    lower_scf_to_llvm(func)
            verify(module, Context())
            C = np.zeros((6, 8), np.float32)
            Interpreter(module).run("gemm", A.copy(), B.copy(), C)
            results.append(C)
        assert_close(results[0], results[1])
        assert_close(results[0], results[2])

    def test_affine_scf_llvm_agree(self):
        self._run_all_levels(lambda: compile_c(GEMM_SRC))

    def test_scf_level_has_no_affine(self):
        module = compile_c(GEMM_SRC)
        for func in module.functions:
            lower_affine_to_scf(func)
        assert not any(op.dialect == "affine" for op in module.walk())
        assert any(op.name == "scf.for" for op in module.walk())

    def test_llvm_level_is_cfg(self):
        module = compile_c(GEMM_SRC)
        lower_to_llvm(module)
        func = module.functions[0]
        assert len(func.regions[0].blocks) > 1
        assert not any(op.name == "scf.for" for op in module.walk())
        assert any(op.name == "llvm.cond_br" for op in module.walk())

    def test_raised_module_lowers_and_matches(self):
        ref = compile_c(GEMM_SRC)
        raised = compile_c(GEMM_SRC)
        raise_affine_to_linalg(raised)
        lower_to_llvm(raised)
        verify(raised, Context())
        A, B = random_arrays(6, (6, 7), (7, 8))
        C1 = np.zeros((6, 8), np.float32)
        C2 = np.zeros((6, 8), np.float32)
        Interpreter(ref).run("gemm", A, B, C1)
        Interpreter(raised).run("gemm", A, B, C2)
        assert_close(C1, C2)

    def test_lowering_timing_recorded(self):
        module = compile_c(GEMM_SRC)
        timing = lower_to_llvm(module)
        assert timing.total > 0


def _corpus_modules(raised):
    from repro.evaluation import PAPER_BENCHMARKS, get_kernel

    modules = {}
    for name in sorted(PAPER_BENCHMARKS):
        module = compile_c(get_kernel(name).small())
        if raised:
            raise_affine_to_linalg(module)
        modules[name] = module
    return modules


class TestLoweringIsAConversion:
    """Lowering runs as one conversion walk per pass, not a fixpoint:
    same IR as the reference fixpoint driver, same trial counts as when
    it ran under the worklist driver, and — with no stopwatch — a
    ceiling on the bookkeeping a fixpoint driver or a per-insert parent
    climb would bring back."""

    @pytest.mark.parametrize("raised", [True, False], ids=["raised", "unraised"])
    def test_default_and_snapshot_print_identical_ir(self, raised):
        # The tier-1 twin of the fuzzer's ``driver`` check: under the
        # snapshot default every conversion runs on the reference
        # fixpoint driver instead of the one-walk path.
        from repro.ir import pattern_driver, print_module

        one_walk = _corpus_modules(raised)
        reference = _corpus_modules(raised)
        assert len(one_walk) == 16
        for name, module in one_walk.items():
            lower_to_llvm(module)
            with pattern_driver("snapshot"):
                lower_to_llvm(reference[name])
            assert print_module(module) == print_module(reference[name]), name

    def test_one_iteration_and_the_trial_counts_of_the_fixpoint_era(self):
        from repro.transforms.lowering import lowering_pipeline

        totals = {}
        for module in _corpus_modules(raised=True).values():
            pm = lowering_pipeline()
            pm.run(module)
            for pass_ in pm.passes:
                entry = totals.setdefault(pass_.name, [0, 0])
                for result in pass_.rewrite_results:
                    assert result.iterations == 1, pass_.name
                    entry[0] += result.trials
                    entry[1] += result.num_rewrites
        # (trials, rewrites) per corpus pass; they move with the raised
        # contractions' TTGT plans (tactics/contraction.py).
        assert totals == {
            "convert-linalg-to-affine-loops": [67, 67],
            "affine-expand-matmul": [0, 0],
            "canonicalize": [418, 0],
            "lower-affine": [370, 370],
            "convert-scf-to-llvm": [176, 176],
            "convert-blas-to-llvm": [0, 0],
        }
        # transforms.lower_trials / transforms.lower_rewrites of the
        # e2e benchmark's traced compile_cold run.
        assert [sum(column) for column in zip(*totals.values())] == [1031, 613]

    def test_bookkeeping_ceiling(self, monkeypatch):
        # Under the fixpoint driver one lowering of the corpus made
        # 3 668 version bumps, each after a climb to the module, and
        # 50 094 ``parent_op`` reads in all.  Pinned at what one-walk
        # lowering with a driver-bound rewriter achieves (3 900 bumps —
        # payload ops are now notified too — and 1 986 reads), plus 20%.
        # Today: 2 312 bumps (pooled index constants build fewer ops) and
        # 1 986 reads (the pool finds its entry block once per run).
        from repro.ir import ModuleOp, Operation

        counts = {"bumps": 0, "parent_op": 0}
        modules = _corpus_modules(raised=True)
        real_bump = ModuleOp.bump_version
        real_parent = Operation.parent_op.fget

        def bump(module):
            counts["bumps"] += 1
            return real_bump(module)

        def parent_op(op):
            counts["parent_op"] += 1
            return real_parent(op)

        monkeypatch.setattr(ModuleOp, "bump_version", bump)
        monkeypatch.setattr(Operation, "parent_op", property(parent_op))
        for module in modules.values():
            lower_to_llvm(module)
        assert counts["bumps"] <= 4700, counts
        assert counts["parent_op"] <= 2400, counts


def _index_constants(ops):
    return [
        op
        for op in ops
        if op.name == "std.constant" and isinstance(op.result.type, IndexType)
    ]


def _interpreter_source(name):
    """A corpus kernel at sizes its lowered form interprets quickly: the
    contractions get extents 2, 3, 4, ... in index order."""
    from repro.evaluation import get_kernel
    from repro.evaluation.kernels import contraction_source
    from repro.tactics.contraction import (
        PAPER_CONTRACTIONS,
        parse_contraction_spec,
    )

    if name not in PAPER_CONTRACTIONS:
        return get_kernel(name).small()
    names = sorted({v for part in parse_contraction_spec(name) for v in part})
    return contraction_source(name, {v: 2 + i for i, v in enumerate(names)})


RAISED = pytest.mark.parametrize(
    "raised", [True, False], ids=["raised", "unraised"]
)


class TestIndexConstants:
    """Lowering takes every index constant from one pool per function:
    one ``std.constant`` per value at the top of the entry block, read
    back from the IR by each conversion run (nothing is kept on an op)."""

    @RAISED
    def test_one_constant_per_value_in_the_entry_block(self, raised):
        pooled = 0
        for name, module in _corpus_modules(raised).items():
            lower_to_llvm(module)
            for func in module.functions:
                constants = _index_constants(func.walk())
                values = [op.value for op in constants]
                assert len(values) == len(set(values)), (name, values)
                # All of them lead the entry block, so they dominate
                # every use.
                leading = func.entry_block.operations[: len(constants)]
                assert leading == constants, name
                pooled += len(constants)
        assert pooled > 0

    @RAISED
    def test_print_parse_between_the_passes_prints_the_same_bytes(self, raised):
        from repro.ir import PassManager, print_module
        from repro.ir.parser import parse_module
        from repro.transforms.lowering import lowering_pipeline

        for name, module in _corpus_modules(raised).items():
            staged = parse_module(print_module(module))
            lower_to_llvm(module)
            passes = lowering_pipeline().passes
            split = [p.name for p in passes].index("convert-scf-to-llvm")
            PassManager(Context()).add(*passes[:split]).run(staged)
            staged = parse_module(print_module(staged))
            PassManager(Context()).add(*passes[split:]).run(staged)
            assert print_module(staged) == print_module(module), name

    @RAISED
    def test_interpreter_agrees_with_the_met_module(self, raised):
        from repro.evaluation import PAPER_BENCHMARKS, get_kernel
        from repro.fuzzing.oracle import (
            execute_snapshot,
            make_args,
            module_arg_shapes,
        )

        for name in sorted(PAPER_BENCHMARKS):
            source = _interpreter_source(name)
            func = get_kernel(name).func_name
            reference = compile_c(source)
            lowered = compile_c(source)
            if raised:
                raise_affine_to_linalg(lowered)
            lower_to_llvm(lowered)
            verify(lowered, Context())
            args = make_args(module_arg_shapes(reference, func), seed=3)
            expected = execute_snapshot(reference, func, args)
            actual = execute_snapshot(lowered, func, args, 100_000_000)
            for want, got in zip(expected, actual):
                assert_close(want, got, rtol=2e-3)

    def test_plain_builder_outside_a_function_inserts_in_place(self):
        from repro.ir import Block, index
        from repro.ir import affine_expr as ae
        from repro.transforms import expand_affine_expr

        block = Block([index])
        marker = block.append(std.ConstantOp.create(7, index))
        builder = Builder(InsertionPoint.before(marker))
        expand_affine_expr(builder, (ae.dim(0) + 3).ceildiv(2), block.arguments)
        expand_affine_expr(builder, ae.constant(3), [])
        assert [op.name for op in block.operations] == [
            "std.constant",
            "std.addi",
            "std.constant",
            "std.constant",
            "std.addi",
            "std.subi",
            "std.divi",
            "std.constant",
            "std.constant",
        ]
        # No pool outside a conversion run: 3 is built twice, and the
        # marker is still last.
        assert [op.value for op in _index_constants(block.operations)] == [
            3, 2, 1, 3, 7
        ]


#: Block labels and terminators, in region order, of conv2d + copy + fill
#: after ``_peel_all_loops`` — as printed when the peel restarted its
#: scan from block 0 after every loop.  Every loop enters with the
#: pooled ``%0 = constant 0``.
PEELED_CFG = [
    "entry llvm.br ^bb0(%0)",
    "^bb0(%4: index): llvm.cond_br %5, ^bb1, ^bb2",
    "^bb1: llvm.br ^bb3(%0)",
    "^bb2: llvm.br ^bb4(%0)",
    "^bb3(%6: index): llvm.cond_br %7, ^bb5, ^bb6",
    "^bb5: llvm.br ^bb7(%0)",
    "^bb6: llvm.br ^bb0(%8)",
    "^bb4(%9: index): llvm.cond_br %10, ^bb8, ^bb9",
    "^bb8: llvm.br ^bb4(%12)",
    "^bb9: llvm.br ^bb10(%0)",
    "^bb7(%14: index): llvm.cond_br %15, ^bb11, ^bb12",
    "^bb11: llvm.br ^bb13(%0)",
    "^bb12: llvm.br ^bb3(%16)",
    "^bb10(%17: index): llvm.cond_br %18, ^bb14, ^bb15",
    "^bb14: llvm.br ^bb10(%19)",
    "^bb15: return",
    "^bb13(%20: index): llvm.cond_br %21, ^bb16, ^bb17",
    "^bb16: llvm.br ^bb18(%0)",
    "^bb17: llvm.br ^bb7(%22)",
    "^bb18(%23: index): llvm.cond_br %24, ^bb19, ^bb20",
    "^bb19: llvm.br ^bb21(%0)",
    "^bb20: llvm.br ^bb13(%25)",
    "^bb21(%26: index): llvm.cond_br %27, ^bb22, ^bb23",
    "^bb22: llvm.br ^bb24(%0)",
    "^bb23: llvm.br ^bb18(%28)",
    "^bb24(%29: index): llvm.cond_br %30, ^bb25, ^bb26",
    "^bb25: llvm.br ^bb24(%38)",
    "^bb26: llvm.br ^bb21(%39)",
]
PEELED_TEXT_SHA256 = (
    "33dc5edb829b9250e3aee91a599693879402dfe79c9b97c88b81638db4b5362d"
)


class TestPeelOrder:
    def test_seven_deep_nest_then_two_sibling_nests(self):
        """The single forward scan visits loops, and appends blocks, in
        the order the restart-from-block-0 scan did."""
        import hashlib

        from repro.ir import print_module
        from repro.transforms.lowering import _peel_all_loops

        def build(b, args):
            image, kernel, out, src, dst = args
            b.insert(linalg_d.Conv2DNchwOp.create(image, kernel, out))
            b.insert(linalg_d.CopyOp.create(src, dst))
            zero = b.insert(std.ConstantOp.create(0.0, f32)).result
            b.insert(linalg_d.FillOp.create(zero, src))

        module = _linalg_module(
            build, [(1, 1, 2, 2), (1, 1, 1, 1), (1, 1, 2, 2), (3,), (3,)]
        )
        func = module.functions[0]
        lower_linalg_to_affine(module)
        lower_affine_to_scf(func)
        assert _peel_all_loops(func) == 9  # 7 + 1 + 1
        verify(module, Context())
        text = print_module(module)

        rows, label = [], "entry"
        for line in map(str.strip, text.splitlines()):
            if line.startswith("^bb"):
                label = line
            elif line.startswith(("llvm.br", "llvm.cond_br", "return")):
                rows.append(f"{label} {line}")
        assert rows == PEELED_CFG
        assert hashlib.sha256(text.encode()).hexdigest() == PEELED_TEXT_SHA256
