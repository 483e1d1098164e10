"""The engine's mid-level loop-optimizer pipeline.

Per-stage unit kernels (fusion, copy-elim/DCE, dead-loop elimination,
distribution, cache-blocking tiling), hypothesis equivalence properties
against the interpreter, and the cache version-tag guarantees.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dialects import affine as affine_d
from repro.dialects import std
from repro.dialects.affine import outermost_loops, perfect_nest
from repro.execution import ExecutionEngine, Interpreter
from repro.execution.engine.cache import KernelCache
from repro.execution.engine.codegen import EngineError, compile_module
from repro.execution.engine.disk_cache import DiskKernelCache
from repro.execution.engine.optimizer import OPT_MODES, run_optimizer
from repro.fuzzing import generate_affine_module, generate_kernel
from repro.fuzzing.oracle import make_args, module_arg_shapes
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
    print_module,
    verify,
)
from repro.ir.affine_map import AffineMap
from repro.ir.parser import parse_module
from repro.met import compile_c
from repro.scheduling.interpreter import (
    ScheduleError,
    ScheduleResult,
    apply_schedule,
    canned_schedule,
)
from repro.tool import build_pipeline
from repro.transforms.fusion import can_fuse, greedy_fuse

from ..conftest import assert_close


FUSABLE_SIBLINGS = """
void f(float A[16], float T[16], float C[16]) {
  for (int i = 0; i < 16; i++)
    T[i] = A[i] * 2.0f;
  for (int i = 0; i < 16; i++)
    C[i] = T[i] + 1.0f;
}
"""

DEAD_TEMPORARY = """
void f(float A[8], float C[8]) {
  float T[8];
  for (int i = 0; i < 8; i++)
    T[i] = A[i] * 2.0f;
  for (int i = 0; i < 8; i++)
    C[i] = T[i] + 1.0f;
}
"""

#: ``%a[0]`` is stored, a loop calls ``@CALLEE`` on ``%a``, then
#: ``%a[0]`` is loaded into ``%out[0]`` and stored again.
CALL_IN_LOOP = """
module {
  func @overwrite(%b: memref<4xf32>, %o: memref<4xf32>) {
    %c = std.constant 7.0 : f32
    affine.store %c, %b[0] : memref<4xf32>
    return
  }
  func @read(%b: memref<4xf32>, %o: memref<4xf32>) {
    %v = affine.load %b[0] : memref<4xf32>
    affine.store %v, %o[1] : memref<4xf32>
    return
  }
  func @f(%a: memref<4xf32>, %out: memref<4xf32>) {
    %x = std.constant 1.0 : f32
    affine.store %x, %a[0] : memref<4xf32>
    affine.for %j = 0 to 1 {
      func.call @CALLEE(%a, %out) : (memref<4xf32>, memref<4xf32>) -> ()
    }
    %y = affine.load %a[0] : memref<4xf32>
    affine.store %y, %out[0] : memref<4xf32>
    %z = std.constant 2.0 : f32
    affine.store %z, %a[0] : memref<4xf32>
    return
  }
}
"""

GEMM_IMPERFECT = """
void gemm(float A[8][9], float B[9][10], float C[8][10]) {
  for (int i = 0; i < 8; i++)
    for (int j = 0; j < 10; j++) {
      C[i][j] = 0.0f;
      for (int k = 0; k < 9; k++)
        C[i][j] += A[i][k] * B[k][j];
    }
}
"""

REDUNDANT_LOOP = """
void f(float A[8], float B[8]) {
  for (int r = 0; r < 5; r++)
    for (int i = 0; i < 8; i++)
      B[i] = A[i] + 1.0f;
}
"""

# Every suffix band bails (invariant-reduction-axis: the contribution
# does not vary along k), so the vectorizer leaves this scalar and the
# tiler takes it.
TILABLE_SCALAR = """
void acc(float A[64][64], float C[64][64]) {
  for (int i = 0; i < 64; i++)
    for (int j = 0; j < 64; j++)
      for (int k = 0; k < 4; k++)
        C[i][j] = C[i][j] + A[i][j];
}
"""


def _interp_outputs(module, func_name, base_args):
    outs = [a.copy() for a in base_args]
    Interpreter(module).run(func_name, *outs)
    return outs


def _optimized_clone(source, mode="full"):
    module = compile_c(source, distribute=False)
    stats = run_optimizer(module, mode)
    verify(module, Context())
    return module, stats


class TestStages:
    def test_fusion_stage(self):
        # ``fuse`` mode in isolation: T is a visible argument, so the
        # full pipeline's distribute stage would legitimately re-split
        # the two-store fused body.
        module, stats = _optimized_clone(FUSABLE_SIBLINGS, mode="fuse")
        assert stats.counters["loops_fused"] >= 1
        func = module.functions[0]
        assert len(outermost_loops(func)) == 1

    def test_copy_elim_removes_dead_temporary(self):
        module, stats = _optimized_clone(DEAD_TEMPORARY)
        assert stats.counters["loops_fused"] >= 1
        assert stats.counters["stores_forwarded"] >= 1
        assert stats.counters["dead_allocs_removed"] >= 1
        assert not any(
            op.name == "std.alloc" for op in module.functions[0].walk()
        )

    @pytest.mark.parametrize("callee", ["@overwrite", "@read"])
    def test_copy_elim_stops_at_a_loop_whose_effects_are_unknown(
        self, callee
    ):
        """A call in a loop between two accesses of ``%a`` may write it
        (store-to-load forwarding must not cross) or read it (the first
        store is not dead)."""
        module = parse_module(CALL_IN_LOOP.replace("@CALLEE", callee))
        a, out = np.zeros(4, np.float32), np.zeros(4, np.float32)
        expected = _interp_outputs(module, "f", [a, out])
        build_pipeline(["affine-copy-elimination"]).run(module)
        got = _interp_outputs(module, "f", [a, out])
        for array, want in zip(got, expected):
            np.testing.assert_array_equal(array, want)

    def test_dead_loop_elimination(self):
        module, stats = _optimized_clone(REDUNDANT_LOOP)
        assert stats.counters["loops_eliminated"] >= 1
        func = module.functions[0]
        assert len(outermost_loops(func)) == 1
        assert len(perfect_nest(outermost_loops(func)[0])) == 1

    def test_distribution_carves_imperfect_gemm(self):
        module, stats = _optimized_clone(GEMM_IMPERFECT)
        assert stats.counters["loops_distributed"] >= 1
        roots = outermost_loops(module.functions[0])
        assert len(roots) == 2
        depths = sorted(len(perfect_nest(root)) for root in roots)
        assert depths == [2, 3]

    def test_tiling_stage_blocks_scalar_nest(self):
        module, stats = _optimized_clone(TILABLE_SCALAR)
        assert stats.counters["nests_tiled"] == 1
        func = module.functions[0]
        root = outermost_loops(func)[0]
        assert all(loop.no_vectorize for loop in perfect_nest(root))
        assert "no_vectorize" in root.attributes
        # Tiled band is deeper than the original triple nest.
        assert len(perfect_nest(root)) > 3

    @pytest.mark.parametrize(
        "optimize",
        [
            lambda module: run_optimizer(module, "full"),
            lambda module: apply_schedule(
                parse_module(
                    "module {\n  transform.sequence {\n"
                    "    %0 = transform.match\n"
                    "    %1 = transform.tile %0 {sizes = [8, 8, 2]}\n"
                    "  }\n}\n"
                ),
                module,
            ),
        ],
        ids=["opt-full", "explicit-sizes"],
    )
    def test_tile_marker_survives_clone_and_reparse(self, optimize):
        # The marker used to be a Python-side tag that clone() and
        # print->parse both dropped, so a module that went through the
        # modules/ text cache re-attempted vectorization on tiled bands
        # (6 spurious bails here) and could emit a different kernel.
        module = compile_c(TILABLE_SCALAR, distribute=False)
        optimize(module)
        text = print_module(module)
        assert text.count("{no_vectorize}") == 6
        variants = [module, module.clone(), parse_module(text)]
        assert [print_module(variant) for variant in variants] == [text] * 3
        compiled = [compile_module(variant) for variant in variants]
        # ... and the one bailed nest says why, once.
        assert compiled[0].vectorize_stats["nests_bailed"] == 1
        assert compiled[0].vectorize_stats["bail_reasons"] == {"tiled": 1}
        for other in compiled[1:]:
            assert other.source == compiled[0].source
            assert other.vectorize_stats == compiled[0].vectorize_stats

    @pytest.mark.parametrize("opt_mode", OPT_MODES)
    def test_every_scalar_nest_has_a_reason(self, opt_mode):
        # "Why is this nest not vectorized" always has an answer: a
        # bailed or partial nest with no recorded reason is a bug (a
        # tiled root used to skip the attempt and still count).
        modules = [compile_c(TILABLE_SCALAR, distribute=False)] + [
            generate_affine_module(seed).module for seed in range(40)
        ]
        scalar_nests = 0
        for module in modules:
            stats = ExecutionEngine(
                module,
                pipeline="reasons",
                cache=KernelCache(),
                opt_mode=opt_mode,
            ).vectorize_stats
            if stats["nests_bailed"] + stats["nests_partial"]:
                scalar_nests += 1
                assert stats["bail_reasons"], stats
        assert scalar_nests > 1

    def test_full_promotes_a_scalar_nest_to_collapsed(self):
        # Two stores in one body: the vectorizer bails on the raw nest
        # (opt=none), and opt=full's distribution hands it two nests it
        # collapses whole — the mid-level pipeline's reason to exist.
        # Every mode must compute what the interpreter computes.
        module = compile_c(
            """
            void addsub(float A[6][7], float B[6][7], float S[6][7],
                        float D[6][7]) {
              for (int i = 0; i < 6; i++)
                for (int j = 0; j < 7; j++) {
                  S[i][j] = A[i][j] + B[i][j];
                  D[i][j] = A[i][j] - B[i][j];
                }
            }
            """,
            distribute=False,
        )
        shapes = module_arg_shapes(module, "addsub")
        reference = make_args(shapes, 0)
        Interpreter(module).run("addsub", *reference)
        stats = {}
        for opt_mode in OPT_MODES:
            engine = ExecutionEngine(
                module,
                pipeline="promote",
                cache=KernelCache(),
                opt_mode=opt_mode,
            )
            args = make_args(shapes, 0)
            engine.run("addsub", *args)
            for expect, got in zip(reference, args):
                np.testing.assert_allclose(got, expect, rtol=2e-3, atol=1e-5)
            stats[opt_mode] = engine.vectorize_stats
        assert stats["none"]["nests_collapsed"] == 0, stats["none"]
        assert "multiple-stores" in stats["none"]["bail_reasons"]
        assert stats["full"]["nests_collapsed"] >= 1, stats["full"]
        assert stats["full"]["nests_bailed"] == 0, stats["full"]

    def test_tiled_execution_is_bit_exact(self):
        module = compile_c(TILABLE_SCALAR, distribute=False)
        shapes = module_arg_shapes(module, "acc")
        args = make_args(shapes, 7)
        none_args = [a.copy() for a in args]
        full_args = [a.copy() for a in args]
        ExecutionEngine(module, pipeline="tile-exact", opt_mode="none").run(
            "acc", *none_args
        )
        ExecutionEngine(module, pipeline="tile-exact", opt_mode="full").run(
            "acc", *full_args
        )
        for expect, got in zip(none_args, full_args):
            np.testing.assert_array_equal(expect, got)

    def test_stage_snapshots_in_order(self):
        _, stats = _optimized_clone(DEAD_TEMPORARY)
        # Pins the canned schedules' step order: stages are named by
        # the transform mnemonic of the step that ran them.
        assert [s["stage"] for s in stats.stages] == [
            "transform.fuse",
            "transform.copy_elim",
            "transform.dead_loops",
            "transform.canonicalize",
            "transform.distribute",
            "transform.tile",
        ]
        _, fuse_stats = _optimized_clone(DEAD_TEMPORARY, mode="fuse")
        assert [s["stage"] for s in fuse_stats.stages] == ["transform.fuse"]

    def test_unknown_mode_rejected(self):
        module = compile_c(REDUNDANT_LOOP, distribute=False)
        with pytest.raises(ValueError):
            run_optimizer(module, "aggressive")
        assert "aggressive" not in OPT_MODES


class TestSymbolicBoundsFusion:
    def _module_with_symbolic_bounds(self, shared_extent: bool):
        module = ModuleOp.create()
        func = FuncOp.create("f", [memref(8, f32), memref(8, f32)])
        module.append_function(func)
        a, b = func.arguments
        builder = Builder(InsertionPoint.at_end(func.entry_block))
        n1 = builder.insert(std.ConstantOp.create(8, IndexType()))
        n2 = (
            n1
            if shared_extent
            else builder.insert(std.ConstantOp.create(8, IndexType()))
        )
        ub = AffineMap.identity(1)
        loops = []
        for extent, (src, dst) in ((n1, (a, b)), (n2, (b, b))):
            loop = affine_d.AffineForOp.create(
                0, ub, 1, [], [extent.result]
            )
            builder.insert(loop)
            body = Builder(InsertionPoint(loop.body, 0))
            iv = loop.induction_var
            val = body.insert(affine_d.AffineLoadOp.create(src, [iv]))
            two = body.insert(std.ConstantOp.create(2.0, f32))
            mul = body.insert(std.MulFOp.create(val.result, two.result))
            body.insert(affine_d.AffineStoreOp.create(mul.result, dst, [iv]))
            loops.append(loop)
        builder.insert(ReturnOp.create())
        verify(module, Context())
        return module, loops

    def test_symbolic_equal_bounds_fuse(self):
        module, (first, second) = self._module_with_symbolic_bounds(True)
        assert can_fuse(first, second)
        assert greedy_fuse(module.functions[0], require_flow=True) == 1
        verify(module, Context())

    def test_distinct_bound_operands_do_not_fuse(self):
        # Same extent numerically, but different SSA values: the
        # structural equality test must stay conservative.
        _, (first, second) = self._module_with_symbolic_bounds(False)
        assert not can_fuse(first, second)


class TestEnginePlumbing:
    def test_opt_stats_exposed(self):
        module = compile_c(DEAD_TEMPORARY, distribute=False)
        engine = ExecutionEngine(module, pipeline="plumb", opt_mode="full")
        stats = engine.opt_stats
        assert stats is not None
        assert stats["stages"][-1]["stage"] == "transform.tile"
        assert stats["stores_forwarded"] >= 1
        none_engine = ExecutionEngine(
            module, pipeline="plumb", opt_mode="none"
        )
        assert none_engine.opt_stats is None

    def test_schedule_engine_opt_stats_survive_a_disk_hit(self, tmp_path):
        # One opt_stats for either entry point: a schedule= engine
        # reports through it, and the disk tier persists it.
        module = compile_c(DEAD_TEMPORARY, distribute=False)
        snapshots = []
        for _ in range(2):
            cache = KernelCache(disk=DiskKernelCache(str(tmp_path)))
            engine = ExecutionEngine(
                module,
                pipeline="plumb-sched",
                cache=cache,
                schedule=canned_schedule("full"),
            )
            snapshots.append(engine.opt_stats)
        assert cache.stats.codegen_count == 0  # second engine: disk hit
        assert snapshots[0] == snapshots[1]
        assert set(snapshots[0]) == set(ScheduleResult().snapshot())
        assert snapshots[0]["stores_forwarded"] >= 1
        assert not hasattr(engine, "schedule_stats")

    def test_caller_module_never_mutated(self):
        from repro.ir import print_module

        module = compile_c(FUSABLE_SIBLINGS, distribute=False)
        before = print_module(module)
        ExecutionEngine(module, pipeline="no-mutate", opt_mode="full")
        assert print_module(module) == before

    def test_opt_modes_never_share_cache_keys(self):
        module = compile_c(FUSABLE_SIBLINGS, distribute=False)
        cache = KernelCache()
        for mode in OPT_MODES:
            ExecutionEngine(
                module, pipeline="keys", cache=cache, opt_mode=mode
            )
        assert cache.stats.codegen_count == len(OPT_MODES)
        # Same mode again: a hit, not a recompile.
        ExecutionEngine(
            module, pipeline="keys", cache=cache, opt_mode="full"
        )
        assert cache.stats.codegen_count == len(OPT_MODES)


class TestOneSpelling:
    """An ``opt_mode`` is the name of a canned schedule: the engine
    resolves it at construction, and from there on only the schedule
    exists — one kernel and one report for either spelling."""

    def test_mode_and_its_schedule_share_one_kernel(self):
        from repro.evaluation import get_kernel

        module = compile_c(get_kernel("gemver").small(), distribute=False)
        cache = KernelCache()
        by_mode = ExecutionEngine(module, cache=cache, opt_mode="full")
        by_schedule = ExecutionEngine(
            module, cache=cache, schedule=canned_schedule("full")
        )
        assert cache.stats.codegen_count == 1
        assert by_schedule.source == by_mode.source
        assert by_schedule.opt_stats == by_mode.opt_stats
        assert "mode" not in by_mode.opt_stats

    def test_mode_and_schedule_together_are_refused(self):
        module = compile_c(FUSABLE_SIBLINGS, distribute=False)
        with pytest.raises(EngineError, match="pass one"):
            ExecutionEngine(
                module,
                cache=KernelCache(),
                opt_mode="fuse",
                schedule=canned_schedule("full"),
            )

    def test_unknown_mode_fails_before_the_cache(self):
        module = compile_c(FUSABLE_SIBLINGS, distribute=False)
        cache = KernelCache()
        with pytest.raises(ScheduleError, match="aggressive"):
            ExecutionEngine(module, cache=cache, opt_mode="aggressive")
        assert cache.stats.misses == 0

    def test_every_application_reports_every_counter(self):
        # Zeros are present: the "none" schedule moves nothing and
        # still reports the full key set.
        module = compile_c(REDUNDANT_LOOP, distribute=False)
        snap = run_optimizer(module, "none").snapshot()
        assert set(snap) == set(ScheduleResult().snapshot())
        assert snap["loops_fused"] == 0 and snap["stages"] == []
        assert snap["functions_seen"] == 1


class TestEquivalenceProperties:
    @given(seed=st.integers(min_value=0, max_value=500), mode=st.sampled_from(["fuse", "full"]))
    @settings(max_examples=25, deadline=None)
    def test_optimized_c_kernels_match_interpreter(self, seed, mode):
        kernel = generate_kernel(seed)
        module = compile_c(kernel.source, distribute=False)
        shapes = module_arg_shapes(module, kernel.func_name)
        base_args = make_args(shapes, seed)
        expect = _interp_outputs(module, kernel.func_name, base_args)
        optimized = module.clone()
        run_optimizer(optimized, mode)
        verify(optimized, Context())
        got = _interp_outputs(optimized, kernel.func_name, base_args)
        for e, g in zip(expect, got):
            assert_close(e, g)

    @given(seed=st.integers(min_value=0, max_value=500))
    @settings(max_examples=20, deadline=None)
    def test_optimized_builder_modules_match_interpreter(self, seed):
        generated = generate_affine_module(seed)
        module = generated.module
        shapes = module_arg_shapes(module, generated.func_name)
        base_args = make_args(shapes, seed)
        expect = _interp_outputs(module, generated.func_name, base_args)
        optimized = module.clone()
        run_optimizer(optimized, "full")
        verify(optimized, Context())
        got = _interp_outputs(optimized, generated.func_name, base_args)
        for e, g in zip(expect, got):
            assert_close(e, g)
