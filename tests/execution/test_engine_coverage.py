"""Audit: the compiled engine's emitter table must cover every op the
dialects can construct.

Mirror of ``test_interpreter_coverage.py`` for the codegen backend:
anything in OP_REGISTRY is constructible by some pipeline, so every op
must either have an emitter in ``EMITTERS`` or be a structural
container.  An op that slips through anyway must fail codegen with a
clean one-line ``EngineError`` naming the op — never a KeyError from
deep inside the generator.
"""

import pytest

import repro.dialects  # noqa: F401 — populates OP_REGISTRY
from repro.execution import ExecutionEngine
from repro.execution.engine import EMITTERS, EngineError
from repro.analysis.band import PAYLOAD_OPS
from repro.execution.interpreter import _PLANNERS
from repro.ir import FuncOp, ModuleOp, Operation, ReturnOp
from repro.ir.core import OP_REGISTRY
from repro.ir.parser import parse_module

#: Ops that hold functions/regions but are never emitted themselves.
STRUCTURAL_OPS = {"builtin.module", "func.func"}


class TestEmitterCoverage:
    def test_every_registered_op_has_an_emitter(self):
        missing = set(OP_REGISTRY) - set(EMITTERS) - STRUCTURAL_OPS
        assert not missing, (
            f"dialect ops without an engine emitter: {sorted(missing)}; "
            "add an emitter (or a clean-diagnostic stub) to "
            "execution/engine/codegen.py"
        )

    def test_no_stale_emitters(self):
        stale = set(EMITTERS) - set(OP_REGISTRY)
        assert not stale, f"emitters for unregistered ops: {sorted(stale)}"

    def test_engine_tracks_interpreter_surface(self):
        """Every op the interpreter can execute, the engine can compile
        (the engine-diff fuzz stage depends on this)."""
        gap = set(_PLANNERS) - set(EMITTERS)
        assert not gap, f"interpreted ops the engine cannot compile: {gap}"


class TestVectorizerSafeSetAudit:
    """Joint audit of the one band payload set and the tables that must
    cover it: an op in :data:`PAYLOAD_OPS` may sit in a collapsed band,
    so it must also be scalar-compilable (the bail fallback),
    interpretable (the vectorize-diff oracle's reference), inside the
    optimizer's gate, and replayable in a synthesized clone body."""

    def test_safe_ops_are_registered(self):
        unknown = set(PAYLOAD_OPS) - set(OP_REGISTRY)
        assert not unknown, f"PAYLOAD_OPS not in any dialect: {sorted(unknown)}"

    def test_safe_ops_have_scalar_emitters(self):
        missing = set(PAYLOAD_OPS) - set(EMITTERS)
        assert not missing, (
            f"payload ops the scalar engine cannot compile "
            f"(the bail fallback would crash): {sorted(missing)}"
        )

    def test_safe_ops_have_interpreter_handlers(self):
        missing = set(PAYLOAD_OPS) - set(_PLANNERS)
        assert not missing, (
            f"payload ops the interpreter cannot execute "
            f"(vectorize-diff has no reference): {sorted(missing)}"
        )

    def test_widened_safe_set_members(self):
        """The negation and min/max-idiom ops are part of the payload set."""
        assert {"std.negf", "std.cmpf", "std.select"} <= PAYLOAD_OPS

    def test_optimizer_gate_contains_the_payload_set(self):
        from repro.execution.engine.optimizer import _function_is_optimizable

        module = parse_module(EVERY_PAYLOAD_OP)
        assert _function_is_optimizable(module.lookup("f"))

    def test_clone_body_replays_every_payload_op(self):
        """``_fill_clone_body`` clones every non-access payload op into
        the generic body: a clone-body candidate over a band holding one
        of each keeps them all."""
        from repro.analysis.band import summarize_band
        from repro.raising import NestSummary, materialize_candidate
        from repro.raising.enumerator import Candidate
        from repro.raising.nest import summarize_nest

        module = parse_module(EVERY_PAYLOAD_OP)
        root = next(op for op in module.walk() if op.name == "affine.for")
        assert {op.name for op in summarize_band(root).payload} == PAYLOAD_OPS
        summary = summarize_nest(root)
        assert isinstance(summary, NestSummary)
        candidate = Candidate(
            kind="map",
            op_name="linalg.generic",
            inputs=(0, 1),
            output=2,
            assignments=((0,), (0,), (0,)),
            body="clone",
            input_loads=(0, 1),
        )
        generic = materialize_candidate(candidate, summary, summary.arrays)
        replayed = {op.name for op in generic.body.ops_without_terminator()}
        assert replayed == PAYLOAD_OPS - {"affine.load", "affine.store"}


EVERY_PAYLOAD_OP = """
module {
  func @f(%a: memref<4xf32>, %b: memref<4xf32>, %c: memref<4xf32>) {
    affine.for %i = 0 to 4 {
      %x = affine.load %a[%i] : memref<4xf32>
      %y = affine.load %b[%i] : memref<4xf32>
      %k = std.constant 2.0 : f32
      %s = std.addf %x, %y : f32
      %d = std.subf %s, %k : f32
      %m = std.mulf %d, %x : f32
      %q = std.divf %m, %k : f32
      %n = std.negf %q : f32
      %g = std.maxf %n, %y : f32
      %p = std.cmpf "olt", %g, %x : f32
      %r = "std.select"(%p, %g, %x) : (i1, f32, f32) -> (f32)
      affine.store %r, %c[%i] : memref<4xf32>
    }
    return
  }
}
"""


class TestUnknownOpDiagnostic:
    def test_unregistered_op_fails_with_one_line_engine_error(self):
        module = ModuleOp.create()
        func = FuncOp.create("f", [])
        module.append_function(func)
        func.entry_block.append(Operation(name="mystery.op"))
        func.entry_block.append(ReturnOp.create())
        with pytest.raises(EngineError) as excinfo:
            ExecutionEngine(module, pipeline="coverage-audit")
        message = str(excinfo.value)
        assert "mystery.op" in message
        assert "\n" not in message


class TestFig9Reachability:
    """Every op name present in any Figure-9 pipeline snapshot of the
    paper kernels must have an emitter."""

    def test_all_fig9_snapshot_ops_have_emitters(self):
        from repro.evaluation import get_kernel
        from repro.fuzzing.oracle import build_pipelines
        from repro.ir import Context
        from repro.met import compile_c

        seen = set()
        for kernel in ("gemm", "atax", "mvt", "2mm"):
            spec = get_kernel(kernel)
            for pipeline in build_pipelines().values():
                module = compile_c(spec.small(), distribute=False)
                seen.update(op.name for f in module.functions for op in f.walk())
                for _, _, factory in pipeline.flat_passes():
                    factory().run(module, Context())
                    seen.update(
                        op.name for f in module.functions for op in f.walk()
                    )
        missing = seen - set(EMITTERS) - STRUCTURAL_OPS
        assert not missing, (
            f"Figure-9 pipelines reach ops without emitters: {sorted(missing)}"
        )
