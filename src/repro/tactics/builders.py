"""Builder execution: materialize a tactic's replacement IR.

Given a :class:`~repro.tactics.compiled.MatchResult` and the TDS
builder list, emits the replacement — Linalg ops (a contraction as one
``linalg.generic``) or the high-level ``affine.matmul`` — immediately
before the matched band, allocating intermediate buffers for the
temporaries (the D/E tensors of the TTGT recipe), then erases the band.
Library calls are not built here: ``convert-linalg-to-blas`` makes them
from the Linalg ops.  :func:`emit_builders` is the same list
without a band: the TTGT pass runs it in place of a generic.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from ..dialects import linalg as linalg_d
from ..dialects import std
from ..dialects.affine import AffineMatmulOp
from ..ir import (
    AffineMap,
    Builder,
    IRError,
    InsertionPoint,
    MemRefType,
    Operation,
    Value,
)
from ..ir import affine_expr as ae
from .compiled import MatchResult
from .tds import BuilderSpec, TacticRecord


class BuilderError(IRError):
    pass


def apply_builders(
    record: TacticRecord,
    match: MatchResult,
    target: str = "linalg",
    rewriter=None,
) -> List[Operation]:
    """Run the builder list in place of the matched band; returns the
    newly created operations.  ``target`` is ``"linalg"`` or
    ``"affine"``.

    When a :class:`~repro.ir.PatternRewriter` is supplied, all
    insertions and the band erasure go through it, so the worklist
    driver sees the structural notifications.
    """
    if rewriter is not None:
        rewriter.set_insertion_point_before(match.root)
        builder = rewriter
    else:
        builder = Builder(InsertionPoint.before(match.root))
    position = {
        id(loop.induction_var): depth for depth, loop in enumerate(match.band)
    }
    loop_vars = sorted(match.iv_of, key=lambda v: position[id(match.iv_of[v])])
    created = emit_builders(
        record,
        builder,
        match.memref_of,
        match.extent_of,
        loop_vars,
        target,
    )
    if rewriter is not None:
        rewriter.erase_nest(match.root)
    else:
        match.root.erase()
    return created


def emit_builders(
    record: TacticRecord,
    builder,
    memref_of: Dict[str, Value],
    extent_of: Dict[str, int],
    loop_vars: Sequence[str],
    target: str = "linalg",
) -> List[Operation]:
    """Insert the record's builder ops through ``builder`` over the
    tensors ``memref_of`` names; returns the created operations.

    ``extent_of`` sizes the temporaries; ``loop_vars`` orders the loops
    of a ``contractionBuilder``'s generic (outermost first)."""
    if target not in ("linalg", "affine"):
        raise BuilderError(f"unknown raising target {target!r}")
    env: Dict[str, Value] = dict(memref_of)
    loop_vars = list(loop_vars)
    created: List[Operation] = []

    def extent(var: str) -> int:
        if var not in extent_of:
            raise BuilderError(
                f"tactic {record.name}: unknown index variable {var!r}"
            )
        return extent_of[var]

    def out_value(spec: BuilderSpec, element_type) -> Value:
        name = spec.out
        if name in env:
            return env[name]
        if spec.dims is None:
            raise BuilderError(
                f"tactic {record.name}: cannot size temporary {name!r} "
                "(builder lacks Dims)"
            )
        shape = []
        for group in spec.dims:
            size = 1
            for var in group:
                size *= extent(var)
            shape.append(size)
        alloc = builder.insert(
            std.AllocOp.create(MemRefType(shape, element_type))
        )
        created.append(alloc)
        env[name] = alloc.result
        return alloc.result

    for spec in record.builders:
        ins = []
        for name in spec.ins:
            if name not in env:
                raise BuilderError(
                    f"tactic {record.name}: builder input {name!r} is "
                    "neither a matched tensor nor a prior output"
                )
            ins.append(env[name])
        elem = ins[0].type.element_type
        out = out_value(spec, elem)
        op = _emit(spec, ins, out, target, loop_vars)
        builder.insert(op)
        created.append(op)
    return created


def _contraction_generic(
    spec: BuilderSpec, ins: List[Value], out: Value, loop_vars: List[str]
) -> Operation:
    """``out += ins[0] * ins[1]`` as one ``linalg.generic``: loop ``d``
    is ``loop_vars[d]``, each operand's map lists its index variables."""
    unbound = {v for names in spec.indices for v in names} - set(loop_vars)
    if unbound:
        raise BuilderError(f"contractionBuilder: no loop for {sorted(unbound)}")
    maps = [
        AffineMap(
            len(loop_vars), 0, [ae.dim(loop_vars.index(v)) for v in names]
        )
        for names in spec.indices
    ]
    return linalg_d.GenericOp.create_contraction(ins[0], ins[1], out, maps)


def _emit(
    spec: BuilderSpec,
    ins: List[Value],
    out: Value,
    target: str,
    loop_vars: List[str],
) -> Operation:
    kind = spec.kind
    if target == "affine":
        if kind == "matmulBuilder":
            return AffineMatmulOp.create(ins[0], ins[1], out)
        raise BuilderError(
            f"the Affine raising path only supports matmul, got {kind}"
        )
    if kind == "contractionBuilder":
        # The GEMM layout of a general contraction is a later pass's
        # decision (``-linalg-contraction-ttgt``).
        return _contraction_generic(spec, ins, out, loop_vars)
    if kind == "transposeBuilder":
        return linalg_d.TransposeOp.create(ins[0], out, spec.expr)
    if kind == "reshapeBuilder":
        return linalg_d.ReshapeOp.create(ins[0], out, spec.expr)
    if kind == "matmulBuilder":
        return linalg_d.MatmulOp.create(ins[0], ins[1], out)
    if kind == "matvecBuilder":
        trans = spec.expr == [1, 0]
        return linalg_d.MatvecOp.create(ins[0], ins[1], out, trans=trans)
    if kind == "convBuilder":
        return linalg_d.Conv2DNchwOp.create(ins[0], ins[1], out)
    raise BuilderError(f"unhandled builder kind {kind!r}")
