"""The one reader of a structured contraction: which loops each operand
of a ``linalg.generic`` is indexed by, which loops are summed, and
whether the body accumulates ``a * b`` into the output.

Code generation (the ``@``/``tensordot``/``einsum`` call of a generic),
the interpreter (one ``np.einsum`` instead of scalar loops) and the
TTGT layout pass (``transforms/ttgt.py``) all read a generic through
:func:`generic_contraction_spec`, so they agree on which generics are
contractions.
"""

from __future__ import annotations

from typing import List, NamedTuple, Optional

from ..ir.affine_expr import AffineExprKind

#: Axis labels of a contraction spec, one per loop (here, in codegen
#: and in the vectorizer); deeper nests are no contraction.
CONTRACTION_LABELS = "abcdefghijklmnopqrstuvwxyz"


class GenericContraction(NamedTuple):
    """A two-input multiply-accumulate ``linalg.generic`` read as a
    tensor contraction."""

    #: einsum subscript: one label per loop (``CONTRACTION_LABELS[d]``
    #: for loop ``d``), output labels in the output map's order.
    spec: str
    #: The body is ``acc - a * b``.
    subtract: bool
    #: The output map is all-constant-0 (a scalar accumulator such as
    #: ``s[0] += x[i] * y[i]``).
    scalar_out: bool


def _pure_dim_positions(map_) -> Optional[List[int]]:
    """Dim position per map result when every result is a bare ``dN``
    and no dim repeats (no diagonal accesses); ``None`` otherwise."""
    dims: List[int] = []
    for expr in map_.results:
        if expr.kind is not AffineExprKind.DIM:
            return None
        dims.append(expr.position)
    if len(set(dims)) != len(dims):
        return None
    return dims


def generic_contraction_spec(op) -> Optional[GenericContraction]:
    """Recognize a two-input multiply-accumulate ``linalg.generic`` over
    whole tensors as a tensor contraction, or ``None`` when it must run
    as scalar loops.

    This is what routes raised permuted / transposed / subtracting
    contractions onto the ``np.tensordot`` fast path that the named
    ``linalg.matmul``/``matvec`` already enjoy.
    """
    if op.num_inputs != 2 or len(op.outputs) != 1:
        return None
    body_ops = op.body.ops_without_terminator()
    if len(body_ops) != 2:
        return None
    mul, combine = body_ops
    if mul.name != "std.mulf" or combine.name not in (
        "std.addf",
        "std.subf",
    ):
        return None
    a_arg, b_arg, out_arg = op.body.arguments
    if {id(v) for v in mul.operands} != {id(a_arg), id(b_arg)}:
        return None
    subtract = combine.name == "std.subf"
    if subtract:
        # subf is not commutative: only acc - a*b is an accumulation.
        if (
            combine.operands[0] is not out_arg
            or combine.operands[1] is not mul.result
        ):
            return None
    elif {id(v) for v in combine.operands} != {
        id(out_arg),
        id(mul.result),
    }:
        return None
    term = op.body.terminator
    if term.num_operands != 1 or term.operands[0] is not combine.result:
        return None

    maps = op.indexing_maps
    if op.num_loops > len(CONTRACTION_LABELS):
        return None
    a_dims = _pure_dim_positions(maps[0])
    b_dims = _pure_dim_positions(maps[1])
    if a_dims is None or b_dims is None:
        return None
    out_map = maps[2]
    out_dims = _pure_dim_positions(out_map)
    scalar_out = False
    if out_dims is None:
        if all(
            e.is_constant() and e.evaluate((), ()) == 0
            for e in out_map.results
        ):
            scalar_out = True
            out_dims = []
        else:
            return None
    # Every loop indexes a factor (a loop only the output names would
    # broadcast the product, which no contraction call does).
    if set(a_dims) | set(b_dims) != set(range(op.num_loops)):
        return None
    # Each operand spans its loops' whole ranges: a map that reads part
    # of a tensor (or past it) is no whole-tensor contraction.
    extents = op.iteration_domain()
    for value, dims in zip(op.operands, (a_dims, b_dims, out_dims)):
        if dims and list(value.type.shape) != [extents[d] for d in dims]:
            return None
    label = CONTRACTION_LABELS.__getitem__
    spec = (
        "".join(label(d) for d in a_dims)
        + ","
        + "".join(label(d) for d in b_dims)
        + "->"
        + "".join(label(d) for d in out_dims)
    )
    return GenericContraction(spec, subtract, scalar_out)
