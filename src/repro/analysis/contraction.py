"""The one reader of a tensor contraction: which labels each operand
holds, in what order, and which are summed or free.

A :class:`Contraction` is the paper's ``out-A-B`` convention (§III-A),
one label string per operand, output first, read from ``out-A-B`` text
or from loop positions (:func:`loop_labels`), as
:func:`generic_contraction_spec` finds them in a ``linalg.generic``'s
indexing maps and the vectorizer in a collapsed band's accesses.  The
TTGT planner and pass, code generation, the vectorizer and the
interpreter all read this value, so they agree on which generics are
contractions and which of them flatten to one GEMM.
"""

from __future__ import annotations

from typing import Iterable, List, NamedTuple, Optional

from ..ir.affine_expr import AffineExprKind

#: Axis labels, one per loop; deeper nests are no contraction.
CONTRACTION_LABELS = "abcdefghijklmnopqrstuvwxyz"

#: Why a contraction has no TTGT plan, first reason first.
TTGT_REFUSALS = {
    "repeated-index": "repeated index within a tensor",
    "no-contracted-index": "no contracted index",
    "no-free-index": "an operand has no free index",
    "batch-index": "output indices are not the union of free indices",
    "one-sided-index": "an operand has an index that is neither free "
    "nor contracted",
}


def loop_labels(loops: Iterable[int]) -> str:
    """The labels of loop positions ``loops``, in their order."""
    return "".join(CONTRACTION_LABELS[d] for d in loops)


class Contraction(NamedTuple):
    """``out += A * B`` summed over the labels the output lacks.

    ``summed`` lists those labels in A's order; ``a_free``/``b_free``
    list the labels of A/B the output keeps, in that operand's order."""

    out: str
    a: str
    b: str

    @classmethod
    def parse(cls, spec: str) -> "Contraction":
        """Read ``out-A-B`` text such as ``abc-acd-db``."""
        parts = spec.split("-")
        if len(parts) != 3:
            raise ValueError(f"bad contraction spec {spec!r} (want out-A-B)")
        return cls(*parts)

    @property
    def spec(self) -> str:
        """The ``out-A-B`` text."""
        return "-".join(self)

    @property
    def einsum(self) -> str:
        return f"{self.a},{self.b}->{self.out}"

    @property
    def summed(self) -> str:
        return "".join(v for v in self.a if v in self.b and v not in self.out)

    @property
    def a_free(self) -> str:
        return "".join(v for v in self.a if v in self.out)

    @property
    def b_free(self) -> str:
        return "".join(v for v in self.b if v in self.out)

    def refusal(self, free_needed: bool = True) -> Optional[str]:
        """The first :data:`TTGT_REFUSALS` key that keeps this
        contraction from being one GEMM (rows: A's free labels, columns:
        B's, inner: the summed ones), or ``None``.  ``free_needed=False``
        skips ``no-free-index``: a ``@``/``tensordot`` call takes an
        operand without a free label (a dot product), a GEMM does not."""
        a, b, k, m, n = self.a, self.b, self.summed, self.a_free, self.b_free
        failed = {
            "repeated-index": len(set(a)) < len(a) or len(set(b)) < len(b),
            "no-contracted-index": not k,
            "no-free-index": free_needed and (not m or not n),
            "batch-index": sorted(m + n) != sorted(self.out),
            "one-sided-index": set(a + b) != set(m + n + k),
        }
        return next((key for key in TTGT_REFUSALS if failed[key]), None)


class GenericContraction(NamedTuple):
    """A two-input multiply-accumulate ``linalg.generic`` read as a
    tensor contraction."""

    #: Loop ``d`` is labelled ``CONTRACTION_LABELS[d]``.
    contraction: Contraction
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
    contraction = Contraction(*map(loop_labels, (out_dims, a_dims, b_dims)))
    return GenericContraction(contraction, subtract, scalar_out)
