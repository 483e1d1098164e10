"""TDS — the TableGen-based Tactics Description Specification (§III-B).

Each TDS entry derives from the ``Tactic`` class: a TC-notation pattern
plus a list of builder template instantiations (Listing 4)::

    def TTGT : Tactic<C(a, b, c) += A(a, c, d) * B(d, b), [
      transposeBuilder<In<[C]>, Out<[C_t0]>, Expr<{0, 2, 1}>>,
      reshapeBuilder<In<[C_t0]>, Out<[D]>, Expr<{{0, 1}, 2}>>,
      reshapeBuilder<In<[A]>, Out<[E]>, Expr<{{0, 1}, 2}>>,
      matmulBuilder<In<[E, B]>, Out<[D]>>,
      reshapeBuilder<In<[D]>, Out<[D_t1]>, Expr<{{0, 1}, 2}>>,
      transposeBuilder<In<[D_t1]>, Out<[C]>, Expr<{0, 2, 1}>>,
    ]>;

The two-step TDL -> TDS -> code process factors common matcher/builder
machinery into reusable templates (the ``*Builder`` template classes
below).  Besides the paper's five, ``contractionBuilder`` keeps a
contraction one structured op: it builds a ``linalg.generic`` whose
indexing maps are the statement's index lists, one per operand::

    def TTGT_abc_acd_db : Tactic<C(a, b, c) += A(a, c, d) * B(d, b), [
      contractionBuilder<In<[A, B]>, Out<[C]>,
                         Indices<[{a, c, d}, {d, b}, {a, b, c}]>>,
    ]>;

The GEMM layout of such a generic (the TTGT list above) is a later
rewrite, ``-linalg-contraction-ttgt``, run only where a backend needs it.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Union

from .tdl.ast import TdlStatement, TdlSyntaxError

#: The builder templates TDS supports (Figure 5, plus the structured
#: contraction).
BUILDER_KINDS = (
    "transposeBuilder",
    "reshapeBuilder",
    "matmulBuilder",
    "matvecBuilder",
    "convBuilder",
    "contractionBuilder",
)

#: Builders processing a single input (Figure 5 constraints).
_SINGLE_INPUT = ("transposeBuilder", "reshapeBuilder")


class BuilderSpec:
    """One instantiated builder template."""

    def __init__(
        self,
        kind: str,
        ins: Sequence[str],
        outs: Sequence[str],
        expr: Optional[Union[List[int], List[List[int]]]] = None,
        dims: Optional[List[List[str]]] = None,
        indices: Optional[List[List[str]]] = None,
    ):
        if kind not in BUILDER_KINDS:
            raise TdlSyntaxError(f"unknown builder kind {kind!r}")
        if (kind == "contractionBuilder") != (indices is not None):
            raise TdlSyntaxError(
                "contractionBuilder, and only it, takes Indices"
            )
        if indices is not None and len(indices) != len(ins) + len(outs):
            raise TdlSyntaxError("Indices needs one index list per operand")
        if kind in _SINGLE_INPUT and len(ins) != 1:
            raise TdlSyntaxError(f"{kind} processes a single input")
        if len(outs) != 1:
            raise TdlSyntaxError("all builders produce a single output")
        if kind in _SINGLE_INPUT and expr is None:
            raise TdlSyntaxError(f"{kind} requires an affine expression")
        self.kind = kind
        self.ins = list(ins)
        self.outs = list(outs)
        self.expr = expr
        #: per-output-dimension index-variable groups (sizes the buffer
        #: the builder materializes: extent = product of var extents)
        self.dims = dims
        #: contractionBuilder: each operand's index variables, inputs
        #: then output (its generic's indexing maps)
        self.indices = indices

    @property
    def out(self) -> str:
        return self.outs[0]

    def _expr_text(self) -> str:
        if self.expr is None:
            return ""
        if self.expr and isinstance(self.expr[0], list):
            inner = ", ".join(
                "{" + ", ".join(map(str, group)) + "}"
                if len(group) > 1
                else str(group[0])
                for group in self.expr
            )
        else:
            inner = ", ".join(map(str, self.expr))
        return f", Expr<{{{inner}}}>"

    def _dims_text(self) -> str:
        if self.dims is None:
            return ""
        inner = ", ".join(
            group[0] if len(group) == 1 else "{" + ", ".join(group) + "}"
            for group in self.dims
        )
        return f", Dims<[{inner}]>"

    def _indices_text(self) -> str:
        if self.indices is None:
            return ""
        inner = ", ".join(
            "{" + ", ".join(names) + "}" for names in self.indices
        )
        return f", Indices<[{inner}]>"

    def __str__(self) -> str:
        ins = ", ".join(self.ins)
        return (
            f"{self.kind}<In<[{ins}]>, Out<[{self.out}]>"
            f"{self._expr_text()}{self._dims_text()}{self._indices_text()}>"
        )

    def __repr__(self) -> str:
        return f"BuilderSpec({self})"

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, BuilderSpec)
            and self.kind == other.kind
            and self.ins == other.ins
            and self.outs == other.outs
            and self.expr == other.expr
            and self.indices == other.indices
        )


class TacticRecord:
    """A TDS record: name, TC pattern, ordered builder list."""

    def __init__(
        self,
        name: str,
        pattern: TdlStatement,
        builders: Sequence[BuilderSpec],
    ):
        self.name = name
        self.pattern = pattern
        self.builders = list(builders)

    def emit_tablegen(self) -> str:
        """Serialize to the TDS TableGen syntax (Listing 4)."""
        lines = [f"def {self.name} : Tactic<{self.pattern}, ["]
        for builder in self.builders:
            lines.append(f"  {builder},")
        lines.append("]>;")
        return "\n".join(lines)

    def __str__(self) -> str:
        return self.emit_tablegen()

    def __repr__(self) -> str:
        return f"TacticRecord({self.name})"


def parse_tds(source: str) -> List[TacticRecord]:
    """Parse TDS (TableGen) text back into records."""
    from .tablegen import parse_tablegen

    return parse_tablegen(source)
