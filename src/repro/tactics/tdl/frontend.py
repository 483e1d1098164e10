"""The TDL DSL frontend: lowers tactics to TDS records (§III-B).

Builder statements are classified and decomposed into the TDS builder
templates.  A contraction of matmul, matvec or convolution ranks becomes
that named op's builder; any other contraction, such as

    C(a, b, c) += A(a, c, d) * B(d, b)

becomes one ``contractionBuilder`` (a ``linalg.generic`` with the
statement's indexing maps).  A copy statement with a ``where`` clause —

    D(f, b) = C(a, b, c) where f = a * c

— decomposes into an (optional) transposition bringing the grouped
dimensions adjacent and in order, followed by a reshape merging them
(lines 2-3 of Listing 4); the inverse direction emits reshape followed
by transpose (lines 6-7).
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from ..tds import BuilderSpec, TacticRecord
from .ast import TdlAccess, TdlStatement, TdlSyntaxError, TdlTactic


def tdl_to_tds(tactic: TdlTactic) -> TacticRecord:
    """Lower one TDL tactic into a TDS record."""
    converter = _Converter(tactic)
    return converter.convert()


class _Converter:
    def __init__(self, tactic: TdlTactic):
        self.tactic = tactic
        self.builders: List[BuilderSpec] = []
        self._temp_counter = 0

    def _temp(self, base: str) -> str:
        name = f"{base}_t{self._temp_counter}"
        self._temp_counter += 1
        return name

    def convert(self) -> TacticRecord:
        for stmt in self.tactic.builders:
            if stmt.is_contraction:
                self._convert_contraction(stmt)
            elif stmt.is_copy:
                self._convert_copy(stmt)
            else:
                raise TdlSyntaxError(
                    f"unsupported builder statement: {stmt}"
                )
        return TacticRecord(
            self.tactic.name, self.tactic.pattern, self.builders
        )

    # ------------------------------------------------------------------
    # Contractions -> matmul / matvec / conv
    # ------------------------------------------------------------------

    def _convert_contraction(self, stmt: TdlStatement) -> None:
        lhs, (r0, r1) = stmt.lhs, stmt.rhs
        if any(
            not idx.is_simple_var
            for access in stmt.rhs
            for idx in access.indices
        ):
            # Shifted/compound indices (y + kh): a convolution.  The
            # operand with composite subscripts is the sliding input.
            if any(not idx.is_simple_var for idx in r1.indices):
                r0, r1 = r1, r0
            self.builders.append(
                BuilderSpec("convBuilder", [r0.tensor, r1.tensor], [lhs.tensor])
            )
            return
        ranks = (lhs.rank, r0.rank, r1.rank)
        if ranks == (2, 2, 2):
            self._convert_matmul(stmt)
            return
        if ranks in ((1, 2, 1), (1, 1, 2)):
            matrix, vector = (r0, r1) if r0.rank == 2 else (r1, r0)
            self._convert_matvec(stmt, matrix, vector)
            return
        self._convert_generic_contraction(stmt)

    def _convert_generic_contraction(self, stmt: TdlStatement) -> None:
        """``lhs += r0 * r1`` over plain index variables, as one
        ``contractionBuilder``."""
        lhs, (r0, r1) = stmt.lhs, stmt.rhs
        bound = set(r0.simple_index_names()) | set(r1.simple_index_names())
        unbound = [v for v in lhs.simple_index_names() if v not in bound]
        if unbound:
            raise TdlSyntaxError(
                f"output index {unbound[0]!r} indexes no operand: {stmt}"
            )
        self.builders.append(
            BuilderSpec(
                "contractionBuilder",
                [r0.tensor, r1.tensor],
                [lhs.tensor],
                indices=[
                    access.simple_index_names() for access in (r0, r1, lhs)
                ],
            )
        )

    def _convert_matvec(self, stmt, matrix, vector) -> None:
        """y(m) += A(?,?) * x(k): detect whether A is used transposed.

        ``Expr<{1, 0}>`` on a matvecBuilder encodes the CBLAS ``trans``
        parameter (y += A^T x), avoiding an explicit transposition copy.
        """
        lhs = stmt.lhs
        m = lhs.simple_index_names()[0]
        k = vector.simple_index_names()[0]
        a_idx = matrix.simple_index_names()
        if a_idx == [m, k]:
            expr = None
        elif a_idx == [k, m]:
            expr = [1, 0]
        else:
            raise TdlSyntaxError(
                f"matvec statement has inconsistent indices: {stmt}"
            )
        self.builders.append(
            BuilderSpec(
                "matvecBuilder",
                [matrix.tensor, vector.tensor],
                [lhs.tensor],
                expr,
            )
        )

    def _convert_matmul(self, stmt: TdlStatement) -> None:
        lhs, (r0, r1) = stmt.lhs, stmt.rhs
        m, n = lhs.simple_index_names()
        # Canonical orientation: lhs(m,n) += A(m,k) * B(k,n).
        for first, second in ((r0, r1), (r1, r0)):
            fi = first.simple_index_names()
            si = second.simple_index_names()
            if fi[0] == m and si[1] == n and fi[1] == si[0]:
                self.builders.append(
                    BuilderSpec(
                        "matmulBuilder",
                        [first.tensor, second.tensor],
                        [lhs.tensor],
                    )
                )
                return
        raise TdlSyntaxError(
            f"matmul statement is not in C(m,n) += A(m,k)*B(k,n) form: {stmt}"
        )

    # ------------------------------------------------------------------
    # Copies with grouping -> transpose / reshape
    # ------------------------------------------------------------------

    def _expanded_names(
        self, access: TdlAccess, where: Dict[str, List[str]]
    ) -> Tuple[List[str], List[List[str]]]:
        """Index names with where-vars expanded + the grouping."""
        flat: List[str] = []
        groups: List[List[str]] = []
        for idx in access.indices:
            var = idx.single_var
            group = where.get(var, [var])
            groups.append(list(group))
            flat.extend(group)
        return flat, groups

    def _convert_copy(self, stmt: TdlStatement) -> None:
        lhs, rhs = stmt.lhs, stmt.rhs[0]
        where = stmt.where
        lhs_flat, lhs_groups = self._expanded_names(lhs, where)
        rhs_flat, rhs_groups = self._expanded_names(rhs, where)
        if sorted(lhs_flat) != sorted(rhs_flat):
            raise TdlSyntaxError(f"copy statement index mismatch: {stmt}")
        lhs_grouped = any(len(g) > 1 for g in lhs_groups)
        rhs_grouped = any(len(g) > 1 for g in rhs_groups)
        if lhs_grouped and rhs_grouped:
            raise TdlSyntaxError(
                f"grouping on both sides is unsupported: {stmt}"
            )
        if rhs_grouped:
            self._emit_expand(stmt, lhs_flat, rhs, rhs_flat, rhs_groups)
        else:
            self._emit_collapse(stmt, lhs, lhs_flat, lhs_groups, rhs_flat)

    def _emit_collapse(
        self,
        stmt: TdlStatement,
        lhs: TdlAccess,
        lhs_flat: List[str],
        lhs_groups: List[List[str]],
        rhs_flat: List[str],
    ) -> None:
        """rhs -> (transpose?) -> (reshape?) -> lhs."""
        rhs_tensor = stmt.rhs[0].tensor
        perm = [rhs_flat.index(v) for v in lhs_flat]
        needs_transpose = perm != list(range(len(perm)))
        needs_reshape = any(len(g) > 1 for g in lhs_groups)
        source = rhs_tensor
        if needs_transpose:
            dest = self._temp(rhs_tensor) if needs_reshape else lhs.tensor
            self.builders.append(
                BuilderSpec(
                    "transposeBuilder",
                    [source],
                    [dest],
                    perm,
                    dims=[[v] for v in lhs_flat],
                )
            )
            source = dest
        if needs_reshape:
            groups: List[List[int]] = []
            pos = 0
            for group in lhs_groups:
                groups.append(list(range(pos, pos + len(group))))
                pos += len(group)
            self.builders.append(
                BuilderSpec(
                    "reshapeBuilder",
                    [source],
                    [lhs.tensor],
                    groups,
                    dims=lhs_groups,
                )
            )

    def _emit_expand(
        self,
        stmt: TdlStatement,
        lhs_flat: List[str],
        rhs: TdlAccess,
        rhs_flat: List[str],
        rhs_groups: List[List[str]],
    ) -> None:
        """rhs -> (reshape expand?) -> (transpose?) -> lhs."""
        lhs_tensor = stmt.lhs.tensor
        perm = [rhs_flat.index(v) for v in lhs_flat]
        needs_transpose = perm != list(range(len(perm)))
        source = rhs.tensor
        groups: List[List[int]] = []
        pos = 0
        for group in rhs_groups:
            groups.append(list(range(pos, pos + len(group))))
            pos += len(group)
        dest = self._temp(rhs.tensor) if needs_transpose else lhs_tensor
        self.builders.append(
            BuilderSpec(
                "reshapeBuilder",
                [source],
                [dest],
                groups,
                dims=[[v] for v in rhs_flat],
            )
        )
        if needs_transpose:
            self.builders.append(
                BuilderSpec(
                    "transposeBuilder",
                    [dest],
                    [lhs_tensor],
                    perm,
                    dims=[[v] for v in lhs_flat],
                )
            )
