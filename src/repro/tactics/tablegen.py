"""A miniature TableGen: records, template instantiation and backends.

TableGen files are only *containers* of domain-specific information —
they have no meaning without a backend (§II).  Here the records are
:class:`~repro.tactics.tds.TacticRecord` instances; the
:class:`TableGenBackend` interprets them at "compile time" and
generates the matchers and builders (the Python analogue of the C++
declarations the paper's backend emits).  ``emit_python`` produces a
record's matcher as Python source — the moral equivalent of Listing 7
— and that source is what a compiled tactic runs.
"""

from __future__ import annotations

import re
from typing import Dict, List, Optional, Tuple

from ..dialects.affine import AffineLoadOp, AffineStoreOp
from .tdl.ast import TdlStatement, TdlSyntaxError
from .tdl.parser import _TdlParser
from .tds import BUILDER_KINDS, BuilderSpec, TacticRecord


class TableGenError(TdlSyntaxError):
    pass


# ----------------------------------------------------------------------
# Parsing
# ----------------------------------------------------------------------

_DEF_RE = re.compile(
    r"def\s+(?P<name>[A-Za-z_][A-Za-z_0-9]*)\s*:\s*Tactic\s*<", re.MULTILINE
)


def _find_matching(source: str, open_pos: int, open_ch: str, close_ch: str) -> int:
    depth = 0
    for i in range(open_pos, len(source)):
        if source[i] == open_ch:
            depth += 1
        elif source[i] == close_ch:
            depth -= 1
            if depth == 0:
                return i
    raise TableGenError(f"unbalanced {open_ch}...{close_ch}")


def parse_tablegen(source: str) -> List[TacticRecord]:
    records: List[TacticRecord] = []
    for match in _DEF_RE.finditer(source):
        name = match.group("name")
        open_angle = match.end() - 1
        close_angle = _find_matching(source, open_angle, "<", ">")
        body = source[open_angle + 1:close_angle]
        records.append(_parse_tactic_body(name, body))
    if not records and source.strip():
        raise TableGenError("no Tactic records found")
    return records


def _parse_tactic_body(name: str, body: str) -> TacticRecord:
    # Split "pattern, [builders]" at the top-level '[',
    bracket = body.find("[")
    if bracket == -1:
        raise TableGenError(f"{name}: missing builder list")
    pattern_text = body[:bracket].rstrip().rstrip(",")
    close = _find_matching(body, bracket, "[", "]")
    builders_text = body[bracket + 1:close]
    parser = _TdlParser(pattern_text)
    pattern = parser.parse_statement()
    builders = _parse_builder_list(builders_text)
    return TacticRecord(name, pattern, builders)


_BUILDER_RE = re.compile(
    r"(?P<kind>" + "|".join(BUILDER_KINDS) + r")\s*<"
)


def _parse_builder_list(text: str) -> List[BuilderSpec]:
    builders: List[BuilderSpec] = []
    for match in _BUILDER_RE.finditer(text):
        kind = match.group("kind")
        open_angle = match.end() - 1
        close_angle = _find_matching(text, open_angle, "<", ">")
        builders.append(
            _parse_builder(kind, text[open_angle + 1:close_angle])
        )
    return builders


def _parse_builder(kind: str, body: str) -> BuilderSpec:
    ins = _parse_name_list(body, "In")
    outs = _parse_name_list(body, "Out")
    expr = _parse_expr(body)
    dims = _parse_dims(body)
    indices = _parse_dims(body, "Indices")
    return BuilderSpec(kind, ins, outs, expr, dims, indices)


def _parse_name_list(body: str, tag: str) -> List[str]:
    match = re.search(tag + r"\s*<\s*\[(?P<names>[^\]]*)\]\s*>", body)
    if match is None:
        raise TableGenError(f"builder missing {tag}<[...]>")
    names = [n.strip() for n in match.group("names").split(",") if n.strip()]
    return names


def _parse_dims(body: str, tag: str = "Dims") -> Optional[List[List[str]]]:
    """The name groups of ``tag<[a, {b, c}]>``: ``[[a], [b, c]]``."""
    match = re.search(r"\b" + tag + r"\s*<\s*\[", body)
    if match is None:
        return None
    open_bracket = match.end() - 1
    close_bracket = _find_matching(body, open_bracket, "[", "]")
    inner = body[open_bracket + 1:close_bracket]
    groups: List[List[str]] = []
    pos = 0
    while pos < len(inner):
        ch = inner[pos]
        if ch == "{":
            end = _find_matching(inner, pos, "{", "}")
            groups.append(
                [x.strip() for x in inner[pos + 1:end].split(",") if x.strip()]
            )
            pos = end + 1
        elif ch.isalnum() or ch == "_":
            end = pos
            while end < len(inner) and (inner[end].isalnum() or inner[end] == "_"):
                end += 1
            groups.append([inner[pos:end]])
            pos = end
        else:
            pos += 1
    return groups


def _parse_expr(body: str):
    match = re.search(r"Expr\s*<\s*\{", body)
    if match is None:
        return None
    open_brace = match.end() - 1
    close_brace = _find_matching(body, open_brace, "{", "}")
    inner = body[open_brace + 1:close_brace]
    if "{" in inner:
        # reassociation groups: {{0, 1}, 2}
        groups: List[List[int]] = []
        pos = 0
        while pos < len(inner):
            ch = inner[pos]
            if ch == "{":
                end = _find_matching(inner, pos, "{", "}")
                groups.append(
                    [int(x) for x in inner[pos + 1:end].split(",") if x.strip()]
                )
                pos = end + 1
            elif ch.isdigit():
                end = pos
                while end < len(inner) and inner[end].isdigit():
                    end += 1
                groups.append([int(inner[pos:end])])
                pos = end
            else:
                pos += 1
        return groups
    return [int(x) for x in inner.split(",") if x.strip()]




# ----------------------------------------------------------------------
# Backend
# ----------------------------------------------------------------------


class TableGenBackend:
    """Interprets TDS records and generates matchers/builders.

    ``emit_python`` renders a record's matcher as the source of one
    straight-line Python function (the analogue of the emitted C++ in
    Listing 7); ``compile`` produces :class:`CompiledTactic` objects,
    which run exactly that source.
    """

    def compile(self, records) -> list:
        from .compiled import compile_tactic

        return [compile_tactic(record) for record in records]

    def emit_python(self, record: TacticRecord) -> str:
        return _MatcherEmitter(record).emit()


def subscript_ranges(pattern: TdlStatement) -> Tuple:
    """Every pattern access as ``(tensor, ((terms, constant), ...))``
    with ``terms = ((var, coeff), ...)``: what
    :func:`~repro.tactics.compiled.covers_iteration_space` checks a
    match's tensor shapes against."""
    return tuple(
        (
            access.tensor,
            tuple((tuple(idx.terms), idx.constant) for idx in access.indices),
        )
        for access in [pattern.lhs, *pattern.rhs]
    )


def _op_mix(pattern: TdlStatement) -> Dict[str, int]:
    """The exact operation mix of a matching innermost block ("make sure
    we have only the defined operations in the block")."""
    if pattern.op == "+=":
        return {
            "affine.load": 1 + len(pattern.rhs),
            "affine.store": 1,
            "std.mulf": len(pattern.rhs) - 1,
            "std.addf": 1,
        }
    return {"affine.load": 1, "affine.store": 1}


_MISMATCH = 'return None, "structure-mismatch"'

#: Operand position of an access op's first subscript value.
_FIRST_INDEX = {
    "store": AffineStoreOp.MEMREF_OPERAND_INDEX + 1,
    "load": AffineLoadOp.MEMREF_OPERAND_INDEX + 1,
}


class _MatcherEmitter:
    """Renders one record as ``def match(op)``, returning what
    :meth:`CompiledTactic.match_explain` returns.

    The function checks the band depth and the exact operation mix,
    then walks back from the store through the ``addf``/``mulf``/
    ``load`` use-def tree, solving the placeholders inline: one local
    per placeholder (``iv_<var>``) and per tensor (``mem_<tensor>``).
    Accesses are matched in pattern order (store, accumulator load,
    then the factors), so which locals are bound at each subscript is
    known here, and the function only compares against them: a
    repeated reference must be the bound value, a fresh one must differ
    from every bound one.  A commutative ``addf``/``mulf`` is tried in
    both operand orders, and a multi-term subscript (``y + kh``) tries
    the subscript's terms in order, committing to the first consistent
    assignment.
    """

    def __init__(self, record: TacticRecord):
        self.record = record
        self.pattern = record.pattern
        self.lines: List[str] = []
        self.indent = 1
        self.ivs: List[str] = []  # placeholders bound so far
        self.tensors: List[str] = []  # tensors bound so far

    def line(self, text: str) -> None:
        self.lines.append("    " * self.indent + text)

    def emit(self) -> str:
        record, pattern = self.record, self.pattern
        # Names become Python identifiers of the generated code.
        tensors = [access.tensor for access in [pattern.lhs, *pattern.rhs]]
        for name in [record.name, *pattern.index_vars(), *tensors]:
            if not name.isidentifier():
                raise TableGenError(
                    f"{record.name!r}: {name!r} is not an identifier"
                )
        mix = _op_mix(pattern)
        self.lines = [
            f"# Generated by the TableGen backend from TDS record {record.name}:",
            f"#   {pattern}",
            f"NAME = {record.name!r}",
            f"VARS = {tuple(pattern.index_vars())!r}",
            f"ACCESSES = {subscript_ranges(pattern)!r}",
            f"OP_MIX = {mix!r}",
            "",
            "",
            "def match(op):",
        ]
        self.line("if not isinstance(op, AffineForOp):")
        self.line('    return None, "pattern-mismatch"')
        # The root must not be an inner loop of a larger perfect band
        # (the enclosing loop would be part of the replaced computation).
        self.line("parent = op.parent_op")
        self.line(
            "if isinstance(parent, AffineForOp) "
            "and len(parent.ops_in_body()) == 1:"
        )
        self.line('    return None, "inner-loop-root"')
        self.line("band = perfect_nest(op)")
        self.line(f"if len(band) != {len(pattern.index_vars())}:")
        self.line('    return None, "depth-mismatch"')
        self.line("body = band[-1].ops_in_body()")
        self.line(f"if len(body) != {sum(mix.values())}:")
        self.line('    return None, "body-shape"')
        self.line("mix = {}")
        self.line("for body_op in body:")
        self.line("    mix[body_op.name] = mix.get(body_op.name, 0) + 1")
        self.line("if mix != OP_MIX:")
        self.line('    return None, "body-shape"')
        if pattern.is_contraction:
            self._contraction()
        elif pattern.is_copy:
            self._copy()
        else:
            self.line(
                "raise NotImplementedError("
                f"{f'unsupported pattern shape in tactic {record.name}: {pattern}'!r})"
            )
        return "\n".join(self.lines) + "\n"

    # -- body shapes -------------------------------------------------------

    def _store(self) -> None:
        self.line("store = body[-1]")
        self.line("if not isinstance(store, AffineStoreOp):")
        self.line("    " + _MISMATCH)
        self._access("store", "store", self.pattern.lhs, _MISMATCH)

    def _copy(self) -> None:
        """``lhs = rhs``: the stored value is the one load."""
        self._store()
        self.line("load = store.operand(0).defining_op")
        self._access("load", "load", self.pattern.rhs[0], _MISMATCH)
        self._tail()

    def _contraction(self) -> None:
        """``lhs += rhs0 * rhs1``: ``addf(load lhs, mulf(rhs0, rhs1))``
        up to the order of both operand pairs."""
        lhs, (rhs0, rhs1) = self.pattern.lhs, self.pattern.rhs
        self._store()
        self.line("add = store.operand(0).defining_op")
        self.line("if not isinstance(add, AddFOp) or add.num_operands != 2:")
        self.line("    " + _MISMATCH)
        self.line("sum0, sum1 = add.operand(0), add.operand(1)")
        self.line("for accumulator, product in ((sum0, sum1), (sum1, sum0)):")
        self.indent += 1
        self.line("load = accumulator.defining_op")
        self._access("load", "load", lhs, "continue")
        self.line("mul = product.defining_op")
        self.line("if not isinstance(mul, MulFOp) or mul.num_operands != 2:")
        self.line("    continue")
        self.line("mul0, mul1 = mul.operand(0), mul.operand(1)")
        self.line("for factor0, factor1 in ((mul0, mul1), (mul1, mul0)):")
        self.indent += 1
        # Both factors bind in the same order in every operand order,
        # so the locals they bind need no resetting between tries.
        self.line("load = factor0.defining_op")
        self._access("load", "load", rhs0, "continue")
        self.line("load = factor1.defining_op")
        self._access("load", "load", rhs1, "continue")
        self._tail()
        self.indent -= 2
        self.line(_MISMATCH)

    # -- accesses ----------------------------------------------------------

    def _access(self, op: str, kind: str, access, fail: str) -> None:
        """Match ``op`` against ``access``; ``fail`` leaves the try."""
        if kind == "load":
            self.line(f"if not isinstance({op}, AffineLoadOp):")
            self.line(f"    {fail}")
        self.line(f"results = {op}.map.results")
        self.line(f"if len(results) != {access.rank}:")
        self.line(f"    {fail}")
        memref = f"{op}.operand({_FIRST_INDEX[kind] - 1})"
        tensor = f"mem_{access.tensor}"
        if access.tensor in self.tensors:
            self.line(f"if {memref} is not {tensor}:")
            self.line(f"    {fail}")
        else:
            self.line(f"{tensor} = {memref}")
            if self.tensors:
                bound = " or ".join(f"{tensor} is mem_{t}" for t in self.tensors)
                self.line(f"if {bound}:")
                self.line(f"    {fail}")
            self.tensors.append(access.tensor)
        for position, idx in enumerate(access.indices):
            self.line(f"expr = results[{position}]")
            if len(idx.terms) == 1:
                self._single(op, kind, idx, fail)
            else:
                self._sum(op, idx, fail)

    def _single(self, op: str, kind: str, idx, fail: str) -> None:
        """``k*var + c``: one index value with that coefficient and
        constant."""
        ((var, coeff),) = idx.terms
        candidate = f"single_candidate(expr, {op}.indices, {coeff}, {idx.constant})"
        if (coeff, idx.constant) == (1, 0):
            candidate = (
                f"{op}.operand({_FIRST_INDEX[kind]} + expr.position) "
                f"if type(expr) is AffineDimExpr else {candidate}"
            )
        if var in self.ivs:
            self.line(f"if ({candidate}) is not iv_{var}:")
            self.line(f"    {fail}")
            return
        self.line(f"iv_{var} = {candidate}")
        self.line(
            f"if iv_{var} is None"
            + "".join(f" or iv_{var} is iv_{bound}" for bound in self.ivs)
            + ":"
        )
        self.line(f"    {fail}")
        self.ivs.append(var)

    def _sum(self, op: str, idx, fail: str) -> None:
        """``k0*var0 + k1*var1 + ... + c`` (or a constant): terms take
        distinct index values, each try in the subscript's term order."""
        terms = idx.terms
        self.line(f"function = subscript_function(expr, {op}.indices)")
        self.line(
            f"if function is None or function.constant != {idx.constant} "
            f"or len(function.coeffs) != {len(terms)}:"
        )
        self.line(f"    {fail}")
        if not terms:
            return
        self.line("items = list(function.coeffs.items())")
        self.line("found = False")
        outer = self.indent
        for t, (var, coeff) in enumerate(terms):
            self.line(f"for pos{t}, (value{t}, coeff{t}) in enumerate(items):")
            self.indent += 1
            conds = [f"coeff{t} != {coeff}"]
            conds += [f"pos{t} == pos{u}" for u in range(t)]
            if var in self.ivs:
                conds.append(f"value{t} is not iv_{var}")
            else:
                conds += [f"value{t} is iv_{bound}" for bound in self.ivs]
            self.line(f"if {' or '.join(conds)}:")
            self.line("    continue")
            if var not in self.ivs:
                self.line(f"iv_{var} = value{t}")
                self.ivs.append(var)
        self.line("found = True")
        self.line("break")
        for _ in range(len(terms) - 1):
            self.indent -= 1
            self.line("if found:")
            self.line("    break")
        self.indent = outer
        self.line("if not found:")
        self.line(f"    {fail}")

    # -- the match ---------------------------------------------------------

    def _tail(self) -> None:
        """Bind each pattern variable to its band loop's trip count, in
        ``index_vars`` order, and build the match."""
        ivs = ", ".join(f"iv_{var}" for var in self.pattern.index_vars())
        memref_of = ", ".join(f"{t!r}: mem_{t}" for t in self.tensors)
        self.line("loop_of = {id(loop.induction_var): loop for loop in band}")
        self.line(f"ivs = ({ivs},)")
        self.line("extents = []")
        self.line("for iv in ivs:")
        self.line("    loop = loop_of.get(id(iv))")
        self.line("    if loop is None:")
        self.line('        return None, "iv-binding"')
        self.line("    extent = loop.constant_trip_count()")
        self.line("    if extent is None:")
        self.line('        return None, "non-constant-trip"')
        self.line("    extents.append(extent)")
        self.line(
            "match = MatchResult(NAME, band, dict(zip(VARS, ivs)), "
            f"dict(zip(VARS, extents)), {{{memref_of}}})"
        )
        self.line("if not covers_iteration_space(match, ACCESSES):")
        self.line('    return None, "partial-range"')
        self.line('return match, "matched"')
