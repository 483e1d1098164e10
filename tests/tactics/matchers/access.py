"""Access-pattern matchers: placeholders and array placeholders (§III-C).

A placeholder matches any induction dimension of the form ``k*i + c``
where ``k`` and ``c`` are pattern coefficients and ``i`` is the
*candidate*: the ``Value`` of the induction variable it binds.  An
array placeholder matches a tensor access and takes placeholder
expressions as subscripts.  Candidates assigned to different
placeholders are required to be distinct, while multiple references to
the same placeholder must refer to the same candidate.

Every placeholder belongs to an :class:`AccessPatternContext` which
orchestrates matching, owns the assignments, and frees everything when
it goes out of scope::

    with AccessPatternContext() as pctx:
        _i, _j = m_Placeholder(), m_Placeholder()
        _A = m_ArrayPlaceholder()
        matcher = m_Op(AffineLoadOp, _A(2 * _i + 1, _j + 5))
        if matcher.match(load_op):
            iv = pctx[_i]          # read out the matched value
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.analysis.accesses import AccessFunction, access_function
from repro.dialects.affine import AffineLoadOp, AffineStoreOp
from repro.ir import IRError, Operation, Value


class MatchFailure(IRError):
    pass


#: Contexts currently alive; matcher construction requires one.
_ACTIVE_CONTEXTS: List["AccessPatternContext"] = []


def _current_context() -> "AccessPatternContext":
    if not _ACTIVE_CONTEXTS:
        raise MatchFailure(
            "matchers cannot be constructed without an active "
            "AccessPatternContext"
        )
    return _ACTIVE_CONTEXTS[-1]


def snapshot_all_contexts() -> List[Tuple["AccessPatternContext", dict, dict]]:
    return [
        (ctx, dict(ctx._assignments), dict(ctx._array_assignments))
        for ctx in _ACTIVE_CONTEXTS
    ]


def restore_all_contexts(snapshots) -> None:
    for ctx, assignments, arrays in snapshots:
        ctx._assignments = assignments
        ctx._array_assignments = arrays


class AccessPatternContext:
    """Tracks placeholder-candidate assignments during matching."""

    def __init__(self):
        self._placeholders: List["Placeholder"] = []
        self._arrays: List["ArrayPlaceholder"] = []
        self._assignments: Dict[int, Value] = {}
        self._array_assignments: Dict[int, Value] = {}
        _ACTIVE_CONTEXTS.append(self)
        self._closed = False

    # -- lifecycle ---------------------------------------------------------

    def close(self) -> None:
        if not self._closed:
            _ACTIVE_CONTEXTS.remove(self)
            self._closed = True

    def __enter__(self) -> "AccessPatternContext":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- construction --------------------------------------------------------

    def placeholder(self) -> "Placeholder":
        p = Placeholder(self, len(self._placeholders))
        self._placeholders.append(p)
        return p

    def array_placeholder(self) -> "ArrayPlaceholder":
        a = ArrayPlaceholder(self, len(self._arrays))
        self._arrays.append(a)
        return a

    # -- assignment --------------------------------------------------------

    def reset(self) -> None:
        self._assignments.clear()
        self._array_assignments.clear()

    def candidate(self, placeholder: "Placeholder") -> Optional[Value]:
        return self._assignments.get(placeholder.uid)

    def __getitem__(self, key) -> Value:
        if isinstance(key, Placeholder):
            value = self._assignments.get(key.uid)
        elif isinstance(key, ArrayPlaceholder):
            value = self._array_assignments.get(key.uid)
        else:
            raise TypeError("context lookup requires a placeholder")
        if value is None:
            raise MatchFailure("placeholder has no candidate assigned")
        return value

    def try_bind(self, placeholder: "Placeholder", candidate: Value) -> bool:
        bound = self._assignments.get(placeholder.uid)
        if bound is not None:
            return bound is candidate
        # Distinctness: no other placeholder may hold this candidate.
        if any(v is candidate for v in self._assignments.values()):
            return False
        self._assignments[placeholder.uid] = candidate
        return True

    def try_bind_array(self, array: "ArrayPlaceholder", memref: Value) -> bool:
        bound = self._array_assignments.get(array.uid)
        if bound is not None:
            return bound is memref
        if any(v is memref for v in self._array_assignments.values()):
            return False
        self._array_assignments[array.uid] = memref
        return True

    @property
    def num_assigned(self) -> int:
        return len(self._assignments)


class PlaceholderExpr:
    """``coeff * placeholder + constant`` — the ``k*i + c`` pattern."""

    def __init__(self, placeholder: "Placeholder", coeff: int = 1, constant: int = 0):
        self.placeholder = placeholder
        self.coeff = coeff
        self.constant = constant

    # operator sugar mirrors the C++ API's operator overloading
    def __mul__(self, k: int) -> "PlaceholderExpr":
        return PlaceholderExpr(
            self.placeholder, self.coeff * k, self.constant * k
        )

    __rmul__ = __mul__

    def __add__(self, other) -> Union["PlaceholderExpr", "PlaceholderSum"]:
        if isinstance(other, PlaceholderExpr):
            return PlaceholderSum(
                [(self.placeholder, self.coeff), (other.placeholder, other.coeff)],
                self.constant + other.constant,
            )
        return PlaceholderExpr(
            self.placeholder, self.coeff, self.constant + other
        )

    __radd__ = __add__

    def __sub__(self, c: int) -> "PlaceholderExpr":
        return self + (-c)

    def match_subscript(self, fn: AccessFunction) -> bool:
        """Match one access function against ``coeff*candidate + const``."""
        if fn.constant != self.constant:
            return False
        if len(fn.coeffs) != 1:
            return False
        ((candidate, coeff),) = fn.coeffs.items()
        if coeff != self.coeff:
            return False
        return self.placeholder.context.try_bind(self.placeholder, candidate)

    def __repr__(self) -> str:
        return f"{self.coeff}*_{self.placeholder.uid}+{self.constant}"


class PlaceholderSum:
    """A multi-placeholder subscript pattern, e.g. ``_y + _kh`` for
    convolution input accesses."""

    def __init__(self, terms: List[Tuple["Placeholder", int]], constant: int = 0):
        self.terms = list(terms)
        self.constant = constant

    @property
    def context(self) -> "AccessPatternContext":
        return self.terms[0][0].context

    def __add__(self, other) -> "PlaceholderSum":
        if isinstance(other, PlaceholderSum):
            return PlaceholderSum(
                self.terms + other.terms, self.constant + other.constant
            )
        if isinstance(other, PlaceholderExpr):
            return PlaceholderSum(
                self.terms + [(other.placeholder, other.coeff)],
                self.constant + other.constant,
            )
        return PlaceholderSum(self.terms, self.constant + other)

    __radd__ = __add__

    def match_subscript(self, fn: AccessFunction) -> bool:
        """Assign candidates to all terms; backtracks over ambiguous
        (same-coefficient) assignments."""
        if fn.constant != self.constant:
            return False
        if len(fn.coeffs) != len(self.terms):
            return False
        candidates = list(fn.coeffs.items())
        ctx_snapshot = snapshot_all_contexts()

        def assign(term_idx: int, used: set) -> bool:
            if term_idx == len(self.terms):
                return True
            placeholder, coeff = self.terms[term_idx]
            for pos, (candidate, cand_coeff) in enumerate(candidates):
                if pos in used or cand_coeff != coeff:
                    continue
                inner = snapshot_all_contexts()
                if placeholder.context.try_bind(placeholder, candidate):
                    if assign(term_idx + 1, used | {pos}):
                        return True
                restore_all_contexts(inner)
            return False

        if assign(0, set()):
            return True
        restore_all_contexts(ctx_snapshot)
        return False

    def __repr__(self) -> str:
        parts = [f"{c}*_{p.uid}" for p, c in self.terms]
        return " + ".join(parts) + f" + {self.constant}"


class Placeholder(PlaceholderExpr):
    """A fresh induction-dimension placeholder."""

    def __init__(self, context: AccessPatternContext, uid: int):
        self.context = context
        self.uid = uid
        PlaceholderExpr.__init__(self, self, 1, 0)

    def __repr__(self) -> str:
        return f"m_Placeholder(#{self.uid})"


class ArrayPlaceholder:
    """Matches a tensor (memref) with placeholder subscripts."""

    def __init__(self, context: AccessPatternContext, uid: int):
        self.context = context
        self.uid = uid

    def __call__(self, *subscripts) -> "ArrayAccessPattern":
        exprs: List[PlaceholderExpr] = []
        flat: Sequence = (
            subscripts[0]
            if len(subscripts) == 1 and isinstance(subscripts[0], (list, tuple))
            else subscripts
        )
        for s in flat:
            if not isinstance(s, (PlaceholderExpr, PlaceholderSum)):
                raise TypeError(f"array subscripts must be placeholders: {s!r}")
            exprs.append(s)
        return ArrayAccessPattern(self, exprs)

    def __repr__(self) -> str:
        return f"m_ArrayPlaceholder(#{self.uid})"


class ArrayAccessPattern:
    """``_A(_i, _j)``: a full access pattern for one load/store."""

    def __init__(self, array: ArrayPlaceholder, subscripts: List[PlaceholderExpr]):
        self.array = array
        self.subscripts = subscripts

    @property
    def context(self) -> AccessPatternContext:
        return self.array.context

    def match_access(self, op: Operation) -> bool:
        """Match a load/store op's access, binding placeholders.

        Self-contained transactionality: bindings are rolled back on
        failure.
        """
        access = access_function(op)
        if access is None:
            return False
        if access.rank != len(self.subscripts):
            return False
        snapshots = snapshot_all_contexts()
        if not self.context.try_bind_array(self.array, access.memref):
            restore_all_contexts(snapshots)
            return False
        for pattern, fn in zip(self.subscripts, access.subscripts):
            if not pattern.match_subscript(fn):
                restore_all_contexts(snapshots)
                return False
        return True

    # Integration point for m_Op(LoadOp, _A(...)).
    def match_access_operand(self, def_op: Operation) -> bool:
        return self.match_access(def_op)

    def __repr__(self) -> str:
        return f"{self.array!r}({', '.join(map(repr, self.subscripts))})"


def m_Placeholder(context: Optional[AccessPatternContext] = None) -> Placeholder:
    return (context or _current_context()).placeholder()


def m_ArrayPlaceholder(
    context: Optional[AccessPatternContext] = None,
) -> ArrayPlaceholder:
    return (context or _current_context()).array_placeholder()


def match_block_accesses(block, store_pattern, body_matcher) -> bool:
    """The matching procedure of §III-C: start from the last store in
    the block, then walk the use-def chain backwards via the body
    matcher, and ensure the block contains only the matched operations.
    """
    stores = [op for op in block.operations if isinstance(op, AffineStoreOp)]
    if len(stores) != 1:
        return False
    store = stores[-1]
    non_terminator = block.ops_without_terminator()
    if non_terminator and non_terminator[-1] is not store:
        return False
    if not store_pattern.match_access(store):
        return False
    value_def = store.value.defining_op
    if value_def is None:
        return False
    return body_matcher.match(value_def)
