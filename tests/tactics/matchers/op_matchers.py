"""Operation matchers (``m_Op``, ``m_Capt``) in the style of §III-C.

An operation matcher checks the type of an operation and recursively
matches its operands by walking the use-def chain backwards::

    MACOp = m_Op(AddFOp, a, m_Op(MulFOp, b, c))
    MACOp.match(add_op)

Argument matchers can be other ``m_Op`` matchers, value captures
(``m_Capt``), access patterns (array placeholders, see
:mod:`.access`), or ``m_Any()``.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Union

from repro.ir import Operation, Value


class Capture:
    """Captures the :class:`Value` it matched for later inspection."""

    def __init__(self, name: str = ""):
        self.name = name
        self.value: Optional[Value] = None

    def match_value(self, value: Value, bindings: "_Bindings") -> bool:
        bindings.record_capture(self, value)
        return True

    def get(self) -> Value:
        if self.value is None:
            raise ValueError(f"capture {self.name!r} did not match")
        return self.value

    def __repr__(self) -> str:
        return f"m_Capt({self.name})"


def m_Capt(name: str = "") -> Capture:
    return Capture(name)


class AnyValue:
    def match_value(self, value: Value, bindings: "_Bindings") -> bool:
        return True

    def __repr__(self) -> str:
        return "m_Any()"


def m_Any() -> AnyValue:
    return AnyValue()


class _Bindings:
    """Tentative capture assignments, committed only on full success."""

    def __init__(self):
        self.captures: List = []

    def record_capture(self, capture: Capture, value: Value) -> None:
        self.captures.append((capture, value))

    def commit(self) -> None:
        for capture, value in self.captures:
            capture.value = value


class OpMatcher:
    """Matches an op by kind and (optionally) its operand tree.

    Matching is *commutativity-aware* for known commutative ops
    (add/mul): if the operand matchers fail in order, the swapped
    order is tried.
    """

    _COMMUTATIVE = {"std.addf", "std.mulf", "std.addi", "std.muli", "std.maxf"}

    def __init__(self, op_kind, *arg_matchers):
        self.op_kind = op_kind
        self.arg_matchers = list(arg_matchers)

    def _kind_matches(self, op: Operation) -> bool:
        if isinstance(self.op_kind, str):
            return op.name == self.op_kind
        return isinstance(op, self.op_kind)

    def match(self, op: Operation) -> bool:
        bindings = _Bindings()
        if self._match_op(op, bindings):
            bindings.commit()
            return True
        return False

    def _match_op(self, op: Operation, bindings: _Bindings) -> bool:
        if not isinstance(op, Operation) or not self._kind_matches(op):
            return False
        if not self.arg_matchers:
            return True
        # A single access-pattern argument matches the op's whole access
        # (memref + subscripts), e.g. m_Op(AffineLoadOp, _A(_i, _j)).
        if len(self.arg_matchers) == 1 and hasattr(
            self.arg_matchers[0], "match_access"
        ):
            return self.arg_matchers[0].match_access(op)
        if len(self.arg_matchers) != op.num_operands:
            return False
        orders = [list(range(op.num_operands))]
        if op.name in self._COMMUTATIVE and op.num_operands == 2:
            orders.append([1, 0])
        from .access import restore_all_contexts, snapshot_all_contexts

        for order in orders:
            saved = list(bindings.captures)
            snapshots = snapshot_all_contexts()
            if all(
                self._match_arg(self.arg_matchers[i], op.operand(perm_i), bindings)
                for i, perm_i in enumerate(order)
            ):
                return True
            bindings.captures = saved
            restore_all_contexts(snapshots)
        return False

    def _match_arg(self, matcher, value: Value, bindings: _Bindings) -> bool:
        if isinstance(matcher, OpMatcher):
            def_op = value.defining_op
            if def_op is None:
                return False
            return matcher._match_op(def_op, bindings)
        if hasattr(matcher, "match_value"):
            return matcher.match_value(value, bindings)
        if hasattr(matcher, "match_access_operand"):
            def_op = value.defining_op
            if def_op is None:
                return False
            return matcher.match_access_operand(def_op)
        raise TypeError(f"not a matcher: {matcher!r}")

    def __repr__(self) -> str:
        kind = (
            self.op_kind
            if isinstance(self.op_kind, str)
            else self.op_kind.__name__
        )
        return f"m_Op<{kind}>({', '.join(map(repr, self.arg_matchers))})"


def m_Op(op_kind, *arg_matchers) -> OpMatcher:
    """Create an operation matcher.

    ``op_kind`` is an op class (e.g. ``AddFOp``) or a full op name
    string ("std.addf").
    """
    return OpMatcher(op_kind, *arg_matchers)
