"""Structural matchers: declaratively describe the control-flow shape
of the IR (§III-C, Listing 5).

The API visually resembles the IR it matches::

    with NestedPatternContext():
        matcher = For(For(is_mac))   # 2-d perfect nest with a MAC body

A structural matcher consists of a control-flow op type, a list of
children matchers, and an optional filtering callback.  The top matcher
is the *relative root*; matching starts at a given operation and
recursively walks its descendants against the matcher's descendants,
failing fast on the first mismatch.
"""

from __future__ import annotations

from typing import Callable, List, Optional

from repro.dialects.affine import AffineForOp
from repro.dialects.scf import ForOp as SCFForOp, IfOp as SCFIfOp
from repro.ir import Block, IRError, Operation

_ACTIVE_CONTEXTS: List["NestedPatternContext"] = []


class NestedPatternContext:
    """Owns structural matchers; matchers require a live context."""

    def __init__(self):
        self.matchers: List["StructuralMatcher"] = []
        _ACTIVE_CONTEXTS.append(self)
        self._closed = False

    def close(self) -> None:
        if not self._closed:
            _ACTIVE_CONTEXTS.remove(self)
            self._closed = True

    def __enter__(self) -> "NestedPatternContext":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def register(self, matcher: "StructuralMatcher") -> None:
        self.matchers.append(matcher)


def _current_context() -> NestedPatternContext:
    if not _ACTIVE_CONTEXTS:
        raise IRError(
            "structural matchers require an active NestedPatternContext"
        )
    return _ACTIVE_CONTEXTS[-1]


class StructuralMatcher:
    """Matches a control-flow subtree.

    ``node_kinds`` — op classes accepted at this node;
    ``children``   — matchers for the nested loops, in order;
    ``callback``   — optional predicate over the matched op's body.
    """

    def __init__(
        self,
        node_kinds,
        children: List["StructuralMatcher"],
        callback: Optional[Callable[[Block], bool]] = None,
        context: Optional[NestedPatternContext] = None,
    ):
        self.node_kinds = node_kinds
        self.children = children
        self.callback = callback
        (context or _current_context()).register(self)

    def match(self, op: Operation) -> bool:
        """Match starting at ``op`` (the relative root)."""
        if not isinstance(op, self.node_kinds):
            return False
        body = op.body
        if not self.children:
            # A leaf matcher describes an innermost loop: no nested loops.
            if any(
                isinstance(o, _LOOP_KINDS)
                for o in body.ops_without_terminator()
            ):
                return False
        if self.children:
            # Perfect-nest semantics: the body's loop children must be
            # exactly the children matchers, in order, with no other
            # (non-terminator) operations in between.
            body_ops = body.ops_without_terminator()
            loop_ops = [o for o in body_ops if isinstance(o, _LOOP_KINDS)]
            if len(loop_ops) != len(self.children):
                return False
            if len(loop_ops) != len(body_ops):
                return False  # interleaved straight-line code: not perfect
            for child, loop_op in zip(self.children, loop_ops):
                if not child.match(loop_op):
                    return False
        if self.callback is not None:
            if not self.callback(body):
                return False
        return True

    def match_anywhere(self, root: Operation) -> List[Operation]:
        """All ops under ``root`` where this matcher matches."""
        return [op for op in root.walk() if self.match(op)]

    def depth(self) -> int:
        if not self.children:
            return 1
        return 1 + max(child.depth() for child in self.children)

    def __repr__(self) -> str:
        inner = ", ".join(map(repr, self.children))
        cb = "cb, " if self.callback else ""
        names = (
            self.node_kinds.__name__
            if isinstance(self.node_kinds, type)
            else "|".join(k.__name__ for k in self.node_kinds)
        )
        return f"{names}({cb}{inner})"


_LOOP_KINDS = (AffineForOp, SCFForOp)


def _split_args(args):
    callback = None
    children = []
    for arg in args:
        if isinstance(arg, StructuralMatcher):
            children.append(arg)
        elif callable(arg):
            if callback is not None:
                raise IRError("structural matcher takes one callback at most")
            callback = arg
        else:
            raise IRError(f"bad structural matcher argument: {arg!r}")
    return callback, children


def For(*args) -> StructuralMatcher:
    """Matches a loop (affine or scf).  Leading callback optional."""
    callback, children = _split_args(args)
    return StructuralMatcher(_LOOP_KINDS, children, callback)


def If(*args) -> StructuralMatcher:
    callback, children = _split_args(args)
    return StructuralMatcher((SCFIfOp,), children, callback)
