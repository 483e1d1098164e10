"""Buffer plan: which ``std.alloc`` needs storage of its own.

Shared by the engine's code generator (``execution/engine/codegen.py``)
and by ``convert-scf-to-llvm`` (``transforms/lowering.py``), which
lowers a ``view`` reshape as its source buffer and an elided copy-back
as nothing.

The interpreter gives every ``std.alloc`` a zero-filled array and every
``reshape``/``transpose`` a copy into it.  That is the semantics; it is
not what the code has to *do*.  A raised contraction (TTGT) allocates a
temporary per transpose and per reshape, writes each whole before
anything reads it, and never looks at most of them again — so the plan
classifies each alloc of a single-block function body, once, before
emission:

``view``
    the alloc's first use is as the output of a top-level
    ``linalg.reshape``/``blas.reshape`` and nothing can observe that it
    shares the source's memory.  No alloc, no copy: the reshape emits
    ``dst = _rt.reshape_view(src, shape, dtype)``.
``fresh``
    the alloc's first use overwrites it whole (``transpose``, a
    reshape that may not alias, ``fill``).  The producer
    returns its own result; nothing is zero-filled first.
``zeros``
    everything else — today's ``_np.zeros`` plus the copying helpers,
    the general case every refused shape falls back to.

Aliasing is allowed under three rules, each decided at the reshape
``V = reshape(S)`` over the *buffer* of ``S`` (``S`` and every view
already taken of it):

(a) no member of the buffer, nor ``V``, is written for the rest of the
    function: two read-only names for one memory;
(b) the buffer is a local alloc and no member is used again: ``V`` takes
    the memory over and may be written freely;
(c) the in-place round trip ``V = reshape(S); ...; X = reshape(V)`` with
    ``X`` in the buffer, nothing but ``V`` touching the buffer in
    between and ``V`` dead afterwards: the copy-back is emitted as
    nothing.

A value handed to an op the plan cannot see through (a call, a return,
an unregistered op) is never aliased in either direction.  Distinct
memref arguments are assumed not to overlap — the vectorizer's standing
assumption — and to be C-contiguous arrays of their static shape, both
of which ``ExecutionEngine.run`` checks; ``_rt.reshape_view`` re-checks what
rule (c) relies on, so a caller that bypasses ``run`` gets an error
rather than a silently lost copy-back.

Functions in CFG form and allocs inside loops are not planned.  The
interpreter and the cost model (which already prices ``reshape`` as a
view) are untouched; the ``engine-diff`` oracle rows license the plan
in the engine, and the lowering's interpreter oracles license it there.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Optional, Set, Tuple

from ..dialects.linalg import (
    FillOp,
    LinalgStructuredOp,
    ReshapeOp,
    TransposeOp,
)
from ..ir import READ, WRITE, FuncOp, Operation, Value
from ..ir.types import MemRefType

#: Per-op actions the emitters look up by ``id(op)``.  ``VIEW`` and
#: ``FRESH`` mark a producer that defines its own output, ``DEFERRED``
#: the ``std.alloc`` it stands in for, ``ELIDED`` a rule-(c) copy-back.
VIEW, FRESH, DEFERRED, ELIDED = "view", "fresh", "deferred", "elided"
ZEROS = "zeros"

_READ, _WRITE, _ESCAPE = 1, 2, 4

#: Payload kinds that overwrite a structured op's output whole.
_WHOLE = ("copy", "fill")
#: A scalar access's declared ``MEMORY_EFFECT`` on its one memref.
_ACCESS_KIND = {READ: _READ, WRITE: _WRITE}


def _ignore(*decision) -> None:
    pass


class _Use(NamedTuple):
    pos: int  # index of the enclosing top-level op
    op: Operation
    kind: int  # _READ | _WRITE | _ESCAPE bits


def _effects(op: Operation) -> List[Tuple[Value, int]]:
    """How ``op`` touches each of its memref operands, in operand
    order.  A structured op (and a reshape) reads its inputs and writes
    its outputs, reading them too unless it overwrites them whole."""
    memrefs = [
        (pos, value)
        for pos, value in enumerate(op.operands)
        if isinstance(value.type, MemRefType)
    ]
    if not memrefs or op.name == "std.dealloc":
        return []
    if isinstance(op, LinalgStructuredOp):
        inputs = op.num_inputs
        output = _WRITE if op.PAYLOAD in _WHOLE else _READ | _WRITE
    elif isinstance(op, ReshapeOp):
        inputs, output = 1, _WRITE
    elif op.MEMORY_EFFECT is not None:  # a load or a store
        inputs, output = 0, _ACCESS_KIND[op.MEMORY_EFFECT]
    else:  # a call, a return, an unregistered op: may do anything
        inputs, output = 0, _READ | _WRITE | _ESCAPE
    return [
        (value, _READ if pos < inputs else output) for pos, value in memrefs
    ]


def _overwrites(op: Operation) -> bool:
    """Does ``op`` overwrite its output whole from its inputs alone
    (a reshape, a transpose, a fill)?"""
    return isinstance(op, ReshapeOp) or (
        isinstance(op, LinalgStructuredOp) and op.PAYLOAD in _WHOLE
    )


def _fits(op: Operation) -> bool:
    """Do the static types make ``op``'s result exactly "zeros, then
    overwritten by ``op``"?  (The verifier does not compare element
    types, and the engine also compiles unverified modules.)"""
    out = op.operands[-1].type
    if not out.has_static_shape():
        return False
    if isinstance(op, FillOp):
        return True
    src = op.operands[0].type
    if src.element_type != out.element_type or not src.has_static_shape():
        return False
    if isinstance(op, ReshapeOp):
        return src.num_elements() == out.num_elements()
    if isinstance(op, TransposeOp):
        perm = op.permutation
        return sorted(perm) == list(range(src.rank)) and out.shape == tuple(
            src.shape[p] for p in perm
        )
    return src.shape == out.shape


def plan_buffers(func: FuncOp, stats=None) -> Dict[int, str]:
    """Classify every ``std.alloc`` of ``func``; returns the per-op
    action table (empty when nothing beats ``zeros``) and records each
    decision on ``stats`` (:meth:`VectorizeStats.record_buffer`) when
    one is given."""
    record = stats.record_buffer if stats is not None else _ignore
    region = func.regions[0]
    total = sum(op.name == "std.alloc" for op in func.walk())
    if total == 0 or len(region.blocks) != 1:
        for _ in range(total):
            record(ZEROS, "cfg")
        return {}

    top = list(region.entry_block.operations)
    uses: Dict[int, List[_Use]] = {}
    escaped: Set[int] = set()
    allocs: List[Operation] = []
    for pos, op in enumerate(top):
        if op.name == "std.alloc":
            allocs.append(op)
            continue
        for inner in op.walk():
            if inner.name == "std.alloc":
                record(ZEROS, "in-loop")
                continue
            for value, kind in _effects(inner):
                uses.setdefault(id(value), []).append(_Use(pos, inner, kind))
                if kind & _ESCAPE:
                    escaped.add(id(value))

    # Producers in program order: a view decision looks at the views
    # already taken of its source.
    producers: List[Tuple[int, Operation, Operation]] = []
    for alloc in allocs:
        buffer_uses = uses.get(id(alloc.results[0]))
        if not buffer_uses:
            record(ZEROS, "unused")
            continue
        first = buffer_uses[0]
        if first.op is not top[first.pos]:
            record(ZEROS, "in-loop")
        elif (
            first.kind != _WRITE
            or not _overwrites(first.op)
            or not _fits(first.op)
        ):
            record(ZEROS, "used-before-write")
        else:
            producers.append((first.pos, alloc, first.op))
    producers.sort(key=lambda entry: entry[0])

    local = {id(alloc.results[0]) for alloc in allocs}
    #: value id -> the arg or alloc whose memory it shares
    root = {id(arg): id(arg) for arg in func.arguments}
    root.update((value_id, value_id) for value_id in local)
    members: Dict[int, List[int]] = {
        value_id: [value_id] for value_id in root
    }
    actions: Dict[int, str] = {}
    for pos, alloc, op in producers:
        view = alloc.results[0]
        actions[id(alloc)] = DEFERRED
        if isinstance(op, ReshapeOp):
            source_root = root.get(id(op.operands[0]))
            group = members.get(source_root, [])
            back, refusal = _alias_rule(
                view, pos, group, source_root in local, uses, escaped, top
            )
            if refusal is None:
                actions[id(op)] = VIEW
                record(VIEW)
                if back is not None:
                    actions[id(back)] = ELIDED
                root[id(view)] = source_root
                group.append(id(view))
                continue
            record(FRESH, refusal)
        else:
            record(FRESH)
        actions[id(op)] = FRESH
    return actions


def _alias_rule(
    view: Value,
    pos: int,
    group: List[int],
    is_local: bool,
    uses: Dict[int, List[_Use]],
    escaped: Set[int],
    top: List[Operation],
) -> Tuple[Optional[Operation], Optional[str]]:
    """``(copy-back to elide, None)`` when ``view``, produced at ``pos``,
    may alias the buffer whose members are ``group`` (the op is set
    under rule (c) only); ``(None, reason)`` when the copy stays."""
    if not group or id(view) in escaped or any(m in escaped for m in group):
        return None, "escapes"

    def later(value_id: int) -> List[_Use]:
        return [u for u in uses.get(value_id, ()) if u.pos > pos]

    group_later = [u for member in group for u in later(member)]
    view_later = later(id(view))
    source_written = any(u.kind & _WRITE for u in group_later)
    if not source_written and not any(u.kind & _WRITE for u in view_later):
        return None, None  # (a)
    if is_local and not group_later:
        return None, None  # (b)
    # (c): the view's last use stores it back into its own buffer, and
    # until then nothing else touches that buffer.
    if view_later:
        last = view_later[-1]
        back = last.op
        if (
            isinstance(back, ReshapeOp)
            and back is top[last.pos]
            and back.operands[0] is view
            and id(back.operands[1]) in group
            and _fits(back)
            and all(u.op is back for u in group_later if u.pos <= last.pos)
        ):
            return back, None
    return None, "source-written-later" if source_written else "view-written"
