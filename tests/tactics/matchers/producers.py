"""Producer-chasing op matchers for buffer-semantics (Linalg) ops.

Listing 9 of the paper matches a chain of three matrix multiplications
with nested ``m_Op<MatmulOp>`` matchers whose third operand is *the
matmul producing it*.  With buffer semantics there is no SSA edge
between the ops — the link goes through the memref: the "producer" of
an operand is the last operation before the consumer that wrote that
buffer.  :func:`m_ProducerOp` packages that lookup so Listing 9 can be
written verbatim::

    _chain = m_ProducerOp(
        MatmulOp, m_Capt("A"), m_Capt("B"),
        m_ProducerOp(MatmulOp, out1, m_Capt("C"),
                     m_ProducerOp(MatmulOp, out2, m_Capt("D"), out3)))
    _chain.match(last_matmul_in_block)
"""

from __future__ import annotations

from typing import List, Optional

from repro.ir import Operation, Value
from .op_matchers import OpMatcher, _Bindings


def producer_of(value: Value, before: Operation) -> Optional[Operation]:
    """The last op before ``before`` (same block) writing buffer
    ``value``.

    "Writing" means using the buffer as an output operand: the last
    operand of a linalg structured op, the destination of a fill/copy/
    transpose/reshape, or an affine/std store.
    """
    block = before.parent_block
    if block is None:
        return None
    ops = block.operations
    position = ops.index(before)
    for op in reversed(ops[:position]):
        if _writes(op, value):
            return op
    return None


def _writes(op: Operation, buffer: Value) -> bool:
    name = op.name
    if name in (
        "linalg.matmul",
        "linalg.matvec",
        "linalg.conv2d_nchw",
        "blas.sgemm",
        "blas.sgemv",
        "blas.conv2d",
    ):
        return op.operands[-1] is buffer
    if name in (
        "linalg.transpose",
        "linalg.reshape",
        "blas.transpose",
        "blas.reshape",
    ):
        return op.operand(1) is buffer
    if name == "linalg.fill":
        return op.operand(1) is buffer
    if name in ("affine.store", "std.store"):
        return op.memref is buffer
    return False


class ProducerOpMatcher(OpMatcher):
    """Like :class:`OpMatcher`, but operand sub-matchers that are
    themselves op matchers follow the buffer-producer relation instead
    of the (absent) SSA def."""

    def _match_arg(self, matcher, value: Value, bindings: _Bindings) -> bool:
        if isinstance(matcher, OpMatcher):
            anchor = getattr(bindings, "anchor_op", None)
            producer = (
                producer_of(value, anchor) if anchor is not None else None
            )
            if producer is None:
                return False
            saved_anchor = bindings.anchor_op
            bindings.anchor_op = producer
            try:
                return matcher._match_op(producer, bindings)
            finally:
                bindings.anchor_op = saved_anchor
        return super()._match_arg(matcher, value, bindings)

    def match(self, op: Operation) -> bool:
        bindings = _Bindings()
        bindings.anchor_op = op
        if self._match_op(op, bindings):
            bindings.commit()
            return True
        return False

    def _match_op(self, op: Operation, bindings: _Bindings) -> bool:
        if getattr(bindings, "anchor_op", None) is None:
            bindings.anchor_op = op
        saved = bindings.anchor_op
        bindings.anchor_op = op
        try:
            return super()._match_op(op, bindings)
        finally:
            bindings.anchor_op = saved


def m_ProducerOp(op_kind, *arg_matchers) -> ProducerOpMatcher:
    return ProducerOpMatcher(op_kind, *arg_matchers)
