"""The ``transform`` scheduling dialect: schedules as data.

Modeled on MLIR's transform dialect (Zinenko's tutorial, PAPERS.md):
a *schedule module* is ordinary IR whose ops script transformations
over a separate *payload* module.  The ops do not touch payload IR
themselves — :mod:`repro.scheduling.interpreter` walks a
``transform.sequence`` and applies each step through the existing
transform/pass infrastructure.

Handle values (:class:`TransformHandleType`) thread the targeted
payload functions from op to op::

    transform.sequence {
      %0 = transform.match
      %1 = transform.fuse %0 {flow = true}
      %2 = transform.tile %1 {size = 32}
    }

Because schedules are plain IR they round-trip through the printer and
parser byte-identically, diff like text, live in the persistent disk
cache (the autotuner's ``schedules/`` namespace), and can be generated
randomly for the ``schedule-diff`` fuzz oracle.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from ..ir.attributes import (
    Attribute,
    BoolAttr,
    IntegerAttr,
    StringAttr,
    int_array_attr,
)
from ..ir.core import IRError, Operation, register_op
from ..ir.types import Type

#: Vectorize modes ``transform.vectorize`` may request (mirrors
#: ``codegen.VECTORIZE_MODES``; duplicated to avoid importing the
#: execution engine from a dialect definition).
VECTORIZE_MODES = ("none", "innermost", "nest")


class TransformHandleType(Type):
    """Type of a value naming a set of payload functions."""

    def __str__(self) -> str:
        return "!transform.handle"


@register_op
class SequenceOp(Operation):
    """Top-level container holding one block of transform steps."""

    OP_NAME = "transform.sequence"

    @staticmethod
    def create() -> "SequenceOp":
        op = SequenceOp(num_regions=1)
        block = op.regions[0].add_block()
        block.append(YieldOp.create())
        return op

    def steps(self) -> List[Operation]:
        """The schedule's transform ops, in program order."""
        return [
            op
            for op in self.body.operations
            if not isinstance(op, YieldOp)
        ]

    def append_step(self, op: Operation) -> Operation:
        """Insert ``op`` before the terminator."""
        self.body.insert(len(self.body.operations) - 1, op)
        return op

    def verify_(self) -> None:
        if len(self.regions) != 1 or len(self.regions[0].blocks) != 1:
            raise IRError("transform.sequence needs exactly one block")
        for op in self.body.operations:
            if op.dialect != "transform":
                raise IRError(
                    f"transform.sequence may only contain transform ops, "
                    f"found {op.name}"
                )


@register_op
class YieldOp(Operation):
    OP_NAME = "transform.yield"
    IS_TERMINATOR = True

    @staticmethod
    def create() -> "YieldOp":
        return YieldOp()


@register_op
class MatchOp(Operation):
    """Produce a handle to the payload functions a schedule targets.

    With a ``target`` attribute only the named function is matched;
    without one, every function of the payload module.  Either way the
    interpreter applies the optimizer's soundness gate, so a schedule
    can never touch a function whose memory effects the legality
    analyses cannot enumerate.
    """

    OP_NAME = "transform.match"

    @staticmethod
    def create(target: Optional[str] = None) -> "MatchOp":
        attrs = {}
        if target is not None:
            attrs["target"] = StringAttr(target)
        return MatchOp(
            result_types=[TransformHandleType()], attributes=attrs
        )

    @property
    def target(self) -> Optional[str]:
        attr = self.attributes.get("target")
        return attr.value if attr is not None else None

    def verify_(self) -> None:
        _check_handle_results(self)


class TransformStepOp(Operation):
    """Base for handle -> handle transform steps."""

    def verify_(self) -> None:
        if self.num_operands != 1 or not isinstance(
            self.operand(0).type, TransformHandleType
        ):
            raise IRError(f"{self.name} takes exactly one handle operand")
        _check_handle_results(self)

    @classmethod
    def _create(cls, handle, attributes=None):
        return cls(
            operands=[handle],
            result_types=[TransformHandleType()],
            attributes=attributes or {},
        )

    @property
    def handle(self):
        return self.operand(0)


def _check_handle_results(op: Operation) -> None:
    if len(op.results) != 1 or not isinstance(
        op.results[0].type, TransformHandleType
    ):
        raise IRError(f"{op.name} must produce exactly one handle")


@register_op
class FuseOp(TransformStepOp):
    """Greedy sibling-nest fusion (``transforms.fusion``).

    ``flow = true`` restricts fusion to producer/consumer pairs — the
    engine optimizer's policy; ``false`` is maxfuse.
    """

    OP_NAME = "transform.fuse"

    @staticmethod
    def create(handle, flow: bool = True) -> "FuseOp":
        return FuseOp._create(handle, {"flow": BoolAttr(flow)})

    @property
    def flow(self) -> bool:
        attr = self.attributes.get("flow")
        return attr.value if attr is not None else True


@register_op
class CopyElimOp(TransformStepOp):
    """Store-to-load forwarding + dead-store/alloc elimination."""

    OP_NAME = "transform.copy_elim"

    @staticmethod
    def create(handle) -> "CopyElimOp":
        return CopyElimOp._create(handle)


@register_op
class DeadLoopsOp(TransformStepOp):
    """Idempotent-loop elimination (optimizer stage 3)."""

    OP_NAME = "transform.dead_loops"

    @staticmethod
    def create(handle) -> "DeadLoopsOp":
        return DeadLoopsOp._create(handle)


@register_op
class CanonicalizeOp(TransformStepOp):
    """Constant folding + DCE + empty-loop removal."""

    OP_NAME = "transform.canonicalize"

    @staticmethod
    def create(handle) -> "CanonicalizeOp":
        return CanonicalizeOp._create(handle)


@register_op
class DistributeOp(TransformStepOp):
    """Partial loop distribution (``transforms.distribution``)."""

    OP_NAME = "transform.distribute"

    @staticmethod
    def create(handle) -> "DistributeOp":
        return DistributeOp._create(handle)


@register_op
class TileOp(TransformStepOp):
    """Cache-blocking tiling.

    ``size`` runs the optimizer's trip-count heuristic with that tile
    edge; ``sizes`` tiles every legal depth-matching band with the
    explicit per-loop sizes.  Exactly one of the two must be present.
    """

    OP_NAME = "transform.tile"

    @staticmethod
    def create(
        handle,
        size: Optional[int] = None,
        sizes: Optional[Sequence[int]] = None,
    ) -> "TileOp":
        attrs = {}
        if size is not None:
            attrs["size"] = IntegerAttr(size)
        if sizes is not None:
            attrs["sizes"] = int_array_attr(sizes)
        op = TileOp._create(handle, attrs)
        op.verify_()
        return op

    @property
    def size(self) -> Optional[int]:
        attr = self.attributes.get("size")
        return attr.value if attr is not None else None

    @property
    def sizes(self) -> Optional[List[int]]:
        attr = self.attributes.get("sizes")
        if attr is None:
            return None
        return [e.value for e in attr.elements]

    def verify_(self) -> None:
        super().verify_()
        size, sizes = self.size, self.sizes
        if (size is None) == (sizes is None):
            raise IRError(
                "transform.tile needs exactly one of {size}, {sizes}"
            )
        if size is not None and size < 2:
            raise IRError("transform.tile size must be >= 2")
        if sizes is not None and (
            not sizes or any(s < 0 for s in sizes)
        ):
            raise IRError(
                "transform.tile sizes must be a non-empty list of "
                "non-negative ints"
            )


@register_op
class UnrollJamOp(TransformStepOp):
    """Unroll-and-jam outer loops by ``factor`` (``transforms.unroll``)."""

    OP_NAME = "transform.unroll_jam"

    @staticmethod
    def create(handle, factor: int) -> "UnrollJamOp":
        op = UnrollJamOp._create(handle, {"factor": IntegerAttr(factor)})
        op.verify_()
        return op

    @property
    def factor(self) -> int:
        return self.attributes["factor"].value

    def verify_(self) -> None:
        super().verify_()
        attr = self.attributes.get("factor")
        if attr is None or attr.value < 2:
            raise IRError("transform.unroll_jam needs factor >= 2")


@register_op
class VectorizeOp(TransformStepOp):
    """Request a codegen vectorize mode for the scheduled payload.

    Pure annotation: the interpreter records the mode in its result so
    the engine construction that follows can honor it; payload IR is
    untouched.
    """

    OP_NAME = "transform.vectorize"

    @staticmethod
    def create(handle, mode: str = "nest") -> "VectorizeOp":
        op = VectorizeOp._create(handle, {"mode": StringAttr(mode)})
        op.verify_()
        return op

    @property
    def mode(self) -> str:
        return self.attributes["mode"].value

    def verify_(self) -> None:
        super().verify_()
        attr = self.attributes.get("mode")
        if attr is None or attr.value not in VECTORIZE_MODES:
            raise IRError(
                f"transform.vectorize mode must be one of "
                f"{VECTORIZE_MODES}"
            )


@register_op
class RaiseOp(TransformStepOp):
    """Run raising passes over the payload module: ``mode`` is a
    "+"-joined list of tier names (``tdl+synth``) that the schedule
    interpreter resolves to passes, in order."""

    OP_NAME = "transform.raise"

    @staticmethod
    def create(handle, mode: str = "tdl") -> "RaiseOp":
        op = RaiseOp._create(handle, {"mode": StringAttr(mode)})
        op.verify_()
        return op

    @property
    def mode(self) -> str:
        return self.attributes["mode"].value

    def verify_(self) -> None:
        super().verify_()
        if not isinstance(self.attributes.get("mode"), StringAttr):
            raise IRError("transform.raise needs a string mode")


#: Ops allowed inside a sequence, keyed by mnemonic — the parser, the
#: fuzz generator, and the interpreter all dispatch over this table.
STEP_OPS = {
    "transform.match": MatchOp,
    "transform.fuse": FuseOp,
    "transform.copy_elim": CopyElimOp,
    "transform.dead_loops": DeadLoopsOp,
    "transform.canonicalize": CanonicalizeOp,
    "transform.distribute": DistributeOp,
    "transform.tile": TileOp,
    "transform.unroll_jam": UnrollJamOp,
    "transform.vectorize": VectorizeOp,
    "transform.raise": RaiseOp,
}


def find_sequences(module) -> List[SequenceOp]:
    """Every ``transform.sequence`` at the top level of ``module``."""
    return [
        op
        for op in module.body.operations
        if isinstance(op, SequenceOp)
    ]
