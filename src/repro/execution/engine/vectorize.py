"""Whole-nest vectorization for the compiled engine.

The unit of vectorization is a **band**: the longest chain of perfectly
nested ``affine.for`` ops starting at a given loop (each body is exactly
one ``affine.for`` until the compute body), read once into a
:class:`~repro.analysis.band.BandSummary` — the same band, payload,
loads and stores the optimizer's tile/fuse queries and the synthesis
raiser read.  When the payload is a straight line of affine
loads/stores and element-wise float arithmetic, the whole band
collapses into *one* N-dimensional NumPy expression — every induction
variable becomes an array axis, every access where an induction
variable appears linearly in exactly one subscript becomes a strided
slice, a *load* subscript over several
induction variables (``x[i + j]``, convolution's ``I[y + p][x + q]``)
becomes a :func:`~.runtime.window` view with one axis per variable, and
the single store either assigns a slice (element-wise case) or folds a
``.sum``/contraction into its accumulator (reduction case).

On top of the band analysis, **contraction recognition** turns the
canonical accumulate-a-product-of-loads shape (``C[i,j] += A[i,k] *
B[k,j]`` and friends) into a single BLAS-backed call that
:func:`~.codegen.contraction_src` plans while the kernel is generated
(``@``, ``np.tensordot`` or ``np.einsum``), so even un-raised baseline
pipelines reach BLAS-grade kernels.  A reduction accumulates in place:
the store is ``view += ...`` / ``view -= ...``.

The transform bails out — returning ``False`` so codegen falls back to
a scalar Python loop for the *outermost* band loop and retries on the
next-inner loop (partial collapse: the innermost ``k`` dims of a band
still vectorize) — whenever it cannot prove safety:

* any payload op outside :data:`~repro.analysis.band.PAYLOAD_OPS`
  (nested non-perfect loops, integer/index arithmetic, calls, ...);
* an inner band loop whose bounds depend on an outer band induction
  variable (triangular nests);
* more than one store, or a store whose value is not a recognisable
  accumulator update when some band induction variable is absent from
  its subscripts;
* an induction variable appearing non-linearly, with a non-positive
  stride, or in more than one subscript of an access, or two induction
  variables sharing one subscript of the *store* (overlapping writes
  are order-dependent);
* a load from the stored buffer whose subscripts are not structurally
  identical to the store's (a loop-carried dependence);
* a reduction whose contribution does not vary along every reduced
  axis (summing a broadcast value reassociates differently from the
  sequential scalar loop).

Every bail-out is recorded with a reason key on the function's
:class:`VectorizeStats`; a bail-out is never an error, just slower
code.  (Codegen adds one reason of its own, ``tiled``, for a root nest
the tile stage marked ``no_vectorize`` and which is therefore never
offered to this module.)  Buffers are assumed non-aliasing unless they
are the same SSA value — the same assumption the rest of the evaluation
stack makes, and one the fuzzing ``engine-diff``/``vectorize-diff``
stages continuously cross-check.  For arguments it is the call
contract: both backends refuse memref arguments that overlap.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ...analysis.band import PAYLOAD_OPS, BandSummary, summarize_band
from ...analysis.contraction import CONTRACTION_LABELS, loop_labels
from ...dialects.affine import AffineForOp, AffineLoadOp, AffineStoreOp
from ...ir import Operation, is_float
from .codegen import (
    CMPF_PYTHON,
    FLOAT_BINARY_TEMPLATES,
    affine_expr_src,
    contraction_src,
)
from .runtime import EngineError

#: Array spellings: the scalar ones, except that NumPy's NaN-propagating
#: maximum replaces the scalar conditional.
_VEC_BINOPS = {**FLOAT_BINARY_TEMPLATES, "std.maxf": "_np.maximum({a}, {b})"}


@dataclass
class VectorizeStats:
    """Per-module vectorizer observability, aggregated over functions.

    A *nest* is an outermost ``affine.for`` (one not syntactically
    contained in another ``affine.for``).  ``bail_reasons`` counts
    failed collapse *attempts* by reason key — a nest that bails at
    depth 3, 2, and 1 before running scalar records three attempts.
    """

    nests_collapsed: int = 0
    nests_partial: int = 0
    nests_bailed: int = 0
    contractions: int = 0
    licm_hoisted: int = 0
    bail_reasons: Dict[str, int] = field(default_factory=dict)
    #: ``std.alloc`` ops per buffer-plan class (see
    #: :mod:`repro.analysis.buffers`)
    buffer_classes: Dict[str, int] = field(
        default_factory=lambda: {"view": 0, "fresh": 0, "zeros": 0}
    )
    #: why an alloc stayed ``zeros``, or a reshape's output a copy
    buffer_reasons: Dict[str, int] = field(default_factory=dict)

    def record_bail(self, reason: str) -> None:
        self.bail_reasons[reason] = self.bail_reasons.get(reason, 0) + 1

    def record_buffer(self, cls: str, reason: Optional[str] = None) -> None:
        self.buffer_classes[cls] += 1
        if reason is not None:
            self.buffer_reasons[reason] = (
                self.buffer_reasons.get(reason, 0) + 1
            )

    def snapshot(self) -> dict:
        return {
            "nests_collapsed": self.nests_collapsed,
            "nests_partial": self.nests_partial,
            "nests_bailed": self.nests_bailed,
            "contractions": self.contractions,
            "licm_hoisted": self.licm_hoisted,
            "bail_reasons": dict(sorted(self.bail_reasons.items())),
            "buffer_plan": {
                **self.buffer_classes,
                "reasons": dict(sorted(self.buffer_reasons.items())),
            },
        }


class _Bail(Exception):
    """Internal: pattern not vectorizable, fall back to a scalar loop."""

    def __init__(self, reason: str):
        super().__init__(reason)
        self.reason = reason


def try_vectorize_band(
    ctx,
    summary: BandSummary,
    stats: Optional[VectorizeStats] = None,
    allow_contraction: bool = True,
) -> bool:
    """Emit the summarized band as one N-d NumPy expression; False
    means bail.

    On a bail the reason is recorded on ``stats`` and nothing has been
    emitted (analysis runs before any line is generated).
    """
    try:
        vec = _Vectorizer(ctx, summary, allow_contraction)
    except _Bail as bail:
        if stats is not None:
            stats.record_bail(bail.reason)
        return False
    vec.emit()
    if stats is not None and vec.contraction is not None:
        stats.contractions += 1
    return True


def band_collapses(root: AffineForOp) -> Optional[str]:
    """Pure legality query: would :func:`try_vectorize_band` accept the
    band rooted at ``root``, and as what?  ``None`` (it bails),
    ``"elementwise"`` or ``"reduction"`` (the store folds a
    ``.sum``/contraction).  Runs the analysis phase only (which never
    touches the emission context), records nothing, and emits nothing.
    The mid-level optimizer gives the vectorizer first refusal through
    it: tiling leaves collapsible nests alone, and fusion does not glue
    a collapsed reduction into a body that no longer collapses."""
    try:
        vec = _Vectorizer(None, summarize_band(root), allow_contraction=True)
    except _Bail:
        return None
    return "reduction" if vec.reduced else "elementwise"


def _access_signature(op) -> tuple:
    """Structural identity of an affine access: same map results over
    the same index SSA values on the same buffer."""
    return (
        tuple(expr._key() for expr in op.map.results),
        tuple(id(v) for v in op.indices),
        id(op.memref),
    )


class _Access:
    """Analysis of one affine load/store against the band's ivs.

    ``axes`` maps a band iv index to ``(subscript position, iv
    coefficient)``; iv indices absent from ``axes`` do not appear in
    the access.  After slicing, the array's dimensions correspond to
    the sliced subscript positions in order — :attr:`sub_order` lists
    the band iv index carried by each of those dimensions.  A *load*
    subscript may carry several ivs (``x[i + j]``): it is sliced over
    its whole span and then opened into one dimension per iv, in band
    order, by :func:`~.runtime.window` — which is ``sub_order``'s order
    too.  A store subscript may not: overlapping writes are
    order-dependent.
    """

    def __init__(self, op, ivs):
        self.op = op
        self.signature = _access_signature(op)
        self.axes: Dict[int, Tuple[int, int]] = {}
        iv_positions = [
            {pos for pos, value in enumerate(op.indices) if value is iv}
            for iv in ivs
        ]
        for result_pos, expr in enumerate(op.map.results):
            used = expr.dims_used()
            hit = [
                b for b, positions in enumerate(iv_positions)
                if used & positions
            ]
            if not hit:
                continue
            if len(hit) > 1 and isinstance(op, AffineStoreOp):
                raise _Bail("two-ivs-in-one-subscript")
            linear = expr.as_linear()
            if linear is None:
                raise _Bail("non-linear-subscript")
            for b in hit:
                coeff = sum(
                    linear.dim_coeffs.get(pos, 0) for pos in iv_positions[b]
                )
                if coeff <= 0:
                    raise _Bail("non-positive-stride")
                if b in self.axes:
                    raise _Bail("iv-in-two-subscripts")
                self.axes[b] = (result_pos, coeff)
        #: band iv indices in subscript (sliced-array dimension) order
        self.sub_order: List[int] = [
            b for _, b in sorted((pos, b) for b, (pos, _) in self.axes.items())
        ]
        self.vary = frozenset(self.axes)

    @property
    def is_vector(self) -> bool:
        return bool(self.axes)


class _Vectorizer:
    """Analysis (may raise :class:`_Bail`) then emission for one band."""

    def __init__(self, ctx, summary: BandSummary, allow_contraction: bool):
        self.ctx = ctx
        self.summary = summary
        self.band = summary.band
        self.rank = len(self.band)
        self.ivs = [loop.induction_var for loop in self.band]
        self.allow_contraction = allow_contraction
        self.accesses: Dict[int, _Access] = {}
        #: id(value) -> vary set, computed during analysis
        self.vary: Dict[int, frozenset] = {}
        #: id(value) -> generated canonical expression (emission phase)
        self.values: Dict[int, str] = {}
        #: id(value) -> raw (subscript-order) view temp of a vector load:
        #: what a contraction consumes, and what ``_value`` canonicalizes
        self.raw_views: Dict[int, str] = {}
        self.store: Optional[AffineStoreOp] = None
        self.fused_ops: set = set()
        self.contraction = None
        self.analyze()

    # -- analysis --------------------------------------------------------

    def _vary_of(self, value) -> frozenset:
        return self.vary.get(id(value), frozenset())

    def analyze(self) -> None:
        ivs = set(map(id, self.ivs))
        for loop in self.band[1:]:
            if any(
                id(v) in ivs
                for v in list(loop.lb_operands) + list(loop.ub_operands)
            ):
                raise _Bail("triangular-bounds")
        for body_op in self.summary.payload:
            if body_op.name not in PAYLOAD_OPS:
                raise _Bail("unsafe-op")
            if isinstance(body_op, (AffineLoadOp, AffineStoreOp)):
                self.accesses[id(body_op)] = _Access(body_op, self.ivs)
            if body_op.results:
                result = body_op.results[0]
                if isinstance(body_op, AffineLoadOp):
                    self.vary[id(result)] = self.accesses[id(body_op)].vary
                else:
                    vary = frozenset()
                    for value in body_op.operands:
                        vary = vary | self._vary_of(value)
                    self.vary[id(result)] = vary
        stores = self.summary.stores
        if len(stores) != 1:
            raise _Bail("multiple-stores" if stores else "no-store")
        self.store = stores[0]
        store_access = self.accesses[id(self.store)]
        self.reduced = frozenset(range(self.rank)) - store_access.vary
        if not self.reduced:
            self._check_elementwise_hazards(store_access)
        else:
            self._match_reduction(store_access)

    def _loads_of_stored_buffer(self, store_access: _Access) -> List[_Access]:
        return [
            self.accesses[id(load)]
            for load in self.summary.loads
            if id(load.memref) == store_access.signature[2]
        ]

    def _check_elementwise_hazards(self, store_access: _Access) -> None:
        for access in self._loads_of_stored_buffer(store_access):
            if access.signature != store_access.signature:
                raise _Bail("loop-carried-dependence")

    def _match_reduction(self, store_access: _Access) -> None:
        """Some ivs absent from the store: only ``acc = acc +/- v`` folds."""
        update = self.store.value.defining_op
        if update is None or update.name not in ("std.addf", "std.subf"):
            raise _Bail("not-a-reduction")
        if not update.results[0].has_one_use():
            raise _Bail("reduction-update-shared")
        lhs, rhs = update.operand(0), update.operand(1)
        acc, contrib = None, None
        for candidate, other in ((lhs, rhs), (rhs, lhs)):
            load = candidate.defining_op
            if (
                isinstance(load, AffineLoadOp)
                and id(load) in self.accesses
                and self.accesses[id(load)].signature == store_access.signature
            ):
                acc, contrib = load, other
                break
        if acc is None:
            raise _Bail("no-accumulator-load")
        if update.name == "std.subf" and update.operand(0) is not acc.results[0]:
            raise _Bail("subtrahend-accumulator")
        if not acc.results[0].has_one_use():
            raise _Bail("accumulator-reused")
        loads = self._loads_of_stored_buffer(store_access)
        if any(load.op is not acc for load in loads):
            raise _Bail("extra-reduction-load")
        if not self.reduced <= self._vary_of(contrib):
            # Summing a value that is broadcast along a reduced axis
            # reassociates n sequential rounded adds into one multiply.
            raise _Bail("invariant-reduction-axis")
        self.reduction = (update, acc, contrib)
        self.fused_ops = {id(update), id(acc)}
        if self.allow_contraction:
            self.contraction = self._match_contraction(contrib)
            if self.contraction is not None:
                leaves, scalars, internal = self.contraction
                self.fused_ops.update(id(op) for op in internal)

    def _match_contraction(self, contrib):
        """Recognise ``contrib`` as a product of vector loads (times
        scalar factors) suitable for one planned contraction (see
        :func:`~.codegen.contraction_src`).  Returns ``(vector_loads,
        scalar_values, internal_muls)`` or ``None``."""
        if self.rank > len(CONTRACTION_LABELS):
            return None
        # Every output label must appear in some input: the product
        # must vary over the full band, not just the reduced axes.
        if self._vary_of(contrib) != frozenset(range(self.rank)):
            return None
        leaves: List[AffineLoadOp] = []
        scalars: List = []
        internal: List[Operation] = []

        def walk(value) -> bool:
            if not self._vary_of(value):
                scalars.append(value)
                return True
            op = value.defining_op
            if (
                isinstance(op, AffineLoadOp)
                and id(op) in self.accesses
                and self.accesses[id(op)].is_vector
            ):
                leaves.append(op)
                return True
            if (
                op is not None
                and op.name == "std.mulf"
                and id(op.results[0]) in self.vary
                and value.has_one_use()
            ):
                internal.append(op)
                return walk(op.operand(0)) and walk(op.operand(1))
            return False

        if not walk(contrib) or len(leaves) < 2:
            return None
        return leaves, scalars, internal

    # -- emission --------------------------------------------------------

    def emit(self) -> None:
        ctx = self.ctx
        self.lb_names: List[str] = []
        self.n_names: List[str] = []
        for loop in self.band:
            lb = ctx.bound_src(loop.lower_bound_map, loop.lb_operands, minimize=False)
            ub = ctx.bound_src(loop.upper_bound_map, loop.ub_operands, minimize=True)
            lb_name = ctx.fresh("_lb")
            n = ctx.fresh("_n")
            ctx.emit(f"{lb_name} = {lb}")
            ctx.emit(f"{n} = len(range({lb_name}, {ub}, {loop.step}))")
            self.lb_names.append(lb_name)
            self.n_names.append(n)
        guard = " and ".join(f"{n} > 0" for n in self.n_names)
        ctx.emit(f"if {guard}:")
        ctx.indent += 1
        for body_op in self.summary.payload:
            if id(body_op) in self.fused_ops:
                continue
            self._emit_body_op(body_op)
        ctx.indent -= 1

    def _emit_body_op(self, body_op: Operation) -> None:
        ctx = self.ctx
        name = body_op.name
        if name == "std.constant":
            value = body_op.value
            literal = (
                repr(float(value))
                if is_float(body_op.results[0].type)
                else repr(int(value))
            )
            self.values[id(body_op.results[0])] = literal
        elif name == "affine.load":
            self._emit_load(body_op)
        elif name == "affine.store":
            self._emit_store(body_op)
        elif name == "std.negf":
            a = self._value(body_op.operand(0))
            src = f"(-{a})"
            if not self._vary_of(body_op.results[0]) and str(
                body_op.results[0].type
            ) == "f32":
                src = f"_f32({src})"
            self._assign(body_op.results[0], src)
        elif name == "std.cmpf":
            a = self._value(body_op.operand(0))
            b = self._value(body_op.operand(1))
            self._assign(
                body_op.results[0],
                f"({a} {CMPF_PYTHON[body_op.predicate]} {b})",
            )
        elif name == "std.select":
            c, t, f = (self._value(body_op.operand(i)) for i in range(3))
            if self._vary_of(body_op.results[0]) or self._vary_of(
                body_op.operand(0)
            ):
                src = f"_np.where({c}, {t}, {f})"
            else:
                src = f"({t} if {c} else {f})"
            self._assign(body_op.results[0], src)
        else:  # float binary
            a = self._value(body_op.operand(0))
            b = self._value(body_op.operand(1))
            vec = bool(self._vary_of(body_op.results[0]))
            table = _VEC_BINOPS if vec else FLOAT_BINARY_TEMPLATES
            src = table[name].format(a=a, b=b)
            if not vec and str(body_op.results[0].type) == "f32":
                src = f"_f32({src})"
            self._assign(body_op.results[0], src)

    def _assign(self, result, src: str) -> None:
        temp = self.ctx.fresh()
        self.ctx.emit(f"{temp} = {src}")
        self.values[id(result)] = temp

    def _value(self, value) -> str:
        src = self.values.get(id(value))
        if src is None and id(value) in self.raw_views:
            # First use of a vector load outside a contraction (which
            # consumes the raw view): only now emit its canonical view.
            src = self.values[id(value)] = self._canonicalize(
                self.raw_views[id(value)],
                self.accesses[id(value.defining_op)],
            )
        if src is not None:
            return src
        # Defined outside the band (function arg, outer scalar, ...).
        return self.ctx.name(value)

    def _view(self, access: _Access) -> str:
        """Render an access as ``mem[...]`` with every band-iv dimension
        sliced.  A subscript over several ivs (loads only — see
        :class:`_Access`) is sliced over its whole span, and the result
        wrapped in the :func:`~.runtime.window` call that opens that
        dimension into one per iv; a store is always a plain slice
        target."""
        ctx = self.ctx
        op = access.op
        iv_index = {id(iv): b for b, iv in enumerate(self.ivs)}
        # Index operand names with iv positions replaced by the hoisted
        # lower bounds, so the remaining expression computes each slice
        # *start*.
        names = [
            self.lb_names[iv_index[id(value)]]
            if id(value) in iv_index
            else ctx.name(value)
            for value in op.indices
        ]
        sliced_at: Dict[int, List[int]] = {}
        for b in access.sub_order:
            sliced_at.setdefault(access.axes[b][0], []).append(b)
        parts = []
        windows = []
        axis = 0
        for pos, expr in enumerate(op.map.results):
            src = affine_expr_src(expr, names)
            bs = sliced_at.get(pos)
            if bs is None:
                parts.append(src)
                continue
            dims = [
                (access.axes[b][1] * self.band[b].step, self.n_names[b])
                for b in bs
            ]
            start = ctx.fresh("_s")
            ctx.emit(f"{start} = {src}")
            if len(dims) == 1:
                ((stride, n),) = dims
                parts.append(
                    f"slice({start}, {start} + {stride} * {n}, {stride})"
                )
            else:
                span = " + ".join(f"{s} * ({n} - 1)" for s, n in dims)
                parts.append(f"slice({start}, {start} + {span} + 1)")
                dims_src = ", ".join(f"({s}, {n})" for s, n in dims)
                windows.append(f"{axis}, ({dims_src},)")
            axis += len(dims)
        view = f"{ctx.name(op.memref)}[{', '.join(parts)}]"
        for window in windows:
            view = f"_rt.window({view}, {window})"
        return view

    def _canonicalize(self, raw: str, access: _Access) -> str:
        """Align a sliced array's axes to band order and broadcast-expand
        missing ivs, so all vector values combine by NumPy broadcasting.
        Both steps are O(1) views."""
        present = sorted(access.axes)
        expr = raw
        perm = tuple(access.sub_order.index(b) for b in present)
        if perm != tuple(range(len(perm))):
            expr = f"{expr}.transpose({perm})"
        if len(present) != self.rank:
            index = ", ".join(
                ":" if b in access.axes else "None" for b in range(self.rank)
            )
            expr = f"{expr}[{index}]"
        if expr is raw:
            return raw
        canon = self.ctx.fresh()
        self.ctx.emit(f"{canon} = {expr}")
        return canon

    def _emit_load(self, load: AffineLoadOp) -> None:
        ctx = self.ctx
        access = self.accesses[id(load)]
        temp = ctx.fresh()
        view = self._view(access)
        if access.is_vector:
            ctx.emit(f"{temp} = {view}")
            self.raw_views[id(load.results[0])] = temp
        else:
            ctx.emit(f"{temp} = {view}.item()")
            self.values[id(load.results[0])] = temp

    def _emit_store(self, store: AffineStoreOp) -> None:
        ctx = self.ctx
        access = self.accesses[id(store)]
        if not self.reduced:
            value_src = self._value(store.value)
            if self._vary_of(store.value):
                # Canonical axes are band order; the target's axes are
                # the store's subscript order.
                perm = tuple(access.sub_order)
                if perm != tuple(range(self.rank)):
                    value_src = f"{value_src}.transpose({perm})"
            ctx.emit(f"{self._view(access)} = {value_src}")
            return
        update, _acc, contrib = self.reduction
        sign = "+" if update.name == "std.addf" else "-"
        if self.contraction is not None:
            contrib_src = self._emit_contraction(access)
        else:
            contrib_src = self._value(contrib)
            if not self._vary_of(contrib):
                raise EngineError(
                    "engine: internal error — scalar reduction contribution "
                    "should have bailed out during analysis"
                )
            axes = tuple(sorted(self.reduced))
            contrib_src = f"{contrib_src}.sum(axis={axes})"
            # Remaining axes are the kept band ivs in band order; align
            # them to the store's subscript order.
            kept = [b for b in range(self.rank) if b not in self.reduced]
            perm = tuple(kept.index(b) for b in access.sub_order)
            if perm != tuple(range(len(perm))):
                contrib_src = f"{contrib_src}.transpose({perm})"
        ctx.emit(f"{self._view(access)} {sign}= {contrib_src}")

    def _emit_contraction(self, store_access: _Access) -> str:
        leaves, scalars, _internal = self.contraction
        out = loop_labels(store_access.sub_order)
        labels = [
            loop_labels(self.accesses[id(leaf)].sub_order) for leaf in leaves
        ]
        names = [self.raw_views[id(leaf.results[0])] for leaf in leaves]
        src = contraction_src(out, labels, names)
        if scalars:
            factors = " * ".join(self._value(value) for value in scalars)
            src = f"(({factors}) * {src})"
        return src
