"""Raising passes: the complementary direction to progressive lowering.

``-raise-affine-to-affine`` lifts GEMM-shaped loop nests to the
high-level ``affine.matmul`` op *within* the Affine dialect (§V-A);
``-raise-affine-to-linalg`` lifts to the Linalg dialect (§V-B),
optionally followed by the BLAS substitution pass.  Raising tiers
compose as passes: the enumerative fallback is ``-raise-affine-synth``
(``repro.raising``), run after this one in the pass list.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence

from ..analysis.accesses import access_function
from ..dialects import linalg as linalg_d
from ..dialects import std
from ..dialects.affine import AffineForOp, AffineStoreOp, perfect_nest
from ..ir import (
    Context,
    FrozenPatternSet,
    ModuleOp,
    Operation,
    PatternRewriter,
    RewritePattern,
    apply_patterns_greedily,
)
from .compiled import CompiledTactic, compile_tactic
from .contraction import PAPER_CONTRACTIONS, contraction_generic_tdl
from .stats import RaiseStats, RaisingPass
from .tdl.frontend import tdl_to_tds
from .tdl.parser import parse_tdl

# ----------------------------------------------------------------------
# The stock tactics library (all defined in TDL — we eat our own food)
# ----------------------------------------------------------------------

GEMM_TDL = "def GEMM { pattern = builder C(i, j) += A(i, k) * B(k, j) }"

MATVEC_TDL = "def MATVEC { pattern = builder y(i) += A(i, j) * x(j) }"

#: y(j) += A(i, j) * x(i): A used transposed (CBLAS trans parameter).
MATVEC_T_TDL = "def MATVEC_T { pattern = builder y(j) += A(i, j) * x(i) }"

CONV2D_TDL = (
    "def CONV2D { pattern = builder "
    "O(b, f, y, x) += I(b, c, y + kh, x + kw) * K(f, c, kh, kw) }"
)


def compile_tdl(source: str) -> List[CompiledTactic]:
    """TDL text -> TDS records -> compiled tactics (the full Figure 3
    pipeline)."""
    return [compile_tactic(tdl_to_tds(t)) for t in parse_tdl(source)]


_DEFAULT_TACTICS_CACHE: Optional[List[CompiledTactic]] = None


def default_linalg_tactics() -> List[CompiledTactic]:
    """Tactics for the Affine-to-Linalg raising path: named ops plus
    one tactic per paper contraction benchmark, which raises it to one
    ``linalg.generic`` (``-linalg-contraction-ttgt`` gives it the TTGT
    layout where a backend needs one).

    Compiled tactics are stateless between matches, so the library is
    built once per process (like the C++ flow, where TableGen output is
    compiled ahead of time).
    """
    global _DEFAULT_TACTICS_CACHE
    if _DEFAULT_TACTICS_CACHE is None:
        sources = [GEMM_TDL, MATVEC_TDL, MATVEC_T_TDL, CONV2D_TDL]
        sources += [
            contraction_generic_tdl(spec) for spec in PAPER_CONTRACTIONS
        ]
        tactics: List[CompiledTactic] = []
        for source in sources:
            tactics.extend(compile_tdl(source))
        _DEFAULT_TACTICS_CACHE = tactics
    return list(_DEFAULT_TACTICS_CACHE)


def gemm_tactic() -> CompiledTactic:
    return compile_tdl(GEMM_TDL)[0]


# ----------------------------------------------------------------------
# Rewrite patterns
# ----------------------------------------------------------------------


class TacticRewritePattern(RewritePattern):
    """Hooks a compiled tactic into the MLIR-style pattern rewriter;
    every matcher invocation goes to ``count_match`` (a
    :meth:`TacticPass.count_match`)."""

    root_op_name = "affine.for"

    def __init__(
        self,
        tactic: CompiledTactic,
        count_match: Callable[[str, str], None],
        target: str = "linalg",
        library: str = "mkl-dnn",
    ):
        self.tactic = tactic
        self.count_match = count_match
        self.target = target
        self.library = library
        # Deeper patterns first: a contraction band must be claimed by
        # its contraction tactic, not a shallower pattern.
        self.benefit = tactic.num_loops

    @property
    def pattern_name(self) -> str:
        return self.tactic.name

    def match_and_rewrite(self, op: Operation, rewriter: PatternRewriter) -> bool:
        result, reason = self.tactic.match_explain(op)
        self.count_match(self.tactic.name, reason)
        if result is None:
            return False
        from .builders import apply_builders

        apply_builders(
            self.tactic.record,
            result,
            self.target,
            self.library,
            rewriter=rewriter,
        )
        return True


class FillRaisingPattern(RewritePattern):
    """Raise constant-initialization nests to ``linalg.fill``.

    TDL cannot express scalar constants, so this complementary pattern
    is hand-written against the matcher API — it recognizes a perfect
    band whose only payload is ``store const -> T[ivs]`` covering every
    band IV exactly once.
    """

    root_op_name = "affine.for"
    benefit = 0  # after all tactics

    def __init__(self, count_match: Callable[[str, str], None]):
        self.count_match = count_match

    def _bail(self, reason: str = "pattern-mismatch") -> bool:
        self.count_match("FILL", reason)
        return False

    def match_and_rewrite(self, op: Operation, rewriter: PatternRewriter) -> bool:
        if not isinstance(op, AffineForOp):
            return self._bail()
        parent = op.parent_op
        if isinstance(parent, AffineForOp) and len(parent.ops_in_body()) == 1:
            return self._bail("inner-loop-root")
        band = perfect_nest(op)
        payload = band[-1].ops_in_body()
        if len(payload) != 2:
            return self._bail("body-shape")
        const_op, store_op = payload
        if not isinstance(const_op, std.ConstantOp) or not isinstance(
            store_op, AffineStoreOp
        ):
            return self._bail("body-shape")
        if store_op.value is not const_op.result:
            return self._bail("structure-mismatch")
        access = access_function(store_op)
        if access is None:
            return self._bail("structure-mismatch")
        band_ivs = [loop.induction_var for loop in band]
        if len(access.subscripts) != len(band_ivs):
            return self._bail("structure-mismatch")
        seen = set()
        for sub in access.subscripts:
            single = None
            if len(sub.coeffs) == 1 and sub.constant == 0:
                ((iv, coeff),) = sub.coeffs.items()
                if coeff == 1:
                    single = iv
            if single is None or id(single) in seen:
                return self._bail("iv-binding")
            if not any(single is iv for iv in band_ivs):
                return self._bail("iv-binding")
            seen.add(id(single))
        # Bounds must cover the full memref.
        memref = store_op.memref
        for loop in band:
            if loop.constant_lower_bound() != 0:
                return self._bail("non-constant-trip")
        extents = {}
        for sub, dim_size in zip(access.subscripts, memref.type.shape):
            ((iv, _),) = sub.coeffs.items()
            loop = iv.owner.parent_op
            if loop.constant_trip_count() != dim_size:
                return self._bail("non-constant-trip")
        rewriter.set_insertion_point_before(op)
        new_const = rewriter.insert(
            std.ConstantOp.create(const_op.value, memref.type.element_type)
        )
        rewriter.insert(linalg_d.FillOp.create(new_const.result, memref))
        rewriter.erase_nest(band[0])
        self.count_match("FILL", "matched")
        return True


# ----------------------------------------------------------------------
# Passes
# ----------------------------------------------------------------------


class TacticPass(RaisingPass):
    """A TDL raising tier: one frozen pattern set applied greedily per
    function."""

    tier = "tdl"
    _frozen: Optional[FrozenPatternSet] = None

    def count_match(self, tactic: str, outcome: str) -> None:
        """One matcher invocation: ``outcome`` is ``"matched"`` or a
        :data:`~.stats.TDL_BAIL_REASONS` key.  Increments in place (the
        TDL hot path); ``counters`` is looked up per call, since
        ``run_counted`` swaps it per function."""
        outcomes = self.counters.setdefault(tactic, {})
        outcomes[outcome] = outcomes.get(outcome, 0) + 1

    def run_on_function(self, func, context: Context):
        result = apply_patterns_greedily(func, self._frozen)
        self.rewrite_results.append(result)
        return result.changed


class RaiseAffineToAffinePass(TacticPass):
    """-raise-affine-to-affine: GEMM loop nests -> affine.matmul."""

    name = "raise-affine-to-affine"

    def prepare(self, module: ModuleOp, context: Context) -> None:
        # Freeze the pattern set once per pass *object*, not once per
        # run (let alone per function): the index only depends on the
        # pattern list, which is fixed at construction.  (The frozen
        # set is driver-independent — both drivers consume the same
        # benefit-ordered buckets.)
        if self._frozen is None:
            self._frozen = FrozenPatternSet(
                [
                    TacticRewritePattern(
                        gemm_tactic(), self.count_match, target="affine"
                    )
                ]
            )


class RaiseAffineToLinalgPass(TacticPass):
    """-raise-affine-to-linalg: loop nests -> Linalg named ops (the TDL
    tier; ``-raise-affine-synth`` after it is the fallback tier)."""

    name = "raise-affine-to-linalg"

    def __init__(
        self,
        tactics: Optional[Sequence[CompiledTactic]] = None,
        raise_fills: bool = True,
    ):
        self.tactics = list(tactics) if tactics is not None else None
        self.raise_fills = raise_fills

    def cache_config(self) -> str:
        tactic_names = (
            "default"
            if self.tactics is None
            else ",".join(getattr(t, "name", repr(t)) for t in self.tactics)
        )
        return f"fills={self.raise_fills};tactics={tactic_names}"

    def prepare(self, module: ModuleOp, context: Context) -> None:
        # The pattern set depends only on constructor configuration, so
        # freeze (and bucket-index) it once per pass object instead of
        # once per run.
        if self._frozen is not None:
            return
        tactics = (
            self.tactics if self.tactics is not None else default_linalg_tactics()
        )
        patterns: List[RewritePattern] = [
            TacticRewritePattern(t, self.count_match, target="linalg")
            for t in tactics
        ]
        if self.raise_fills:
            patterns.append(FillRaisingPattern(self.count_match))
        self._frozen = FrozenPatternSet(patterns)


# ----------------------------------------------------------------------
# Convenience wrappers
# ----------------------------------------------------------------------


def raise_affine_to_affine(module: ModuleOp) -> RaiseStats:
    pass_ = RaiseAffineToAffinePass()
    pass_.run(module, Context())
    return pass_.stats


def raise_affine_to_linalg(
    module: ModuleOp,
    tactics: Optional[Sequence[CompiledTactic]] = None,
    raise_fills: bool = True,
) -> RaiseStats:
    pass_ = RaiseAffineToLinalgPass(tactics, raise_fills)
    pass_.run(module, Context())
    return pass_.stats
