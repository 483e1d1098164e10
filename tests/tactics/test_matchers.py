"""Matcher library: op matchers, access placeholders, structural."""

import pytest

from repro.dialects import std
from repro.dialects.affine import (
    AffineForOp,
    AffineLoadOp,
    AffineStoreOp,
    innermost_loops,
    outermost_loops,
)
from repro.ir import f32

from .matchers import (
    AccessPatternContext,
    For,
    NestedPatternContext,
    m_Any,
    m_Capt,
    m_ArrayPlaceholder,
    m_Op,
    m_Placeholder,
    match_block_accesses,
)
from .matchers.access import MatchFailure
from ..conftest import build_gemm_module


def _gemm_ops():
    module = build_gemm_module()
    func = module.functions[0]
    inner = innermost_loops(func)[0]
    ops = {op.name: op for op in inner.ops_in_body()}
    return module, func, inner, ops


class TestOpMatchers:
    def test_match_by_class(self):
        _, _, _, ops = _gemm_ops()
        assert m_Op(std.AddFOp).match(ops["std.addf"])
        assert not m_Op(std.AddFOp).match(ops["std.mulf"])

    def test_match_by_name(self):
        _, _, _, ops = _gemm_ops()
        assert m_Op("std.mulf").match(ops["std.mulf"])

    def test_mac_pattern(self):
        _, _, _, ops = _gemm_ops()
        mac = m_Op(std.AddFOp, m_Any(), m_Op(std.MulFOp, m_Any(), m_Any()))
        assert mac.match(ops["std.addf"])

    def test_commutative_retry(self):
        # gemm body is add(mul, load); pattern written add(load, mul)
        _, _, _, ops = _gemm_ops()
        mac = m_Op(
            std.AddFOp, m_Op(AffineLoadOp), m_Op(std.MulFOp, m_Any(), m_Any())
        )
        assert mac.match(ops["std.addf"])

    def test_capture_binds_value(self):
        _, _, _, ops = _gemm_ops()
        a, b = m_Capt("a"), m_Capt("b")
        mul = m_Op(std.MulFOp, a, b)
        assert mul.match(ops["std.mulf"])
        assert a.get().type == f32
        assert b.get() is not a.get()

    def test_capture_unbound_raises(self):
        c = m_Capt("x")
        with pytest.raises(ValueError):
            c.get()

    def test_failed_match_no_commit(self):
        _, _, _, ops = _gemm_ops()
        c = m_Capt("v")
        bad = m_Op(std.SubFOp, c, c)
        assert not bad.match(ops["std.addf"])
        assert c.value is None

    def test_nested_depth(self):
        _, _, _, ops = _gemm_ops()
        deep = m_Op(
            std.AddFOp,
            m_Op(std.MulFOp, m_Op(AffineLoadOp), m_Op(AffineLoadOp)),
            m_Op(AffineLoadOp),
        )
        assert deep.match(ops["std.addf"])


class TestAccessMatchers:
    def test_placeholder_requires_context(self):
        with pytest.raises(MatchFailure):
            m_Placeholder()

    def test_simple_load_pattern(self):
        _, _, _, ops = _gemm_ops()
        loads = [o for o in ops.values() if isinstance(o, AffineLoadOp)]
        with AccessPatternContext() as pctx:
            _i, _j = m_Placeholder(), m_Placeholder()
            _A = m_ArrayPlaceholder()
            matcher = m_Op(AffineLoadOp, _A(_i, _j))
            assert matcher.match(loads[0])
            assert pctx[_i] is not None
            assert pctx[_A] is loads[0].memref

    def test_same_placeholder_same_candidate(self):
        module, func, inner, ops = _gemm_ops()
        store = ops["affine.store"]
        with AccessPatternContext() as pctx:
            _i = m_Placeholder()
            _C = m_ArrayPlaceholder()
            # C[i, i] would require both subscripts to be the same IV
            assert not _C(_i, _i).match_access(store)

    def test_distinct_placeholders_distinct_candidates(self):
        _, _, _, ops = _gemm_ops()
        store = ops["affine.store"]
        with AccessPatternContext() as pctx:
            _i, _j = m_Placeholder(), m_Placeholder()
            _C = m_ArrayPlaceholder()
            assert _C(_i, _j).match_access(store)
            assert pctx[_i] is not pctx[_j]

    def test_distinct_arrays_distinct_memrefs(self):
        _, _, _, ops = _gemm_ops()
        loads = [o for o in ops.values() if isinstance(o, AffineLoadOp)]
        with AccessPatternContext() as pctx:
            _i, _j, _k = m_Placeholder(), m_Placeholder(), m_Placeholder()
            _A, _B = m_ArrayPlaceholder(), m_ArrayPlaceholder()
            assert m_Op(AffineLoadOp, _A(_i, _j)).match(loads[0])
            # _B must not bind the same memref as _A
            assert not _B(_i, _j).match_access(loads[0])

    def test_coefficient_pattern(self):
        from repro.met import compile_c

        module = compile_c(
            """
            void f(float A[64][64]) {
              for (int i = 0; i < 31; i++)
                for (int j = 0; j < 10; j++)
                  A[2 * i + 1, j] = A[2*i+1][j+5];
            }
            """.replace("A[2 * i + 1, j]", "A[2*i+1][j]"),
            distribute=False,
        )
        load = next(op for op in module.walk() if isinstance(op, AffineLoadOp))
        with AccessPatternContext() as pctx:
            _i, _j = m_Placeholder(), m_Placeholder()
            _A = m_ArrayPlaceholder()
            matcher = m_Op(AffineLoadOp, _A(2 * _i + 1, _j + 5))
            assert matcher.match(load)

    def test_wrong_coefficient_fails(self):
        _, _, _, ops = _gemm_ops()
        loads = [o for o in ops.values() if isinstance(o, AffineLoadOp)]
        with AccessPatternContext():
            _i, _j = m_Placeholder(), m_Placeholder()
            _A = m_ArrayPlaceholder()
            assert not m_Op(AffineLoadOp, _A(2 * _i, _j)).match(loads[0])

    def test_rank_mismatch_fails(self):
        _, _, _, ops = _gemm_ops()
        loads = [o for o in ops.values() if isinstance(o, AffineLoadOp)]
        with AccessPatternContext():
            _i = m_Placeholder()
            _A = m_ArrayPlaceholder()
            assert not m_Op(AffineLoadOp, _A(_i)).match(loads[0])

    def test_placeholder_sum(self):
        from repro.met import compile_c

        module = compile_c(
            """
            void f(float A[8][8], float O[6][6]) {
              for (int y = 0; y < 6; y++)
                for (int x = 0; x < 6; x++)
                  for (int p = 0; p < 3; p++)
                    O[y][x] += A[y + p][x] * A[y][x];
            }
            """,
            distribute=False,
        )
        loads = [op for op in module.walk() if isinstance(op, AffineLoadOp)]
        with AccessPatternContext() as pctx:
            _y, _x, _p = m_Placeholder(), m_Placeholder(), m_Placeholder()
            _A = m_ArrayPlaceholder()
            matcher = m_Op(AffineLoadOp, _A(_y + _p, _x))
            assert matcher.match(loads[0])
            assert pctx[_y] is not pctx[_p]

    def test_block_matching_procedure(self):
        module, func, inner, ops = _gemm_ops()
        with AccessPatternContext() as pctx:
            _i, _j, _k = m_Placeholder(), m_Placeholder(), m_Placeholder()
            _C = m_ArrayPlaceholder()
            _A = m_ArrayPlaceholder()
            _B = m_ArrayPlaceholder()
            store = _C(_i, _j)
            body = m_Op(
                std.AddFOp,
                m_Op(AffineLoadOp, _C(_i, _j)),
                m_Op(std.MulFOp,
                     m_Op(AffineLoadOp, _A(_i, _k)),
                     m_Op(AffineLoadOp, _B(_k, _j))),
            )
            assert match_block_accesses(inner.body, store, body)
            assert pctx.num_assigned == 3


class TestStructuralMatchers:
    def test_requires_context(self):
        from repro.ir import IRError

        with pytest.raises(IRError):
            For()

    def test_depth_matching(self):
        module, func, _, _ = _gemm_ops()
        root = outermost_loops(func)[0]
        with NestedPatternContext():
            assert For(For(For())).match(root)
            assert not For(For()).match(root)
            assert not For(For(For(For()))).match(root)

    def test_callback_invoked(self):
        module, func, _, _ = _gemm_ops()
        root = outermost_loops(func)[0]
        seen = []

        def is_mac(body):
            seen.append(body)
            return any(op.name == "std.addf" for op in body.operations)

        with NestedPatternContext():
            assert For(For(For(is_mac))).match(root)
        assert len(seen) == 1

    def test_callback_rejection_propagates(self):
        module, func, _, _ = _gemm_ops()
        root = outermost_loops(func)[0]
        with NestedPatternContext():
            assert not For(For(For(lambda body: False))).match(root)

    def test_match_anywhere(self):
        module, func, _, _ = _gemm_ops()
        with NestedPatternContext():
            matcher = For(For(For()))
            hits = matcher.match_anywhere(module)
        assert len(hits) == 1

    def test_imperfect_nest_rejected(self):
        from repro.met import compile_c

        module = compile_c(
            """
            void f(float A[4][4]) {
              for (int i = 0; i < 4; i++) {
                A[i][0] = 0.0f;
                for (int j = 0; j < 4; j++)
                  A[i][j] = 1.0f;
              }
            }
            """,
            distribute=False,
        )
        root = outermost_loops(module.functions[0])[0]
        with NestedPatternContext():
            assert not For(For()).match(root)

    def test_depth_accessor(self):
        with NestedPatternContext():
            assert For(For(For())).depth() == 3
