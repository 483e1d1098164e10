"""TTGT contraction planning and matrix-chain reordering."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.execution import Interpreter
from repro.ir import Context, verify
from repro.met import compile_c
from repro.raising.equivalence import RTOL
from repro.tactics import (
    contraction_tactic_tdl,
    raise_affine_to_linalg,
    reorder_matrix_chains,
    ttgt_plan,
    ttgt_plans,
)
from repro.tactics.chain import (
    chain_multiplications,
    find_matrix_chains,
    left_associative_tree,
    optimal_parenthesization,
    parenthesization_str,
)
from repro.tactics.contraction import (
    PAPER_CONTRACTIONS,
    TTGTPlan,
    parse_contraction_spec,
    transposing_copies,
)
from repro.tactics.raising import compile_tdl
from repro.tactics.tdl.ast import TdlSyntaxError
from repro.evaluation.kernels import (
    contraction_source,
    matrix_chain_source,
)

from ..conftest import assert_close, random_arrays


class TestTTGTPlan:
    def test_listing_example(self):
        plan = ttgt_plan("abc-acd-db")
        assert plan.m_group == ["a", "c"]
        assert plan.n_group == ["b"]
        assert plan.k_group == ["d"]

    def test_four_index(self):
        plan = ttgt_plan("abcd-aebf-dfce")
        assert set(plan.k_group) == {"e", "f"}
        assert sorted(plan.m_group + plan.n_group) == ["a", "b", "c", "d"]

    def test_no_contracted_index_rejected(self):
        with pytest.raises(TdlSyntaxError):
            ttgt_plan("ab-ax-by".replace("x", "a"))  # degenerate

    def test_bad_spec_format(self):
        with pytest.raises(TdlSyntaxError):
            ttgt_plan("ab-cd")

    def test_repeated_index_rejected(self):
        with pytest.raises(TdlSyntaxError):
            ttgt_plan("ab-aad-db")

    def test_all_paper_contractions_plan(self):
        for spec in PAPER_CONTRACTIONS:
            plan = ttgt_plan(spec)
            assert plan.k_group

    def test_tdl_generation_parses(self):
        from repro.tactics import parse_tdl

        for spec in PAPER_CONTRACTIONS:
            (tactic,) = parse_tdl(contraction_tactic_tdl(spec))
            assert tactic.builders


#: (|M|, |N|, |K|) with every tensor of rank <= 4.
_GROUP_SIZES = [
    (m, n, k)
    for m, n, k in itertools.product(range(1, 4), repeat=3)
    if max(m + n, m + k, k + n) <= 4
]


@st.composite
def contraction_specs(draw):
    """A valid ``out-A-B`` spec of rank <= 4 per tensor: every index in
    exactly two of C, A, B, and M, N, K each non-empty."""
    m, n, k = draw(st.sampled_from(_GROUP_SIZES))
    names = iter("abcdef")
    m_idx, n_idx, k_idx = (
        [next(names) for _ in range(size)] for size in (m, n, k)
    )
    out, a, b = (
        draw(st.permutations(indices))
        for indices in (m_idx + n_idx, m_idx + k_idx, k_idx + n_idx)
    )
    return "-".join("".join(indices) for indices in (out, a, b))


def _legacy_plan(spec):
    """M in A order, N in B order, K in A order."""
    out, a, b = parse_contraction_spec(spec)
    return TTGTPlan(
        out, a, b,
        [v for v in a if v in out],
        [v for v in b if v in out],
        [v for v in a if v in b],
    )


class TestEveryTTGTPlan:
    @given(contraction_specs())
    @settings(deadline=None)
    def test_every_plan_raises_to_the_same_values(self, spec):
        out_idx, a_idx, b_idx = parse_contraction_spec(spec)
        sizes = {v: 2 + i % 3 for i, v in enumerate("abcdef")}
        src = contraction_source(spec, sizes)
        shape = lambda idx: tuple(sizes[v] for v in idx)
        a, b = random_arrays(3, shape(a_idx), shape(b_idx))
        expected = np.zeros(shape(out_idx), np.float32)
        Interpreter(compile_c(src)).run("contraction", a, b, expected)
        plans = ttgt_plans(spec)
        assert len(plans) == 8
        for tdl in {contraction_tactic_tdl(spec, plan=p) for p in plans}:
            raised = compile_c(src)
            stats = raise_affine_to_linalg(raised, tactics=compile_tdl(tdl))
            assert stats.total == 1, tdl
            verify(raised, Context())
            got = np.zeros(shape(out_idx), np.float32)
            Interpreter(raised).run("contraction", a, b, got)
            assert_close(expected, got, rtol=RTOL)

    @given(contraction_specs())
    def test_the_plan_has_the_fewest_copies_and_ties_keep_the_legacy_plan(
        self, spec
    ):
        plan = ttgt_plan(spec)
        fewest = min(map(transposing_copies, ttgt_plans(spec)))
        assert transposing_copies(plan) == fewest
        legacy = _legacy_plan(spec)
        assert legacy in ttgt_plans(spec)
        if transposing_copies(legacy) == fewest:
            assert plan == legacy

    @pytest.mark.parametrize(
        "spec, copies",
        [("abc-bda-dc", (3, 1)), ("ab-cad-dcb", (2, 1)),
         ("abcd-aebf-dfce", (4, 2)), ("abc-acd-db", (2, 2))],
    )
    def test_paper_contractions_drop_their_avoidable_copies(self, spec, copies):
        assert (transposing_copies(_legacy_plan(spec)),
                transposing_copies(ttgt_plan(spec))) == copies

    def test_an_operand_without_a_free_index_is_rejected(self):
        with pytest.raises(TdlSyntaxError, match="no free index"):
            ttgt_plan("a-abc-bc")


@pytest.mark.parametrize("spec", PAPER_CONTRACTIONS)
def test_contraction_raising_preserves_semantics(spec):
    """Every paper contraction: raise via TTGT, compare numerics."""
    from repro.evaluation.kernels import _contraction_spec_sizes_small

    sizes = _contraction_spec_sizes_small(spec)
    src = contraction_source(spec, sizes)
    ref = compile_c(src)
    raised = compile_c(src)
    stats = raise_affine_to_linalg(raised)
    assert stats.total == 1, f"{spec} not raised"
    verify(raised, Context())

    out_idx, a_idx, b_idx = parse_contraction_spec(spec)
    shape = lambda idx: tuple(sizes[v] for v in idx)
    a, b = random_arrays(3, shape(a_idx), shape(b_idx))
    c1 = np.zeros(shape(out_idx), np.float32)
    c2 = np.zeros(shape(out_idx), np.float32)
    Interpreter(ref).run("contraction", a, b, c1)
    Interpreter(raised).run("contraction", a, b, c2)
    assert_close(c1, c2, rtol=1e-3)


class TestChainDP:
    def test_cormen_textbook_example(self):
        # CLRS: dims (30,35,15,5,10,20,25) -> 15125 multiplications
        cost, tree = optimal_parenthesization([30, 35, 15, 5, 10, 20, 25])
        assert cost == 15125

    def test_paper_three_matrix_example(self):
        # §V-C: (A1(A2 A3)) needs 2.2e8, ((A1 A2)A3) needs 1.152e9
        dims = [800, 1100, 1200, 100]
        cost, tree = optimal_parenthesization(dims)
        assert cost == 220_000_000
        assert parenthesization_str(tree) == "(A1x(A2xA3))"
        left = left_associative_tree(3)
        assert chain_multiplications(dims, left) == 1_152_000_000

    def test_single_matrix(self):
        cost, tree = optimal_parenthesization([4, 5])
        assert cost == 0 and tree == 0

    def test_consistency_of_tree_cost(self):
        dims = [10, 20, 5, 30]
        cost, tree = optimal_parenthesization(dims)
        assert chain_multiplications(dims, tree) == cost

    @given(st.lists(st.integers(1, 50), min_size=3, max_size=6))
    @settings(max_examples=40, deadline=None)
    def test_dp_is_optimal_vs_bruteforce(self, dims):
        n = len(dims) - 1
        best, tree = optimal_parenthesization(dims)

        def all_trees(i, j):
            if i == j:
                yield i
                return
            for k in range(i, j):
                for l in all_trees(i, k):
                    for r in all_trees(k + 1, j):
                        yield (l, r)

        brute = min(
            chain_multiplications(dims, t) for t in all_trees(0, n - 1)
        )
        assert best == brute
        assert chain_multiplications(dims, tree) == best


class TestChainRewriting:
    def _raised_chain(self, dims):
        module = compile_c(matrix_chain_source(dims))
        raise_affine_to_linalg(module)
        return module

    def test_detection(self):
        module = self._raised_chain([8, 11, 9, 12, 4])
        chains = find_matrix_chains(module.functions[0])
        assert len(chains) == 1
        assert chains[0].dims == [8, 11, 9, 12, 4]

    def test_reorder_reduces_cost(self):
        dims = [80, 110, 90, 120, 10]
        module = self._raised_chain(dims)
        assert reorder_matrix_chains(module) == 1
        verify(module, Context())

    def test_already_optimal_untouched(self):
        # For these dims the left-associative order is optimal.
        dims = [4, 4, 4, 4]
        module = self._raised_chain(dims)
        assert reorder_matrix_chains(module) == 0

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_reorder_preserves_semantics(self, n):
        dims = [7, 13, 5, 17, 3, 11, 9][: n + 1]
        src = matrix_chain_source(dims)
        ref = compile_c(src)
        opt = compile_c(src)
        raise_affine_to_linalg(opt)
        reorder_matrix_chains(opt)
        verify(opt, Context())
        mats = random_arrays(
            n, *[(dims[i], dims[i + 1]) for i in range(n)]
        )
        r1 = np.zeros((dims[0], dims[n]), np.float32)
        r2 = np.zeros((dims[0], dims[n]), np.float32)
        Interpreter(ref).run("chain", *mats, r1)
        Interpreter(opt).run("chain", *[m.copy() for m in mats], r2)
        assert_close(r1, r2, rtol=1e-3)

    def test_dead_temporaries_cleaned(self):
        dims = [80, 110, 90, 120, 10]
        module = self._raised_chain(dims)
        reorder_matrix_chains(module)
        func = module.functions[0]
        for op in func.walk():
            if op.name == "std.alloc":
                assert op.results[0].is_used()
