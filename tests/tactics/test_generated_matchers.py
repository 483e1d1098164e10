"""The generated matchers agree with the combinator oracle.

A compiled tactic runs the straight-line function the TableGen backend
emits.  On random perfect nests near each tactic's pattern — random
depth, loop order and bounds, body op mixes, subscripts with
coefficients, constants and sums, aliased loop variables and tensors —
it must return the oracle's reason and, on a match, the same band,
``iv_of``, ``extent_of`` and ``memref_of``.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dialects.affine import AffineForOp
from repro.met import compile_c
from repro.tactics import contraction_tactic_tdl, ttgt_plans
from repro.tactics.raising import compile_tdl, default_linalg_tactics
from repro.tactics.tdl.ast import TdlIndexExpr

from .combinator_oracle import oracle_match_explain
from .test_contraction_chain import contraction_specs

#: Patterns the default library does not use: a copy, coefficients and
#: constants, a three-term sum, and constant subscripts.
SHAPE_TACTICS = compile_tdl(
    """
    def COPY { pattern = builder B(j, i) = A(i, j) }
    def STRIDED {
      pattern C(i, j) += A(2*i + 1, k) * B(k, j - 1)
      builder C(i, j) += A(i, k) * B(k, j)
    }
    def SHIFTED {
      pattern O(y) += I(y + 2*kh + w + 1) * K(kh, w)
      builder O(y) += I(y, kh) * K(kh)
    }
    def CONSTANT {
      pattern C(i, 0) += A(i, k) * B(k, 1)
      builder C(i, j) += A(i, k) * B(k, j)
    }
    """
)

#: Loop variables a mutation may add; no tactic uses them.
_EXTRA_VARS = ["p", "q"]

#: A mutation's coin: false in the simplest example.
_sometimes = st.sampled_from([False, False, True])


@st.composite
def tactics_and_nest(draw):
    """Every tactic to compare (the defaults, the shape tactics and one
    random TTGT plan) and C source of a nest near one of them."""
    spec = draw(contraction_specs())
    plan = draw(st.sampled_from(ttgt_plans(spec)))
    (ttgt,) = compile_tdl(contraction_tactic_tdl(spec, name="RANDOM", plan=plan))
    tactics = default_linalg_tactics() + SHAPE_TACTICS + [ttgt]
    base = draw(st.sampled_from(tactics))
    return tactics, _nest_near(draw, base.pattern)


def _nest_near(draw, pattern):
    loop_vars = pattern.index_vars()
    accesses = [pattern.lhs, *pattern.rhs]
    subscripts = {
        id(access): [list(idx.terms) + [("", idx.constant)] for idx in access.indices]
        for access in accesses
    }
    tensors = {id(access): access.tensor for access in accesses}

    # A loop around the band, perfect or not, whose variable subscripts
    # may name: a fresh one, or a pattern variable moved out of the band.
    wrap = draw(st.sampled_from([None] * 4 + ["perfect", "imperfect"]))
    outer = "t"
    band = list(loop_vars)
    change = draw(st.sampled_from(["keep"] * 9 + ["drop", "add", "replace"]))
    if change in ("drop", "replace") and len(band) > 1:
        outer = draw(st.sampled_from(band))
        band.remove(outer)
        wrap = wrap or "imperfect"
    if change in ("add", "replace"):
        band.append(draw(st.sampled_from(_EXTRA_VARS)))
    band = draw(st.permutations(band[:7]))
    names = band + ([outer] if wrap else [])

    # Aliasing: one variable renamed to another everywhere, one tensor
    # renamed to another of its rank.
    if draw(_sometimes) and len(loop_vars) > 1:
        old, new = draw(st.permutations(loop_vars))[:2]
        for subs in subscripts.values():
            for terms in subs:
                terms[:] = [(new if v == old else v, c) for v, c in terms]
    if draw(_sometimes):
        a, b = draw(st.permutations(accesses))[:2]
        if a.rank == b.rank:
            for access in accesses:
                if tensors[id(access)] == a.tensor:
                    tensors[id(access)] = b.tensor

    # Subscript mutations: another variable, a coefficient, an offset,
    # an extra term.
    all_terms = [terms for subs in subscripts.values() for terms in subs]
    for _ in range(draw(st.sampled_from([0, 0, 0, 1, 2]))):
        terms = draw(st.sampled_from(all_terms))
        kind = draw(st.sampled_from(["var", "coeff", "const", "term"]))
        var = draw(st.sampled_from(names))
        if kind == "var" and len(terms) > 1:
            terms[0] = (var, terms[0][1])
        elif kind == "coeff" and len(terms) > 1:
            terms[0] = (terms[0][0], 2 * terms[0][1])
        elif kind == "const":
            terms[-1] = ("", terms[-1][1] + 1)
        elif kind == "term":
            terms.insert(0, (var, 1))

    dims = {v: draw(st.integers(2, 3)) for v in names + loop_vars}
    dims[outer] = 3
    loops = []
    odd = draw(st.sampled_from([None] * 2 * len(band) + band))
    for var in band:
        bound = "full"
        if var == odd:
            bound = draw(st.sampled_from(["lb", "step", "short", "n"]))
        lb, ub, step = 0, dims[var], 1
        if bound == "lb":
            lb = 1
        elif bound == "step":
            step = 2
        elif bound == "short":
            ub -= 1
        ub = "n" if bound == "n" else ub
        loops.append(f"for (int {var} = {lb}; {var} < {ub}; {var} += {step})")

    def render(access):
        parts = []
        for terms in subscripts[id(access)]:
            text = [v if c == 1 else f"{c} * {v}" for v, c in terms if v and c]
            constant = terms[-1][1]
            if constant or not text:
                text.append(str(constant))
            parts.append(f"[{' + '.join(text)}]")
        return tensors[id(access)] + "".join(parts)

    lhs = render(pattern.lhs)
    rhs = [render(access) for access in pattern.rhs]
    product = " * ".join(rhs)
    shape = draw(st.sampled_from(
        ["pattern"] * 6 + ["swapped", "sub", "first", "extra", "copy"]
    ))
    if shape == "swapped" and len(rhs) == 2:
        body = f"{lhs} = {rhs[1]} * {rhs[0]} + {lhs};"
    elif shape == "sub":
        body = f"{lhs} -= {product};"
    elif shape == "first":
        body = f"{lhs} += {rhs[0]};"
    elif shape == "extra":
        body = f"{lhs} += {product} * {rhs[0]};"
    elif shape == "copy":
        body = f"{lhs} = {rhs[0]};"
    else:
        body = f"{lhs} {pattern.op} {product};"

    # Each dimension holds the values its subscripts take over the full
    # loop ranges, sometimes with a margin.
    shapes = {}
    for access in accesses:
        tensor = tensors[id(access)]
        shape = [
            max(1, terms[-1][1] + 1 + sum(c * (dims[v] - 1) for v, c in terms if v))
            + draw(st.sampled_from([0] * 5 + [1]))
            for terms in subscripts[id(access)]
        ]
        shapes[tensor] = [max(d) for d in zip(shape, shapes.get(tensor, shape))]
    params = [
        f"float {tensor}" + "".join(f"[{d}]" for d in shape)
        for tensor, shape in shapes.items()
    ]
    if wrap:
        params.append("float Z[4]")
    params.append("int n")
    nest = " ".join(loops) + " " + body
    if wrap:
        init = "Z[0] = 0.0; " if wrap == "imperfect" else ""
        nest = f"for (int {outer} = 0; {outer} < 3; {outer}++) {{ {init}{nest} }}"
    return f"void kernel({', '.join(params)}) {{ {nest} }}"


def _same(got, want):
    (result, reason), (expected, expected_reason) = got, want
    if reason != expected_reason or (result is None) != (expected is None):
        return False
    if result is None:
        return True
    return (
        result.band == expected.band
        and result.iv_of == expected.iv_of
        and result.extent_of == expected.extent_of
        and result.memref_of == expected.memref_of
    )


class TestGeneratedMatchersAgreeWithTheOracle:
    @given(tactics_and_nest())
    @settings(max_examples=150, deadline=None)
    def test_same_reason_and_match_on_random_nests(self, case):
        tactics, source = case
        module = compile_c(source, distribute=False)
        roots = [op for op in module.walk() if isinstance(op, AffineForOp)]
        for tactic in tactics:
            for root in roots:
                got = tactic.match_explain(root)
                want = oracle_match_explain(tactic, root)
                assert _same(got, want), (tactic.name, source, got, want)

    def test_every_default_tactic_matches_its_own_pattern(self):
        # The generator's unmutated nest of each tactic is a match, so
        # the property compares matches, not only bails.
        for tactic in default_linalg_tactics():
            pattern = tactic.pattern
            dims = {v: 2 + i % 2 for i, v in enumerate(pattern.index_vars())}

            def ref(access):
                subs = []
                for idx in access.indices:
                    subs.append(" + ".join(v for v, _ in idx.terms))
                return access.tensor + "".join(f"[{s}]" for s in subs)

            def extent(idx: TdlIndexExpr):
                return sum(dims[v] - 1 for v, _ in idx.terms) + 1

            params = ", ".join(
                f"float {a.tensor}" + "".join(f"[{extent(i)}]" for i in a.indices)
                for a in [pattern.lhs, *pattern.rhs]
            )
            loops = " ".join(
                f"for (int {v} = 0; {v} < {dims[v]}; {v}++)" for v in dims
            )
            rhs = " * ".join(ref(a) for a in pattern.rhs)
            source = (
                f"void kernel({params}) {{ {loops} {ref(pattern.lhs)} += {rhs}; }}"
            )
            root = next(
                op for op in compile_c(source).walk() if isinstance(op, AffineForOp)
            )
            result, reason = tactic.match_explain(root)
            assert reason == "matched", (tactic.name, source, reason)
            assert _same((result, reason), oracle_match_explain(tactic, root))
