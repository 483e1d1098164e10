"""The I/O-equivalence oracle: accepted candidates must agree with the
original nest on inputs the checker never saw, across every operand
permutation of a contraction."""

from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dialects.affine import AffineForOp
from repro.fuzzing.generators import generate_kernel
from repro.ir import IRError, verify
from repro.met import compile_c
from repro.raising import (
    EquivalenceChecker,
    enumerate_candidates,
    raise_with_synthesis,
    summarize_nest,
)
from repro.raising.equivalence import build_candidate_module

from .test_synth_pass import TRANSPOSED

GEMM = """
void kernel(float A[3][4], float B[4][5], float C[3][5]) {
  for (int i = 0; i < 3; i++)
    for (int j = 0; j < 5; j++)
      for (int k = 0; k < 4; k++)
        C[i][j] += A[i][k] * B[k][j];
}
"""

SYNTH_FAMILIES = [
    "matmul",
    "matmul-transposed",
    "matmul-subtract",
    "matmul-permuted-output",
    "matvec",
    "dot",
]


#: Every extent equal: a wrongly indexed operand is shape-plausible.
SQUARE_GEMM = (
    GEMM.replace("A[3][4]", "A[4][4]")
    .replace("B[4][5]", "B[4][4]")
    .replace("C[3][5]", "C[4][4]")
    .replace("< 3", "< 4")
    .replace("< 5", "< 4")
)


def _gemm_summary(source=GEMM):
    module = compile_c(source, distribute=False)
    func = module.lookup("kernel")
    root = next(op for op in func.walk() if isinstance(op, AffineForOp))
    summary = summarize_nest(root)
    assert not isinstance(summary, str)
    return summary


def _run_interpreter(module, func_name, arrays):
    from repro.execution.interpreter import Interpreter

    copies = [a.copy() for a in arrays]
    Interpreter(module, max_steps=5_000_000).run(func_name, *copies)
    return copies


def _fresh_inputs(module, func_name, seed):
    """Random float32 inputs for every memref argument — drawn from a
    stream the equivalence checker (seed 0) never used."""
    rng = np.random.default_rng(seed + 0xBEEF)
    func = module.lookup(func_name)
    return [
        (rng.random(tuple(arg.type.shape), dtype=np.float32) - 0.5)
        for arg in func.arguments
    ]


class TestChecker:
    def test_named_matmul_is_accepted(self):
        summary = _gemm_summary()
        candidates, _ = enumerate_candidates(summary)
        checker = EquivalenceChecker(summary)
        assert candidates[0].op_name == "linalg.matmul"
        assert checker.check(candidates[0])

    def test_swapped_operands_are_rejected(self):
        # B @ A is not even shape-valid for this nest; the checker must
        # reject it rather than crash.
        summary = _gemm_summary()
        candidates, _ = enumerate_candidates(summary)
        matmul = candidates[0]
        swapped = type(matmul)(
            kind=matmul.kind,
            op_name=matmul.op_name,
            inputs=(matmul.inputs[1], matmul.inputs[0]),
            output=matmul.output,
        )
        assert not EquivalenceChecker(summary).check(swapped)

    def test_wrong_contraction_maps_are_rejected(self):
        # Every enumerated candidate the checker accepts must agree
        # with the nest; for square gemm the transposed-A contraction
        # (A indexed (k, i)) must be among the rejected ones.
        summary = _gemm_summary(SQUARE_GEMM)
        candidates, _ = enumerate_candidates(summary)
        checker = EquivalenceChecker(summary)
        verdicts = [(c, checker.check(c)) for c in candidates]
        assert any(ok for _, ok in verdicts)
        assert any(not ok for _, ok in verdicts)


    def test_operands_that_disagree_on_an_extent_fail_to_verify(self):
        """``C[i][j] += A[k][i] * B[k][i]`` over the transposed GEMM: B
        is 4x5, so it reads loop i up to 5 where A and C stop at 3.  The
        verifier refuses the candidate, whose domain would otherwise be
        whichever operand came last, so the checker rejects it without
        a trial."""
        module = compile_c(TRANSPOSED, distribute=False)
        root = next(
            op for op in module.walk() if isinstance(op, AffineForOp)
        )
        summary = summarize_nest(root)
        candidates, _ = enumerate_candidates(summary)
        right = next(c for c in candidates if c.inputs == (0, 1))
        (k, i), _, out = right.assignments
        wrong = replace(right, assignments=((k, i), (k, i), out))
        with pytest.raises(IRError, match=r"extent of loop d0 \(3 vs 5\)"):
            verify(build_candidate_module(summary, wrong))
        counts = Counter()
        checker = EquivalenceChecker(summary, lambda **n: counts.update(n))
        trials = counts["trials_run"]
        assert not checker.check(wrong)
        assert counts["trials_run"] == trials
        assert counts["candidates_rejected"] == 1
        assert checker.check(right)


class TestFreshInputProperty:
    @settings(max_examples=12, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=5_000),
        family=st.sampled_from(SYNTH_FAMILIES),
    )
    def test_synth_raised_modules_agree_on_fresh_inputs(self, seed, family):
        """Whatever the synthesizer accepts must be I/O-equivalent on
        inputs drawn *after* validation — the oracle's trials must
        generalize, not overfit."""
        kernel = generate_kernel(seed, family)
        reference = compile_c(kernel.source)
        raised = compile_c(kernel.source)
        raise_with_synthesis(raised)
        assert not any(
            isinstance(op, AffineForOp) for op in raised.walk()
        ), f"{family} seed {seed} left a loop behind"
        inputs = _fresh_inputs(reference, kernel.func_name, seed)
        want = _run_interpreter(reference, kernel.func_name, inputs)
        got = _run_interpreter(raised, kernel.func_name, inputs)
        for g, w in zip(got, want):
            np.testing.assert_allclose(g, w, rtol=2e-3, atol=1e-5)


class TestPermutedContractions:
    @settings(max_examples=8, deadline=None)
    @given(
        a_trans=st.booleans(),
        b_trans=st.booleans(),
        out_trans=st.booleans(),
    )
    def test_permuted_operand_contractions_round_trip(
        self, a_trans, b_trans, out_trans
    ):
        """All eight operand/output transposition variants of the
        (i, j, p) contraction raise and execute equivalently."""
        mi, nj, kp = 2, 3, 4
        a_idx, a_dims = (("p", "i"), (kp, mi)) if a_trans else (("i", "p"), (mi, kp))
        b_idx, b_dims = (("j", "p"), (nj, kp)) if b_trans else (("p", "j"), (kp, nj))
        c_idx, c_dims = (("j", "i"), (nj, mi)) if out_trans else (("i", "j"), (mi, nj))
        source = (
            f"void kernel(float A[{a_dims[0]}][{a_dims[1]}], "
            f"float B[{b_dims[0]}][{b_dims[1]}], "
            f"float C[{c_dims[0]}][{c_dims[1]}]) {{\n"
            f"  for (int i = 0; i < {mi}; i++)\n"
            f"    for (int j = 0; j < {nj}; j++)\n"
            f"      for (int p = 0; p < {kp}; p++)\n"
            f"        C[{c_idx[0]}][{c_idx[1]}] += "
            f"A[{a_idx[0]}][{a_idx[1]}] * B[{b_idx[0]}][{b_idx[1]}];\n"
            f"}}\n"
        )
        raised = compile_c(source)
        raise_with_synthesis(raised)
        assert not any(isinstance(op, AffineForOp) for op in raised.walk())
        assert any(op.name.startswith("linalg.") for op in raised.walk())

        rng = np.random.default_rng(7)
        a = rng.random(a_dims, dtype=np.float32) - 0.5
        b = rng.random(b_dims, dtype=np.float32) - 0.5
        c = rng.random(c_dims, dtype=np.float32) - 0.5
        spec_a = "".join(a_idx).replace("p", "k")
        spec_b = "".join(b_idx).replace("p", "k")
        spec_c = "".join(c_idx)
        want = c + np.einsum(
            f"{spec_a},{spec_b}->{spec_c}", a, b
        ).astype(np.float32)
        got = _run_interpreter(raised, "kernel", [a, b, c])
        np.testing.assert_allclose(got[2], want, rtol=2e-3, atol=1e-5)
