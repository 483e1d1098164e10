"""A TDL tactic raises a band only when the band covers its tensors.

A raised op runs over whole tensors, so a band that starts off 0,
steps by more than 1, or stops short of a dimension must stay a loop
nest (TDL bail reason ``partial-range``).  Each case below is either not
raised by the TDL tier, or raised and equal to the untouched MET module
under the interpreter.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.execution import Interpreter
from repro.ir import Context, verify
from repro.met import compile_c
from repro.tactics import raise_affine_to_affine, raise_affine_to_linalg

from ..conftest import assert_close, raise_two_tiers

#: name -> (C source, argument shapes).
PROBES = {
    "gemm-k-from-1": (
        "void kernel(float A[4][4], float B[4][4], float C[4][4]) {"
        " for (int i = 0; i < 4; i++) for (int j = 0; j < 4; j++)"
        " for (int k = 1; k < 4; k++) C[i][j] += A[i][k] * B[k][j]; }",
        [(4, 4), (4, 4), (4, 4)],
    ),
    "gemm-k-below-3": (
        "void kernel(float A[4][4], float B[4][4], float C[4][4]) {"
        " for (int i = 0; i < 4; i++) for (int j = 0; j < 4; j++)"
        " for (int k = 0; k < 3; k++) C[i][j] += A[i][k] * B[k][j]; }",
        [(4, 4), (4, 4), (4, 4)],
    ),
    "gemm-k-step-2": (
        "void kernel(float A[4][8], float B[8][4], float C[4][4]) {"
        " for (int i = 0; i < 4; i++) for (int j = 0; j < 4; j++)"
        " for (int k = 0; k < 8; k += 2) C[i][j] += A[i][k] * B[k][j]; }",
        [(4, 8), (8, 4), (4, 4)],
    ),
    "matvec-i-from-1": (
        "void kernel(float A[4][4], float x[4], float y[4]) {"
        " for (int i = 1; i < 4; i++) for (int j = 0; j < 4; j++)"
        " y[i] += A[i][j] * x[j]; }",
        [(4, 4), (4,), (4,)],
    ),
    "matvec-t-j-below-3": (
        "void kernel(float A[4][4], float x[4], float y[4]) {"
        " for (int i = 0; i < 4; i++) for (int j = 0; j < 3; j++)"
        " y[j] += A[i][j] * x[i]; }",
        [(4, 4), (4,), (4,)],
    ),
    "conv2d-y-below-3": (
        "void kernel(float I[1][2][5][5], float K[2][2][2][2],"
        " float O[1][2][4][4]) {"
        " for (int b = 0; b < 1; b++) for (int f = 0; f < 2; f++)"
        " for (int y = 0; y < 3; y++) for (int x = 0; x < 4; x++)"
        " for (int c = 0; c < 2; c++) for (int kh = 0; kh < 2; kh++)"
        " for (int kw = 0; kw < 2; kw++)"
        " O[b][f][y][x] += I[b][c][y + kh][x + kw] * K[f][c][kh][kw]; }",
        [(1, 2, 5, 5), (2, 2, 2, 2), (1, 2, 4, 4)],
    ),
    "contraction-d-below-3": (
        "void kernel(float A[4][4][4], float B[4][4], float C[4][4][4]) {"
        " for (int a = 0; a < 4; a++) for (int b = 0; b < 4; b++)"
        " for (int c = 0; c < 4; c++) for (int d = 0; d < 3; d++)"
        " C[a][b][c] += A[a][c][d] * B[d][b]; }",
        [(4, 4, 4), (4, 4), (4, 4, 4)],
    ),
}

#: The same kernels over their whole tensors: these must keep raising.
FULL_RANGE = {
    "gemm": (
        "void kernel(float A[4][4], float B[4][4], float C[4][4]) {"
        " for (int i = 0; i < 4; i++) for (int j = 0; j < 4; j++)"
        " for (int k = 0; k < 4; k++) C[i][j] += A[i][k] * B[k][j]; }",
        [(4, 4), (4, 4), (4, 4)],
    ),
    "conv2d-larger-input": (
        "void kernel(float I[1][2][6][6], float K[2][2][2][2],"
        " float O[1][2][4][4]) {"
        " for (int b = 0; b < 1; b++) for (int f = 0; f < 2; f++)"
        " for (int y = 0; y < 4; y++) for (int x = 0; x < 4; x++)"
        " for (int c = 0; c < 2; c++) for (int kh = 0; kh < 2; kh++)"
        " for (int kw = 0; kw < 2; kw++)"
        " O[b][f][y][x] += I[b][c][y + kh][x + kw] * K[f][c][kh][kw]; }",
        [(1, 2, 6, 6), (2, 2, 2, 2), (1, 2, 4, 4)],
    ),
}


def _outputs(module, shapes, seed=0):
    arrays = [np.ascontiguousarray(a) for a in _inputs(shapes, seed)]
    Interpreter(module).run("kernel", *arrays)
    return arrays


def _inputs(shapes, seed):
    rng = np.random.default_rng(seed)
    return [rng.random(shape, dtype=np.float32) for shape in shapes]


def _raised_outputs(source, shapes, raise_fn):
    """Run ``raise_fn`` on a fresh module; return the module, its
    outputs and the number of raised callsites."""
    module = compile_c(source)
    stats = raise_fn(module)
    return module, _outputs(module, shapes), stats.total


_RAISINGS = {
    "linalg": raise_affine_to_linalg,
    "affine": raise_affine_to_affine,
    "linalg+synth": raise_two_tiers,
}


class TestPartialRangesAreNotRaised:
    @pytest.mark.parametrize("raising", sorted(_RAISINGS))
    @pytest.mark.parametrize("probe", sorted(PROBES))
    def test_probe_agrees_with_the_loop_nest(self, probe, raising):
        source, shapes = PROBES[probe]
        expected = _outputs(compile_c(source), shapes)
        module, got, _ = _raised_outputs(source, shapes, _RAISINGS[raising])
        verify(module, Context())
        for want, have in zip(expected, got):
            assert_close(want, have)

    @pytest.mark.parametrize("probe", sorted(PROBES))
    def test_probe_bails_with_partial_range(self, probe):
        source, _ = PROBES[probe]
        snapshot = raise_affine_to_linalg(compile_c(source)).snapshot()
        assert not any(e["matched"] for e in snapshot["tdl"].values())
        reasons = [e["bail_reasons"] for e in snapshot["tdl"].values()]
        assert sum(r.get("partial-range", 0) for r in reasons) == 1

    @pytest.mark.parametrize("case", sorted(FULL_RANGE))
    def test_full_range_still_raises(self, case):
        source, shapes = FULL_RANGE[case]
        expected = _outputs(compile_c(source), shapes)
        _, got, raised = _raised_outputs(source, shapes, raise_affine_to_linalg)
        assert raised == 1
        for want, have in zip(expected, got):
            assert_close(want, have)

    @given(st.data())
    @settings(deadline=None)
    def test_random_bounds_raise_only_what_they_cover(self, data):
        kernel = data.draw(st.sampled_from(sorted(_NESTS)), label="kernel")
        source, shapes, full = _random_nest(data, *_NESTS[kernel])
        expected = _outputs(compile_c(source), shapes)
        _, got, raised = _raised_outputs(source, shapes, raise_affine_to_linalg)
        if full:
            assert raised == 1, source
        for want, have in zip(expected, got):
            assert_close(want, have)


#: kernel -> (output access, factor accesses); a subscript is a list of
#: loop variables whose sum it is.
_NESTS = {
    "gemm": (("C", ["i", "j"]), ("A", ["i", "k"]), ("B", ["k", "j"])),
    "matvec": (("y", ["i"]), ("A", ["i", "j"]), ("x", ["j"])),
    "matvec_t": (("y", ["j"]), ("A", ["i", "j"]), ("x", ["i"])),
    "contraction": (
        ("C", ["a", "b", "c"]), ("A", ["a", "c", "d"]), ("B", ["d", "b"])
    ),
    "conv2d": (
        ("O", ["b", "f", "y", "x"]),
        ("I", ["b", "c", "y+kh", "x+kw"]),
        ("K", ["f", "c", "kh", "kw"]),
    ),
}


def _random_nest(data, out, lhs, rhs):
    """C source of ``out += lhs * rhs`` over random dimensions and
    random loop ranges inside them (in a random loop order); ``full``
    when every loop runs its whole dimension from 0 with step 1."""
    accesses = (out, lhs, rhs)
    loop_vars = []
    for _, subscripts in accesses:
        for sub in subscripts:
            for var in sub.split("+"):
                if var not in loop_vars:
                    loop_vars.append(var)
    dims = {v: data.draw(st.integers(1, 4), label=f"dim {v}") for v in loop_vars}
    loops, full = [], True
    for var in data.draw(st.permutations(loop_vars), label="order"):
        lb = data.draw(st.integers(0, dims[var] - 1), label=f"lb {var}")
        ub = data.draw(st.integers(lb + 1, dims[var]), label=f"ub {var}")
        step = data.draw(st.sampled_from([1, 1, 2]), label=f"step {var}")
        full &= (lb, ub, step) == (0, dims[var], 1)
        loops.append(
            f"for (int {var} = {lb}; {var} < {ub}; {var} += {step})"
        )

    def extent(sub):
        # A sum y + kh reads y + kh - 1 rows (plus a random margin).
        parts = sub.split("+")
        return sum(dims[v] for v in parts) - len(parts) + 1

    margin = {
        sub: data.draw(st.integers(0, 1), label=f"margin {sub}")
        for _, subs in accesses for sub in subs if "+" in sub
    }
    shapes = {}
    for tensor, subs in accesses:
        shapes[tensor] = tuple(extent(s) + margin.get(s, 0) for s in subs)
    params = ", ".join(
        f"float {t}" + "".join(f"[{d}]" for d in shapes[t])
        for t in (lhs[0], rhs[0], out[0])
    )

    def ref(tensor, subs):
        return tensor + "".join(f"[{s.replace('+', ' + ')}]" for s in subs)

    body = f"{ref(*out)} += {ref(*lhs)} * {ref(*rhs)};"
    source = f"void kernel({params}) {{ {' '.join(loops)} {body} }}"
    return source, [shapes[lhs[0]], shapes[rhs[0]], shapes[out[0]]], full
