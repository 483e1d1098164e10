"""The benchmark kernel corpus (§V).

Linear-algebra kernels from Polybench 4.2 (written with multi-
dimensional array references), the Darknet-style GEMM (linearized
references), a conv2d, and the tensor contractions from previous
studies on coupled-cluster methods and chemistry kernels.

Every kernel is a C-source *generator* parameterized by problem sizes,
so the same corpus serves the LARGE-size analytical studies and the
small-size execution/correctness tests.  Polybench's alpha/beta scalar
factors are folded to 1 so the kernels stay inside the patterns the
stock tactics express (documented substitution; the paper's tactics
have the same restriction — their GEMM tactic is plain
``C(i,j) += A(i,k) * B(k,j)``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Sequence, Tuple

from ..analysis.contraction import Contraction
from ..tactics.contraction import PAPER_CONTRACTIONS

# ----------------------------------------------------------------------
# Source generators
# ----------------------------------------------------------------------


def _loop(iv: str, ub: int) -> str:
    return f"for (int {iv} = 0; {iv} < {ub}; {iv}++)"


def gemm_source(ni: int, nj: int, nk: int, init: bool = True) -> str:
    init_part = (
        f"  {_loop('i', ni)}\n    {_loop('j', nj)}\n"
        "      C[i][j] = 0.0f;\n"
        if init
        else ""
    )
    return (
        f"void gemm(float A[{ni}][{nk}], float B[{nk}][{nj}], "
        f"float C[{ni}][{nj}]) {{\n"
        f"{init_part}"
        f"  {_loop('i', ni)}\n    {_loop('j', nj)}\n      {_loop('k', nk)}\n"
        "        C[i][j] += A[i][k] * B[k][j];\n"
        "}\n"
    )


def mm_source(ni: int, nj: int, nk: int) -> str:
    """Polybench 'mm': a single GEMM kernel."""
    return gemm_source(ni, nj, nk)


def two_mm_source(ni: int, nj: int, nk: int, nl: int) -> str:
    """2mm: D = (A*B) * C  via a temporary."""
    return (
        f"void two_mm(float A[{ni}][{nk}], float B[{nk}][{nj}], "
        f"float C[{nj}][{nl}], float D[{ni}][{nl}]) {{\n"
        f"  float tmp[{ni}][{nj}];\n"
        f"  {_loop('i', ni)}\n    {_loop('j', nj)}\n      tmp[i][j] = 0.0f;\n"
        f"  {_loop('i', ni)}\n    {_loop('j', nj)}\n      {_loop('k', nk)}\n"
        "        tmp[i][j] += A[i][k] * B[k][j];\n"
        f"  {_loop('i', ni)}\n    {_loop('j', nl)}\n      D[i][j] = 0.0f;\n"
        f"  {_loop('i', ni)}\n    {_loop('j', nl)}\n      {_loop('k', nj)}\n"
        "        D[i][j] += tmp[i][k] * C[k][j];\n"
        "}\n"
    )


def three_mm_source(ni: int, nj: int, nk: int, nl: int, nm: int) -> str:
    """3mm: G = (A*B) * (C*D)."""
    return (
        f"void three_mm(float A[{ni}][{nk}], float B[{nk}][{nj}], "
        f"float C[{nj}][{nm}], float D[{nm}][{nl}], float G[{ni}][{nl}]) {{\n"
        f"  float E[{ni}][{nj}];\n  float F[{nj}][{nl}];\n"
        f"  {_loop('i', ni)}\n    {_loop('j', nj)}\n      E[i][j] = 0.0f;\n"
        f"  {_loop('i', ni)}\n    {_loop('j', nj)}\n      {_loop('k', nk)}\n"
        "        E[i][j] += A[i][k] * B[k][j];\n"
        f"  {_loop('i', nj)}\n    {_loop('j', nl)}\n      F[i][j] = 0.0f;\n"
        f"  {_loop('i', nj)}\n    {_loop('j', nl)}\n      {_loop('k', nm)}\n"
        "        F[i][j] += C[i][k] * D[k][j];\n"
        f"  {_loop('i', ni)}\n    {_loop('j', nl)}\n      G[i][j] = 0.0f;\n"
        f"  {_loop('i', ni)}\n    {_loop('j', nl)}\n      {_loop('k', nj)}\n"
        "        G[i][j] += E[i][k] * F[k][j];\n"
        "}\n"
    )


def doitgen_source(nr: int, nq: int, np: int) -> str:
    """Polybench doitgen as a batched contraction: the multiresolution
    kernel's innermost product, written to a fresh ``sum`` buffer so
    every reference stays affine and alias-free."""
    return (
        f"void doitgen(float A[{nr}][{nq}][{np}], float C4[{np}][{np}], "
        f"float sum[{nr}][{nq}][{np}]) {{\n"
        f"  {_loop('r', nr)}\n    {_loop('q', nq)}\n      {_loop('p', np)}\n"
        "        sum[r][q][p] = 0.0f;\n"
        f"  {_loop('r', nr)}\n    {_loop('q', nq)}\n      {_loop('p', np)}\n"
        f"        {_loop('s', np)}\n"
        "          sum[r][q][p] += A[r][q][s] * C4[s][p];\n"
        "}\n"
    )


def atax_source(m: int, n: int) -> str:
    """y = A^T (A x)."""
    return (
        f"void atax(float A[{m}][{n}], float x[{n}], float y[{n}], "
        f"float tmp[{m}]) {{\n"
        f"  {_loop('i', m)}\n    tmp[i] = 0.0f;\n"
        f"  {_loop('i', m)}\n    {_loop('j', n)}\n"
        "      tmp[i] += A[i][j] * x[j];\n"
        f"  {_loop('j', n)}\n    y[j] = 0.0f;\n"
        f"  {_loop('i', m)}\n    {_loop('j', n)}\n"
        "      y[j] += A[i][j] * tmp[i];\n"
        "}\n"
    )


def bicg_source(n: int, m: int) -> str:
    """s = A^T r ; q = A p."""
    return (
        f"void bicg(float A[{n}][{m}], float s[{m}], float q[{n}], "
        f"float p[{m}], float r[{n}]) {{\n"
        f"  {_loop('j', m)}\n    s[j] = 0.0f;\n"
        f"  {_loop('i', n)}\n    {_loop('j', m)}\n"
        "      s[j] += A[i][j] * r[i];\n"
        f"  {_loop('i', n)}\n    q[i] = 0.0f;\n"
        f"  {_loop('i', n)}\n    {_loop('j', m)}\n"
        "      q[i] += A[i][j] * p[j];\n"
        "}\n"
    )


def mvt_source(n: int) -> str:
    """x1 += A y1 ; x2 += A^T y2."""
    return (
        f"void mvt(float A[{n}][{n}], float x1[{n}], float x2[{n}], "
        f"float y1[{n}], float y2[{n}]) {{\n"
        f"  {_loop('i', n)}\n    {_loop('j', n)}\n"
        "      x1[i] += A[i][j] * y1[j];\n"
        f"  {_loop('i', n)}\n    {_loop('j', n)}\n"
        "      x2[j] += A[i][j] * y2[i];\n"
        "}\n"
    )


def gemver_source(n: int) -> str:
    """B = A + u1 v1^T + u2 v2^T ; x += B^T y ; w += B x (factors folded)."""
    return (
        f"void gemver(float A[{n}][{n}], float u1[{n}], float v1[{n}], "
        f"float u2[{n}], float v2[{n}], float w[{n}], float x[{n}], "
        f"float y[{n}]) {{\n"
        f"  {_loop('i', n)}\n    {_loop('j', n)}\n"
        "      A[i][j] += u1[i] * v1[j] + u2[i] * v2[j];\n"
        f"  {_loop('i', n)}\n    {_loop('j', n)}\n"
        "      x[j] += A[i][j] * y[i];\n"
        f"  {_loop('i', n)}\n    {_loop('j', n)}\n"
        "      w[i] += A[i][j] * x[j];\n"
        "}\n"
    )


def gesummv_source(n: int) -> str:
    """y = A x + B x (alpha/beta folded to 1)."""
    return (
        f"void gesummv(float A[{n}][{n}], float B[{n}][{n}], "
        f"float x[{n}], float y[{n}]) {{\n"
        f"  {_loop('i', n)}\n    y[i] = 0.0f;\n"
        f"  {_loop('i', n)}\n    {_loop('j', n)}\n"
        "      y[i] += A[i][j] * x[j];\n"
        f"  {_loop('i', n)}\n    {_loop('j', n)}\n"
        "      y[i] += B[i][j] * x[j];\n"
        "}\n"
    )


def conv2d_nchw_source(
    n: int, c: int, h: int, w: int, f: int, kh: int, kw: int
) -> str:
    oh, ow = h - kh + 1, w - kw + 1
    return (
        f"void conv2d(float I[{n}][{c}][{h}][{w}], "
        f"float K[{f}][{c}][{kh}][{kw}], "
        f"float O[{n}][{f}][{oh}][{ow}]) {{\n"
        f"  {_loop('b', n)}\n    {_loop('o', f)}\n      {_loop('y', oh)}\n"
        f"        {_loop('x', ow)}\n          O[b][o][y][x] = 0.0f;\n"
        f"  {_loop('b', n)}\n    {_loop('o', f)}\n      {_loop('y', oh)}\n"
        f"        {_loop('x', ow)}\n          {_loop('ci', c)}\n"
        f"            {_loop('p', kh)}\n              {_loop('q', kw)}\n"
        "                O[b][o][y][x] += I[b][ci][y + p][x + q] * "
        "K[o][ci][p][q];\n"
        "}\n"
    )


def darknet_gemm_source(m: int, n: int, k: int) -> str:
    """Darknet's gemm_nn: linearized 1-d array references.

    The stock 2-d GEMM tactic misses this callsite (Figure 8); the
    delinearization pass recovers it (our ablation).
    """
    return (
        f"void gemm_nn(float *A, float *B, float *C) {{\n"
        f"  {_loop('i', m)}\n    {_loop('k', k)}\n      {_loop('j', n)}\n"
        f"        C[i * {n} + j] += A[i * {k} + k] * B[k * {n} + j];\n"
        "}\n"
    )


def contraction_source(spec: str, extents: Dict[str, int]) -> str:
    """Loop-nest C source for a tensor contraction spec."""
    out_idx, a_idx, b_idx = Contraction.parse(spec)
    loop_order = "".join(dict.fromkeys(out_idx + a_idx + b_idx))

    def decl(name: str, idx: str) -> str:
        dims = "".join(f"[{extents[v]}]" for v in idx)
        return f"float {name}{dims}"

    def ref(name: str, idx: str) -> str:
        return name + "".join(f"[{v}]" for v in idx)

    loops = "\n".join(
        "  " * (d + 1) + _loop(v, extents[v])
        for d, v in enumerate(loop_order)
    )
    body_indent = "  " * (len(loop_order) + 1)
    return (
        f"void contraction({decl('A', a_idx)}, {decl('B', b_idx)}, "
        f"{decl('C', out_idx)}) {{\n"
        f"{loops}\n"
        f"{body_indent}{ref('C', out_idx)} += "
        f"{ref('A', a_idx)} * {ref('B', b_idx)};\n"
        "}\n"
    )


def matrix_chain_source(dims: Sequence[int]) -> str:
    """Left-associative matrix chain (((A1*A2)*A3)...*An) -> R."""
    n = len(dims) - 1
    params = ", ".join(
        f"float A{i + 1}[{dims[i]}][{dims[i + 1]}]" for i in range(n)
    )
    lines = [f"void chain({params}, float R[{dims[0]}][{dims[n]}]) {{"]
    for t in range(1, n - 1):
        lines.append(f"  float T{t}[{dims[0]}][{dims[t + 1]}];")
    prev = "A1"
    prev_cols = dims[1]
    for t in range(1, n):
        out = f"T{t}" if t < n - 1 else "R"
        rows, inner, cols = dims[0], dims[t], dims[t + 1]
        lines.append(f"  {_loop('i', rows)}")
        lines.append(f"    {_loop('j', cols)}")
        lines.append(f"      {out}[i][j] = 0.0f;")
        lines.append(f"  {_loop('i', rows)}")
        lines.append(f"    {_loop('j', cols)}")
        lines.append(f"      {_loop('k', inner)}")
        lines.append(f"        {out}[i][j] += {prev}[i][k] * A{t + 1}[k][j];")
        prev = out
    lines.append("}")
    return "\n".join(lines) + "\n"


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------


@dataclass
class KernelSpec:
    name: str
    func_name: str
    #: generates the LARGE-size source for the performance studies
    large_source: Callable[[], str]
    #: generates a small version for interpreter-based correctness tests
    small_source: Callable[[], str]
    #: BLAS level the paper groups the kernel under (2 or 3)
    level: int
    #: Figure-8 oracle: callsites a perfect matcher would raise
    oracle_callsites: int = 1

    def large(self) -> str:
        return self.large_source()

    def small(self) -> str:
        return self.small_source()


#: extents for the seven contraction specs (chosen so every benchmark
#: runs in the level-3 regime the paper's figure shows)
CONTRACTION_SIZES: Dict[str, Dict[str, int]] = {}
for _spec in PAPER_CONTRACTIONS:
    _vars = sorted(set("".join(Contraction.parse(_spec))))
    _extent = {4: 256, 5: 96, 6: 40}.get(len(_vars), 64)
    CONTRACTION_SIZES[_spec] = {v: _extent for v in _vars}


def _contraction_spec_sizes_small(spec: str) -> Dict[str, int]:
    sizes = {}
    for i, v in enumerate(sorted(CONTRACTION_SIZES[spec])):
        sizes[v] = 5 + i  # distinct small extents shake out index bugs
    return sizes


PAPER_BENCHMARKS: Dict[str, KernelSpec] = {}


def _register(spec: KernelSpec) -> KernelSpec:
    PAPER_BENCHMARKS[spec.name] = spec
    return spec


_register(KernelSpec(
    "atax", "atax",
    lambda: atax_source(1900, 2100),
    lambda: atax_source(13, 17),
    level=2, oracle_callsites=2,
))
_register(KernelSpec(
    "bicg", "bicg",
    lambda: bicg_source(2100, 1900),
    lambda: bicg_source(13, 17),
    level=2, oracle_callsites=2,
))
_register(KernelSpec(
    "gemver", "gemver",
    lambda: gemver_source(2000),
    lambda: gemver_source(14),
    level=2, oracle_callsites=2,
))
_register(KernelSpec(
    "gesummv", "gesummv",
    lambda: gesummv_source(1300),
    lambda: gesummv_source(15),
    level=2, oracle_callsites=2,
))
_register(KernelSpec(
    "mvt", "mvt",
    lambda: mvt_source(2000),
    lambda: mvt_source(13),
    level=2, oracle_callsites=2,
))
_register(KernelSpec(
    "2mm", "two_mm",
    lambda: two_mm_source(800, 900, 1100, 1200),
    lambda: two_mm_source(8, 9, 11, 12),
    level=3, oracle_callsites=2,
))
_register(KernelSpec(
    "3mm", "three_mm",
    lambda: three_mm_source(800, 900, 1000, 1100, 1200),
    lambda: three_mm_source(8, 9, 10, 11, 12),
    level=3, oracle_callsites=3,
))
_register(KernelSpec(
    "gemm", "gemm",
    lambda: gemm_source(1000, 1100, 1200),
    lambda: gemm_source(10, 11, 12),
    level=3, oracle_callsites=1,
))
_register(KernelSpec(
    "conv2d-nchw", "conv2d",
    lambda: conv2d_nchw_source(1, 64, 130, 130, 64, 3, 3),
    lambda: conv2d_nchw_source(1, 3, 8, 8, 4, 3, 3),
    level=3, oracle_callsites=1,
))
for _spec in PAPER_CONTRACTIONS:
    _register(KernelSpec(
        _spec, "contraction",
        (lambda s=_spec: contraction_source(s, CONTRACTION_SIZES[s])),
        (lambda s=_spec: contraction_source(
            s, _contraction_spec_sizes_small(s))),
        level=3, oracle_callsites=1,
    ))

#: the Figure-8 corpus: GEMM callsite detection
FIG8_BENCHMARKS: Dict[str, KernelSpec] = {
    "mm": KernelSpec(
        "mm", "gemm",
        lambda: mm_source(1000, 1100, 1200),
        lambda: mm_source(10, 11, 12),
        level=3, oracle_callsites=1,
    ),
    "2mm": PAPER_BENCHMARKS["2mm"],
    "3mm": PAPER_BENCHMARKS["3mm"],
    "darknet": KernelSpec(
        "darknet", "gemm_nn",
        lambda: darknet_gemm_source(512, 512, 512),
        lambda: darknet_gemm_source(9, 10, 11),
        level=3, oracle_callsites=1,
    ),
}

LEVEL2_KERNELS = [k for k, s in PAPER_BENCHMARKS.items() if s.level == 2]
LEVEL3_KERNELS = [k for k, s in PAPER_BENCHMARKS.items() if s.level == 3]

#: Kernels outside the paper's Figure-9 corpus, used by the schedule
#: autotuner's benchmark set (``mlt-tune``).
EXTRA_BENCHMARKS: Dict[str, KernelSpec] = {
    "doitgen": KernelSpec(
        "doitgen", "doitgen",
        lambda: doitgen_source(150, 140, 160),
        lambda: doitgen_source(5, 6, 7),
        level=3, oracle_callsites=1,
    ),
}

#: Table II matrix chains: (dims, expected IP/OP parenthesizations)
TABLE2_CHAINS: List[Tuple[List[int], str, str]] = [
    (
        [800, 1100, 900, 1200, 100],
        "(((A1xA2)xA3)xA4)",
        "(A1x(A2x(A3xA4)))",
    ),
    (
        [1000, 2000, 900, 1500, 600, 800],
        "((((A1xA2)xA3)xA4)xA5)",
        "((A1x(A2x(A3xA4)))xA5)",
    ),
    (
        [1500, 400, 2000, 2200, 600, 1400, 1000],
        "(((((A1xA2)xA3)xA4)xA5)xA6)",
        "(A1x((((A2xA3)xA4)xA5)xA6))",
    ),
]


def get_kernel(name: str) -> KernelSpec:
    if name in PAPER_BENCHMARKS:
        return PAPER_BENCHMARKS[name]
    if name in FIG8_BENCHMARKS:
        return FIG8_BENCHMARKS[name]
    if name in EXTRA_BENCHMARKS:
        return EXTRA_BENCHMARKS[name]
    raise KeyError(f"unknown benchmark {name!r}")
