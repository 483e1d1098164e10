"""Random-program generators for differential fuzzing.

Two entry points:

* :func:`generate_kernel` builds a random polyhedral C kernel as a MET
  AST (so the reducer can manipulate it structurally), unparses it to C
  source, and the campaign pushes it through the *real* frontend.
  Families cover the shapes the tactics target (matmul, matvec,
  two-step contractions, elementwise maps) plus near-miss variants
  (transposed or offset accesses, ``-=`` accumulation) that are valid
  polyhedral C but must *not* be raised to ``linalg.matmul``.
* :func:`generate_affine_module` builds a random Affine-dialect module
  directly through the builder API, bypassing MET, to fuzz the
  mid-level passes with programs no C kernel would produce.

Everything is driven by ``random.Random(seed)`` so any failure replays
from its seed alone.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from ..met.c_ast import (
    ArrayRef,
    Assign,
    BinOp,
    Decl,
    Expr,
    For,
    FunctionDef,
    Ident,
    Number,
    Param,
    Stmt,
    TranslationUnit,
)

# ----------------------------------------------------------------------
# C unparser (MET AST -> source); shared with the reducer.
# ----------------------------------------------------------------------


def unparse_expr(expr: Expr) -> str:
    if isinstance(expr, Number):
        if isinstance(expr.value, float):
            text = repr(expr.value)
            return text + "f" if "." in text or "e" in text else text + ".0f"
        return str(expr.value)
    if isinstance(expr, Ident):
        return expr.name
    if isinstance(expr, ArrayRef):
        return expr.name + "".join(f"[{unparse_expr(i)}]" for i in expr.indices)
    if isinstance(expr, BinOp):
        return f"({unparse_expr(expr.lhs)} {expr.op} {unparse_expr(expr.rhs)})"
    raise TypeError(f"cannot unparse {type(expr).__name__}")


def _unparse_stmt(stmt: Stmt, indent: int, lines: List[str]) -> None:
    pad = "  " * indent
    if isinstance(stmt, For):
        step = f"{stmt.iv} += {stmt.step}" if stmt.step != 1 else f"{stmt.iv}++"
        lines.append(
            f"{pad}for (int {stmt.iv} = {unparse_expr(stmt.lower)}; "
            f"{stmt.iv} < {unparse_expr(stmt.upper)}; {step}) {{"
        )
        for inner in stmt.body:
            _unparse_stmt(inner, indent + 1, lines)
        lines.append(f"{pad}}}")
    elif isinstance(stmt, Assign):
        lines.append(
            f"{pad}{unparse_expr(stmt.target)} {stmt.op} "
            f"{unparse_expr(stmt.value)};"
        )
    elif isinstance(stmt, Decl):
        dims = "".join(f"[{d}]" for d in stmt.dims)
        lines.append(f"{pad}{stmt.ctype} {stmt.name}{dims};")
    else:
        raise TypeError(f"cannot unparse {type(stmt).__name__}")


def unparse_function(func: FunctionDef) -> str:
    params = ", ".join(
        f"{p.ctype} {p.name}" + "".join(f"[{d}]" for d in p.dims)
        for p in func.params
    )
    lines = [f"void {func.name}({params}) {{"]
    for stmt in func.body:
        _unparse_stmt(stmt, 1, lines)
    lines.append("}")
    return "\n".join(lines) + "\n"


def unparse_unit(unit: TranslationUnit) -> str:
    return "\n".join(unparse_function(f) for f in unit.functions)


# ----------------------------------------------------------------------
# C kernel generation
# ----------------------------------------------------------------------


@dataclass
class GeneratedKernel:
    """A random C kernel plus the metadata needed to replay/reduce it."""

    seed: int
    family: str
    func_name: str
    unit: TranslationUnit
    #: Whether the family's core statement is a tactic target: the
    #: raising pass is *expected* to rewrite it.  Near-miss families set
    #: this to False — raising them to linalg.matmul would be a bug in
    #: the matchers.
    expect_raise: bool = True
    #: Whether the synthesis tier (``-raise-affine-synth``) is expected
    #: to raise *every* loop band in the kernel — the near-miss corpus'
    #: recorded expectation.  Families with accesses outside the
    #: synthesizer's candidate space (offset subscripts, stencils) set
    #: this to False.
    expect_synth_raise: bool = True

    @property
    def source(self) -> str:
        return unparse_unit(self.unit)


def _idx(*names: str) -> List[Expr]:
    return [Ident(n) for n in names]


def _loop(iv: str, extent: int, body: List[Stmt]) -> For:
    return For(iv, Number(0), Number(extent), 1, body)


def _acc(name: str, *indices: str) -> ArrayRef:
    return ArrayRef(name, _idx(*indices))


def _mul(lhs: Expr, rhs: Expr) -> BinOp:
    return BinOp("*", lhs, rhs)


def _init_nest(
    rng: random.Random, target: str, ivs: Sequence[str], extents: Sequence[int]
) -> For:
    """A zero/constant-initialization nest over ``target``."""
    value = rng.choice([0.0, 0.0, 1.0, 0.5])
    stmt: Stmt = Assign(_acc(target, *ivs), "=", Number(value))
    nest: Stmt = stmt
    for iv, extent in zip(reversed(ivs), reversed(extents)):
        nest = _loop(iv, extent, [nest])
    return nest


def _extent(rng: random.Random) -> int:
    return rng.randint(2, 6)


def _matmul_kernel(rng: random.Random, near_miss: Optional[str]) -> Tuple[FunctionDef, bool]:
    m, n, k = _extent(rng), _extent(rng), _extent(rng)
    a = _acc("A", "i", "k")
    b = _acc("B", "k", "j")
    op = "+="
    a_dims, b_dims = [m, k], [k, n]
    expect = True
    if near_miss == "transposed":
        # C[i][j] += A[k][i] * B[k][j] — a valid contraction but not the
        # gemm tactic's access pattern.
        a = _acc("A", "k", "i")
        a_dims = [k, m]
        expect = False
    elif near_miss == "offset":
        # A padded by one row and read at [i+1][k]: affine, not gemm.
        a = ArrayRef("A", [BinOp("+", Ident("i"), Number(1)), Ident("k")])
        a_dims = [m + 1, k]
        expect = False
    elif near_miss == "subtract":
        op = "-="
        expect = False
    out = _acc("C", "i", "j")
    out_dims = [m, n]
    if near_miss == "permuted-output":
        # C[j][i] += A[i][k] * B[k][j] — a contraction whose *output*
        # is transposed relative to the gemm tactic's store pattern.
        out = _acc("C", "j", "i")
        out_dims = [n, m]
        expect = False
    body = Assign(out, op, _mul(a, b))
    update = _loop("i", m, [_loop("j", n, [_loop("k", k, [body])])])
    stmts: List[Stmt] = []
    if rng.random() < 0.5:
        stmts.append(
            _init_nest(rng, "C", ("i", "j"), tuple(out_dims))
        )
    stmts.append(update)
    func = FunctionDef(
        "kernel",
        [
            Param("float", "A", a_dims),
            Param("float", "B", b_dims),
            Param("float", "C", out_dims),
        ],
        stmts,
    )
    return func, expect


def _matvec_kernel(rng: random.Random) -> Tuple[FunctionDef, bool]:
    m, n = _extent(rng), _extent(rng)
    body = Assign(
        _acc("y", "i"), "+=", _mul(_acc("A", "i", "j"), _acc("x", "j"))
    )
    stmts: List[Stmt] = []
    if rng.random() < 0.5:
        stmts.append(_init_nest(rng, "y", ("i",), (m,)))
    stmts.append(_loop("i", m, [_loop("j", n, [body])]))
    func = FunctionDef(
        "kernel",
        [
            Param("float", "A", [m, n]),
            Param("float", "x", [n]),
            Param("float", "y", [m]),
        ],
        stmts,
    )
    return func, True


def _two_mm_kernel(rng: random.Random) -> Tuple[FunctionDef, bool]:
    """D = (A*B)*C through a local temporary — exercises Decl handling,
    loop distribution, and chained raising."""
    ni, nj, nk, nl = (_extent(rng) for _ in range(4))
    first = Assign(
        _acc("tmp", "i", "j"), "+=", _mul(_acc("A", "i", "k"), _acc("B", "k", "j"))
    )
    second = Assign(
        _acc("D", "i", "l"), "+=", _mul(_acc("tmp", "i", "j"), _acc("C", "j", "l"))
    )
    stmts: List[Stmt] = [
        Decl("float", "tmp", [ni, nj]),
        _init_nest(rng, "tmp", ("i", "j"), (ni, nj)),
        _loop("i", ni, [_loop("j", nj, [_loop("k", nk, [first])])]),
        _loop("i", ni, [_loop("l", nl, [_loop("j", nj, [second])])]),
    ]
    func = FunctionDef(
        "kernel",
        [
            Param("float", "A", [ni, nk]),
            Param("float", "B", [nk, nj]),
            Param("float", "C", [nj, nl]),
            Param("float", "D", [ni, nl]),
        ],
        stmts,
    )
    return func, True


def _elementwise_kernel(rng: random.Random) -> Tuple[FunctionDef, bool]:
    depth = rng.randint(1, 3)
    extents = [_extent(rng) for _ in range(depth)]
    ivs = [f"i{d}" for d in range(depth)]
    src = _acc("A", *ivs)
    op = rng.choice(["+", "*", "-"])
    # Nonnegative literals only: the C subset has no unary minus.
    rhs: Expr = BinOp(op, src, Number(round(rng.uniform(0, 2), 3)))
    if rng.random() < 0.3:
        rhs = BinOp("+", rhs, _acc("B", *ivs))
    stmt: Stmt = Assign(_acc("B", *ivs), rng.choice(["=", "+="]), rhs)
    for iv, extent in zip(reversed(ivs), reversed(extents)):
        stmt = _loop(iv, extent, [stmt])
    func = FunctionDef(
        "kernel",
        [Param("float", "A", extents), Param("float", "B", extents)],
        [stmt],
    )
    return func, False


def _dot_kernel(rng: random.Random) -> Tuple[FunctionDef, bool]:
    """s[0] += x[i] * y[i] — a rank-0-output contraction.  No TDL
    tactic covers it (TDL placeholders need at least one output index),
    so it is a near-miss for the structural tier but squarely inside
    the synthesizer's candidate space."""
    n = _extent(rng)
    body = Assign(
        ArrayRef("s", [Number(0)]),
        "+=",
        _mul(_acc("x", "i"), _acc("y", "i")),
    )
    stmts: List[Stmt] = []
    if rng.random() < 0.5:
        stmts.append(Assign(ArrayRef("s", [Number(0)]), "=", Number(0.0)))
    stmts.append(_loop("i", n, [body]))
    func = FunctionDef(
        "kernel",
        [
            Param("float", "x", [n]),
            Param("float", "y", [n]),
            Param("float", "s", [1]),
        ],
        stmts,
    )
    return func, False


def _stencil_kernel(rng: random.Random) -> Tuple[FunctionDef, bool]:
    """1-d three-point stencil: affine offsets, never a contraction."""
    n = rng.randint(4, 8)
    i = Ident("i")
    rhs = BinOp(
        "+",
        BinOp("+", ArrayRef("A", [BinOp("-", i, Number(1))]), ArrayRef("A", [i])),
        ArrayRef("A", [BinOp("+", i, Number(1))]),
    )
    body = Assign(ArrayRef("B", [i]), "=", rhs)
    func = FunctionDef(
        "kernel",
        [Param("float", "A", [n + 2]), Param("float", "B", [n + 2])],
        [For("i", Number(1), Number(n + 1), 1, [body])],
    )
    return func, False


#: family name -> (builder, weight).  Tactic-positive families dominate
#: so most seeds exercise the full raising path; the rest guard the
#: matchers against near-misses.
KERNEL_FAMILIES = {
    "matmul": (lambda rng: _matmul_kernel(rng, None), 4),
    "matmul-transposed": (lambda rng: _matmul_kernel(rng, "transposed"), 1),
    "matmul-offset": (lambda rng: _matmul_kernel(rng, "offset"), 1),
    "matmul-subtract": (lambda rng: _matmul_kernel(rng, "subtract"), 1),
    "matmul-permuted-output": (
        lambda rng: _matmul_kernel(rng, "permuted-output"),
        1,
    ),
    "matvec": (_matvec_kernel, 3),
    "dot": (_dot_kernel, 1),
    "two-mm": (_two_mm_kernel, 2),
    "elementwise": (_elementwise_kernel, 2),
    "stencil": (_stencil_kernel, 1),
}

#: Families whose core statement the TDL tier must *not* raise — these
#: are the seeds the campaign persists as the replayable near-miss
#: corpus (``fuzz-failures/near-miss/``) for the synthesis tier.
NEAR_MISS_FAMILIES = (
    "matmul-transposed",
    "matmul-offset",
    "matmul-subtract",
    "matmul-permuted-output",
    "dot",
)

#: family -> whether ``-raise-affine-synth`` is expected to raise every
#: loop band the frontend emits for it.  Offset accesses and stencils
#: are outside the enumerator's pure-permutation candidate space.
SYNTH_EXPECTED = {
    "matmul": True,
    "matmul-transposed": True,
    "matmul-offset": False,
    "matmul-subtract": True,
    "matmul-permuted-output": True,
    "matvec": True,
    "dot": True,
    "two-mm": True,
    "elementwise": True,
    "stencil": False,
}


def generate_kernel(seed: int, family: Optional[str] = None) -> GeneratedKernel:
    """Deterministically generate one random C kernel from ``seed``."""
    rng = random.Random(seed)
    if family is None:
        names = list(KERNEL_FAMILIES)
        weights = [KERNEL_FAMILIES[n][1] for n in names]
        family = rng.choices(names, weights=weights, k=1)[0]
    builder = KERNEL_FAMILIES[family][0]
    func, expect = builder(rng)
    return GeneratedKernel(
        seed=seed,
        family=family,
        func_name=func.name,
        unit=TranslationUnit([func]),
        expect_raise=expect,
        expect_synth_raise=SYNTH_EXPECTED.get(family, False),
    )


# ----------------------------------------------------------------------
# Direct Affine-module generation (bypasses MET)
# ----------------------------------------------------------------------


@dataclass
class GeneratedModule:
    """A random builder-constructed Affine module."""

    seed: int
    module: object  # ModuleOp; typed loosely to keep import cost low
    func_name: str
    arg_shapes: List[Tuple[int, ...]] = field(default_factory=list)


def generate_affine_module(seed: int) -> GeneratedModule:
    """A random loop nest with random (in-bounds) affine accesses into
    1-d buffers and a chain of float arithmetic — programs MET's C
    subset would never produce (strided/offset maps, deep chains)."""
    from ..dialects import affine as affine_d
    from ..dialects import std
    from ..ir import (
        AffineMap,
        Builder,
        FuncOp,
        InsertionPoint,
        ModuleOp,
        ReturnOp,
        f32,
        memref,
    )
    from ..ir import affine_expr as ae

    rng = random.Random(seed)
    buffer_size = 64
    depth = rng.randint(1, 3)
    extents = [rng.randint(1, 5) for _ in range(depth)]

    module = ModuleOp.create()
    func = FuncOp.create(
        "f", [memref(buffer_size, f32), memref(buffer_size, f32)]
    )
    module.append_function(func)
    src, dst = func.arguments
    builder = Builder(InsertionPoint.at_end(func.entry_block))
    loops, ivs = affine_d.build_loop_nest(builder, [(0, e) for e in extents])
    body = Builder(InsertionPoint(loops[-1].body, 0))

    value = None
    for _ in range(rng.randint(1, 3)):
        iv_pos = rng.randrange(depth)
        coeff = rng.randint(1, 4)
        const = rng.randint(0, 8)
        expr = ae.dim(0) * coeff + const
        load = body.insert(
            affine_d.AffineLoadOp.create(
                src, [ivs[iv_pos]], AffineMap(1, 0, [expr])
            )
        )
        if value is None:
            value = load.result
        else:
            kind = rng.choice([std.AddFOp, std.MulFOp, std.SubFOp])
            value = body.insert(kind.create(value, load.result)).result
    for _ in range(rng.randint(0, 2)):
        constant = body.insert(
            std.ConstantOp.create(round(rng.uniform(-4, 4), 3), f32)
        )
        kind = rng.choice([std.AddFOp, std.MulFOp, std.SubFOp, std.MaxFOp])
        value = body.insert(kind.create(value, constant.result)).result
    if rng.random() < 0.25:
        value = body.insert(std.NegFOp.create(value)).result
    if rng.random() < 0.25:
        # A cmpf+select clamp (the min/max idiom the vectorizer lowers
        # to np.where): value <pred> c ? value : c.
        constant = body.insert(
            std.ConstantOp.create(round(rng.uniform(-2, 2), 3), f32)
        )
        compare = body.insert(
            std.CmpFOp.create(
                rng.choice(["olt", "ole", "ogt", "oge"]),
                value,
                constant.result,
            )
        )
        value = body.insert(
            std.SelectOp.create(compare.result, value, constant.result)
        ).result
    store_pos = rng.randrange(depth)
    coeff = rng.randint(1, 4)
    const = rng.randint(0, 8)
    body.insert(
        affine_d.AffineStoreOp.create(
            value,
            dst,
            [ivs[store_pos]],
            AffineMap(1, 0, [ae.dim(0) * coeff + const]),
        )
    )
    builder.insert(ReturnOp.create())
    return GeneratedModule(
        seed=seed,
        module=module,
        func_name="f",
        arg_shapes=[(buffer_size,), (buffer_size,)],
    )
