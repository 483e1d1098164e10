#!/usr/bin/env python
"""Tensor contractions via TTGT (the paper's Listing 3/4 flow).

Shows the full declarative pipeline for the contraction
``C(a,b,c) += A(a,c,d) * B(d,b)``:

    TDL text --> TDS (TableGen) --> matchers/builders --> raised IR

and demonstrates the performance effect on the AMD machine model:
the TTGT rewriting turns the 4-d loop nest into
transpose/reshape/GEMM/transpose, where the GEMM runs at library speed.

The default ``-raise-affine-to-linalg`` raises the nest to one
``linalg.generic`` instead, and the TTGT layout is a separate pass,
``-linalg-contraction-ttgt``, which the ``mlt-linalg`` and ``mlt-blas``
pipelines run right after raising.  This example raises with the TTGT
tactic itself (the paper's listings) and checks that it prints what
raising plus that pass prints.

Run:  python examples/tensor_contraction_ttgt.py
"""

import numpy as np

from repro.evaluation.kernels import contraction_source
from repro.execution import AMD_2920X, CostModel, Interpreter
from repro.ir import Context, print_module
from repro.met import compile_c
from repro.tactics import (
    contraction_tactic_tdl,
    parse_tdl,
    raise_affine_to_linalg,
    tdl_to_tds,
)
from repro.tactics.raising import compile_tdl
from repro.transforms import LinalgContractionTTGTPass, LinalgToBlasPass

SPEC = "abc-acd-db"


def main():
    # --- The declarative tactic (TDL, Listing 3) ----------------------
    tdl_text = contraction_tactic_tdl(SPEC, name="TTGT")
    print("=== TDL (Listing 3) ===")
    print(tdl_text)

    # --- Lowered to TDS / TableGen (Listing 4) ------------------------
    (tactic_ast,) = parse_tdl(tdl_text)
    record = tdl_to_tds(tactic_ast)
    print("\n=== TDS (Listing 4) ===")
    print(record.emit_tablegen())

    # --- Apply to a C loop nest ----------------------------------------
    sizes = {"a": 32, "b": 24, "c": 16, "d": 40}
    src = contraction_source(SPEC, sizes)
    module = compile_c(src)
    reference = compile_c(src)
    stats = raise_affine_to_linalg(module, tactics=compile_tdl(tdl_text))
    print(f"\n=== Raised ({stats.callsites}) ===")
    print(print_module(module))

    # --- The default raise, then the TTGT layout pass ------------------
    staged = compile_c(src)
    raise_affine_to_linalg(staged)
    LinalgContractionTTGTPass().run(staged, Context())
    assert print_module(staged) == print_module(module)
    print("default raise + -linalg-contraction-ttgt: the same IR")

    # --- Check semantics ------------------------------------------------
    rng = np.random.default_rng(1)
    a = rng.random((32, 16, 40), dtype=np.float32)
    b = rng.random((40, 24), dtype=np.float32)
    c1 = np.zeros((32, 24, 16), dtype=np.float32)
    c2 = np.zeros((32, 24, 16), dtype=np.float32)
    Interpreter(reference).run("contraction", a, b, c1)
    Interpreter(module).run("contraction", a, b, c2)
    print(f"max error vs loop nest: {np.abs(c1 - c2).max():.2e}")

    # --- Price both versions on the AMD model --------------------------
    model = CostModel(AMD_2920X)
    large_src = contraction_source(
        SPEC, {"a": 256, "b": 256, "c": 256, "d": 256}
    )
    loops = compile_c(large_src)
    baseline = model.cost_function(loops.functions[0])
    blas = compile_c(large_src)
    raise_affine_to_linalg(blas, tactics=compile_tdl(tdl_text))
    LinalgToBlasPass().run(blas, Context())
    accelerated = model.cost_function(blas.functions[0])
    print(
        f"\nAMD 2920X model, 256^4 contraction: "
        f"loops {baseline.gflops:.2f} GFLOP/s -> "
        f"TTGT+MKL {accelerated.gflops:.2f} GFLOP/s "
        f"({baseline.seconds / accelerated.seconds:.1f}x)"
    )


if __name__ == "__main__":
    main()
