#!/usr/bin/env python
"""Writing your own tactic — raising a user-specific motif.

A domain expert who knows their kernels use the (unusual) transposed
contraction ``S(p, q) += W(r, p) * V(r, q)`` (a Gram-matrix update,
W^T V) can teach the compiler to recognize it with four lines of TDL:
decompose it as an explicit transpose followed by a GEMM.

The TableGen backend turns the tactic into a straight-line Python
matcher, and that generated code is what raising runs.  It is printed
below: the hand-written matcher of the paper's Listing 7, written out
by the compiler instead of by hand.

Run:  python examples/custom_tactic.py
"""

import numpy as np

from repro.dialects.affine import outermost_loops
from repro.execution import Interpreter
from repro.ir import print_module
from repro.met import compile_c
from repro.tactics import raise_affine_to_linalg
from repro.tactics.raising import compile_tdl

C_SOURCE = """
void gram(float W[40][24], float V[40][32], float S[24][32]) {
  for (int p = 0; p < 24; p++)
    for (int q = 0; q < 32; q++)
      for (int r = 0; r < 40; r++)
        S[p][q] += W[r][p] * V[r][q];
}
"""

#: The whole tactic: detect W^T V, build transpose(W) then GEMM.
GRAM_TDL = """
def GRAM {
  pattern
    S(p, q) += W(r, p) * V(r, q)
  builder
    Wt(p, r) = W(r, p)
    S(p, q) += Wt(p, r) * V(r, q)
}
"""


def show_generated_matcher(tactic, module):
    """Print the matcher the backend generated for ``tactic`` (cf.
    Listing 7) and run it on the kernel's outermost loop."""
    print(tactic.source)
    root = outermost_loops(module.functions[0])[0]
    _match, reason = tactic.match_explain(root)
    print(f"generated matcher on the gram nest: {reason}")
    assert reason == "matched"


def main():
    module = compile_c(C_SOURCE)
    reference = compile_c(C_SOURCE)

    tactics = compile_tdl(GRAM_TDL)
    show_generated_matcher(tactics[0], module)
    stats = raise_affine_to_linalg(module, tactics=tactics)
    print(f"raised callsites: {stats.callsites}")
    print(print_module(module))

    rng = np.random.default_rng(3)
    w = rng.random((40, 24), dtype=np.float32)
    v = rng.random((40, 32), dtype=np.float32)
    s1 = np.zeros((24, 32), dtype=np.float32)
    s2 = np.zeros((24, 32), dtype=np.float32)
    Interpreter(reference).run("gram", w, v, s1)
    Interpreter(module).run("gram", w, v, s2)
    print(f"max error: {np.abs(s1 - s2).max():.2e}")
    assert np.abs(s1 - s2).max() < 1e-3
    print("OK: the custom tactic is semantics-preserving.")


if __name__ == "__main__":
    main()
