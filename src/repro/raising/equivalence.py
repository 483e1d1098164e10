"""I/O-equivalence validation of synthesis candidates.

A candidate is accepted only if the original nest and the candidate op
produce identical observable memory on N generated input sets:

* **integer trials** — inputs are small integer-valued float32 arrays,
  so every multiply-accumulate is exact and the comparison is
  bit-equality (``np.array_equal``).  Reassociated/permuted evaluation
  orders cannot produce false negatives here, which matters because the
  candidate's iteration order is generally *not* the nest's.
* **one uniform random trial** — catches candidates that only agree on
  the integer lattice; compared with the same relative tolerance the
  differential fuzzer grants compiled kernels (``rtol=2e-3``).
* **engine cross-check** — the accepted candidate is additionally run
  through the compiled NumPy :class:`ExecutionEngine`, so a raised op
  that the engine would miscompile (or that cannot execute at all) is
  rejected before it is ever emitted.

Both sides run as standalone single-function modules whose arguments
are the nest's arrays in first-touch order; *all* arrays are compared
afterwards, so a candidate that clobbers a live-in is rejected too.
"""

from __future__ import annotations

from typing import Callable, List

import numpy as np

from ..ir import (
    Builder,
    FuncOp,
    InsertionPoint,
    ModuleOp,
    ReturnOp,
)
from ..ir.verifier import verify
from .enumerator import Candidate
from .nest import NestSummary
from .rewriter import materialize_candidate

FUNC_NAME = "synth_check"

#: Trial inputs per nest: exact integer-valued ones first, then
#: uniform-random ones (approximate comparison), from a fixed seed.
INTEGER_TRIALS = 3
RANDOM_TRIALS = 1
SEED = 0
RTOL = 2e-3
ATOL = 1e-5
#: Integer inputs are drawn from [0, INTEGER_RANGE); small enough that
#: f32 accumulation stays exact for every nest size the generators
#: produce.
INTEGER_RANGE = 5
#: Interpreter step budget per trial — a nest too big to validate is a
#: bail ("oracle-error"), not a hang.
MAX_STEPS = 5_000_000


def _build_module(summary: NestSummary, fill) -> ModuleOp:
    module = ModuleOp.create()
    func = FuncOp.create(FUNC_NAME, [a.type for a in summary.arrays])
    module.append_function(func)
    builder = Builder(InsertionPoint.at_end(func.entry_block))
    fill(builder, func.arguments)
    builder.insert(ReturnOp.create())
    return module


def build_nest_module(summary: NestSummary) -> ModuleOp:
    """The original band cloned into a standalone function."""

    def fill(builder: Builder, args):
        value_map = dict(zip(summary.arrays, args))
        builder.insert(summary.root.clone(value_map))

    return _build_module(summary, fill)


def build_candidate_module(
    summary: NestSummary, candidate: Candidate
) -> ModuleOp:
    """The candidate op materialized over the same signature."""

    def fill(builder: Builder, args):
        builder.insert(materialize_candidate(candidate, summary, args))

    return _build_module(summary, fill)


class OracleError(Exception):
    """The *reference* side failed — the nest cannot be validated at
    all (bail reason "oracle-error")."""


class EquivalenceChecker:
    """Validates candidates against one summarized nest.

    Reference outputs are computed once per nest (not once per
    candidate); each :meth:`check` call then costs one interpreter run
    per trial plus, on success, the engine cross-check.  ``count``
    receives ``trials_run`` and each verdict
    (``candidates_validated``/``candidates_rejected``).
    """

    def __init__(
        self,
        summary: NestSummary,
        count: Callable[..., None] = lambda **amounts: None,
        max_steps: int = MAX_STEPS,
    ):
        self.summary = summary
        self.count = count
        self.max_steps = max_steps
        rng = np.random.default_rng(SEED)
        self.trial_exact = [True] * INTEGER_TRIALS + [False] * RANDOM_TRIALS
        self.trial_inputs: List[List[np.ndarray]] = [
            self._draw(rng, integer=exact) for exact in self.trial_exact
        ]

        nest_module = build_nest_module(summary)
        self.expected: List[List[np.ndarray]] = []
        for inputs in self.trial_inputs:
            try:
                self.expected.append(self._run_interp(nest_module, inputs))
            except Exception as exc:  # interpreter budget, bad IR, ...
                raise OracleError(str(exc)) from exc

    # ------------------------------------------------------------------

    def _draw(self, rng, integer: bool) -> List[np.ndarray]:
        arrays = []
        for value in self.summary.arrays:
            shape = self.summary.array_shape(value)
            if integer:
                data = rng.integers(0, INTEGER_RANGE, size=shape).astype(
                    np.float32
                )
            else:
                data = rng.random(shape, dtype=np.float32) - 0.5
            arrays.append(data)
        return arrays

    def _run_interp(
        self, module: ModuleOp, inputs: List[np.ndarray]
    ) -> List[np.ndarray]:
        from ..execution.interpreter import Interpreter

        arrays = [a.copy() for a in inputs]
        Interpreter(module, max_steps=self.max_steps).run(FUNC_NAME, *arrays)
        self.count(trials_run=1)
        return arrays

    def _run_engine(
        self, module: ModuleOp, inputs: List[np.ndarray]
    ) -> List[np.ndarray]:
        from ..execution.engine import ExecutionEngine

        arrays = [a.copy() for a in inputs]
        ExecutionEngine(module).run(FUNC_NAME, *arrays)
        self.count(trials_run=1)
        return arrays

    def _agree(
        self,
        got: List[np.ndarray],
        want: List[np.ndarray],
        exact: bool,
    ) -> bool:
        for g, w in zip(got, want):
            if exact:
                if not np.array_equal(g, w):
                    return False
            elif not np.allclose(g, w, rtol=RTOL, atol=ATOL):
                return False
        return True

    # ------------------------------------------------------------------

    def check(self, candidate: Candidate) -> bool:
        """True iff the candidate matches the nest on every trial and
        on the compiled engine."""
        try:
            module = build_candidate_module(self.summary, candidate)
            verify(module)
            for inputs, want, exact in zip(
                self.trial_inputs, self.expected, self.trial_exact
            ):
                got = self._run_interp(module, inputs)
                if not self._agree(got, want, exact):
                    self._note(False)
                    return False
            for index in (0, len(self.trial_inputs) - 1):
                got = self._run_engine(module, self.trial_inputs[index])
                if not self._agree(
                    got, self.expected[index], self.trial_exact[index]
                ):
                    self._note(False)
                    return False
        except Exception:
            # A candidate the IR verifier, interpreter, or engine cannot
            # digest is simply not equivalent.
            self._note(False)
            return False
        self._note(True)
        return True

    def _note(self, accepted: bool) -> None:
        if accepted:
            self.count(candidates_validated=1)
        else:
            self.count(candidates_rejected=1)
