"""compile_cold — the paper's section V-B experiment.

One sample = one pass over the 16-kernel corpus at ``small()`` sizes:
``compile_c -> raise_affine_to_linalg -> lower_to_llvm``, nothing
cached anywhere.  The traced run interleaves the lower-only variant so
the raising overhead (paper: +12%) comes from pairs taken under the
same conditions.
"""

from __future__ import annotations

import time
from typing import Dict, List

from .. import corpus, spec, stats
from .base import (
    GcMeter,
    Workload,
    layer_metrics,
    start_tracing,
    summarise,
    timed_samples,
)


class CompileCold(Workload):
    name = "compile_cold"

    def setup(self) -> None:
        from repro.execution import Interpreter
        from repro.ir import print_module, verify
        from repro.met import compile_c
        from repro.tactics import raise_affine_to_linalg
        from repro.tactics.raising import default_linalg_tactics
        from repro.transforms import lower_to_llvm

        self._compile_c = compile_c
        self._raise = raise_affine_to_linalg
        self._lower = lower_to_llvm
        self._print = print_module

        start = time.perf_counter()
        default_linalg_tactics()
        self.tdl_build_ms = (time.perf_counter() - start) * 1e3

        run = self.run
        self.order = corpus.kernel_order(run.seed)
        self.sources = [corpus.small_source(n) for n in self.order]

        # Oracle: the fully lowered module must compute what the
        # untouched MET module computes.
        start = time.perf_counter()
        for name in self.order:
            source = corpus.oracle_source(name)
            func = corpus.func_name(name)
            inputs, expected = corpus.reference_outputs(source, func, run.seed)
            module = compile_c(source)
            raise_affine_to_linalg(module)
            lower_to_llvm(module)
            verify(module)
            actual = corpus.run_copy(
                Interpreter(module, max_steps=2_000_000_000), func, inputs
            )
            run.verdicts.check(
                corpus.agree(expected, actual), f"oracle:{name}:raise+lower"
            )
        self.check_ms = (time.perf_counter() - start) * 1e3

        self.code_bytes = self._emitted_bytes()
        self._corpus_pass()  # warm-up

    def _corpus_pass(self) -> None:
        for source in self.sources:
            module = self._compile_c(source)
            self._raise(module)
            self._lower(module)

    def _lower_only_pass(self) -> None:
        for source in self.sources:
            self._lower(self._compile_c(source))

    def _emitted_bytes(self) -> int:
        total = 0
        for source in self.sources:
            module = self._compile_c(source)
            self._raise(module)
            self._lower(module)
            total += len(self._print(module).encode("utf-8"))
        return total

    def measure(self) -> Dict[str, float]:
        run = self.run
        tail_p = spec.TAIL_PERCENTILE[self.name]
        norm = stats.Normaliser(stats.cal_py, stats.CAL_PY_REF_MS)
        timed = timed_samples(
            self._corpus_pass, run.seconds, run.min_samples(tail_p), norm
        )
        run.verdicts.add(len(timed.wall) * len(self.sources))
        run.verdicts.check(
            self._emitted_bytes() == self.code_bytes, "code_bytes repeats"
        )
        out = summarise(timed, norm, tail_p, run.quick)
        out["code_bytes"] = float(self.code_bytes)
        return out

    def measure_traced(self) -> Dict[str, float]:
        run = self.run
        norm = stats.Normaliser(stats.cal_py, stats.CAL_PY_REF_MS)
        untraced = timed_samples(
            self._corpus_pass, run.seconds / 4, 3, norm
        ).wall
        tracer = start_tracing(run)
        # Re-bind: the instrumented names replace the ones setup cached.
        from repro.execution.engine.cache import fingerprint_module
        from repro.ir import verify
        from repro.ir.parser import parse_module
        from repro.met import compile_c
        from repro.tactics import raise_affine_to_linalg
        from repro.transforms import lower_to_llvm

        self._compile_c, self._raise, self._lower = (
            compile_c,
            raise_affine_to_linalg,
            lower_to_llvm,
        )

        traced: List[float] = []
        control: List[float] = []
        gc_meter = GcMeter()

        def pair() -> None:
            with tracer.sample("control"):
                start = time.perf_counter()
                self._lower_only_pass()
                control.append((time.perf_counter() - start) * 1e3)
            with tracer.sample(), gc_meter:
                start = time.perf_counter()
                self._corpus_pass()
                traced.append((time.perf_counter() - start) * 1e3)

        timed_samples(pair, run.seconds / 2, 3, norm)
        n = len(traced)
        run.verdicts.add(2 * n * len(self.sources))

        # One probe pass for IR sizes and the printer/parser/verifier
        # round trip, outside any timed sample.
        ops = {"met": 0, "raise": 0, "lower": 0}
        with tracer.sample("probe"):
            for source in self.sources:
                module = self._compile_c(source)
                ops["met"] += corpus.module_op_count(module)
                self._raise(module)
                ops["raise"] += corpus.module_op_count(module)
                self._lower(module)
                ops["lower"] += corpus.module_op_count(module)
                parsed = parse_module(self._print(module))
                verify(parsed)
                fingerprint_module(parsed)

        out = layer_metrics(tracer, n)
        lower_ms = out["transforms.lower_ms"]
        out["transforms.lower_raised_extra_ms"] = (
            lower_ms - tracer.total("transforms.lower", "control") * 1e3 / n
        )
        src_bytes = sum(len(s.encode("utf-8")) for s in self.sources)
        out["met.src_bytes_per_s"] = src_bytes / (
            out["met.compile_c_ms"] / 1e3
        )
        out["tactics.tdl_build_ms"] = self.tdl_build_ms
        out["transforms.raise_overhead_pct"] = (
            stats.median(traced) / stats.median(control) - 1.0
        ) * 100.0
        for name in ("ir.print", "ir.parse", "ir.verify", "ir.fingerprint"):
            out[name + "_ms"] = tracer.total(name, "probe") * 1e3
        out["ir.ops_after_met"] = float(ops["met"])
        out["ir.ops_after_raise"] = float(ops["raise"])
        out["ir.ops_after_lower"] = float(ops["lower"])
        out["ir.gc_ms"] = gc_meter.seconds * 1e3 / n
        out["ir.gc_share"] = gc_meter.seconds / (sum(traced) / 1e3)
        out["interpreter.check_ms"] = self.check_ms
        out["trace.overhead_pct"] = (
            stats.median(traced) / stats.median(untraced) - 1.0
        ) * 100.0
        return out
