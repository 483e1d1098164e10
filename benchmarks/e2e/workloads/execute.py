"""exec_baseline / exec_raised — run time of generated code (Fig. 9).

The 16 kernels at mid sizes through ``build_module(src, pipeline)`` and
``ExecutionEngine(opt_mode="full", vectorize="nest")``.  On ``baseline``
the optimizer, vectorizer and codegen decide the time (gesummv and
conv2d do not collapse and run scalar); on ``mlt-blas`` raising and the
runtime helpers decide it and the vectorizer is idle — each workload is
the other's control.

One *round* runs every kernel once on a private copy of its inputs;
``latency_ms`` is the geometric mean over kernels of the per-kernel
median, so a 100 ms scalar kernel does not drown fifteen sub-ms ones.
"""

from __future__ import annotations

import gc
import time
from typing import Dict, List

from .. import corpus, spec, stats
from .base import (
    Workload,
    layer_metrics,
    start_tracing,
    tail_of,
    tail_percentile_for,
    timed_samples,
)

PIPELINES = ("baseline", "mlt-blas")


def _engine(module, pipeline: str, opt_mode: str = "full"):
    from repro.execution import ExecutionEngine
    from repro.execution.engine.cache import KernelCache

    return ExecutionEngine(
        module,
        pipeline=pipeline,
        opt_mode=opt_mode,
        vectorize="nest",
        cache=KernelCache(),
    )


class _Exec(Workload):
    pipeline = ""

    def setup(self) -> None:
        from repro.evaluation.pipelines import build_module
        from repro.fuzzing.oracle import make_args, module_arg_shapes

        run = self.run
        self._build_module = build_module
        # Fixed order: what a sub-ms kernel's predecessor left in cache
        # moves its run time by 20%, so a seeded order would make the
        # seed a performance input.  The seed drives the data.
        order = sorted(corpus.kernel_order(run.seed))

        # Oracle at small sizes: each engine against the interpreter on
        # the untouched MET module.
        start = time.perf_counter()
        for name in order:
            source = corpus.oracle_source(name)
            func = corpus.func_name(name)
            inputs, expected = corpus.reference_outputs(source, func, run.seed)
            for pipeline in PIPELINES:
                engine = _engine(build_module(source, pipeline), pipeline)
                ok = corpus.agree(
                    expected, corpus.run_copy(engine, func, inputs)
                )
                if (name, pipeline) in corpus.KNOWN_MISCOMPILES:
                    if ok:
                        run.notes.append(
                            f"{name}/{pipeline} now matches the interpreter: "
                            "delete its KNOWN_MISCOMPILES entry"
                        )
                    continue
                run.verdicts.check(ok, f"oracle:{name}:{pipeline}")
        self.check_ms = (time.perf_counter() - start) * 1e3

        # Mid sizes: the timed engines, cross-checked against the other
        # pipeline's (a disjoint compile path).
        self.kernels: List[str] = []
        self.sources: Dict[str, str] = {}
        self.engines = {}
        self.inputs = {}
        self.code_bytes = 0
        other = next(p for p in PIPELINES if p != self.pipeline)
        for name in order:
            if (name, self.pipeline) in corpus.KNOWN_MISCOMPILES:
                run.notes.append(
                    f"{name}/{self.pipeline} left out: known miscompile "
                    "(see corpus.KNOWN_MISCOMPILES)"
                )
                continue
            source = corpus.mid_source(name)
            func = corpus.func_name(name)
            module = build_module(source, self.pipeline)
            engine = _engine(module, self.pipeline)
            inputs = make_args(module_arg_shapes(module, func), run.seed)
            # The partner of a known-bad pair is the same pipeline
            # without the optimizer stage that breaks it.
            partner_opt = (
                "none" if (name, other) in corpus.KNOWN_MISCOMPILES else "full"
            )
            partner = _engine(build_module(source, other), other, partner_opt)
            run.verdicts.check(
                corpus.agree(
                    corpus.run_copy(partner, func, inputs),
                    corpus.run_copy(engine, func, inputs),
                ),
                f"mid:{name}:{self.pipeline} vs {other}",
            )
            self.kernels.append(name)
            self.sources[name] = source
            self.engines[name] = engine
            self.inputs[name] = inputs
            self.code_bytes += len(engine.source.encode("utf-8"))
        self._cal = stats.NumpyCalibration()
        for _ in range(3):
            self._round({name: [] for name in self.kernels})

    def _round(self, sink: Dict[str, List[float]]) -> None:
        tracer = self.run.tracer
        for name in self.kernels:
            func = corpus.func_name(name)
            args = [a.copy() for a in self.inputs[name]]
            engine = self.engines[name]
            with tracer.sample():
                start = time.perf_counter()
                engine.run(func, *args)
                sink[name].append((time.perf_counter() - start) * 1e3)

    def _rounds(self, seconds: float, min_rounds: int, norm):
        """Rounds until both ``seconds`` and ``min_rounds`` are in.
        Returns per-kernel raw samples and, per round, the index of the
        last calibration tick before it."""
        sink: Dict[str, List[float]] = {name: [] for name in self.kernels}
        # A raised round is ~6 ms, a calibration tick ~5: tick every
        # 4th round there, every round on baseline (~200 ms rounds).
        ticks = timed_samples(
            lambda: self._round(sink),
            seconds,
            min_rounds,
            norm,
            cal_every=1 if self.pipeline == "baseline" else 4,
        ).tick
        self.run.verdicts.add(len(ticks) * len(self.kernels))
        return sink, ticks

    def _summary(self, sink, ticks, norm, tail_p) -> Dict[str, float]:
        tail_p = tail_percentile_for(len(ticks), tail_p, self.run.quick)
        raw = [sink[name] for name in self.kernels]
        scaled = [
            [norm.scale(v, t, t + 2) for v, t in zip(values, ticks)]
            for values in raw
        ]
        out = {
            "latency_ms": stats.geomean([stats.median(v) for v in scaled]),
            "tail_ms": stats.geomean([tail_of(v, tail_p) for v in scaled]),
            "raw_latency_ms": stats.geomean([stats.median(v) for v in raw]),
            "raw_tail_ms": stats.geomean([tail_of(v, tail_p) for v in raw]),
            "tail_percentile": tail_p,
            "cal_ms": norm.cal_ms,
            "cal_ref_ms": norm.ref_ms,
            "cal_samples": len(norm.ticks),
            "samples": len(ticks),
            "kernels": len(self.kernels),
        }
        for name, values in zip(self.kernels, raw):
            out[f"raw_run_ms[{name}]"] = stats.median(values)
        return out

    def measure(self) -> Dict[str, float]:
        run = self.run
        tail_p = spec.TAIL_PERCENTILE[self.name]
        norm = stats.Normaliser(self._cal, stats.CAL_NP_REF_MS)
        sink, ticks = self._rounds(run.seconds, run.min_samples(tail_p), norm)
        out = self._summary(sink, ticks, norm, tail_p)
        out["code_bytes"] = float(self.code_bytes)
        return out

    def measure_traced(self) -> Dict[str, float]:
        run = self.run
        norm = stats.Normaliser(self._cal, stats.CAL_NP_REF_MS)
        untraced, _ = self._rounds(run.seconds / 4, 3, norm)
        tracer = start_tracing(run)
        traced, ticks = self._rounds(run.seconds / 4, 3, norm)
        rounds = len(ticks)

        # Cold builds, traced: build_module + engine construction per
        # kernel, the compile side of this workload.
        builds = 0
        deadline = time.perf_counter() + run.seconds / 4
        while time.perf_counter() < deadline or builds < 3:
            gc.collect()
            with tracer.sample("build"):
                for name in self.kernels:
                    _engine(
                        self._build_module(self.sources[name], self.pipeline),
                        self.pipeline,
                    )
            builds += 1

        out = layer_metrics(tracer, rounds)
        out["engine.run_ms"] = stats.geomean(
            [stats.median(traced[n]) for n in self.kernels]
        )
        # Build-side spans and counters live under the "build" root.
        build_counts = {
            key.split("/", 1)[1]: value / builds
            for key, value in tracer.counters.items()
            if key.startswith("build/")
        }
        for span, metric in (
            ("met.compile_c", "met.compile_c_ms"),
            ("tactics.raise", "tactics.raise_ms"),
            ("ir.print", "ir.print_ms"),
            ("ir.fingerprint", "ir.fingerprint_ms"),
            ("engine.build", "engine.build_ms"),
            ("engine.optimize", "engine.optimize_ms"),
            ("engine.codegen", "engine.codegen_ms"),
        ):
            out[metric] = tracer.total(span, "build") * 1e3 / builds
        for key in (
            "tactics.raise_trials",
            "tactics.raise_rewrites",
            "tactics.raised_callsites",
            "engine.nests_collapsed",
            "engine.contractions",
            "engine.vectorize_bails",
        ):
            out[key] = build_counts.get(key, 0.0)
        trials = out["tactics.raise_trials"]
        out["tactics.match_yield"] = (
            out["tactics.raise_rewrites"] / trials if trials else 0.0
        )
        nests = sum(
            build_counts.get(f"engine.{k}", 0.0)
            for k in ("nests_collapsed", "nests_partial", "nests_bailed")
        )
        out["engine.collapse_ratio"] = (
            out["engine.nests_collapsed"] / nests if nests else 0.0
        )
        out["engine.kernel_cache_misses"] = float(len(self.kernels))
        out["interpreter.check_ms"] = self.check_ms
        out["trace.overhead_pct"] = (
            out["engine.run_ms"]
            / stats.geomean([stats.median(untraced[n]) for n in self.kernels])
            - 1.0
        ) * 100.0
        return out


class ExecBaseline(_Exec):
    name = "exec_baseline"
    pipeline = "baseline"


class ExecRaised(_Exec):
    name = "exec_raised"
    pipeline = "mlt-blas"
