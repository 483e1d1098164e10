"""tune_search — the ``mlt-tune`` schedule search.

One sample = ``autotune`` over four kernels x 24 schedules (96
candidates, cold: no schedule cache, fresh pass cache per search).
Per candidate the search applies a transform schedule, compiles and
times it, so ``scheduling/``, the pass cache and codegen carry the
load; nothing else in the benchmark touches ``scheduling/``.
"""

from __future__ import annotations

import random
import time
from typing import Dict, List

from .. import corpus, spec, stats
from .base import (
    Workload,
    layer_metrics,
    start_tracing,
    summarise,
    timed_samples,
)

KERNELS = ("gemm", "2mm", "doitgen", "atax")
BUDGET = 24
PIPELINE = "mlt-linalg"
WINNER_RUNS = 30


class TuneSearch(Workload):
    name = "tune_search"

    def setup(self) -> None:
        from repro.evaluation import get_kernel
        from repro.evaluation.pipelines import build_module
        from repro.execution import ExecutionEngine
        from repro.execution.engine.cache import KernelCache
        from repro.scheduling.autotune import autotune, enumerate_space
        from repro.scheduling.interpreter import schedule_from_params

        run = self.run
        self._autotune = autotune
        kernels = list(KERNELS)
        random.Random(run.seed).shuffle(kernels)
        self.kernels = tuple(kernels)

        # Oracle (and warm-up): every candidate schedule of every
        # kernel against the interpreter on the untouched MET module.
        start = time.perf_counter()
        self.code_bytes = 0
        points = enumerate_space()[:BUDGET]
        for name in self.kernels:
            spec_ = get_kernel(name)
            source, func = spec_.small(), spec_.func_name
            inputs, expected = corpus.reference_outputs(source, func, run.seed)
            module = build_module(source, PIPELINE)
            for index, params in enumerate(points):
                engine = ExecutionEngine(
                    module,
                    cache=KernelCache(),
                    schedule=schedule_from_params(params),
                )
                run.verdicts.check(
                    corpus.agree(
                        expected, corpus.run_copy(engine, func, inputs)
                    ),
                    f"oracle:{name}:schedule#{index}",
                )
                self.code_bytes += len(engine.source.encode("utf-8"))
        self.check_ms = (time.perf_counter() - start) * 1e3
        self._search()

    def _search(self) -> None:
        self.last = self._autotune(
            self.kernels,
            budget=BUDGET,
            jobs=1,
            repeats=3,
            seed=self.run.seed,
            cache_dir=None,
            pipeline=PIPELINE,
            pass_cache=True,
        )

    def _count_last(self) -> None:
        """Every candidate is an operation; one the search's own
        correctness screen rejected is a failed one."""
        for row in self.last["rows"]:
            rejected = row["rejected_candidates"]
            self.run.verdicts.add(
                row["evaluations"], rejected, f"rejected:{row['kernel']}"
            )

    def measure(self) -> Dict[str, float]:
        run = self.run
        tail_p = spec.TAIL_PERCENTILE[self.name]
        norm = stats.Normaliser(stats.cal_py, stats.CAL_PY_REF_MS)
        timed = timed_samples(
            self._search, run.seconds, run.min_samples(tail_p), norm
        )
        run.verdicts.add((len(timed.wall) - 1) * BUDGET * len(self.kernels))
        self._count_last()
        out = summarise(timed, norm, tail_p, run.quick)
        out["code_bytes"] = float(self.code_bytes)
        return out

    def measure_traced(self) -> Dict[str, float]:
        run = self.run
        norm = stats.Normaliser(stats.cal_py, stats.CAL_PY_REF_MS)
        untraced = timed_samples(self._search, run.seconds / 4, 3, norm).wall
        tracer = start_tracing(run)

        traced: List[float] = []
        totals = {"candidates": 0, "rejected": 0, "search_s": 0.0}
        cache_totals: Dict[str, int] = {}

        def sample() -> None:
            with tracer.sample():
                start = time.perf_counter()
                self._search()
                traced.append((time.perf_counter() - start) * 1e3)
            for row in self.last["rows"]:
                totals["candidates"] += row["evaluations"]
                totals["rejected"] += row["rejected_candidates"]
                totals["search_s"] += row["search_s"]
                for key, value in row["pass_cache"].items():
                    cache_totals[key] = cache_totals.get(key, 0) + value

        timed_samples(sample, run.seconds / 2, 3, norm)
        n = len(traced)
        run.verdicts.add((n - 1) * BUDGET * len(self.kernels))
        self._count_last()

        out = layer_metrics(tracer, n)
        candidates = totals["candidates"]
        out["scheduling.candidates"] = candidates / n
        out["scheduling.rejected"] = totals["rejected"] / n
        out["scheduling.eval_ms"] = totals["search_s"] * 1e3 / candidates
        out["scheduling.measure_ms"] = (
            tracer.total("engine.run") * 1e3 / candidates
        )
        out["scheduling.apply_ms"] = (
            tracer.total("scheduling.apply") * 1e3 / candidates
        )
        # The search's pass cache lives in its worker state; its rows
        # carry the counter deltas.
        for key in ("hits", "misses", "executions", "prefix_restores"):
            out[f"pass_cache.{key}"] = cache_totals.get(key, 0) / n
        lookups = out["pass_cache.hits"] + out["pass_cache.misses"]
        out["pass_cache.hit_ratio"] = (
            out["pass_cache.hits"] / lookups if lookups else 0.0
        )
        out["engine.kernel_cache_misses"] = candidates / n
        out["scheduling.winner_run_ms"] = self._winner_run_ms()
        out["interpreter.check_ms"] = self.check_ms
        out["trace.overhead_pct"] = (
            stats.median(traced) / stats.median(untraced) - 1.0
        ) * 100.0
        return out

    def _winner_run_ms(self) -> float:
        """The last search's winners re-timed at mid sizes (geometric
        mean of per-kernel medians), each checked against the
        ``mlt-blas`` engine — a disjoint compile path."""
        from repro.evaluation.pipelines import build_module
        from repro.execution import ExecutionEngine
        from repro.execution.engine.cache import KernelCache
        from repro.fuzzing.oracle import make_args, module_arg_shapes
        from repro.ir.parser import parse_module

        medians = []
        for row in self.last["rows"]:
            name = row["kernel"]
            source, func = corpus.mid_source(name), corpus.func_name(name)
            module = build_module(source, PIPELINE)
            engine = ExecutionEngine(
                module,
                cache=KernelCache(),
                schedule=parse_module(row["schedule"]),
            )
            inputs = make_args(module_arg_shapes(module, func), self.run.seed)
            partner = ExecutionEngine(
                build_module(source, "mlt-blas"),
                pipeline="mlt-blas",
                opt_mode="full",
                cache=KernelCache(),
            )
            self.run.verdicts.check(
                corpus.agree(
                    corpus.run_copy(partner, func, inputs),
                    corpus.run_copy(engine, func, inputs),
                ),
                f"mid:{name}:winner vs mlt-blas",
            )
            samples = []
            for _ in range(WINNER_RUNS):
                args = [a.copy() for a in inputs]
                start = time.perf_counter()
                engine.run(func, *args)
                samples.append((time.perf_counter() - start) * 1e3)
            medians.append(stats.median(samples))
        return stats.geomean(medians)
