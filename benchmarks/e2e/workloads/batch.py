"""batch_fill / batch_replay — the ``mlt-opt`` multi-file user path.

Both make the identical ``run_batch`` call over the 16 kernels written
as ``.c`` files.  ``batch_fill`` gives every sample an *empty*
``cache_dir`` (modules/, passes/, kernels/ all missing and writing);
``batch_replay`` points every sample at one directory filled in setup
(pure reads; in-memory state is fresh per call either way).  The pair
is each other's control: a store or key change that speeds one side
and costs the other shows as opposite moves.
"""

from __future__ import annotations

import os
import time
from typing import Dict, List

from .. import corpus, spec, stats
from .base import (
    KERNEL_TIME_EXCLUDED,
    GcMeter,
    Workload,
    layer_metrics,
    start_tracing,
    summarise,
    timed_samples,
)

PASSES = [
    "raise-affine-to-linalg",
    "affine-loop-fusion",
    "affine-copy-elimination",
    "canonicalize",
    "affine-loop-distribution",
    "affine-loop-tile",
    "canonicalize",
]


def _write_sources(directory: str, order: List[str], source_of) -> List[str]:
    paths = []
    for index, name in enumerate(order):
        path = os.path.join(directory, f"k{index:02d}.c")
        with open(path, "w") as handle:
            handle.write(source_of(name))
        paths.append(path)
    return paths


def _read_outputs(results) -> Dict[str, bytes]:
    out = {}
    for result in results:
        with open(result.output_path, "rb") as handle:
            out[os.path.basename(result.output_path)] = handle.read()
    return out


class _Batch(Workload):
    #: True: every sample starts from an empty cache_dir.
    fill = True

    def _run_batch(self, paths, out_dir, cache_dir):
        from repro.runtime.batch import run_batch

        return run_batch(
            paths,
            PASSES,
            out_dir,
            jobs=1,
            cache_dir=cache_dir,
            compile_kernels=True,
        )

    def setup(self) -> None:
        from repro.execution import Interpreter
        from repro.ir.parser import parse_module

        run = self.run
        self.order = corpus.kernel_order(run.seed)
        self.paths = _write_sources(
            run.scratch("src"), self.order, corpus.small_source
        )
        self.out_dir = run.scratch("out")
        self.cache_dir = os.path.join(run.workdir, "cache")

        # Oracle: what the pass pipeline emits must compute what the
        # untouched MET module computes.
        start = time.perf_counter()
        oracle_paths = _write_sources(
            run.scratch("oracle-src"), self.order, corpus.oracle_source
        )
        results = self._run_batch(oracle_paths, run.scratch("oracle-out"), None)
        for name, result in zip(self.order, results):
            ok = result.ok
            if ok:
                func = corpus.func_name(name)
                inputs, expected = corpus.reference_outputs(
                    corpus.oracle_source(name), func, run.seed
                )
                with open(result.output_path) as handle:
                    module = parse_module(handle.read())
                actual = corpus.run_copy(
                    Interpreter(module, max_steps=2_000_000_000), func, inputs
                )
                ok = corpus.agree(expected, actual)
            run.verdicts.check(ok, f"oracle:{name}:batch-pipeline")
        self.check_ms = (time.perf_counter() - start) * 1e3

        # The fill whose outputs every later sample must reproduce
        # byte for byte (and, for batch_replay, whose cache it reads).
        results = self._sample_results = self._run_batch(
            self.paths, self.out_dir, self.cache_dir
        )
        self._count(results)
        self.reference = _read_outputs(results)
        self.code_bytes = sum(len(b) for b in self.reference.values())
        self._fills = 0
        if self.fill:
            self._before()
        else:
            self._sample()  # warm the page cache for the replay reads

    def _normaliser(self) -> stats.Normaliser:
        return stats.Normaliser(stats.cal_py, stats.CAL_PY_REF_MS)

    def _count(self, results) -> None:
        for result in results:
            self.run.verdicts.check(result.ok, f"batch:{result.input_path}")

    def _before(self) -> None:
        """Every fill sample gets a cache_dir that does not exist yet;
        nothing is deleted until teardown, so no sample pays for the
        filesystem digesting the previous one's deletes."""
        if self.fill:
            self._fills += 1
            self.cache_dir = os.path.join(
                self.run.workdir, f"cache-{self._fills}"
            )

    def _sample(self) -> None:
        self._sample_results = self._run_batch(
            self.paths, self.out_dir, self.cache_dir
        )

    def _check_sample(self) -> None:
        """The last sample's outputs must equal the reference fill's."""
        results = self._sample_results
        self._count(results)
        expected_detail = "compiled" if self.fill else "module-cache"
        self.run.verdicts.check(
            all(r.detail == expected_detail for r in results),
            f"every unit {expected_detail}",
        )
        self.run.verdicts.check(
            _read_outputs(results) == self.reference,
            "outputs byte-identical to the reference fill",
        )

    def measure(self) -> Dict[str, float]:
        run = self.run
        tail_p = spec.TAIL_PERCENTILE[self.name]
        norm = self._normaliser()
        timed = timed_samples(
            self._sample,
            run.seconds,
            run.min_samples(tail_p),
            norm,
            cal_every=1 if self.fill else 4,
            before=self._before,
        )
        run.verdicts.add((len(timed.wall) - 1) * len(self.paths))
        self._check_sample()
        out = summarise(
            timed,
            norm,
            tail_p,
            run.quick,
            minus_kernel=self.name in KERNEL_TIME_EXCLUDED,
        )
        out["code_bytes"] = float(self.code_bytes)
        return out

    def measure_traced(self) -> Dict[str, float]:
        run = self.run
        norm = self._normaliser()
        cal_every = 1 if self.fill else 4
        untraced = timed_samples(
            self._sample, run.seconds / 4, 3, norm, cal_every, self._before
        ).wall
        tracer = start_tracing(run)

        traced: List[float] = []
        unit_ms: List[float] = []
        cache_totals = {"hits": 0, "misses": 0, "written": 0, "read": 0}
        module_hits = 0
        gc_meter = GcMeter()

        def sample() -> None:
            nonlocal module_hits
            with tracer.sample(), gc_meter:
                start = time.perf_counter()
                self._sample()
                traced.append((time.perf_counter() - start) * 1e3)
            for result in self._sample_results:
                unit_ms.append(result.seconds * 1e3)
                module_hits += result.detail == "module-cache"
                # The memory tier is fresh per unit and always misses;
                # the disk tier is the one that can answer.
                disk = (result.cache_snapshot or {}).get("disk") or {}
                cache_totals["hits"] += disk.get("hits", 0)
                cache_totals["misses"] += disk.get("misses", 0)
                cache_totals["written"] += disk.get("bytes_written", 0)
                cache_totals["read"] += disk.get("bytes_read", 0)

        timed_samples(
            sample, run.seconds / 2, 3, norm, cal_every, self._before
        )
        n = len(traced)
        run.verdicts.add((n - 1) * len(self.paths))
        self._check_sample()

        out = layer_metrics(tracer, n)
        out["ir.gc_ms"] = gc_meter.seconds * 1e3 / n
        out["ir.gc_share"] = gc_meter.seconds / (sum(traced) / 1e3)
        out["interpreter.check_ms"] = self.check_ms
        out["batch.unit_ms"] = stats.median(unit_ms)
        out["batch.module_cache_hits"] = module_hits / n
        out["engine.kernel_cache_hits"] = cache_totals["hits"] / n
        out["engine.kernel_cache_misses"] = cache_totals["misses"] / n
        out["engine.disk_bytes_written"] = cache_totals["written"] / n
        out["engine.disk_bytes_read"] = cache_totals["read"] / n
        if out["met.compile_c_ms"]:
            src_bytes = sum(os.path.getsize(p) for p in self.paths)
            out["met.src_bytes_per_s"] = src_bytes / (
                out["met.compile_c_ms"] / 1e3
            )
        out["trace.overhead_pct"] = (
            stats.median(traced) / stats.median(untraced) - 1.0
        ) * 100.0
        return out


class BatchFill(_Batch):
    name = "batch_fill"
    fill = True


class BatchReplay(_Batch):
    name = "batch_replay"
    fill = False
