"""Benchmark-corpus scale driver: ``benchmarks.harness --jobs N``.

One work unit = one (kernel, pipeline) pair of the paper's 16-kernel
corpus: build the module through the pass pipeline, codegen it through
the tiered kernel cache, and execute it once on deterministic inputs
to record a checksum.  Units shard across the worker pool and merge in
input order; the per-unit checksums make run-to-run determinism
checkable (serial, parallel, cold and warm runs must all agree).

The scale *study* (:func:`run_scale_study`) measures the corpus
wall-clock along both axes this PR ships:

* **worker count** — a cold run at ``--jobs 1`` vs a cold run at
  ``--jobs N`` (fresh cache both times);
* **cache warmth** — the same corpus re-run against the now-populated
  persistent cache, where every unit re-hydrates its compiled kernel
  from disk (zero codegen invocations) and its post-pipeline IR from
  the module cache (no C frontend, no raising pipeline).

Results go to ``benchmarks/results/BENCH_scale.json``.
"""

from __future__ import annotations

import os
import shutil
import time
from typing import Dict, List, Optional, Sequence, Tuple

from .pool import effective_cpus, get_pool, parallel_map, pool_stats

_WORKER_STATE: Optional[dict] = None

#: Pipelines a corpus unit is measured under by default.
DEFAULT_PIPELINES = ("baseline", "mlt-blas")


def _init_worker(config: dict) -> None:
    global _WORKER_STATE
    from ..store import ArtifactStore

    _WORKER_STATE = dict(config, store=ArtifactStore(config["cache_dir"]))


def _run_unit(unit: Tuple[str, str]) -> Dict:
    kernel_name, pipeline = unit
    state = _WORKER_STATE
    from ..evaluation import get_kernel
    from ..evaluation.pipelines import build_module
    from ..store import CompileConfig, compile_unit, text_fingerprint

    start = time.perf_counter()
    spec = get_kernel(kernel_name)
    source = spec.large() if state["heavy"] else spec.small()
    tile = state["tile"]
    # A warm unit takes its text from modules/ and its kernel from
    # kernels/: it materializes IR objects only if it also executes.
    built = compile_unit(
        state["store"],
        source,
        CompileConfig(
            frontend="c", pipeline=(pipeline,), label="bench", tile=tile
        ),
        lambda: build_module(source, pipeline, tile=tile),
        want_module=state["execute"],
    )
    compiled = built.compiled
    # Compilation determinism digest: cold, warm, serial and parallel
    # runs must produce byte-identical kernel source for each unit.
    checksum = text_fingerprint(compiled.source)

    if state["execute"]:
        from ..fuzzing.oracle import make_args, module_arg_shapes

        args = make_args(
            module_arg_shapes(built.module, spec.func_name), state["seed"]
        )
        compiled.functions[spec.func_name](*args)
        digest = sum(float(buf.sum()) for buf in args)
        checksum = f"{checksum}:{digest:.6f}"

    return {
        "kernel": kernel_name,
        "pipeline": pipeline,
        "wall_time_s": time.perf_counter() - start,
        "codegen_count": int(not built.kernel_hit),
        "module_cache_hit": built.module_hit,
        "checksum": checksum,
    }


def run_corpus(
    kernel_names: Sequence[str],
    pipelines: Sequence[str] = DEFAULT_PIPELINES,
    jobs: int = 1,
    cache_dir: Optional[str] = None,
    tile: int = 32,
    execute: bool = False,
    heavy: bool = False,
    seed: int = 0,
) -> Dict:
    """One sharded pass over the corpus; returns an aggregate row."""
    units = [
        (kernel, pipeline)
        for kernel in kernel_names
        for pipeline in pipelines
    ]
    config = {
        "cache_dir": cache_dir,
        "tile": tile,
        "execute": execute,
        "heavy": heavy,
        "seed": seed,
    }
    start = time.perf_counter()
    unit_rows = parallel_map(
        _run_unit,
        units,
        jobs=jobs,
        initializer=_init_worker,
        initargs=(config,),
    )
    wall = time.perf_counter() - start
    return {
        "jobs": jobs,
        "wall_time_s": wall,
        "units": len(unit_rows),
        "codegen_count": sum(r["codegen_count"] for r in unit_rows),
        "module_cache_hits": sum(
            1 for r in unit_rows if r["module_cache_hit"]
        ),
        "unit_rows": unit_rows,
    }


def run_scale_study(
    jobs: int,
    kernel_names: Sequence[str],
    pipelines: Sequence[str] = DEFAULT_PIPELINES,
    cache_dir: Optional[str] = None,
    tile: int = 32,
    heavy: bool = False,
    execute: bool = False,
    seed: int = 0,
) -> Dict:
    """Measure the corpus across worker counts and cache warmth.

    Sequence (cache wiped before each *cold* run):

    1. cold, ``jobs=1``   — the serial baseline;
    2. cold, ``jobs=N``   — parallel speedup (when N > 1);
    3. warm, ``jobs=1``   — persistent-cache speedup, zero codegen;
    4. warm, ``jobs=N``   — both levers combined (when N > 1).

    Checksums must agree across all runs — a parallel or cache-served
    result that differs from the serial cold run is a hard error.
    """

    def wipe() -> None:
        if cache_dir and os.path.isdir(cache_dir):
            shutil.rmtree(cache_dir)

    if jobs > 1:
        # Fork the persistent pool outside the timed region: the study
        # measures steady-state parallel throughput, and a service
        # reusing the pool across calls pays the fork exactly once.
        get_pool(jobs)

    plan = [("cold", 1)]
    if jobs > 1:
        plan.append(("cold", jobs))
    plan.append(("warm", 1))
    if jobs > 1:
        plan.append(("warm", jobs))

    rows: List[Dict] = []
    reference: Optional[List] = None
    for cache_state, run_jobs in plan:
        if cache_state == "cold":
            wipe()
        row = run_corpus(
            kernel_names,
            pipelines,
            jobs=run_jobs,
            cache_dir=cache_dir,
            tile=tile,
            execute=execute,
            heavy=heavy,
            seed=seed,
        )
        row["cache"] = cache_state
        checksums = [
            (u["kernel"], u["pipeline"], u["checksum"])
            for u in row["unit_rows"]
        ]
        if reference is None:
            reference = checksums
        elif checksums != reference:
            raise AssertionError(
                f"scale study: jobs={run_jobs} {cache_state} run produced "
                "different checksums than the serial cold run"
            )
        rows.append(row)
    by_key = {(r["cache"], r["jobs"]): r["wall_time_s"] for r in rows}
    serial_cold = by_key[("cold", 1)]
    best = min(by_key.values())
    summary = {
        "jobs": jobs,
        "kernels": list(kernel_names),
        "pipelines": list(pipelines),
        "speedup": serial_cold / best if best > 0 else float("inf"),
        "warm_speedup": serial_cold / by_key[("warm", 1)]
        if by_key[("warm", 1)] > 0
        else float("inf"),
        "parallel_speedup": (
            serial_cold / by_key[("cold", jobs)]
            if jobs > 1 and by_key.get(("cold", jobs))
            else None
        ),
        "warm_codegen_count": rows[
            [i for i, r in enumerate(rows) if r["cache"] == "warm"][0]
        ]["codegen_count"],
        # Honesty marker: parallel_speedup > 1 is only achievable when
        # the study actually had more than one CPU to run on.
        "effective_cpus": effective_cpus(),
        "pool": pool_stats().get(str(jobs)),
    }
    if cache_dir and summary["warm_codegen_count"]:
        raise AssertionError(
            "scale study: warm run performed "
            f"{summary['warm_codegen_count']} codegen invocations; "
            "every kernel should have come off the persistent cache"
        )
    return {"rows": rows, "summary": summary}
