"""Parallel schedule autotuning with a persisted best-schedule cache.

The tuner turns the transform dialect into a search space: every
candidate is a parameter point (:func:`enumerate_space`) reified as a
schedule module (:func:`~.interpreter.schedule_from_params`), applied
to the payload, and timed on deterministic real inputs.  Candidates
shard across the persistent worker pool
(:func:`repro.runtime.pool.parallel_map`), so the search parallelizes
exactly like the fuzz campaigns and the corpus driver.

The search is content-addressed on what codegen consumes: a candidate
is identified by the kernel-cache key of its *post-schedule* payload,
so parameter points whose steps were all no-ops on this payload are one
kernel — compiled, warmed and timed once — and tie exactly, with the
default point winning ties.  A candidate is keyed before it is built
(:class:`~.interpreter.KeyedSearch`): when its steps only hit the pass
cache and end where an earlier candidate's did, it reuses that
candidate's kernel key without cloning, splicing or printing any IR.

The winning schedule persists in the disk cache's ``schedules/``
namespace (beside ``modules/`` and ``kernels/``), keyed by the payload
module's content fingerprint — so a warm compile of the same kernel
(including through ``mlt-serve``) replays the tuned schedule with
**zero** search evaluations.  The enumeration places the parameter
point equivalent to ``opt_mode="full"`` first, so any in-budget search
returns a schedule at least as fast as the default pipeline on the
measured inputs.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Sequence

from ..execution.engine.cache import KernelCache, fingerprint_module
from ..execution.engine.optimizer import DEFAULT_TILE_SIZE
from ..store import SCHEDULE_CACHE_VERSION, ArtifactStore
from ..telemetry import add, delta

#: Tile edges the tuner tries (0 = untiled).
TILE_SIZES = (0, 8, 16, 32, 64)

#: Unroll-and-jam factors for small reduction trips (0 = off).
UNROLL_JAM_FACTORS = (0, 2, 4)


def default_params() -> Dict:
    """The parameter point equivalent to ``opt_mode="full"``."""
    return {
        "fuse": True,
        "order": "fuse-first",
        "tile": DEFAULT_TILE_SIZE,
        "unroll_jam": 0,
        "vectorize": "nest",
    }


def enumerate_space() -> List[Dict]:
    """The full candidate list, deterministic, default point first.

    Axes: fuse on/off, fuse-vs-distribute order, tile edge, unroll-jam
    factor.  ``fuse=False`` collapses the order axis (there is nothing
    to reorder against).
    """
    default = default_params()
    points: List[Dict] = [default]
    for fuse, order in (
        (True, "fuse-first"),
        (True, "distribute-first"),
        (False, "fuse-first"),
    ):
        for tile in TILE_SIZES:
            for factor in UNROLL_JAM_FACTORS:
                point = {
                    "fuse": fuse,
                    "order": order,
                    "tile": tile,
                    "unroll_jam": factor,
                    "vectorize": "nest",
                }
                if point != default:
                    points.append(point)
    return points


# ----------------------------------------------------------------------
# Candidate evaluation (worker side)
# ----------------------------------------------------------------------

_WORKER_STATE: Optional[dict] = None


def _init_worker(config: dict) -> None:
    """Build one search's worker state.  Everything a candidate can
    reuse from an earlier one lives here and nowhere else: without a
    ``cache_dir`` it dies with the search and a repeated search starts
    cold."""
    global _WORKER_STATE
    from ..ir.parser import parse_module
    from .interpreter import KeyedSearch

    state = dict(config)
    payload = config["payload"]
    # Text only where the payload crosses into a worker process; a
    # keyed search never mutates the module it is handed.
    if isinstance(payload, str):
        payload = parse_module(payload)
    state["module"] = payload
    # One store per worker, shared across every candidate this worker
    # evaluates: a schedule step already applied to the same function
    # text runs once (with a disk root the whole pool shares it), and
    # candidates that leave the same payload behind share one kernel.
    state["store"] = ArtifactStore(config["cache_dir"])
    # Outcome -> kernel key: a candidate whose steps only hit the pass
    # cache and land where an earlier one did touches no IR.
    state["search"] = KeyedSearch()
    state["measured"] = {}
    _WORKER_STATE = state


def _time_kernel(engine, func_name, repeats, seed):
    """Steady-state execution time of a compiled engine (best of
    ``repeats``) on deterministic inputs; returns (wall, checksum)."""
    from ..fuzzing.oracle import make_args, module_arg_shapes

    shapes = module_arg_shapes(engine.module, func_name)
    # One untimed run first: it absorbs first-touch process costs
    # (allocator, numpy dispatch) that would otherwise bias the
    # comparison toward whichever kernel is measured *second* in a
    # given process.
    engine.run(func_name, *make_args(shapes, seed))
    wall = float("inf")
    digest = 0.0
    for _ in range(max(1, repeats)):
        args = make_args(shapes, seed)
        start = time.perf_counter()
        engine.run(func_name, *args)
        wall = min(wall, time.perf_counter() - start)
        digest = float(sum(float(buf.sum()) for buf in args))
    return wall, digest


def _evaluate_candidate(unit) -> Dict:
    """One tuning evaluation: key the parameter point's schedule on the
    payload, and build, compile and time only what no earlier candidate
    left behind."""
    index, params = unit
    state = _WORKER_STATE
    from ..execution.engine.engine import ExecutionEngine
    from .interpreter import apply_schedule, schedule_from_params

    pass_cache = state["store"].passes if state["pass_cache"] else None
    before = (
        pass_cache.stats.snapshot() if pass_cache is not None else None
    )
    search = state["search"]
    applied = apply_schedule(
        schedule_from_params(params),
        state["module"],
        pass_cache=pass_cache,
        keyed=search,
    )
    kernel_key = search.known.get(applied.outcome)
    if kernel_key is None:
        engine = ExecutionEngine(
            applied.payload,
            cache=state["store"].kernels,
            vectorize=applied.vectorize or "nest",
        )
        kernel_key = engine.compiled.key
        if kernel_key not in state["measured"]:
            state["measured"][kernel_key] = _time_kernel(
                engine, state["func_name"], state["repeats"], state["seed"]
            )
        if applied.outcome is not None:
            search.known[applied.outcome] = kernel_key
    measured = state["measured"][kernel_key]
    row = {
        "index": index,
        "params": params,
        "kernel_key": kernel_key,
        "wall_time_s": measured[0],
        "checksum": measured[1],
    }
    if before is not None:
        row["pass_cache"] = delta(pass_cache.stats.snapshot(), before)
    return row


def _merge_by_kernel(results: List[Dict]) -> int:
    """Give every row its kernel's one measurement and return the
    number of distinct kernels.

    Across ``jobs`` shards a kernel may have been timed once per
    worker, so the lowest-index row of each ``kernel_key`` is the
    representative; ties between parameter points are then exact.
    """
    representative: Dict[str, Dict] = {}
    for row in results:  # parallel_map returns rows in index order
        first = representative.setdefault(row["kernel_key"], row)
        row["wall_time_s"] = first["wall_time_s"]
        row["checksum"] = first["checksum"]
    return len(representative)


# ----------------------------------------------------------------------
# Per-kernel tuning driver
# ----------------------------------------------------------------------


def autotune_kernel(
    kernel: str,
    budget: int = 24,
    jobs: int = 1,
    repeats: int = 3,
    seed: int = 0,
    cache_dir: Optional[str] = None,
    pipeline: str = "mlt-linalg",
    heavy: bool = False,
    pass_cache: bool = True,
) -> Dict:
    """Tune one paper-corpus kernel; returns a ``BENCH_autotune`` row.

    With a ``cache_dir`` whose ``schedules/`` namespace already holds a
    record for this payload, the search is skipped entirely
    (``evaluations == 0``, ``cached == True``) and the persisted
    schedule replays at default-compile latency.

    ``evaluations`` counts parameter points; ``distinct_kernels`` counts
    the different post-schedule payloads they produced, each compiled
    and timed once (1 = the pipeline left the schedule space nothing to
    transform).

    ``pass_cache`` (default on) gives every search worker a
    function-granular pass-result cache (persisted under ``cache_dir``
    when set), so a schedule step shared by several candidates is
    applied once per worker instead of once per candidate.
    """
    global _WORKER_STATE
    from ..evaluation import get_kernel
    from ..evaluation.pipelines import build_module
    from ..execution.engine.engine import ExecutionEngine
    from ..ir.printer import print_module
    from ..runtime.pool import parallel_map, resolve_jobs
    from .interpreter import schedule_from_params

    spec = get_kernel(kernel)
    source = spec.large() if heavy else spec.small()
    module = build_module(source, pipeline)
    fingerprint = fingerprint_module(module)
    store = ArtifactStore(cache_dir)

    found = store.load_schedule(fingerprint)
    if found is not None:
        record, schedule = found
        # Warm replay: no search, just compile + run under the
        # persisted winner to prove it still applies.  The reported
        # speedup is the *search-time* measurement pair — the only two
        # timings taken under identical conditions; re-measuring the
        # default here would compare runs from different process
        # states, which on a loaded box swamps the signal.
        replay_wall, tuned_digest = _time_kernel(
            ExecutionEngine(
                module,
                cache=KernelCache(),
                schedule=schedule,
            ),
            spec.func_name,
            repeats,
            seed,
        )
        tuned_wall = float(record.get("wall_time_s", replay_wall))
        default_wall = float(record.get("default_wall_s", tuned_wall))
        return {
            "kernel": kernel,
            "cached": True,
            "evaluations": 0,
            "distinct_kernels": 0,
            "best_params": record["params"],
            "schedule": record["schedule"],
            "default_wall_s": default_wall,
            "tuned_wall_s": tuned_wall,
            "replay_wall_s": replay_wall,
            "speedup": default_wall / tuned_wall if tuned_wall > 0 else 1.0,
            "checksum": tuned_digest,
        }

    points = enumerate_space()[: max(1, budget)]
    inline = resolve_jobs(jobs) <= 1 or len(points) <= 1
    config = {
        "payload": module if inline else print_module(module),
        "func_name": spec.func_name,
        "repeats": repeats,
        "seed": seed,
        "pass_cache": pass_cache,
        "cache_dir": cache_dir,
    }
    search_start = time.perf_counter()
    try:
        results = parallel_map(
            _evaluate_candidate,
            list(enumerate(points)),
            jobs=jobs,
            initializer=_init_worker,
            initargs=(config,),
        )
    finally:
        # An in-process search (jobs=1) built its state in this
        # process; drop it so nothing outlives the search.
        _WORKER_STATE = None
    search_s = time.perf_counter() - search_start
    distinct_kernels = _merge_by_kernel(results)
    default_row = results[0]
    # Correctness screen: a candidate whose output digest disagrees
    # with the default pipeline's is discarded, never declared a win.
    tolerance = 1e-4 * max(1.0, abs(default_row["checksum"]))
    valid = [
        row
        for row in results
        if abs(row["checksum"] - default_row["checksum"]) <= tolerance
    ]
    best_row = min(valid, key=lambda row: (row["wall_time_s"], row["index"]))
    best_schedule_text = print_module(
        schedule_from_params(best_row["params"])
    )
    store.store_schedule(
        fingerprint,
        {
            "version": SCHEDULE_CACHE_VERSION,
            "kernel": kernel,
            "fingerprint": fingerprint,
            "params": best_row["params"],
            "schedule": best_schedule_text,
            "wall_time_s": best_row["wall_time_s"],
            "default_wall_s": default_row["wall_time_s"],
            "evaluations": len(results),
            "distinct_kernels": distinct_kernels,
        },
    )
    tuned_wall = best_row["wall_time_s"]
    default_wall = default_row["wall_time_s"]
    cache_totals: Dict[str, int] = {}
    for row in results:
        add(cache_totals, row.get("pass_cache"))
    return {
        "kernel": kernel,
        "cached": False,
        "evaluations": len(results),
        "distinct_kernels": distinct_kernels,
        "best_params": best_row["params"],
        "schedule": best_schedule_text,
        "default_wall_s": default_wall,
        "tuned_wall_s": tuned_wall,
        "speedup": default_wall / tuned_wall if tuned_wall > 0 else 1.0,
        "checksum": best_row["checksum"],
        "rejected_candidates": len(results) - len(valid),
        "search_s": search_s,
        "pass_cache": cache_totals,
    }


def vacuous_search_note(row: Dict) -> Optional[str]:
    """The line ``mlt-tune`` prints for a search that had nothing to
    choose between (``None`` for any other row)."""
    if row["cached"] or row["distinct_kernels"] != 1:
        return None
    return (
        f"{row['evaluations']} candidates, 1 distinct kernel: this "
        f"pipeline leaves the schedule space nothing to transform"
    )


#: Kernels ``mlt-tune`` tunes when none are named.
DEFAULT_TUNE_KERNELS = ("gemm", "2mm", "doitgen", "atax")


def autotune(
    kernels: Sequence[str] = DEFAULT_TUNE_KERNELS,
    budget: int = 24,
    jobs: int = 1,
    repeats: int = 3,
    seed: int = 0,
    cache_dir: Optional[str] = None,
    pipeline: str = "mlt-linalg",
    heavy: bool = False,
    pass_cache: bool = True,
) -> Dict:
    """Tune a kernel list; returns the ``BENCH_autotune`` payload."""
    rows = [
        autotune_kernel(
            kernel,
            budget=budget,
            jobs=jobs,
            repeats=repeats,
            seed=seed,
            cache_dir=cache_dir,
            pipeline=pipeline,
            heavy=heavy,
            pass_cache=pass_cache,
        )
        for kernel in kernels
    ]
    return {
        "rows": rows,
        "summary": {
            "budget": budget,
            "jobs": jobs,
            "repeats": repeats,
            "evaluations": sum(row["evaluations"] for row in rows),
            "distinct_kernels": sum(row["distinct_kernels"] for row in rows),
            "cached": sum(1 for row in rows if row["cached"]),
            "best_speedup": max(row["speedup"] for row in rows),
            "search_s": sum(row.get("search_s", 0.0) for row in rows),
        },
    }
