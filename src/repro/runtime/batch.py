"""Multi-file batch compilation: ``mlt-opt`` with many inputs.

Each input file is one work unit: load (C or textual IR), run the
requested pass pipeline, print the result, and optionally codegen the
module into the shared kernel cache.  Units run across the worker
pool; outputs land in ``--out-dir`` named after the input stem, and
results merge back in input order so batch reports are deterministic.

Every unit climbs the one compile ladder
(:func:`repro.store.compile_unit`) over the ``--cache-dir`` store that
all worker processes share: a warm unit takes its printed IR from
``modules/`` (no frontend, no passes) and its kernel from ``kernels/``
(no codegen); an edited input that misses ``modules/`` still skips the
passes of its unchanged functions through ``passes/``.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from typing import List, Optional, Sequence

from ..telemetry import delta
from .pool import parallel_map

#: Per-worker state installed by the initializer.
_WORKER_STATE: Optional[dict] = None


@dataclass
class BatchResult:
    """Outcome of one batch unit (picklable)."""

    input_path: str
    output_path: Optional[str]
    ok: bool
    seconds: float
    #: "module-cache" | "compiled" for successes; error text otherwise.
    detail: str = ""
    cache_snapshot: Optional[dict] = None


def unit_config(pass_names: Sequence[str], driver: str, source_kind: str):
    """The ``CompileConfig`` of one ``mlt-opt`` compile.  Batch units
    and single-file ``--execute --engine compiled`` both key through
    it, which is what lets a batch over ``--cache-dir`` warm a later
    ``--execute``."""
    from ..store import CompileConfig

    return CompileConfig(
        frontend=source_kind,
        pipeline=tuple(pass_names),
        label="mlt-opt",
        driver=driver,
    )


def _init_worker(config: dict) -> None:
    global _WORKER_STATE
    from ..ir import set_default_driver
    from ..store import ArtifactStore

    set_default_driver(config["driver"])
    _WORKER_STATE = dict(
        config,
        store=ArtifactStore(config["cache_dir"]),
        config=unit_config(
            config["pass_names"], config["driver"], config["source_kind"]
        ),
    )


def _run_unit(input_path: str) -> BatchResult:
    state = _WORKER_STATE
    start = time.perf_counter()
    try:
        result = _process_file(input_path, state)
    except Exception as exc:  # one bad file must not sink the batch
        return BatchResult(
            input_path=input_path,
            output_path=None,
            ok=False,
            seconds=time.perf_counter() - start,
            detail=f"{type(exc).__name__}: {exc}",
        )
    result.seconds = time.perf_counter() - start
    return result


def _output_path(out_dir: str, input_path: str) -> str:
    """``out_dir/<input stem>.mlir``."""
    stem = os.path.splitext(os.path.basename(input_path))[0]
    return os.path.join(out_dir, stem + ".mlir")


def _process_file(input_path: str, state: dict) -> BatchResult:
    from ..ir import verify
    from ..store import compile_unit
    from ..tool import build_pipeline, load_input

    store = state["store"]
    out_dir = state["out_dir"]
    with open(input_path) as handle:
        raw_text = handle.read()

    def build():
        module = load_input(input_path, state["source_kind"])
        pm = build_pipeline(state["pass_names"])
        # Function-granular tier below modules/: an edited input still
        # skips the passes of its unchanged functions.
        pm.pass_cache = store.passes
        pm.run(module)
        if state["verify"]:
            verify(module, pm.context)
        return module

    compiling = state["compile_kernels"]
    before = store.kernels.snapshot() if compiling else None
    unit = compile_unit(
        store, raw_text, state["config"], build, kernel=compiling
    )
    # The store outlives the unit; report this unit's share of it.
    cache_snapshot = (
        delta(store.kernels.snapshot(), before) if compiling else None
    )

    output_path = None
    if out_dir:
        output_path = _output_path(out_dir, input_path)
        with open(output_path, "w") as handle:
            handle.write(unit.text)
    return BatchResult(
        input_path=input_path,
        output_path=output_path,
        ok=True,
        seconds=0.0,
        detail="module-cache" if unit.module_hit else "compiled",
        cache_snapshot=cache_snapshot,
    )


def run_batch(
    inputs: Sequence[str],
    pass_names: Sequence[str],
    out_dir: Optional[str],
    jobs: int = 1,
    cache_dir: Optional[str] = None,
    driver: str = "worklist",
    source_kind: str = "auto",
    verify: bool = True,
    compile_kernels: bool = False,
) -> List[BatchResult]:
    """Compile many input files through one shared pool and cache.

    With ``out_dir``, two inputs that share a stem would write the same
    output file: that raises ``ValueError`` before any unit runs.
    """
    if out_dir:
        writers = {}
        for path in inputs:
            output_path = _output_path(out_dir, path)
            if output_path in writers:
                raise ValueError(
                    f"{writers[output_path]} and {path} would both write "
                    f"{output_path}"
                )
            writers[output_path] = path
        os.makedirs(out_dir, exist_ok=True)
    config = {
        "pass_names": list(pass_names),
        "out_dir": out_dir,
        "cache_dir": cache_dir,
        "driver": driver,
        "source_kind": source_kind,
        "verify": verify,
        "compile_kernels": compile_kernels,
    }
    return parallel_map(
        _run_unit,
        list(inputs),
        jobs=jobs,
        initializer=_init_worker,
        initargs=(config,),
    )
