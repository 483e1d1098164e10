"""Multi-file batch compilation: ``mlt-opt`` with many inputs.

Each input file is one work unit: load (C or textual IR), run the
requested pass pipeline, print the result, and optionally codegen the
module into the shared kernel cache.  Units run across the worker
pool; outputs land in ``--out-dir`` named after the input stem, and
results merge back in input order so batch reports are deterministic.

Two persistent caches amortize repeated batches:

* the **module cache** keys the *printed post-pipeline IR* by
  SHA-256 of (input text, pipeline, driver, ``PASS_CACHE_VERSION``) —
  a warm unit skips the frontend and every pass, and a pass-semantics
  bump orphans ``modules/`` together with ``passes/``;
* the **kernel cache** (the same tiered cache the execution engine
  uses) keys compiled kernels by the printed module — a warm unit
  skips engine codegen.

Both default to subdirectories of ``--cache-dir`` and are shared by
every worker process via lock-free content-addressed artifact files.
"""

from __future__ import annotations

import hashlib
import os
import time
from dataclasses import dataclass
from typing import List, Optional, Sequence

from ..ir.pass_cache import PASS_CACHE_VERSION
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


def module_cache_key(text: str, pass_names: Sequence[str], driver: str) -> str:
    digest = hashlib.sha256()
    for part in (text, ",".join(pass_names), driver, PASS_CACHE_VERSION):
        digest.update(part.encode("utf-8"))
        digest.update(b"\x00")
    return digest.hexdigest()


def _init_worker(config: dict) -> None:
    global _WORKER_STATE
    from ..execution.engine.disk_cache import DiskKernelCache
    from ..ir import PassResultCache, set_default_driver

    state = dict(config)
    set_default_driver(config["driver"])
    cache_dir = config.get("cache_dir")
    if cache_dir:
        state["module_cache"] = DiskKernelCache(
            os.path.join(cache_dir, "modules")
        )
        state["kernel_cache_dir"] = os.path.join(cache_dir, "kernels")
    else:
        state["module_cache"] = None
        state["kernel_cache_dir"] = None
    if config.get("pass_cache", True):
        # Function-granular tier below the whole-module cache: when an
        # edited input misses the module cache, unchanged functions
        # still skip their passes.  All workers share one ``passes/``
        # namespace beside ``modules/`` and ``kernels/``.
        cache = PassResultCache()
        if cache_dir:
            cache.attach_disk(cache_dir)
        state["pass_cache_obj"] = cache
    else:
        state["pass_cache_obj"] = None
    _WORKER_STATE = state


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


def _process_file(input_path: str, state: dict) -> BatchResult:
    from ..execution.engine.cache import KernelCache, kernel_key
    from ..ir import print_module, verify
    from ..ir.parser import parse_module
    from ..tool import build_pipeline, load_input

    pass_names = state["pass_names"]
    out_dir = state["out_dir"]
    with open(input_path) as handle:
        raw_text = handle.read()

    module_cache = state["module_cache"]
    mkey = module_cache_key(raw_text, pass_names, state["driver"])
    text = module_cache.load_text(mkey) if module_cache is not None else None
    from_cache = text is not None
    module = None
    if text is None:
        module = load_input(input_path, state["source_kind"])
        pm = build_pipeline(pass_names)
        pm.pass_cache = state.get("pass_cache_obj")
        pm.run(module)
        if state["verify"]:
            verify(module, pm.context)
        text = print_module(module)
        if module_cache is not None:
            module_cache.store_text(mkey, text)

    cache_snapshot = None
    if state["compile_kernels"]:
        from ..execution.engine.codegen import compile_module

        cache = KernelCache()
        if state["kernel_cache_dir"]:
            cache.attach_disk(state["kernel_cache_dir"])
        # Key straight off the printed text: a fully warm unit needs
        # neither a reparse nor a reprint of the module.
        key = kernel_key(
            hashlib.sha256(text.encode("utf-8")).hexdigest(),
            "mlt-opt:" + ",".join(pass_names),
        )

        def build_kernel(k: str):
            built = parse_module(text) if module is None else module
            return compile_module(built, k)

        cache.get_or_compile_key(key, build_kernel)
        cache_snapshot = cache.snapshot()

    output_path = None
    if out_dir:
        stem = os.path.splitext(os.path.basename(input_path))[0]
        output_path = os.path.join(out_dir, stem + ".mlir")
        with open(output_path, "w") as handle:
            handle.write(text)
    return BatchResult(
        input_path=input_path,
        output_path=output_path,
        ok=True,
        seconds=0.0,
        detail="module-cache" if from_cache else "compiled",
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
    pass_cache: bool = True,
) -> List[BatchResult]:
    """Compile many input files through one shared pool and cache."""
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
    config = {
        "pass_names": list(pass_names),
        "out_dir": out_dir,
        "cache_dir": cache_dir,
        "driver": driver,
        "source_kind": source_kind,
        "verify": verify,
        "compile_kernels": compile_kernels,
        "pass_cache": pass_cache,
    }
    return parallel_map(
        _run_unit,
        list(inputs),
        jobs=jobs,
        initializer=_init_worker,
        initargs=(config,),
    )
