"""The compile/execute work unit behind every serving request.

This layer is deliberately free of asyncio so the same function serves
three callers:

* the server's **inline** mode (``jobs=0``), which runs units on
  executor threads of the event loop process;
* the **persistent pool** mode, where units ship to long-lived worker
  processes (:mod:`repro.runtime.pool`) as batched schedules;
* the benchmark's **bare-call baseline**, which times ``serve_unit``
  directly to price the socket + protocol overhead against it.

State model — all module-global so pool workers keep their caches
across batch generations:

* ``configure_serving(root)`` pins the cache root (the pool's
  per-generation initializer re-applies it; re-application is cheap
  and keeps the registries).
* Each tenant has its own :class:`~repro.store.ArtifactStore` rooted
  at ``<root>/tenants/<tenant>/`` — a *namespace*: two tenants never
  share artifacts even for identical kernels, and two servers pointed
  at one root but different tenants can never cross-serve each other's
  kernels.
* The **hot-kernel map** pins ``(compiled function, argument shapes)``
  for served kernels, so a warm ``execute`` touches no IR at all —
  no parse, no fingerprint, just input synthesis and the kernel call.
"""

from __future__ import annotations

import dataclasses
import os
import re
import threading
import time
from typing import Dict, Optional, Tuple

from ..store import (
    ArtifactStore,
    CompileConfig,
    LruMemo,
    compile_unit,
    text_fingerprint,
)

_TENANT_RE = re.compile(r"^[A-Za-z0-9_][A-Za-z0-9_.-]{0,63}$")

#: Hot-kernel map bound: one entry is a compiled callable plus a shape
#: tuple, so a few hundred of them are cheap; beyond that, least
#: recently served entries fall back to the regular cache path.
HOT_MAX_ENTRIES = 1024

_LOCK = threading.Lock()
_SERVE_ROOT: Optional[str] = None
_TENANTS: Dict[Tuple[Optional[str], str], ArtifactStore] = {}
#: (root, tenant, mkey) -> (kernel key, functions, shapes, func name).
_HOT = LruMemo(HOT_MAX_ENTRIES)


class BadRequest(ValueError):
    """Request validation failure (maps to the ``bad-request`` code)."""


def tenant_dir(root: str, tenant: str) -> str:
    """The on-disk namespace for one tenant under one cache root."""
    return os.path.join(root, "tenants", tenant)


def validate_tenant(tenant: str) -> str:
    if not isinstance(tenant, str) or not _TENANT_RE.match(tenant):
        raise BadRequest(
            "tenant must match [A-Za-z0-9_][A-Za-z0-9_.-]{0,63}"
        )
    return tenant


def configure_serving(root: Optional[str]) -> None:
    """Pin the cache root for this process (pool-worker initializer)."""
    global _SERVE_ROOT
    with _LOCK:
        _SERVE_ROOT = root


def reset_serving_state() -> None:
    """Drop every tenant cache and hot kernel (tests)."""
    global _SERVE_ROOT
    with _LOCK:
        _SERVE_ROOT = None
        _TENANTS.clear()
    _HOT.clear()


def _tenant_store(tenant: str) -> ArtifactStore:
    with _LOCK:
        root = _SERVE_ROOT
        store = _TENANTS.get((root, tenant))
        if store is None:
            store = _TENANTS[(root, tenant)] = ArtifactStore(
                tenant_dir(root, tenant) if root else None
            )
        return store


def _hot_get(tenant: str, mkey: str):
    return _HOT.get((_SERVE_ROOT, tenant, mkey))


def is_hot(spec: dict) -> bool:
    """True when :func:`serve_unit` would take the hot-map fast path —
    no parse, no hashing, just the pinned compiled call.  The server
    uses this to run hot units directly on the event loop instead of
    paying an executor round-trip."""
    entry = _hot_get(spec["tenant"], spec["mkey"])
    if entry is None:
        return False
    if not spec["execute"]:
        return True
    return spec.get("func") == entry[3]


def serving_cache_snapshots() -> Dict[str, dict]:
    """Per-tenant cache statistics for this process (inline mode)."""
    with _LOCK:
        tenants = dict(_TENANTS)
    report = {}
    for (_, tenant), store in tenants.items():
        report[tenant] = {
            "kernel_cache": store.kernels.snapshot(),
            "module_cache": store.modules.stats.snapshot()
            if store.modules is not None
            else None,
            "pass_cache": store.passes.snapshot(),
        }
    report["_hot_kernels"] = len(_HOT)
    return report


# ----------------------------------------------------------------------
# Request normalization (runs server-side, before any queueing)
# ----------------------------------------------------------------------


def normalize_request(
    request: dict,
    default_tenant: str = "default",
    default_tile: int = 32,
    allow_debug: bool = False,
) -> dict:
    """Validate one compile/execute/prewarm-item request into a plain,
    picklable unit spec.

    The spec carries the *resolved* source text (corpus kernels are
    expanded here), so the coalescing key and the worker-side work are
    derived from identical bytes.
    """
    op = request.get("op")
    execute = op == "execute"
    tenant = validate_tenant(request.get("tenant", default_tenant))
    seed = request.get("seed", 0)
    if not isinstance(seed, int):
        raise BadRequest("seed must be an integer")
    tile = request.get("tile", default_tile)
    if not isinstance(tile, int) or tile <= 0:
        raise BadRequest("tile must be a positive integer")
    opt_mode = request.get("opt_mode", "full")
    from ..execution.engine.optimizer import OPT_MODES

    # "tuned" replays the persisted best schedule for the payload (if
    # the tenant's schedules/ namespace holds one) and falls back to
    # the canned full pipeline otherwise.
    if opt_mode not in OPT_MODES and opt_mode != "tuned":
        raise BadRequest(
            f"opt_mode must be one of {'|'.join(OPT_MODES)}|tuned"
        )

    spec = {
        "tenant": tenant,
        "execute": execute,
        "seed": seed,
        "tile": tile,
        "opt_mode": opt_mode,
        "warm_hot": bool(request.get("warm_hot", execute)),
    }

    if "kernel" in request:
        from ..evaluation import get_kernel

        name = request["kernel"]
        try:
            kernel = get_kernel(name)
        except (KeyError, ValueError) as exc:
            raise BadRequest(f"unknown kernel {name!r}") from exc
        pipeline = request.get("pipeline", "baseline")
        from ..evaluation.pipelines import NAMED_PIPELINES

        if pipeline not in NAMED_PIPELINES:
            raise BadRequest(
                f"unknown pipeline {pipeline!r}; "
                f"known: {sorted(NAMED_PIPELINES)}"
            )
        heavy = bool(request.get("heavy", False))
        spec.update(
            mode="corpus",
            kernel=name,
            source=kernel.large() if heavy else kernel.small(),
            pipeline=pipeline,
            func=request.get("func", kernel.func_name),
            # Heavy units run ~ms-scale kernels; the server keeps them
            # off the event loop even when hot.
            heavy=heavy,
        )
    elif "source" in request:
        source = request["source"]
        if not isinstance(source, str) or not source.strip():
            raise BadRequest("source must be non-empty text")
        passes = request.get("passes", [])
        if not isinstance(passes, list) or not all(
            isinstance(p, str) for p in passes
        ):
            raise BadRequest("passes must be a list of pass names")
        from ..tool import _pass_registry

        registry = _pass_registry()
        unknown = [p for p in passes if p not in registry]
        if unknown:
            raise BadRequest(
                f"unknown passes {unknown}; known: {sorted(registry)}"
            )
        kind = request.get("source_kind", "auto")
        if kind not in ("auto", "c", "ir"):
            raise BadRequest("source_kind must be auto|c|ir")
        func = request.get("func")
        if execute and not isinstance(func, str):
            raise BadRequest("execute of raw source needs a func name")
        spec.update(
            mode="source",
            source=source,
            passes=list(passes),
            source_kind=kind,
            func=func,
        )
    else:
        raise BadRequest(
            "request needs either a corpus kernel ('kernel' + "
            "'pipeline') or raw 'source' (+ 'passes')"
        )

    for debug_field in ("debug_delay_s", "debug_crash"):
        if request.get(debug_field):
            if not allow_debug:
                raise BadRequest(
                    f"{debug_field} requires a server started with "
                    "allow_debug"
                )
            spec[debug_field] = request[debug_field]

    # Content identity of the unit — the coalescing and hot-map key
    # (for ``opt_mode="tuned"``: before the schedule is resolved).
    spec["mkey"] = spec_config(spec).module_key(spec["source"])
    return spec


def spec_config(spec: dict) -> CompileConfig:
    """The compile configuration one unit spec asks for: its
    ``opt_mode`` keys as the canned schedule it names at the unit's
    tile ("" for ``none``; ``"tuned"`` until :func:`serve_unit`
    resolves it)."""
    if spec["mode"] == "corpus":
        frontend, pipeline = "c", (spec["pipeline"],)
    else:
        frontend, pipeline = spec["source_kind"], tuple(spec["passes"])
    mode = spec.get("opt_mode", "full")
    if mode == "none":
        schedule = ""
    elif mode == "tuned":
        schedule = mode
    else:
        from ..scheduling import canned_fingerprint

        schedule = canned_fingerprint(mode, spec["tile"])
    return CompileConfig(
        frontend=frontend,
        pipeline=pipeline,
        label="serve",
        tile=spec["tile"],
        schedule=schedule,
    )


# ----------------------------------------------------------------------
# The unit itself (runs inline on executor threads, or in pool workers)
# ----------------------------------------------------------------------


def _build_module(spec: dict, pass_cache=None):
    from ..ir import verify
    from ..met import compile_c

    text = spec["source"]
    if spec["mode"] == "corpus":
        from ..evaluation.pipelines import named_pipeline

        module = compile_c(text, distribute=False)
        pm = named_pipeline(spec["pipeline"], spec["tile"])
    else:
        from ..ir.parser import parse_module
        from ..tool import build_pipeline

        kind = spec["source_kind"]
        if kind == "auto":
            kind = "c" if "{" in text and "void" in text else "ir"
        module = compile_c(text) if kind == "c" else parse_module(text)
        pm = build_pipeline(spec["passes"])
    pm.pass_cache = pass_cache
    pm.run(module)
    verify(module, pm.context)
    return module


def serve_unit(spec: dict) -> dict:
    """Compile (and optionally execute) one normalized unit spec.

    Pure function of (spec, cache contents): identical specs produce
    identical kernels and checksums whether they run inline, on any
    pool worker, serially, or cache-warm — the serving determinism
    tests assert exactly this.
    """
    start = time.perf_counter()
    if spec.get("debug_crash"):  # test seam: gated by allow_debug
        os._exit(3)
    if spec.get("debug_delay_s"):  # test seam: gated by allow_debug
        time.sleep(float(spec["debug_delay_s"]))

    tenant = spec["tenant"]
    mkey = spec["mkey"]
    func = spec.get("func")

    hot = _hot_get(tenant, mkey)
    if hot is not None:
        key, functions, shapes, hot_func = hot
        if not spec["execute"]:
            return _result(spec, key, "hot", None, start)
        if func == hot_func:
            checksums = _run(functions[hot_func], shapes, spec["seed"])
            return _result(spec, key, "hot", checksums, start)

    from ..execution.engine.cache import fingerprint_module
    from ..scheduling import apply_schedule, canned_schedule

    store = _tenant_store(tenant)
    mode = spec.get("opt_mode", "full")
    pristine = schedule = None
    if mode == "tuned":
        # The persisted winner is keyed off the *pristine* payload, so
        # a tuned unit always runs the frontend; the schedule it found
        # is what every later rung keys on.  With no usable record
        # ("default") it runs the canned full schedule, and shares
        # ``opt_mode="full"``'s kernel.  Warm traffic rides the hot
        # map, so only the first request per process pays.
        pristine = _build_module(spec, store.passes)
        found = store.load_schedule(fingerprint_module(pristine))
        tag = "default"
        if found is None:
            mode = "full"
        else:
            schedule = found[1]
            tag = text_fingerprint(found[0]["schedule"])[:16]
        spec = dict(spec, opt_mode=mode, schedule_tag=tag)
    config = spec_config(spec)
    if schedule is not None:
        config = dataclasses.replace(
            config, schedule=fingerprint_module(schedule)
        )
    elif mode != "none":
        schedule = canned_schedule(mode, spec["tile"])

    def build():
        # Optimize before printing so persisted module text — and every
        # kernel (cold or warm) derived from it — reflects the
        # mid-level optimizer's output.
        module = pristine
        if module is None:
            module = _build_module(spec, store.passes)
        if schedule is not None:
            apply_schedule(schedule, module, pass_cache=store.passes)
        return module

    wants_shapes = spec["execute"] or spec["warm_hot"]
    unit = compile_unit(
        store, spec["source"], config, build, want_module=wants_shapes
    )
    key = unit.compiled.key
    cached = "cache" if unit.kernel_hit else "codegen"

    checksums = None
    if wants_shapes:
        from ..fuzzing.oracle import module_arg_shapes

        module = unit.module
        run_func = func or module.functions[0].sym_name
        if module.lookup(run_func) is None:
            raise BadRequest(f"module has no function @{run_func}")
        shapes = module_arg_shapes(module, run_func)
        _HOT.put(
            (_SERVE_ROOT, tenant, mkey),
            (key, unit.compiled.functions, shapes, run_func),
        )
        if spec["execute"]:
            checksums = _run(
                unit.compiled.functions[run_func], shapes, spec["seed"]
            )
    return _result(spec, key, cached, checksums, start)


def _run(kernel_fn, shapes, seed: int):
    from ..fuzzing.oracle import make_args

    # Straight into the kernel, past ``ExecutionEngine.run``'s memref
    # argument checks: ``make_args`` builds fresh, distinct (so never
    # overlapping) C-contiguous arrays of exactly ``shapes``, which is
    # all those checks would establish.
    args = make_args(shapes, seed)
    kernel_fn(*args)
    return [float(buf.sum()) for buf in args]


def _result(spec, key, cached, checksums, start) -> dict:
    result = {
        "key": key,
        "tenant": spec["tenant"],
        "cached": cached,
        "seconds": time.perf_counter() - start,
    }
    if spec.get("kernel"):
        result["kernel"] = spec["kernel"]
    if spec.get("schedule_tag"):
        # "default" = canned-full fallback; otherwise the first 16 hex
        # chars of the persisted schedule's text hash.
        result["schedule"] = spec["schedule_tag"]
    if checksums is not None:
        result["checksums"] = checksums
    return result
