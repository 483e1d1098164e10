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
* The **request memo** resolves a corpus request's ``(kernel, heavy,
  pipeline, tile, opt_mode)`` to its source text, default entry
  function and module key once per process, so a repeated request
  neither regenerates nor hashes its source.
* The **hot-kernel map** pins ``(compiled function, argument shapes)``
  for served kernels and, from a kernel's second request on, a
  read-only copy of its seeded inputs, so a warm ``execute`` touches
  no IR and synthesizes nothing: it copies the pinned inputs, calls
  the kernel and sums the buffers.
"""

from __future__ import annotations

import dataclasses
import os
import re
import threading
import time
from typing import Dict, Optional, Tuple

from ..dialects.transform import MIN_TILE_SIZE
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
#: recently served entries fall back to the regular cache path.  The
#: request memo has the same bound.
HOT_MAX_ENTRIES = 1024
#: Pinned-input bound per hot entry: a kernel whose seeded inputs take
#: more bytes re-synthesizes them on every request instead.  Covers
#: every small corpus kernel (the largest needs 37.7 KB) and caps the
#: map's pins at ``HOT_MAX_ENTRIES`` x 64 KiB.
HOT_PIN_MAX_BYTES = 64 * 1024

#: Opt modes whose schedule ends in ``transform.tile`` at the unit's
#: tile (``tuned`` falls back to ``full`` without a record).
_TILING_MODES = ("full", "tuned")

_LOCK = threading.Lock()
_SERVE_ROOT: Optional[str] = None
_TENANTS: Dict[Tuple[Optional[str], str], ArtifactStore] = {}
#: (root, tenant, mkey) -> :class:`HotKernel`.
_HOT = LruMemo(HOT_MAX_ENTRIES)
#: (kernel, heavy, pipeline, tile, opt_mode) -> (source, func, mkey).
_REQUESTS = LruMemo(HOT_MAX_ENTRIES)


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
    """Drop every tenant cache, hot kernel, pinned input and memoized
    request (tests)."""
    global _SERVE_ROOT
    with _LOCK:
        _SERVE_ROOT = None
        _TENANTS.clear()
    _HOT.clear()
    _REQUESTS.clear()


def _tenant_store(tenant: str) -> ArtifactStore:
    with _LOCK:
        root = _SERVE_ROOT
        store = _TENANTS.get((root, tenant))
        if store is None:
            store = _TENANTS[(root, tenant)] = ArtifactStore(
                tenant_dir(root, tenant) if root else None
            )
        return store


class HotKernel:
    """One hot-map entry: a compiled entry point, its argument shapes
    and, once it is served hot, the pristine inputs of the last seed."""

    __slots__ = ("key", "func", "kernel", "shapes", "pinned")

    def __init__(self, key: str, func: str, kernel, shapes):
        self.key = key
        self.func = func
        self.kernel = kernel
        self.shapes = shapes
        #: ``(seed, read-only make_args(shapes, seed))`` or None.
        self.pinned: Optional[tuple] = None

    def inputs(self, seed: int) -> list:
        """Fresh, writeable, distinct ``make_args(shapes, seed)``:
        copies of the pinned arrays for the pinned seed; otherwise
        synthesized, and pinned (replacing another seed's) when they
        fit ``HOT_PIN_MAX_BYTES``."""
        pinned = self.pinned
        if pinned is None or pinned[0] != seed:
            from ..fuzzing.oracle import make_args

            args = make_args(self.shapes, seed)
            if sum(buf.nbytes for buf in args) > HOT_PIN_MAX_BYTES:
                return args
            for buf in args:
                buf.flags.writeable = False
            pinned = self.pinned = (seed, args)
        return [buf.copy() for buf in pinned[1]]

    def pinned_bytes(self) -> int:
        pinned = self.pinned
        return 0 if pinned is None else sum(buf.nbytes for buf in pinned[1])


def hot_entry(spec: dict) -> Optional[HotKernel]:
    """The hot-map entry :func:`serve_unit` would answer ``spec`` from
    — no parse, no hashing, just the pinned compiled call — or None.
    The server looks it up once and, when there is one, runs the unit
    directly on the event loop instead of paying an executor
    round-trip."""
    entry = _HOT.get((_SERVE_ROOT, spec["tenant"], spec["mkey"]))
    if entry is None or not spec["execute"]:
        return entry
    return entry if spec.get("func") == entry.func else None


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
    hot = _HOT.values()
    report["_hot_kernels"] = len(hot)
    report["_hot_pinned_bytes"] = sum(entry.pinned_bytes() for entry in hot)
    return report


# ----------------------------------------------------------------------
# Request normalization (runs server-side, before any queueing)
# ----------------------------------------------------------------------


def _flag(request: dict, name: str, default: bool) -> bool:
    """A boolean request field: a JSON ``true``/``false`` only, so
    ``"false"`` or ``0`` is refused rather than read by truthiness."""
    value = request.get(name, default)
    if not isinstance(value, bool):
        raise BadRequest(f"{name} must be a boolean")
    return value


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
    # bool is an int subclass, but ``seed=True`` is no seed.
    seed = request.get("seed", 0)
    if isinstance(seed, bool) or not isinstance(seed, int):
        raise BadRequest("seed must be an integer")
    tile = request.get("tile", default_tile)
    if isinstance(tile, bool) or not isinstance(tile, int) or tile <= 0:
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
    if tile < MIN_TILE_SIZE and opt_mode in _TILING_MODES:
        raise BadRequest(
            f"tile must be >= {MIN_TILE_SIZE} under opt_mode {opt_mode} "
            "(its schedule tiles)"
        )

    spec = {
        "tenant": tenant,
        "execute": execute,
        "seed": seed,
        "tile": tile,
        "opt_mode": opt_mode,
        "warm_hot": _flag(request, "warm_hot", execute),
    }

    if "kernel" in request:
        name = request["kernel"]
        pipeline = request.get("pipeline", "baseline")
        heavy = _flag(request, "heavy", False)
        if not isinstance(name, str):
            raise BadRequest(f"unknown kernel {name!r}")
        if not isinstance(pipeline, str):
            raise BadRequest(f"unknown pipeline {pipeline!r}")
        # Heavy units run ~ms-scale kernels; the server keeps them off
        # the event loop even when hot.
        spec.update(mode="corpus", kernel=name, pipeline=pipeline, heavy=heavy)
        ident = (name, heavy, pipeline, tile, opt_mode)
        resolved = _REQUESTS.get(ident)
        if resolved is None:
            resolved = _resolve_corpus(spec)
            _REQUESTS.put(ident, resolved)
        spec["source"], func, spec["mkey"] = resolved
        spec["func"] = request.get("func", func)
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
        spec["mkey"] = spec_config(spec).module_key(source)
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
    return spec


def _resolve_corpus(spec: dict) -> Tuple[str, str, str]:
    """``(source, default entry function, module key)`` of a corpus
    unit spec; raises :class:`BadRequest` for an unknown kernel or
    pipeline.  The module key is the unit's content identity — the
    coalescing and hot-map key (for ``opt_mode="tuned"``: before the
    schedule is resolved)."""
    from ..evaluation import get_kernel
    from ..evaluation.pipelines import NAMED_PIPELINES

    name = spec["kernel"]
    try:
        kernel = get_kernel(name)
    except (KeyError, ValueError) as exc:
        raise BadRequest(f"unknown kernel {name!r}") from exc
    if spec["pipeline"] not in NAMED_PIPELINES:
        raise BadRequest(
            f"unknown pipeline {spec['pipeline']!r}; "
            f"known: {sorted(NAMED_PIPELINES)}"
        )
    source = kernel.large() if spec["heavy"] else kernel.small()
    return source, kernel.func_name, spec_config(spec).module_key(source)


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
        from ..tool import build_pipeline, parse_source

        module = parse_source(text, spec["source_kind"])
        pm = build_pipeline(spec["passes"])
    pm.pass_cache = pass_cache
    pm.run(module)
    verify(module, pm.context)
    return module


def serve_unit(spec: dict, hot: Optional[HotKernel] = None) -> dict:
    """Compile (and optionally execute) one normalized unit spec;
    ``hot`` is the spec's :func:`hot_entry` when the caller already
    looked it up.

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

    if hot is None:
        hot = hot_entry(spec)
    if hot is not None:
        checksums = None
        if spec["execute"]:
            checksums = _run(hot.kernel, hot.inputs(spec["seed"]))
        return _result(spec, hot.key, "hot", checksums, start)

    from ..execution.engine.cache import fingerprint_module
    from ..scheduling import apply_schedule, canned_schedule

    store = _tenant_store(spec["tenant"])
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
        from ..fuzzing.oracle import make_args, module_arg_shapes

        module = unit.module
        run_func = spec.get("func") or module.functions[0].sym_name
        if module.lookup(run_func) is None:
            raise BadRequest(f"module has no function @{run_func}")
        shapes = module_arg_shapes(module, run_func)
        kernel = unit.compiled.functions[run_func]
        # Inputs are pinned from the first hot request on: a unit
        # served once (a unique cold compile) pins nothing.
        _HOT.put(
            (_SERVE_ROOT, spec["tenant"], spec["mkey"]),
            HotKernel(key, run_func, kernel, shapes),
        )
        if spec["execute"]:
            checksums = _run(kernel, make_args(shapes, spec["seed"]))
    return _result(spec, key, cached, checksums, start)


def _run(kernel_fn, args) -> list:
    # Straight into the kernel, past ``ExecutionEngine.run``'s memref
    # argument checks: ``make_args`` and :meth:`HotKernel.inputs` give
    # fresh, distinct (so never overlapping) C-contiguous arrays of
    # exactly the argument shapes, which is all those checks would
    # establish.
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
