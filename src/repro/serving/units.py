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
* Per-tenant caches live under ``<root>/tenants/<tenant>/`` — a
  *namespace*: two tenants never share artifacts even for identical
  kernels, and two servers pointed at one root but different tenants
  can never cross-serve each other's kernels.
* The **hot-kernel map** pins ``(compiled function, argument shapes)``
  for served kernels, so a warm ``execute`` touches no IR at all —
  no parse, no fingerprint, just input synthesis and the kernel call.
"""

from __future__ import annotations

import hashlib
import os
import re
import threading
import time
from collections import OrderedDict
from typing import Dict, Optional, Tuple

_TENANT_RE = re.compile(r"^[A-Za-z0-9_][A-Za-z0-9_.-]{0,63}$")

#: Hot-kernel map bound: one entry is a compiled callable plus a shape
#: tuple, so a few hundred of them are cheap; beyond that, least
#: recently served entries fall back to the regular cache path.
HOT_MAX_ENTRIES = 1024

_LOCK = threading.Lock()
_SERVE_ROOT: Optional[str] = None
_TENANTS: Dict[Tuple[Optional[str], str], "TenantCaches"] = {}
_HOT: "OrderedDict[Tuple[Optional[str], str, str], tuple]" = OrderedDict()


class BadRequest(ValueError):
    """Request validation failure (maps to the ``bad-request`` code)."""


class TenantCaches:
    """One tenant's cache namespace: kernel + module + schedule tiers."""

    def __init__(self, root: Optional[str], tenant: str):
        from ..execution.engine.cache import KernelCache
        from ..ir import PassResultCache

        self.tenant = tenant
        self.kernel_cache = KernelCache()
        self.module_cache = None
        self.schedule_cache = None
        # Function-granular pass results: a cold compile of a unit that
        # shares functions with an already-served one only runs passes
        # on the genuinely new functions.  Tenant-namespaced like every
        # other tier (cached results splice printed IR back in).
        self.pass_cache = PassResultCache()
        if root:
            base = tenant_dir(root, tenant)
            self.kernel_cache.attach_disk(os.path.join(base, "kernels"))
            self.pass_cache.attach_disk(base)
            from ..execution.engine.disk_cache import DiskKernelCache
            from ..scheduling.autotune import ScheduleCache

            self.module_cache = DiskKernelCache(
                os.path.join(base, "modules")
            )
            # Best-schedule records for opt_mode="tuned": populate with
            # ``mlt-tune --cache-dir <root>/tenants/<tenant>``.
            self.schedule_cache = ScheduleCache(base)


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


def _tenant_caches(tenant: str) -> TenantCaches:
    with _LOCK:
        root = _SERVE_ROOT
        key = (root, tenant)
        caches = _TENANTS.get(key)
        if caches is None:
            caches = TenantCaches(root, tenant)
            _TENANTS[key] = caches
        return caches


def _hot_get(tenant: str, mkey: str):
    with _LOCK:
        entry = _HOT.get((_SERVE_ROOT, tenant, mkey))
        if entry is not None:
            _HOT.move_to_end((_SERVE_ROOT, tenant, mkey))
        return entry


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


def _hot_put(tenant: str, mkey: str, entry: tuple) -> None:
    with _LOCK:
        _HOT[(_SERVE_ROOT, tenant, mkey)] = entry
        _HOT.move_to_end((_SERVE_ROOT, tenant, mkey))
        while len(_HOT) > HOT_MAX_ENTRIES:
            _HOT.popitem(last=False)


def serving_cache_snapshots() -> Dict[str, dict]:
    """Per-tenant cache statistics for this process (inline mode)."""
    with _LOCK:
        tenants = dict(_TENANTS)
        hot_total = len(_HOT)
    report = {}
    for (_, tenant), caches in tenants.items():
        report[tenant] = {
            "kernel_cache": caches.kernel_cache.snapshot(),
            "module_cache": caches.module_cache.stats.snapshot()
            if caches.module_cache is not None
            else None,
            "pass_cache": caches.pass_cache.snapshot(),
        }
    report["_hot_kernels"] = hot_total
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
        from ..evaluation.pipelines import MODULE_BUILDERS

        if pipeline not in MODULE_BUILDERS:
            raise BadRequest(
                f"unknown pipeline {pipeline!r}; "
                f"known: {sorted(MODULE_BUILDERS)}"
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

    spec["mkey"] = spec_module_key(spec)
    return spec


def spec_module_key(spec: dict) -> str:
    """Content identity of one unit — the coalescing and hot-map key.

    Mirrors the batch/bench keying so a served corpus kernel and a
    ``benchmarks.harness`` run of the same kernel agree on identity.
    """
    from ..runtime.batch import module_cache_key

    opt = spec.get("opt_mode", "full")
    if spec["mode"] == "corpus":
        return module_cache_key(
            spec["source"],
            [spec["pipeline"]],
            f"tile={spec['tile']}|opt={opt}",
        )
    return module_cache_key(
        spec["source"],
        spec["passes"],
        f"serve:{spec['source_kind']}|opt={opt}",
    )


# ----------------------------------------------------------------------
# The unit itself (runs inline on executor threads, or in pool workers)
# ----------------------------------------------------------------------


def _build_module(spec: dict, pass_cache=None):
    if spec["mode"] == "corpus":
        from ..evaluation.pipelines import build_module

        return build_module(
            spec["source"], spec["pipeline"], tile=spec["tile"]
        )
    from ..ir import verify
    from ..ir.parser import parse_module
    from ..tool import build_pipeline

    kind = spec["source_kind"]
    text = spec["source"]
    if kind == "auto":
        kind = "c" if "{" in text and "void" in text else "ir"
    if kind == "c":
        from ..met import compile_c

        module = compile_c(text)
    else:
        module = parse_module(text)
    pm = build_pipeline(spec["passes"])
    pm.pass_cache = pass_cache
    pm.run(module)
    verify(module, pm.context)
    return module


def _kernel_tag(spec: dict) -> str:
    if spec["mode"] == "corpus":
        pipeline = f"{spec['pipeline']}|tile={spec['tile']}"
    else:
        pipeline = ",".join(spec["passes"])
    opt = spec.get("opt_mode", "full")
    return f"serve:{pipeline}#opt={opt}"


def _unit_schedule(opt_mode: str, module, schedule_cache):
    """``(schedule module, kernel-key tag)`` for one unit.  ``"tuned"``
    replays the persisted winner for the payload when the tenant has
    one and falls back to the canned full pipeline (tag ``"default"``);
    every other mode is its canned schedule, untagged."""
    from ..scheduling import canned_schedule

    if opt_mode != "tuned":
        return canned_schedule(opt_mode), ""
    from ..execution.engine.cache import fingerprint_module

    record = (
        schedule_cache.load(fingerprint_module(module))
        if schedule_cache is not None
        else None
    )
    if record is None or not isinstance(record.get("schedule"), str):
        return canned_schedule("full"), "default"
    from ..ir.parser import parse_module

    text = record["schedule"]
    return (
        parse_module(text),
        hashlib.sha256(text.encode("utf-8")).hexdigest()[:16],
    )


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

    caches = _tenant_caches(tenant)
    opt_mode = spec.get("opt_mode", "full")
    # Tuned units key the transformation off the *pristine* payload
    # fingerprint, so they always rebuild the frontend module; the
    # expensive tier (codegen) still hits the per-tenant kernel cache —
    # keyed by the scheduled text — and warm traffic rides the hot map,
    # so only the first request per process pays.
    module_cache = None if opt_mode == "tuned" else caches.module_cache
    schedule_tag = ""
    module = None
    text = (
        module_cache.load_text(mkey) if module_cache is not None else None
    )
    if text is None:
        from ..ir import print_module
        from ..scheduling import apply_schedule

        module = _build_module(spec, pass_cache=caches.pass_cache)
        schedule, schedule_tag = _unit_schedule(
            opt_mode, module, caches.schedule_cache
        )
        # Optimize before printing so persisted module text — and every
        # kernel (cold or warm) derived from it — reflects the
        # mid-level optimizer's output.
        apply_schedule(schedule, module, pass_cache=caches.pass_cache)
        text = print_module(module)
        if module_cache is not None:
            module_cache.store_text(mkey, text)

    from ..execution.engine.cache import kernel_key

    tag = _kernel_tag(spec)
    if schedule_tag:
        tag += f"#sched={schedule_tag}"
    key = kernel_key(hashlib.sha256(text.encode("utf-8")).hexdigest(), tag)
    built = {}

    def build_kernel(k: str):
        from ..execution.engine.codegen import compile_module
        from ..ir.parser import parse_module

        built["codegen"] = True
        return compile_module(
            parse_module(text) if module is None else module, k
        )

    compiled = caches.kernel_cache.get_or_compile_key(key, build_kernel)
    cached = "codegen" if built else "cache"
    if schedule_tag:
        spec = dict(spec, schedule_tag=schedule_tag)

    checksums = None
    if spec["execute"] or spec["warm_hot"]:
        from ..fuzzing.oracle import module_arg_shapes

        if module is None:
            from ..ir.parser import parse_module

            module = parse_module(text)
        run_func = func or module.functions[0].sym_name
        if module.lookup(run_func) is None:
            raise BadRequest(f"module has no function @{run_func}")
        shapes = module_arg_shapes(module, run_func)
        _hot_put(
            tenant, mkey, (key, compiled.functions, shapes, run_func)
        )
        if spec["execute"]:
            checksums = _run(
                compiled.functions[run_func], shapes, spec["seed"]
            )
    return _result(spec, key, cached, checksums, start)


def _run(kernel_fn, shapes, seed: int):
    from ..fuzzing.oracle import make_args

    # Straight into the kernel, past ``ExecutionEngine.run``'s memref
    # argument check: ``make_args`` builds C-contiguous arrays of
    # exactly ``shapes``, which is all that check would establish.
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
