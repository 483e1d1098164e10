"""The :class:`ExecutionEngine`: compile once, run many times.

Drop-in replacement for the interpreter on benchmark hot paths — same
``run(func_name, *args)`` contract, same in-place memref semantics —
but instead of walking the IR per op it compiles the whole module to
NumPy-backed Python via :mod:`.codegen` and memoizes the compiled
kernel in a content-addressed :class:`~.cache.KernelCache`.
"""

from __future__ import annotations

import dataclasses
from itertools import combinations
from typing import Any, List, Optional, Union

from ...ir import ModuleOp, MemRefType
from ...store import CompileConfig
from ..interpreter import memref_argument_fault, overlapping_arguments
from .cache import KERNEL_CACHE, KernelCache, fingerprint_module
from .codegen import (
    VECTORIZE_MODES,
    CompiledModule,
    compile_module,
)
from .runtime import EngineError


class ExecutionEngine:
    """Compiled execution of a lowered module.

    Construction triggers codegen (or a cache hit); ``run`` is then a
    plain Python call into the compiled kernel.  The kernel is keyed by
    the module's fingerprint and a :class:`~repro.store.CompileConfig`
    holding every knob below, so the same kernel lowered by two
    pipelines, the ``vectorize-diff`` oracle's modes and two schedules
    never share a kernel (the key also folds the code generator's
    version: an upgrade never re-serves a stale persistent cache).

    ``pipeline`` says how the module was produced: a bare label, or the
    producing driver's whole ``CompileConfig`` — ``mlt-opt`` passes its
    own, so batches over ``--cache-dir`` and ``--execute`` runs share
    kernels.

    ``opt_mode`` (see :data:`~.optimizer.OPT_MODES`) selects the
    mid-level loop-optimizer pipeline run before codegen.  The caller's
    module is never mutated: optimization happens on a clone, inside
    the cache-miss builder.
    """

    def __init__(
        self,
        module: ModuleOp,
        pipeline: Union[str, CompileConfig] = "",
        cache: Optional[KernelCache] = None,
        vectorize: str = "nest",
        opt_mode: str = "none",
        tile_size: Optional[int] = None,
        schedule: Optional[ModuleOp] = None,
        pass_cache=None,
    ):
        from .optimizer import DEFAULT_TILE_SIZE, run_optimizer

        if tile_size is None:
            tile_size = DEFAULT_TILE_SIZE
        if schedule is not None:
            from ...scheduling.interpreter import (
                apply_schedule,
                schedule_vectorize,
            )

            requested = schedule_vectorize(schedule)
            if requested is not None:
                vectorize = requested
        if vectorize not in VECTORIZE_MODES:
            raise EngineError(
                f"engine: unknown vectorize mode {vectorize!r}; "
                f"known: {VECTORIZE_MODES}"
            )
        self.module = module
        self.pipeline = pipeline
        self.vectorize = vectorize
        self.opt_mode = opt_mode
        self.tile_size = tile_size
        self.schedule = schedule
        self.cache = cache if cache is not None else KERNEL_CACHE
        config = dataclasses.replace(
            pipeline
            if isinstance(pipeline, CompileConfig)
            else CompileConfig(label=pipeline),
            vectorize=vectorize,
            opt_mode=opt_mode,
            tile=tile_size,
            schedule="" if schedule is None else fingerprint_module(schedule),
        )

        def _build(key: str) -> CompiledModule:
            # ``pass_cache`` is the function-granular compilation
            # firewall: on a kernel-cache miss, any optimizer/schedule
            # stage already cached for an unchanged function is spliced
            # in instead of re-running (keys are content-addressed, so
            # this never changes the produced IR).
            target = module
            opt_stats = None
            if schedule is not None:
                target = module.clone()
                opt_stats = apply_schedule(
                    schedule, target, pass_cache=pass_cache
                ).snapshot()
            elif opt_mode != "none":
                target = module.clone()
                opt_stats = run_optimizer(
                    target,
                    opt_mode,
                    tile_size=tile_size,
                    pass_cache=pass_cache,
                ).snapshot()
            compiled = compile_module(target, key, vectorize=vectorize)
            compiled.opt_stats = opt_stats
            return compiled

        self.compiled: CompiledModule = self.cache.get_or_compile_key(
            config.kernel_key(fingerprint_module(module)), _build
        )
        #: name -> (argument count, ((position, memref type), ...),
        #: every pair of memref positions) of the functions as compiled.
        #: Resolved here, not per call: ``run`` sits inside every timed
        #: region, where each attribute chase through the IR is a cache
        #: miss.
        self._signatures = {}
        for func in module.functions:
            memrefs = tuple(
                (pos, arg.type)
                for pos, arg in enumerate(func.arguments)
                if isinstance(arg.type, MemRefType)
            )
            self._signatures[func.sym_name] = (
                len(func.arguments),
                memrefs,
                tuple(combinations([pos for pos, _ in memrefs], 2)),
            )

    @property
    def source(self) -> str:
        """Generated Python source of the compiled kernel."""
        return self.compiled.source

    @property
    def vectorize_stats(self) -> Optional[dict]:
        """Codegen-time vectorizer decisions for this kernel, or
        ``None`` when the kernel was re-hydrated from a disk artifact
        that predates stats."""
        return getattr(self.compiled, "vectorize_stats", None)

    @property
    def opt_stats(self) -> Optional[dict]:
        """What the ``opt_mode`` pipeline or the explicit ``schedule``
        did to this kernel, or ``None`` when the engine compiled with
        neither (or the kernel was re-hydrated from a pre-optimizer
        disk artifact)."""
        return getattr(self.compiled, "opt_stats", None)

    def run(self, func_name: str, *args) -> List[Any]:
        signature = self._signatures.get(func_name)
        if signature is None:
            raise EngineError(f"engine: no function @{func_name}")
        count, memrefs, pairs = signature
        if len(args) != count:
            raise EngineError(
                f"engine: @{func_name} expects {count} args, got {len(args)}"
            )
        for pos, ty in memrefs:
            # Also what lets the buffer plan hand out a reshape of an
            # argument as a view (see :mod:`.buffers`).
            fault = memref_argument_fault(ty, args[pos])
            if fault is not None:
                raise EngineError(
                    f"engine: @{func_name}: argument {pos}: {fault}"
                )
        fault = overlapping_arguments(pairs, args)
        if fault is not None:
            raise EngineError(f"engine: @{func_name}: {fault}")
        return self.compiled.functions[func_name](*args)


def run_function_compiled(
    module: ModuleOp, func_name: str, *args, pipeline: str = ""
) -> List[Any]:
    """One-shot convenience wrapper mirroring ``run_function``."""
    return ExecutionEngine(module, pipeline=pipeline).run(func_name, *args)
