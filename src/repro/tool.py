"""mlt-opt: the command-line driver (an ``mlir-opt`` lookalike).

Reads C or textual IR, runs a ``-``-flag pass pipeline, prints IR::

    python -m repro.tool kernel.c -raise-affine-to-linalg
    python -m repro.tool kernel.c -raise-affine-to-affine -emit-ir
    python -m repro.tool kernel.c -raise-affine-to-linalg \
        -linalg-contraction-ttgt -convert-linalg-to-blas
    python -m repro.tool kernel.c -raise-affine-to-linalg -estimate=amd

The flag names match the paper (§V: ``-raise-affine-to-affine``,
``-raise-affine-to-linalg``).  A tensor contraction raises to one
``linalg.generic``; ``-linalg-contraction-ttgt`` gives it the TTGT
transpose/reshape/matmul layout, so ``-convert-linalg-to-blas``
without it leaves the generic (run by ``tensordot``, no ``sgemm``).
"""

from __future__ import annotations

import argparse
import sys
from typing import Callable, Dict, List

from .ir import Context, ModuleOp, Pass, PassManager, print_module, verify
from .ir.parser import ParseError, parse_module
from .met import CSyntaxError
from .met.c_lexer import CLexError


def _synth_raising_pass():
    # The synthesis tier pulls in its interpreter-backed oracle and
    # NumPy; only a pipeline that asks for it pays that import.
    from .raising import SynthRaisingPass

    return SynthRaisingPass()


def _pass_registry(
    tile_sizes: List[int] = None,
) -> Dict[str, Callable[[], Pass]]:
    from .tactics.chain import MatrixChainReorderPass
    from .tactics.raising import (
        RaiseAffineToAffinePass,
        RaiseAffineToLinalgPass,
    )
    from .transforms import (
        AffineToSCFPass,
        CanonicalizePass,
        CopyEliminationPass,
        DelinearizationPass,
        ExpandAffineMatmulPass,
        LinalgContractionTTGTPass,
        LinalgContractionsToTiledLoopsPass,
        LinalgToAffinePass,
        LinalgToBlasPass,
        LoopDistributionPass,
        LoopFusionPass,
        LowerBlasToLLVMPass,
        SCFToAffinePass,
        SCFToLLVMPass,
        TileLoopNestPass,
    )

    tile = tile_sizes if tile_sizes else 32
    return {
        "affine-loop-fusion": LoopFusionPass,
        "affine-copy-elimination": CopyEliminationPass,
        "affine-loop-distribution": LoopDistributionPass,
        "affine-delinearize": DelinearizationPass,
        "raise-scf-to-affine": SCFToAffinePass,
        "raise-affine-to-affine": RaiseAffineToAffinePass,
        "raise-affine-to-linalg": RaiseAffineToLinalgPass,
        "raise-affine-synth": _synth_raising_pass,
        "linalg-matrix-chain-reorder": MatrixChainReorderPass,
        "linalg-contraction-ttgt": LinalgContractionTTGTPass,
        "convert-linalg-to-blas": LinalgToBlasPass,
        "convert-linalg-to-affine-loops": LinalgToAffinePass,
        "convert-linalg-contractions-to-tiled-loops": lambda: (
            LinalgContractionsToTiledLoopsPass(tile)
        ),
        "affine-expand-matmul": ExpandAffineMatmulPass,
        "affine-loop-tile": lambda: TileLoopNestPass(tile),
        "canonicalize": CanonicalizePass,
        "lower-affine": AffineToSCFPass,
        "convert-scf-to-llvm": SCFToLLVMPass,
        "convert-blas-to-llvm": LowerBlasToLLVMPass,
    }


def load_input(path_or_dash: str, source_kind: str = "auto") -> ModuleOp:
    """Load a module from a .c file, a .mlir file, or stdin."""
    if path_or_dash == "-":
        return parse_source(sys.stdin.read(), source_kind)
    with open(path_or_dash) as handle:
        return parse_source(handle.read(), source_kind, path_or_dash)


def parse_source(
    text: str, source_kind: str = "auto", name: str = ""
) -> ModuleOp:
    """The module of one input text: C through the MET frontend, or
    textual IR.  ``"auto"`` reads the kind off ``name``'s suffix, else
    off the text."""
    kind = source_kind
    if kind == "auto":
        if name.endswith(".c"):
            kind = "c"
        elif name.endswith((".mlir", ".ir")):
            kind = "ir"
        else:
            kind = "c" if "{" in text and "void" in text else "ir"
    if kind == "c":
        from .met import compile_c

        return compile_c(text)
    return parse_module(text)


def build_pipeline(
    pass_names: List[str], tile_sizes: List[int] = None
) -> PassManager:
    registry = _pass_registry(tile_sizes)
    pm = PassManager(Context(), verify_each=False)
    for name in pass_names:
        if name not in registry:
            known = ", ".join(sorted(registry))
            raise SystemExit(
                f"mlt-opt: unknown pass '-{name}'; available: {known}"
            )
        pm.add(registry[name]())
    return pm


#: Options only one mode honours.  Setting one to a non-default value in
#: the other mode is refused (exit 2), never silently dropped.
SINGLE_INPUT_ONLY = (
    "--output",
    "--timing",
    "--estimate",
    "--execute",
    "--engine",
    "--exec-seed",
    "--opt-mode",
    "--tile-sizes",
)
BATCH_ONLY = ("--jobs", "--out-dir")


def main(argv: List[str] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)

    # Split off the -pass-name flags (anything except recognized options).
    pass_names: List[str] = []
    rest: List[str] = []
    registry = _pass_registry()
    for arg in argv:
        stripped = arg.lstrip("-")
        if arg.startswith("-") and stripped in registry:
            pass_names.append(stripped)
        else:
            rest.append(arg)

    parser = argparse.ArgumentParser(
        prog="mlt-opt",
        description="Multi-Level Tactics optimizer driver",
    )
    parser.add_argument(
        "input",
        nargs="+",
        help="input file(s) (.c or .mlir), or -; more than one input "
        "switches to batch mode (see --jobs/--out-dir)",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="batch mode: worker processes (0 = one per CPU)",
    )
    parser.add_argument(
        "--out-dir",
        help="batch mode: write each result as <stem>.mlir here "
        "(default: print nothing, just compile)",
    )
    parser.add_argument(
        "--cache-dir",
        help="persistent compilation cache root shared across processes "
        "and sessions: kernels/ modules/ passes/ schedules/ namespaces, "
        "the same layout and keys in single-file and batch mode.  Both "
        "modes skip the passes of unchanged functions through passes/; "
        "batch mode also codegens every module into kernels/, so a later "
        "--execute FUNC --engine compiled run of the same input and "
        "passes performs no codegen",
    )
    parser.add_argument(
        "--stats",
        action="store_true",
        help="print one stderr line, 'mlt-opt: stats: {json}', with the "
        "counters of every layer that ran: raise (raising passes), "
        "pass_cache (with --cache-dir), kernel_cache, vectorize and opt "
        "(with --execute FUNC --engine compiled; opt needs --opt-mode).  "
        "Batch mode reports kernel_cache (with --cache-dir), summed over "
        "units",
    )
    parser.add_argument(
        "--source",
        choices=["auto", "c", "ir"],
        default="auto",
        help="input kind (default: by file extension)",
    )
    parser.add_argument(
        "--no-verify", action="store_true", help="skip final verification"
    )
    parser.add_argument(
        "--timing",
        action="store_true",
        help="print per-pass timing (with a nested per-pattern breakdown "
        "for pattern-driver passes)",
    )
    parser.add_argument(
        "--driver",
        choices=["worklist", "snapshot"],
        default="worklist",
        help="greedy pattern driver (default: worklist; snapshot is the "
        "reference full-sweep driver)",
    )
    parser.add_argument(
        "--estimate",
        choices=["intel", "amd"],
        help="print a machine-model performance estimate",
    )
    parser.add_argument(
        "--execute",
        metavar="FUNC",
        help="run FUNC on random inputs after the pipeline and print "
        "output checksums",
    )
    parser.add_argument(
        "--engine",
        choices=["interpret", "compiled"],
        default="interpret",
        help="execution backend for --execute (default: interpret)",
    )
    parser.add_argument(
        "--exec-seed",
        type=int,
        default=0,
        help="RNG seed for --execute input buffers",
    )
    parser.add_argument(
        "--opt-mode",
        choices=["none", "fuse", "full"],
        default="none",
        help="with --execute --engine compiled: mid-level loop-optimizer "
        "pipeline run before codegen (fusion, copy-elim/DCE, "
        "distribution, cache-blocking tiling; default: none)",
    )
    parser.add_argument(
        "--tile-sizes",
        help="comma-separated tile edges: drives -affine-loop-tile "
        "(per-depth, last repeats) and the --opt-mode tiling stage "
        "(first value; default: 32)",
    )
    parser.add_argument(
        "-o", "--output", default="-", help="output file (default stdout)"
    )
    args = parser.parse_args(rest)

    batch = len(args.input) > 1
    mode, refused = (
        ("single-input", SINGLE_INPUT_ONLY) if batch else ("batch", BATCH_ONLY)
    )
    for flag in refused:
        dest = flag[2:].replace("-", "_")
        if getattr(args, dest) != parser.get_default(dest):
            sys.stderr.write(f"mlt-opt: {flag} is a {mode} option\n")
            return 2

    tile_sizes = None
    if args.tile_sizes:
        try:
            tile_sizes = [
                int(part) for part in args.tile_sizes.split(",") if part
            ]
        except ValueError:
            parser.error(f"--tile-sizes: not integers: {args.tile_sizes!r}")
        if not tile_sizes or any(size < 1 for size in tile_sizes):
            parser.error("--tile-sizes needs positive integers")

    if batch:
        return _batch_main(args, pass_names)

    from .runtime.batch import unit_config
    from .store import ArtifactStore

    store = ArtifactStore(args.cache_dir) if args.cache_dir else None

    try:
        module = load_input(args.input[0], args.source)
    except (CSyntaxError, CLexError, ParseError, OSError) as exc:
        sys.stderr.write(f"mlt-opt: {args.input[0]}: {exc}\n")
        return 1
    from .ir import set_default_driver

    set_default_driver(args.driver)
    pm = build_pipeline(pass_names, tile_sizes)
    pm.pass_cache = store.passes if store else None
    timing = pm.run(module)
    if not args.no_verify:
        verify(module, pm.context)

    text = print_module(module)
    if args.output == "-":
        sys.stdout.write(text)
    else:
        with open(args.output, "w") as handle:
            handle.write(text)

    if args.timing:
        sys.stderr.write(timing.report() + "\n")
    if args.estimate:
        from .execution import AMD_2920X, INTEL_I9_9900K, CostModel

        machine = AMD_2920X if args.estimate == "amd" else INTEL_I9_9900K
        model = CostModel(machine)
        for func in module.functions:
            report = model.cost_function(func)
            sys.stderr.write(
                f"@{func.sym_name}: {report.seconds * 1e3:.3f} ms, "
                f"{report.gflops:.2f} GFLOP/s on {machine.name}\n"
            )
    engine = None
    if args.execute:
        try:
            engine = _execute_module(
                module,
                args,
                unit_config(pass_names, args.driver, args.source),
                store,
                tile_sizes[0] if tile_sizes else None,
            )
        except Exception as exc:
            sys.stderr.write(f"mlt-opt: --execute: {exc}\n")
            return 1
    if args.stats:
        from .tactics.stats import merge_pass_stats

        stats = {}
        raised = merge_pass_stats(pm.passes)
        if raised is not None:
            stats["raise"] = raised.snapshot()
        if store is not None:
            stats["pass_cache"] = store.passes.snapshot()
        if engine is not None:
            stats["kernel_cache"] = engine.cache.snapshot()
            stats["vectorize"] = engine.vectorize_stats
            if args.opt_mode != "none":
                stats["opt"] = engine.opt_stats
        _print_stats(stats)
    return 0


def _print_stats(stats: dict) -> None:
    import json

    sys.stderr.write(
        "mlt-opt: stats: " + json.dumps(stats, sort_keys=True) + "\n"
    )


def _batch_main(args, pass_names: List[str]) -> int:
    """Batch mode: many inputs, one shared pool and persistent cache."""
    from .runtime.batch import run_batch

    try:
        results = run_batch(
            args.input,
            pass_names,
            out_dir=args.out_dir,
            jobs=args.jobs,
            cache_dir=args.cache_dir,
            driver=args.driver,
            source_kind=args.source,
            verify=not args.no_verify,
            compile_kernels=bool(args.cache_dir),
        )
    except ValueError as exc:  # two inputs would write one output
        sys.stderr.write(f"mlt-opt: {exc}\n")
        return 2
    failed = 0
    for result in results:
        status = "ok" if result.ok else "FAIL"
        detail = result.detail
        sys.stderr.write(
            f"mlt-opt: {result.input_path}: {status} "
            f"({result.seconds * 1e3:.1f} ms, {detail})\n"
        )
        failed += 0 if result.ok else 1
    if args.stats:
        from .execution.engine.cache import CACHE_COUNTERS
        from .telemetry import add

        stats = {}
        if args.cache_dir:
            # Unit shares list only what moved; the sum lists every
            # counter, as a single-file run does.
            totals = stats["kernel_cache"] = {
                tier: dict.fromkeys(CACHE_COUNTERS, 0)
                for tier in ("memory", "disk")
            }
            for result in results:
                add(totals, result.cache_snapshot)
        _print_stats(stats)
    return 1 if failed else 0


def _execute_module(module: ModuleOp, args, config, store, tile_size):
    """Run ``--execute FUNC`` on deterministic random inputs and report a
    checksum per output buffer (the two --engine backends must print
    identical lines up to float tolerance).  Returns the
    :class:`~repro.execution.ExecutionEngine` under ``--engine
    compiled``, else None."""
    from .fuzzing.oracle import make_args, module_arg_shapes

    func_name = args.execute
    buffers = make_args(module_arg_shapes(module, func_name), args.exec_seed)
    compiled = None
    if args.engine == "compiled":
        from .execution import ExecutionEngine

        compiled = ExecutionEngine(
            module,
            pipeline=config,
            cache=store.kernels if store else None,
            opt_mode=args.opt_mode,
            tile_size=tile_size,
            pass_cache=store.passes if store else None,
        )
        compiled.run(func_name, *buffers)
    else:
        from .execution import Interpreter

        Interpreter(module).run(func_name, *buffers)
    for pos, buf in enumerate(buffers):
        sys.stderr.write(
            f"@{func_name} arg {pos}: shape={tuple(buf.shape)} "
            f"checksum={float(buf.sum()):.6f} [{args.engine}]\n"
        )
    return compiled


def fuzz_main(argv: List[str] = None) -> int:
    """``mlt-fuzz``: the differential fuzzing driver.

    Budgeted runs (``--seeds``/``--time-limit``), a fast ``--smoke``
    mode for CI, and single-seed replay (``--seed N``) for reproducing
    an artifact from ``fuzz-failures/``.
    """
    from .fuzzing import CHECKS, FuzzCampaign

    parser = argparse.ArgumentParser(
        prog="mlt-fuzz",
        description=(
            "Differential fuzzer: random kernels through the Figure-9 "
            "pipelines, interpreted after every stage; failures are "
            "bisected to a pass and reduced to a minimal reproducer."
        ),
    )
    parser.add_argument(
        "--seeds", type=int, default=50, help="number of seeds to run"
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker processes for the seed range (0 or negative = one "
        "per CPU); "
        "per-seed verdicts and artifacts are byte-identical to a "
        "serial run",
    )
    parser.add_argument(
        "--start-seed", type=int, default=0, help="first seed of the range"
    )
    parser.add_argument(
        "--seed",
        type=int,
        help="replay a single seed verbosely (overrides --seeds)",
    )
    parser.add_argument(
        "--time-limit",
        type=float,
        help="stop starting new seeds after this many seconds",
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="CI budget: 30 seeds under a 60 second limit",
    )
    parser.add_argument(
        "--pipelines",
        help="comma-separated pipeline subset (default: all Figure-9 flows)",
    )
    parser.add_argument(
        "--out",
        default="fuzz-failures",
        help="artifact directory for failures (default: fuzz-failures)",
    )
    parser.add_argument(
        "--no-modules",
        action="store_true",
        help="skip the builder-API affine-module generator",
    )
    parser.add_argument(
        "--no-artifacts",
        action="store_true",
        help="report failures without writing fuzz-failures/",
    )
    parser.add_argument(
        "--checks",
        help="comma-separated oracle checks to run (default: all of "
        + ",".join(CHECKS)
        + "; see docs/testing.md)",
    )
    args = parser.parse_args(list(sys.argv[1:] if argv is None else argv))

    pipelines = args.pipelines.split(",") if args.pipelines else None
    try:
        campaign = FuzzCampaign(
            out_dir=args.out,
            pipelines=pipelines,
            check_modules=not args.no_modules,
            write_artifacts=not args.no_artifacts,
            checks=args.checks.split(",") if args.checks else None,
        )
    except ValueError as exc:
        parser.error(str(exc))

    if args.seed is not None:
        from .fuzzing import generate_kernel

        kernel = generate_kernel(args.seed)
        sys.stderr.write(
            f"seed {args.seed}: family={kernel.family} "
            f"expect_raise={kernel.expect_raise} "
            f"expect_synth_raise={kernel.expect_synth_raise}\n"
            f"{kernel.source}\n"
        )
        failures = campaign.run_seed(args.seed)
        if not failures:
            sys.stderr.write(f"seed {args.seed}: all pipelines agree\n")
            return 0
        for failure in failures:
            sys.stderr.write(failure.summary() + "\n")
        return 1

    num_seeds, time_limit = args.seeds, args.time_limit
    if args.smoke:
        num_seeds = min(num_seeds, 30)
        time_limit = 60.0 if time_limit is None else min(time_limit, 60.0)
    stats = campaign.run(
        num_seeds,
        start_seed=args.start_seed,
        time_limit=time_limit,
        jobs=args.jobs,
    )
    if not args.no_artifacts:
        from .runtime.fuzz import write_campaign_metadata
        from .runtime.pool import resolve_jobs

        write_campaign_metadata(
            args.out,
            resolve_jobs(args.jobs),
            num_seeds,
            args.start_seed,
            stats,
        )
    sys.stderr.write(stats.summary() + "\n")
    return 0 if stats.ok else 1


def tune_main(argv: List[str] = None) -> int:
    """``mlt-tune``: parallel schedule autotuning (see docs/scheduling.md).

    Searches the transform-dialect schedule space per kernel, measures
    candidates on real inputs across the worker pool, persists each
    winner in the ``schedules/`` cache namespace, and writes a
    ``BENCH_autotune`` report (to ``--out``, else stdout).  Exits 1,
    naming the kernel, when a tuned schedule is slower than the default
    or a search that was not replayed from cache evaluated nothing.
    """
    import json
    import os

    parser = argparse.ArgumentParser(
        prog="mlt-tune",
        description="Schedule autotuner: enumerate transform-dialect "
        "schedules per kernel, time them in parallel on real inputs, "
        "and persist the best schedule keyed by payload fingerprint "
        "so warm compiles replay it with zero search cost.",
    )
    parser.add_argument(
        "--kernels",
        default="gemm,2mm,doitgen,atax",
        help="comma-separated corpus kernels "
        "(default: gemm,2mm,doitgen,atax)",
    )
    parser.add_argument(
        "--budget",
        type=int,
        default=24,
        help="max schedule evaluations per kernel (the opt-mode=full "
        "equivalent is always candidate 0; default: 24)",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker processes for candidate evaluation (0 = one per CPU)",
    )
    parser.add_argument(
        "--repeats",
        type=int,
        default=3,
        help="timed runs per candidate; best-of wall-clock (default: 3)",
    )
    parser.add_argument(
        "--seed", type=int, default=0, help="input RNG seed"
    )
    parser.add_argument(
        "--cache-dir",
        help="cache root: winners persist under <cache-dir>/schedules/ "
        "(no caching without it — every run searches from scratch)",
    )
    parser.add_argument(
        "--no-pass-cache",
        action="store_true",
        help="disable the per-worker function-granular pass cache "
        "(candidates re-apply shared schedule steps from scratch)",
    )
    parser.add_argument(
        "--pipeline",
        default="mlt-linalg",
        help="payload pipeline the schedules are tuned against "
        "(default: mlt-linalg; 'baseline' keeps the payload at the "
        "affine level, where the schedule steps have loops to transform)",
    )
    parser.add_argument(
        "--out", help="JSON report path (default: stdout)"
    )
    args = parser.parse_args(list(sys.argv[1:] if argv is None else argv))

    from .scheduling.autotune import autotune, vacuous_search_note

    kernels = [k for k in args.kernels.split(",") if k]
    payload = autotune(
        kernels,
        budget=args.budget,
        jobs=args.jobs,
        repeats=args.repeats,
        seed=args.seed,
        cache_dir=args.cache_dir,
        pipeline=args.pipeline,
        pass_cache=not args.no_pass_cache,
    )
    report = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if args.out:
        out_dir = os.path.dirname(args.out)
        if out_dir:
            os.makedirs(out_dir, exist_ok=True)
        with open(args.out, "w") as handle:
            handle.write(report)
    else:
        sys.stdout.write(report)

    failed = False
    for row in payload["rows"]:
        source = (
            "cache"
            if row["cached"]
            else f"{row['evaluations']} evals, "
            f"distinct kernels: {row['distinct_kernels']}"
        )
        sys.stderr.write(
            f"mlt-tune: {row['kernel']}: default "
            f"{row['default_wall_s'] * 1e6:.1f}us -> tuned "
            f"{row['tuned_wall_s'] * 1e6:.1f}us "
            f"({row['speedup']:.2f}x, {source})\n"
        )
        note = vacuous_search_note(row)
        if note:
            sys.stderr.write(f"mlt-tune: {row['kernel']}: note: {note}\n")
        # A cached row reuses its search-time pair, so every row, cached
        # or not, must show the tuned schedule no slower.
        error = None
        if row["speedup"] < 1.0:
            error = f"tuned schedule is slower ({row['speedup']:.2f}x)"
        elif not row["cached"] and row["evaluations"] == 0:
            error = "the search evaluated no schedule"
        if error:
            sys.stderr.write(f"mlt-tune: {row['kernel']}: error: {error}\n")
            failed = True
    summary = payload["summary"]
    sys.stderr.write(
        f"mlt-tune: {summary['evaluations']} evaluations "
        f"(distinct kernels: {summary['distinct_kernels']}), "
        f"{summary['cached']} kernels replayed from cache, best speedup "
        f"{summary['best_speedup']:.2f}x; wrote {args.out or 'stdout'}\n"
    )
    return 1 if failed else 0


def serve_main(argv: List[str] = None) -> int:
    """``mlt-serve``: run the compile service (see docs/serving.md)."""
    parser = argparse.ArgumentParser(
        prog="mlt-serve",
        description="Long-lived compile/execute server over the kernel "
        "caches: per-tenant namespaces, request coalescing, batching "
        "onto a persistent worker pool, and admission control.",
    )
    group = parser.add_mutually_exclusive_group()
    group.add_argument(
        "--socket", help="serve on a unix-domain socket at this path"
    )
    group.add_argument(
        "--port",
        type=int,
        default=None,
        help="serve on TCP at this port (0 = ephemeral; default)",
    )
    parser.add_argument(
        "--host", default="127.0.0.1", help="TCP bind host"
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        help="cache root; tenants namespace under "
        "<cache-dir>/tenants/<tenant>/ (default: in-memory only)",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=0,
        help="0 serves inline on executor threads; N>0 batches onto a "
        "persistent N-worker pool; a negative N means one worker per "
        "CPU",
    )
    parser.add_argument(
        "--max-pending",
        type=int,
        default=256,
        help="admission bound: shed requests beyond this many "
        "queued+running units",
    )
    parser.add_argument(
        "--batch-window-ms",
        type=float,
        default=2.0,
        help="pool mode: gather admitted units this long per batch",
    )
    parser.add_argument(
        "--prewarm",
        default="",
        help="comma-separated corpus kernels to compile and pin hot "
        "before accepting traffic (pipeline fixed to baseline unless "
        "given as kernel:pipeline)",
    )
    parser.add_argument(
        "--allow-debug",
        action="store_true",
        help="honor debug_delay_s/debug_crash request fields "
        "(test seams; never in production)",
    )
    args = parser.parse_args(argv)

    import asyncio

    from .runtime.pool import resolve_jobs
    from .serving import ServerConfig, run_server

    jobs = args.jobs if args.jobs >= 0 else resolve_jobs(0)
    config = ServerConfig(
        cache_dir=args.cache_dir,
        jobs=jobs,
        max_pending=args.max_pending,
        batch_window_s=args.batch_window_ms / 1000.0,
        allow_debug=args.allow_debug,
    )

    prewarm = []
    for item in filter(None, args.prewarm.split(",")):
        name, _, pipeline = item.strip().partition(":")
        prewarm.append(
            {"kernel": name, "pipeline": pipeline or "baseline"}
        )

    def _on_ready(server, endpoint):
        if prewarm:
            sys.stderr.write(
                f"mlt-serve: prewarmed {len(prewarm)} kernels\n"
            )
        sys.stderr.write(f"mlt-serve: listening on {endpoint}\n")
        sys.stderr.flush()

    try:
        asyncio.run(
            run_server(
                config,
                socket_path=args.socket,
                host=args.host,
                port=args.port or 0,
                prewarm=prewarm,
                ready_callback=_on_ready,
            )
        )
    except KeyboardInterrupt:
        sys.stderr.write("mlt-serve: interrupted\n")
        return 130
    return 0


if __name__ == "__main__":
    sys.exit(main())
