"""The function-granular pass-result cache ("compilation firewall").

Covers the two tiers — per-pass memo and disk ``passes/`` namespace —
behind the one memo path (``FunctionCursor``: replay, execute, settle),
plus the invariants that make verify-skipping sound: byte-identical
spliced IR, content-addressed invalidation, damaged artifacts that are
misses, and the PatternRewriter version-bump guard that keeps
``fingerprint_module`` (and therefore every cache key) honest even for
passes that lie about their changes.
"""

import hashlib
import json
import os

import pytest

from repro.dialects import std as std_d
from repro.ir import (
    Context,
    FunctionPass,
    PassManager,
    PassResultCache,
    PatternRewriter,
    RewritePattern,
    apply_conversion,
    apply_patterns_snapshot,
    apply_patterns_worklist,
    fingerprint_function,
    print_module,
)
from repro.ir.pass_cache import FunctionCursor
from repro.ir.parser import parse_module
from repro.met import compile_c
from repro.store import ArtifactStore
from repro.transforms import (
    CanonicalizePass,
    LoopDistributionPass,
    LoopFusionPass,
)

from ..conftest import build_gemm_module

TWO_FUNCS = """
void scale(float A[8][8]) {
  for (int i = 0; i < 8; i++)
    for (int j = 0; j < 8; j++)
      A[i][j] = A[i][j] * 2.0;
}
void accum(float B[8][8], float C[8][8]) {
  for (int i = 0; i < 8; i++)
    for (int j = 0; j < 8; j++)
      C[i][j] = C[i][j] + B[i][j];
}
"""


@pytest.fixture
def parses(monkeypatch):
    """Every text handed to ``parse_func`` — what a splice costs."""
    import repro.ir.parser as parser_module

    seen = []
    real = parser_module.parse_func
    monkeypatch.setattr(
        parser_module,
        "parse_func",
        lambda text: seen.append(text) or real(text),
    )
    return seen


def _pipeline(cache=None):
    pm = PassManager(Context(), verify_each=True, pass_cache=cache)
    pm.add(LoopFusionPass(), CanonicalizePass(), LoopDistributionPass())
    return pm


def _never_runs(func):
    raise AssertionError("a hit must not run the transform")


class TestSpliceFunction:
    """``FunctionCursor.settle`` — the one place a ``rewrite`` entry
    becomes IR again."""

    def _hit(self, cache, func, text, steps=("s",)):
        """A cursor on ``func`` advanced through ``steps``, each a
        recorded rewrite to ``text`` (so only the last one matters)."""
        cursor = FunctionCursor(cache, func)
        for step in steps:
            key = cache.key(cursor.fp, step, "")
            if cache.get(key) is None:
                cache.put(
                    key, {"kind": "rewrite", "text": text, "fp": step + "-fp"}
                )
            assert cursor.replay(step, "", _never_runs)["text"] == text
        return cursor

    def test_preserves_position_and_bytes(self):
        module = compile_c(TWO_FUNCS)
        reference = print_module(module)
        scale = module.functions[0]
        cursor = self._hit(PassResultCache(), scale, print_module(scale))
        assert module.functions[0] is scale  # a hit alone moves nothing
        assert cursor.settle() is False
        assert module.functions[0] is cursor.func is not scale
        assert [f.sym_name for f in module.functions] == ["scale", "accum"]
        assert print_module(module) == reference

    def test_bumps_module_version(self):
        module = compile_c(TWO_FUNCS)
        module.bump_version()
        before = module.version
        scale = module.functions[0]
        self._hit(PassResultCache(), scale, print_module(scale)).settle()
        assert module.version > before

    def test_a_chain_of_hits_is_one_parse_and_one_splice(self, parses):
        cache = PassResultCache()
        module = compile_c(TWO_FUNCS)
        accum_text = print_module(module.functions[1])
        for _ in range(2):  # second round: the entry's parsed copy is reused
            fresh = compile_c(TWO_FUNCS)
            cursor = self._hit(
                cache, fresh.functions[1], accum_text, steps=("a", "b", "c")
            )
            assert cursor.fp == "c-fp" and not parses[1:]
            cursor.settle()
            assert print_module(fresh) == print_module(module)
        assert len(parses) == 1
        assert cache.stats.snapshot()["spliced"] == 2


class TestPassResultCacheStore:
    def test_memo_roundtrip_and_stats(self):
        cache = PassResultCache()
        key = cache.key("fp", "canonicalize")
        assert cache.get(key) is None
        cache.put(key, {"kind": "clean", "fp": "fp"})
        assert cache.get(key) == {"kind": "clean", "fp": "fp"}
        snap = cache.stats.snapshot()
        assert snap["misses"] == 1 and snap["hits"] == 1
        assert snap["stores"] == 1

    def test_lru_bound(self):
        cache = PassResultCache(max_entries=2)
        keys = [cache.key(f"fp{i}", "p") for i in range(3)]
        for k in keys:
            cache.put(k, {"kind": "clean", "fp": "x"})
        assert len(cache) == 2
        assert cache.get(keys[0]) is None  # evicted, oldest

    def test_rejects_zero_capacity(self):
        with pytest.raises(ValueError):
            PassResultCache(max_entries=0)

    def test_keys_distinguish_config_and_pass(self):
        cache = PassResultCache()
        base = cache.key("fp", "tile", "tile=16")
        assert base != cache.key("fp", "tile", "tile=32")
        assert base != cache.key("fp", "fuse", "tile=16")
        assert base != cache.key("fp2", "tile", "tile=16")

    def test_disk_tier_survives_new_process_memo(self, tmp_path):
        cache = ArtifactStore(str(tmp_path)).passes
        key = cache.key("fp", "p")
        cache.put(key, {"kind": "clean", "fp": "fp"})
        # Fresh memo, same disk root == a cold process.
        cold = ArtifactStore(str(tmp_path)).passes
        assert cold.get(key) == {"kind": "clean", "fp": "fp"}
        assert cold.stats.snapshot()["disk_hits"] == 1

    def test_corrupt_disk_entry_is_a_miss(self, tmp_path):
        cache = ArtifactStore(str(tmp_path)).passes
        disk = cache.disk
        key = cache.key("fp", "p")
        disk.store_text(key, "{not json")
        assert cache.get(key) is None


def _truncate_text(entry):
    if entry["kind"] == "rewrite":
        entry["text"] = entry["text"][: len(entry["text"]) // 2]
    return entry


def _drop_fp(entry):
    del entry["fp"]
    return entry


def _fp_of_wrong_type(entry):
    entry["fp"] = 7
    return entry


def _payload_a_list(entry):
    return [entry["kind"], entry.get("text"), entry["fp"]]


def _damage_every_artifact(disk, damage):
    from repro.execution.engine.disk_cache import ARTIFACT_SUFFIX

    keys = [
        name[: -len(ARTIFACT_SUFFIX)]
        for name in os.listdir(disk.path)
        if name.endswith(ARTIFACT_SUFFIX)
    ]
    kinds = set()
    for key in keys:
        entry = json.loads(disk.load_text(key))
        kinds.add(entry["kind"])
        disk.store_text(key, json.dumps(damage(entry)))
    assert kinds == {"clean", "rewrite"}  # the fill exercised both


@pytest.mark.parametrize(
    "damage",
    [_truncate_text, _drop_fp, _fp_of_wrong_type, _payload_a_list],
    ids=lambda f: f.__name__[1:],
)
class TestDamagedArtifactIsAMiss:
    """A ``passes/`` artifact that decodes but is not a usable entry —
    wrong shape, or a ``rewrite`` whose text no longer parses — makes
    the transform run again and is overwritten; it never fails the
    compile, and the output is the uncached one."""

    def _check(self, tmp_path, damage, compile_with):
        reference, _ = compile_with(None)

        def attached():
            cache = ArtifactStore(str(tmp_path)).passes
            return cache, cache.disk

        cache, disk = attached()
        assert compile_with(cache)[0] == reference
        _damage_every_artifact(disk, damage)

        cache, _ = attached()
        text, report = compile_with(cache)
        assert text == reference
        assert report == compile_with(None)[1]
        snap = cache.stats.snapshot()
        assert snap["executions"] > 0
        assert snap["misses"] >= snap["executions"]

        cache, _ = attached()  # the re-execution repaired the artifacts
        assert compile_with(cache)[0] == reference
        snap = cache.stats.snapshot()
        assert snap["executions"] == 0 and snap["misses"] == 0

    def test_through_pass_manager(self, tmp_path, damage):
        def compile_with(cache):
            module = compile_c(THREE_FUNCS)
            _batch_pipeline(cache).run(module)
            return print_module(module), None

        self._check(tmp_path, damage, compile_with)

    def test_through_cached_stage(self, tmp_path, damage):
        from repro.scheduling.interpreter import apply_schedule

        schedule = _tile_schedule("size = 8")

        def compile_with(cache):
            module = compile_c(TILABLE, distribute=False)
            result = apply_schedule(schedule, module, pass_cache=cache)
            return print_module(module), result.snapshot()

        self._check(tmp_path, damage, compile_with)


class TestPassManagerCached:
    def test_cold_warm_and_scratch_agree(self):
        module = compile_c(TWO_FUNCS)
        scratch = compile_c(TWO_FUNCS)
        _pipeline().run(scratch)
        reference = print_module(scratch)

        cache = PassResultCache()
        cold = compile_c(TWO_FUNCS)
        _pipeline(cache).run(cold)
        assert print_module(cold) == reference
        cold_snap = cache.stats.snapshot()
        assert cold_snap["executions"] == 6  # 2 funcs x 3 passes

        warm = module
        _pipeline(cache).run(warm)
        assert print_module(warm) == reference
        warm_snap = cache.stats.snapshot()
        assert warm_snap["executions"] == cold_snap["executions"]
        assert warm_snap["hits"] - cold_snap["hits"] == 6
        assert warm_snap["skipped_verifies"] == 6

    def test_timing_reports_cache_counters(self):
        cache = PassResultCache()
        _pipeline(cache).run(compile_c(TWO_FUNCS))
        timing = _pipeline(cache).run(compile_c(TWO_FUNCS))
        assert timing.pass_cache  # per-pass deltas recorded
        assert "cache hits=" in timing.report()

    def test_changed_function_only_reruns_itself(self):
        cache = PassResultCache()
        _pipeline(cache).run(compile_c(TWO_FUNCS))
        before = cache.stats.snapshot()
        edited = compile_c(TWO_FUNCS.replace("* 2.0", "* 3.0"))
        _pipeline(cache).run(edited)
        after = cache.stats.snapshot()
        # Only @scale changed: @accum replays from cache at all 3
        # passes while @scale re-executes all 3.
        assert after["executions"] - before["executions"] == 3
        assert after["hits"] - before["hits"] == 3

    def test_warm_chain_from_disk_skips_all_passes(self, tmp_path):
        cache = ArtifactStore(str(tmp_path)).passes
        scratch = compile_c(TWO_FUNCS)
        _pipeline(cache).run(scratch)
        reference = print_module(scratch)

        # fresh memo == new process
        cold = ArtifactStore(str(tmp_path)).passes
        module = compile_c(TWO_FUNCS)
        _pipeline(cold).run(module)
        assert print_module(module) == reference
        snap = cold.stats.snapshot()
        assert snap["executions"] == 0 and snap["misses"] == 0
        assert snap["hits"] == snap["disk_hits"] == 6
        assert snap["spliced"] <= 2  # at most one per function

    def test_config_change_invalidates(self):
        from repro.transforms import TileLoopNestPass

        def tiling(size, cache):
            pm = PassManager(Context(), pass_cache=cache)
            pm.add(TileLoopNestPass(size))
            return pm

        cache = PassResultCache()
        m16 = build_gemm_module(8, 8, 8)
        tiling(4, cache).run(m16)
        m32 = build_gemm_module(8, 8, 8)
        tiling(2, cache).run(m32)
        assert print_module(m16) != print_module(m32)
        assert cache.stats.snapshot()["hits"] == 0


THREE_FUNCS = TWO_FUNCS + """
void gemm(float A[8][6], float B[6][7], float C[8][7]) {
  for (int i = 0; i < 8; i++)
    for (int j = 0; j < 7; j++)
      for (int k = 0; k < 6; k++)
        C[i][j] += A[i][k] * B[k][j];
}
void chain(float A[8][8], float B[8][8], float C[8][8]) {
  for (int i = 0; i < 8; i++)
    for (int j = 0; j < 8; j++)
      B[i][j] = A[i][j] * 2.0;
  for (int i = 0; i < 8; i++)
    for (int j = 0; j < 8; j++)
      C[i][j] = B[i][j] + A[i][j];
}
"""

#: The ``mlt-opt`` batch pipeline of ``benchmarks/e2e``'s ``batch_fill``:
#: seven cacheable function passes.
BATCH_PASSES = (
    "raise-affine-to-linalg",
    "affine-loop-fusion",
    "affine-copy-elimination",
    "canonicalize",
    "affine-loop-distribution",
    "affine-loop-tile",
    "canonicalize",
)


def _batch_pipeline(cache=None):
    from repro.tool import build_pipeline

    pm = build_pipeline(list(BATCH_PASSES))
    pm.pass_cache = cache
    return pm


def _expected_pass_artifacts(source, cache):
    """key -> entry a cold cached run must publish, worked out from an
    *uncached* run of the same pipeline snapshotted after every pass on
    every function (with what the pass counted there as ``meta``)."""

    def digest(text):
        return hashlib.sha256(text.encode("utf-8")).hexdigest()

    def result(text, fp, base_fp):
        if fp == base_fp:
            return {"kind": "clean", "fp": fp}
        return {"kind": "rewrite", "text": text, "fp": fp}

    module = compile_c(source)
    pm = _batch_pipeline()
    expected = {}
    for pass_ in pm.passes:
        pass_.rewrite_results = []
        pass_.prepare(module, pm.context)
        config = pass_.cache_config()
        for func in module.functions:
            fp = digest(print_module(func))
            counted = pass_.run_counted(func, pm.context)[1]
            text = print_module(func)
            entry = result(text, digest(text), fp)
            if counted is not None:
                entry["meta"] = counted
            expected[cache.key(fp, pass_.name, config)] = entry
    return expected


class TestColdRunPrintsOnce:
    def test_one_print_per_function_state(self, tmp_path, monkeypatch):
        import repro.ir.pass_cache as pass_cache_mod
        import repro.ir.printer as printer_mod

        printed = []

        def recording(op, _real=printer_mod.print_module):
            printed.append(_real(op))
            return printed[-1]

        monkeypatch.setattr(printer_mod, "print_module", recording)
        monkeypatch.setattr(pass_cache_mod, "print_module", recording)
        cache = ArtifactStore(str(tmp_path)).passes
        _batch_pipeline(cache).run(compile_c(THREE_FUNCS))
        assert len(printed) > 4  # four entry states + every rewrite
        assert len(printed) == len(set(printed))

    def test_artifacts_are_the_uncached_snapshots(self, tmp_path):
        from repro.execution.engine.disk_cache import ARTIFACT_SUFFIX

        cache = ArtifactStore(str(tmp_path)).passes
        disk = cache.disk
        _batch_pipeline(cache).run(compile_c(THREE_FUNCS))
        expected = _expected_pass_artifacts(THREE_FUNCS, cache)
        assert any(e["kind"] == "rewrite" for e in expected.values())
        on_disk = {
            name[: -len(ARTIFACT_SUFFIX)] for name in os.listdir(disk.path)
        }
        assert on_disk == set(expected)
        for key, entry in expected.items():
            assert disk.load_text(key) == json.dumps(entry, sort_keys=True)


def _corpus_pipeline(cache):
    """Two optimization rounds, per-pass verification on — ten cacheable
    passes per function (what ``bench_incremental`` used to time)."""
    from repro.transforms import (
        CopyEliminationPass,
        DelinearizationPass,
        TileLoopNestPass,
    )

    pm = PassManager(Context(), verify_each=True, pass_cache=cache)
    pm.add(
        LoopFusionPass(),
        CopyEliminationPass(),
        CanonicalizePass(),
        LoopDistributionPass(),
        DelinearizationPass(),
        TileLoopNestPass(32),
        CanonicalizePass(),
        CopyEliminationPass(),
        LoopFusionPass(),
        CanonicalizePass(),
    )
    return pm


class TestWarmCorpus:
    """The structural half of the retired ``bench_incremental``: what a
    warm recompile may not do, with no clock involved."""

    def test_new_process_replays_every_pass_with_one_parse_per_function(
        self, tmp_path, parses
    ):
        from repro.evaluation import get_kernel
        from repro.evaluation.kernels import PAPER_BENCHMARKS

        sources = [get_kernel(name).small() for name in PAPER_BENCHMARKS]

        def one_process():
            cache = ArtifactStore(str(tmp_path)).passes
            modules = [compile_c(source) for source in sources]
            for module in modules:
                _corpus_pipeline(cache).run(module)
            return [print_module(m) for m in modules], modules, cache

        cold, _, _ = one_process()
        assert not parses
        warm, modules, cache = one_process()
        assert warm == cold
        snap = cache.stats.snapshot()
        functions = sum(len(m.functions) for m in modules)
        passes = len(_corpus_pipeline(None).passes)
        assert snap["executions"] == 0 and snap["misses"] == 0
        assert snap["hits"] == functions * passes
        assert snap["skipped_verifies"] == functions * passes
        # A chain of hits is settled once: however many passes rewrote
        # a function, it is parsed (and spliced) at most one time.
        assert 0 < len(parses) == snap["spliced"] <= functions

    def test_batch_fill_counts(self, tmp_path):
        """The exact traffic of one ``benchmarks/e2e`` ``batch_fill``
        sample (16 kernels, seed-0 order, every tier empty)."""
        import random

        from repro.evaluation import get_kernel
        from repro.evaluation.kernels import PAPER_BENCHMARKS
        from repro.runtime import batch

        names = sorted(PAPER_BENCHMARKS)
        random.Random(0).shuffle(names)
        paths = []
        for index, name in enumerate(names):
            paths.append(str(tmp_path / f"k{index:02d}.c"))
            with open(paths[-1], "w") as handle:
                handle.write(get_kernel(name).small())
        cache_dir = tmp_path / "cache"
        results = batch.run_batch(
            paths,
            list(BATCH_PASSES),
            str(tmp_path / "out"),
            jobs=1,
            cache_dir=str(cache_dir),
            compile_kernels=True,
        )
        assert all(r.ok for r in results)
        snap = batch._WORKER_STATE["store"].passes.stats.snapshot()
        assert {
            key: snap[key]
            for key in ("hits", "misses", "executions", "stores")
        } == {"hits": 15, "misses": 97, "executions": 97, "stores": 97}
        assert {
            tier: len(os.listdir(cache_dir / tier))
            for tier in os.listdir(cache_dir)
        } == {"passes": 97, "modules": 16, "kernels": 16, "schedules": 0}

    def test_schedule_search_replays_the_shared_prefix(self):
        from repro.scheduling.autotune import autotune

        payload = autotune(
            kernels=("2mm",),
            budget=16,
            jobs=1,
            repeats=1,
            pipeline="baseline",
            pass_cache=True,
        )
        (row,) = payload["rows"]
        assert row["pass_cache"]["hits"] > row["pass_cache"]["executions"] > 0


class _LyingDoublerPass(FunctionPass):
    """Rewrites every AddF to a MulF via PatternRewriter, then reports
    ``False`` ("nothing changed") — the worst-case lying client."""

    name = "lying-doubler"

    def run_on_function(self, func, context):
        from repro.dialects import std

        rewriter = PatternRewriter()
        for op in list(func.walk()):
            if isinstance(op, std.AddFOp):
                mul = std.MulFOp.create(*[v for v in op.operands])
                rewriter.replace_op_with_new(op, mul)
        return False  # lie


class _AddToMul(RewritePattern):
    root_op_name = "std.addf"

    def match_and_rewrite(self, op, rewriter):
        rewriter.replace_op_with_new(op, std_d.MulFOp.create(*op.operands))
        return True


class _LyingDriverPass(FunctionPass):
    """The same lie told through a driver: the rewriter the driver
    binds resolves the module once per run instead of per mutation."""

    name = "lying-driver"

    def __init__(self, driver):
        self.driver = driver

    def run_on_function(self, func, context):
        self.driver(func, [_AddToMul()])
        return False  # lie


class TestStaleFingerprintRegressions:
    """PatternRewriter mutations must invalidate fingerprints even when
    the pass never calls ``bump_version()`` itself (satellite: stale
    ``fingerprint_module`` digests must never be re-served)."""

    @pytest.mark.parametrize(
        "make_pass",
        [
            _LyingDoublerPass,  # bare rewriter: climbs per mutation
            lambda: _LyingDriverPass(apply_conversion),
            lambda: _LyingDriverPass(apply_patterns_worklist),
            lambda: _LyingDriverPass(apply_patterns_snapshot),
        ],
        ids=["bare", "conversion", "worklist", "snapshot"],
    )
    def test_every_rewriter_path_invalidates_fingerprint(self, make_pass):
        from repro.execution.engine.cache import fingerprint_module

        module = build_gemm_module()
        module.bump_version()
        first = fingerprint_module(module)  # primes the version memo
        before = module.version
        make_pass().run(module, Context())
        assert module.version > before
        assert fingerprint_module(module) != first

    def test_driver_bound_rewriter_does_not_climb(self, monkeypatch):
        """The once-per-run path really is once per run: a driver-bound
        rewriter bumps the module without reading ``parent_op``."""
        from repro.ir import Operation

        module = build_gemm_module()
        module.bump_version()
        rewriter = PatternRewriter(module.functions[0])
        add = next(op for op in module.walk() if op.name == "std.addf")
        rewriter.set_insertion_point_before(add)
        reads = []
        real = Operation.parent_op
        monkeypatch.setattr(
            Operation,
            "parent_op",
            property(lambda op: reads.append(op) or real.fget(op)),
        )
        before = module.version
        rewriter.insert(std_d.MulFOp.create(*add.operands))
        assert module.version > before
        assert reads == []

    def test_rewriter_mutation_bumps_module_version(self):
        module = build_gemm_module()
        module.bump_version()
        before = module.version
        _LyingDoublerPass().run(module, Context())
        assert module.version > before

    def test_fingerprint_module_not_stale_after_mutation(self):
        from repro.execution.engine.cache import fingerprint_module

        module = build_gemm_module()
        first = fingerprint_module(module)  # primes the version memo
        _LyingDoublerPass().run(module, Context())
        assert fingerprint_module(module) != first

    def test_engine_cache_not_stale_after_mutation(self):
        """Engine-cache level: mutate IR through a rewriter (no manual
        bump), recompile, and require a fresh kernel, not the old one."""
        import numpy as np

        from repro.execution import ExecutionEngine
        from repro.execution.engine.cache import KernelCache

        module = build_gemm_module(4, 4, 4)
        cache = KernelCache()
        engine = ExecutionEngine(module, cache=cache)
        rng = np.random.default_rng(0)
        args = [
            rng.random((4, 4), dtype=np.float32) for _ in range(3)
        ]
        ref = [a.copy() for a in args]
        engine.run("gemm", *ref)

        _LyingDoublerPass().run(module, Context())
        mutated = ExecutionEngine(module, cache=cache)
        out = [a.copy() for a in args]
        mutated.run("gemm", *out)
        # a*b (mul) instead of a*b+c (add): outputs must differ, which
        # they can't if the stale kernel was re-served.
        assert not np.allclose(ref[2], out[2])
        assert cache.stats.snapshot()["misses"] == 2

    def test_pass_cache_not_stale_after_mutation(self):
        """Pass-cache level: after an in-place rewriter mutation the
        function fingerprint (and so the cache key) must change."""
        module = build_gemm_module()
        func = module.functions[0]
        first = fingerprint_function(func)
        _LyingDoublerPass().run(module, Context())
        assert fingerprint_function(func) != first

    def test_lying_pass_result_still_cached_correctly(self):
        """The cached path upgrades a falsy change report via the
        module-version guard: the rewrite is stored and replayed."""
        cache = PassResultCache()
        cold = build_gemm_module()
        pm = PassManager(Context(), pass_cache=cache)
        pm.add(_LyingDoublerPass())
        pm.run(cold)
        warm = build_gemm_module()
        pm2 = PassManager(Context(), pass_cache=cache)
        pm2.add(_LyingDoublerPass())
        pm2.run(warm)
        assert print_module(warm) == print_module(cold)
        snap = cache.stats.snapshot()
        assert snap["spliced"] == 1  # replayed as a rewrite, not clean
        assert snap["executions"] == 1


#: Clean on both TWO_FUNCS functions, with a counter that moves.
CLEAN_STEPS = """
module {
  transform.sequence {
    %0 = transform.match
    %1 = transform.dead_loops %0
    %2 = transform.canonicalize %1
  }
}
"""


class TestScheduleStepCached:
    """Schedule steps through the one memo path: each step is a pass,
    and the ``PassManager`` ``apply_schedule`` runs holds a
    ``FunctionCursor`` per matched function across them."""

    @pytest.fixture
    def bodies(self, monkeypatch):
        """Every step pass that really ran on a function, by step
        mnemonic."""
        from repro.scheduling import interpreter

        ran = []

        def recording(name, make):
            def build(step):
                pass_ = make(step)
                run = pass_.run_on_function
                pass_.run_on_function = lambda func, context: (
                    ran.append(name) or run(func, context)
                )
                return pass_

            return build

        table = {
            name: recording(name, make)
            for name, make in interpreter.STEP_PASSES.items()
        }
        monkeypatch.setattr(interpreter, "STEP_PASSES", table)
        return ran

    def _apply(self, text, cache, module=None, keyed=None):
        from repro.scheduling.interpreter import apply_schedule

        module = compile_c(TWO_FUNCS) if module is None else module
        return apply_schedule(parse_module(text), module, cache, keyed=keyed)

    def test_uncached_steps_run_on_the_payload_functions(self, bodies):
        module = compile_c(TWO_FUNCS)
        funcs = list(module.functions)
        result = self._apply(CLEAN_STEPS, None, module)
        assert bodies == (
            ["transform.dead_loops"] * 2 + ["transform.canonicalize"] * 2
        )
        assert result.payload is module and module.functions == funcs
        assert result.outcome is None  # no cache: nothing to key on

    def test_clean_hit_replays_stats_without_running(self, bodies):
        # Fusion refuses the pair (different trip counts): the function
        # is left as it was, and the refusal is counted.
        misaligned = """
        void f(float A[8], float B[4]) {
          for (int i = 0; i < 8; i++) A[i] = A[i] * 2.0;
          for (int i = 0; i < 4; i++) B[i] = A[i] + 1.0;
        }
        """
        steps = CLEAN_STEPS.replace("dead_loops", "fuse")
        cache = PassResultCache()
        cold = self._apply(steps, cache, compile_c(misaligned))
        executed = list(bodies)
        module = compile_c(misaligned)
        funcs = list(module.functions)
        warm = self._apply(steps, cache, module)
        assert bodies == executed  # no body ran twice
        assert warm.snapshot() == cold.snapshot()
        assert warm.counters["fusion_bails"]  # replayed from the entry
        assert module.functions == funcs  # clean results: no splice
        assert warm.outcome == cold.outcome == tuple(
            fingerprint_function(f) for f in funcs
        )

    def test_keyed_search_fingerprints_each_function_once(
        self, monkeypatch
    ):
        import repro.ir.pass_cache as pass_cache_mod
        from repro.scheduling.interpreter import KeyedSearch

        printed = []
        real = pass_cache_mod.print_module
        monkeypatch.setattr(
            pass_cache_mod,
            "print_module",
            lambda op: printed.append(op) or real(op),
        )
        cache, search = PassResultCache(), KeyedSearch()
        module = compile_c(TWO_FUNCS)
        first = self._apply(CLEAN_STEPS, cache, module, search)
        cold_prints = len(printed)
        assert cold_prints > 0
        search.known[first.outcome] = "built"
        again = self._apply(CLEAN_STEPS, cache, module, search)
        # Entry fingerprints are remembered, every step hits: no print.
        assert len(printed) == cold_prints and again.payload is None
        assert again.outcome == first.outcome

    def test_rewrite_hit_splices_byte_identical(self, bodies):
        schedule = print_module(_tile_schedule("size = 8"))
        cache = PassResultCache()
        cold = self._apply(
            schedule, cache, compile_c(TILABLE, distribute=False)
        )
        reference = print_module(cold.payload)
        executed = list(bodies)

        module = compile_c(TILABLE, distribute=False)
        func = module.functions[0]
        self._apply(schedule, cache, module)
        assert bodies == executed
        assert module.functions[0] is not func  # spliced
        assert cache.stats.snapshot()["spliced"] == 1  # once per chain
        assert print_module(module) == reference


# A reduction-like nest the vectorizer rejects and the tiler takes (the
# stored value does not vary along k).
TILABLE = """
void acc(float A[64][64], float C[64][64]) {
  for (int i = 0; i < 64; i++)
    for (int j = 0; j < 64; j++)
      for (int k = 0; k < 4; k++)
        C[i][j] = C[i][j] + A[i][j];
}
"""


def _tile_schedule(tile_attr):
    return parse_module(
        "module {\n  transform.sequence {\n"
        "    %0 = transform.match\n"
        "    %1 = transform.copy_elim %0\n"
        f"    %2 = transform.tile %1 {{{tile_attr}}}\n"
        "    %3 = transform.unroll_jam %2 {factor = 2}\n"
        "  }\n}\n"
    )


class TestTileStageCached:
    """``tile`` marks its loops with the *printed* ``no_vectorize``
    attribute, so its result round-trips through the text splice and
    the stage is cached like every other one."""

    def _apply(self, schedule, cache):
        from repro.scheduling.interpreter import apply_schedule

        module = compile_c(TILABLE, distribute=False)
        result = apply_schedule(schedule, module, pass_cache=cache)
        return print_module(module), result.snapshot()

    @pytest.mark.parametrize("tile_attr", ["size = 8", "sizes = [8, 16, 2]"])
    def test_second_application_runs_no_stage_body(self, tile_attr):
        schedule = _tile_schedule(tile_attr)
        scratch_text, scratch_stats = self._apply(schedule, None)
        assert scratch_stats["nests_tiled"] == 1
        assert "{no_vectorize}" in scratch_text

        cache = PassResultCache()
        cold_text, cold_stats = self._apply(schedule, cache)
        executed = cache.stats.snapshot()["executions"]
        assert executed == 3  # copy_elim, tile, unroll_jam
        warm_text, warm_stats = self._apply(schedule, cache)
        snap = cache.stats.snapshot()
        assert snap["executions"] == executed
        assert snap["spliced"] >= 1
        assert scratch_text == cold_text == warm_text
        assert scratch_stats == cold_stats == warm_stats

    def test_run_optimizer_tile_stage_replays(self):
        from repro.execution.engine.optimizer import run_optimizer

        cache = PassResultCache()
        texts = []
        for _ in range(2):
            module = compile_c(TILABLE, distribute=False)
            stats = run_optimizer(module, "full", pass_cache=cache)
            assert stats.counters["nests_tiled"] == 1
            texts.append(print_module(module))
        assert texts[0] == texts[1] and "{no_vectorize}" in texts[0]
        # six stages, each executed exactly once across both runs
        assert cache.stats.snapshot()["executions"] == 6

    def test_rewrite_entry_is_parsed_once_and_spliced_as_a_copy(
        self, parses
    ):
        schedule = _tile_schedule("size = 8")
        cache = PassResultCache()
        cold_text, _ = self._apply(schedule, cache)
        assert not parses  # a miss runs the stage, nothing to parse
        self._apply(schedule, cache)
        after_first_replay = len(parses)
        assert after_first_replay == cache.stats.snapshot()["spliced"] > 0

        # A later hit clones the parsed function; what the caller then
        # does to its copy never reaches the next one.
        from repro.scheduling.interpreter import apply_schedule

        module = compile_c(TILABLE, distribute=False)
        apply_schedule(schedule, module, pass_cache=cache)
        for op in list(module.walk()):
            if op.name == "affine.for":
                op.attributes.pop("no_vectorize", None)
        assert print_module(module) != cold_text
        assert self._apply(schedule, cache)[0] == cold_text
        assert len(parses) == after_first_replay

    def test_tile_configs_never_share_an_entry(self):
        cache = PassResultCache()
        configs = [
            "size = 8",
            "size = 16",
            "sizes = [8, 8, 2]",
            "sizes = [8, 16, 2]",
        ]
        texts = [
            self._apply(_tile_schedule(attr), cache)[0] for attr in configs
        ]
        assert len(set(texts)) == len(configs)
        # Each config executed its own tile (and downstream unroll_jam)
        # body; only the shared copy_elim prefix was a hit.
        assert cache.stats.snapshot()["executions"] == 1 + 2 * len(configs)
        for attr, text in zip(configs, texts):
            assert self._apply(_tile_schedule(attr), None)[0] == text
