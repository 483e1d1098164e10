"""``CompileConfig.kernel_key`` — the one place ``CODEGEN_VERSION``
enters a key.

Every producer of ``kernels/`` artifacts (the engine, the serving tier,
``mlt-opt`` batch mode, the corpus scale driver) must miss, by key, a
directory filled by an older code generator; the version-independent
tiers above it (``modules/``) may keep hitting.  The structural guard
that only ``repro/store.py`` builds keys lives in ``tests/test_store.py``.
"""

import os

import pytest

from repro.store import ArtifactStore, CompileConfig

GEMM = """
void gemm(float A[4][4], float B[4][4], float C[4][4]) {
  for (int i = 0; i < 4; i++)
    for (int j = 0; j < 4; j++)
      for (int k = 0; k < 4; k++)
        C[i][j] += A[i][k] * B[k][j];
}
"""


def _engine(root):
    from repro.execution import ExecutionEngine
    from repro.met import compile_c

    cache = ArtifactStore(root).kernels
    ExecutionEngine(
        compile_c(GEMM), pipeline="vt", cache=cache, opt_mode="full"
    )
    return cache.stats.codegen_count


def _serve(root):
    from repro.serving.units import (
        configure_serving,
        normalize_request,
        reset_serving_state,
        serve_unit,
    )

    reset_serving_state()  # a restarted server: only the disk tiers survive
    configure_serving(root)
    try:
        request = {"op": "execute", "kernel": "gemm", "pipeline": "mlt-blas"}
        response = serve_unit(normalize_request(request))
        return int(response["cached"] == "codegen")
    finally:
        reset_serving_state()


def _batch(root):
    from repro.runtime.batch import run_batch

    source = os.path.join(root, "gemm.c")
    with open(source, "w") as handle:
        handle.write(GEMM)
    results = run_batch(
        [source],
        ["raise-affine-to-linalg"],
        os.path.join(root, "out"),
        cache_dir=os.path.join(root, "cache"),
        compile_kernels=True,
    )
    # A unit's share lists only the counters that moved.
    return sum(
        r.cache_snapshot["memory"].get("codegen_count", 0) for r in results
    )


def _bench(root):
    from repro.runtime.bench import run_corpus

    return run_corpus(["gemm"], ["baseline"], cache_dir=root)["codegen_count"]


@pytest.mark.parametrize(
    "produce", [_engine, _serve, _batch, _bench], ids=lambda f: f.__name__[1:]
)
def test_stale_codegen_kernels_are_never_reserved(
    produce, tmp_path, monkeypatch
):
    root = str(tmp_path)
    assert produce(root) == 1  # fill
    assert produce(root) == 0  # a new process re-serves the artifact...
    monkeypatch.setattr(
        "repro.store.CODEGEN_VERSION", 999_999
    )
    assert produce(root) == 1  # ...until the code generator changes


def test_kernel_key_folds_the_version_and_the_tag(monkeypatch):
    base = CompileConfig(label="tag").kernel_key("fp")
    assert base == CompileConfig(label="tag").kernel_key("fp")
    assert base != CompileConfig(label="other").kernel_key("fp")
    assert base != CompileConfig(label="tag").kernel_key("fp2")
    monkeypatch.setattr(
        "repro.store.CODEGEN_VERSION", 999_999
    )
    assert base != CompileConfig(label="tag").kernel_key("fp")
