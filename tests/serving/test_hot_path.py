"""A hot ``execute`` re-derives nothing: a corpus request resolves to
its unit key once per process (the request memo), and a hot kernel
copies the pristine seeded inputs it pinned on its first hot request
instead of synthesizing them again.  Neither may change an answer."""

import asyncio
import multiprocessing

import numpy as np
import pytest

from repro.evaluation import PAPER_BENCHMARKS
from repro.fuzzing import oracle
from repro.serving import (
    CompileServer,
    ServeClient,
    ServerConfig,
    units,
)
from repro.serving.units import (
    BadRequest,
    configure_serving,
    normalize_request,
    reset_serving_state,
    serve_unit,
    serving_cache_snapshots,
)
from repro.store import CompileConfig

HAVE_FORK = "fork" in multiprocessing.get_all_start_methods()
SEED = 41


@pytest.fixture(autouse=True)
def serve_root(tmp_path):
    reset_serving_state()
    configure_serving(str(tmp_path))
    yield str(tmp_path)
    reset_serving_state()


def _request(kernel="gemm", pipeline="mlt-blas", seed=SEED, **fields):
    return dict(
        op="execute", kernel=kernel, pipeline=pipeline, seed=seed, **fields
    )


def _serve(request):
    return serve_unit(normalize_request(request))


def _entry(request) -> units.HotKernel:
    entry = units.hot_entry(normalize_request(request))
    assert entry is not None
    return entry


def _reference(entry, seed):
    """The kernel on inputs ``make_args`` synthesizes afresh."""
    args = oracle.make_args(entry.shapes, seed)
    entry.kernel(*args)
    return [float(buf.sum()) for buf in args]


def _count_calls(monkeypatch, owner, name):
    calls = []
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


@pytest.mark.parametrize("pipeline", ["baseline", "mlt-blas"])
@pytest.mark.parametrize("kernel", sorted(PAPER_BENCHMARKS))
def test_repeated_hot_executes_match_the_cold_run(kernel, pipeline):
    # Kernels write their outputs in place: a hot request that ran on
    # the pinned arrays themselves would answer differently the 2nd
    # time.
    request = _request(kernel, pipeline)
    cold = _serve(request)
    assert cold["cached"] == "codegen"
    hot = [_serve(request) for _ in range(3)]
    assert [r["cached"] for r in hot] == ["hot"] * 3
    assert all(r["key"] == cold["key"] for r in hot)
    assert all(r["checksums"] == cold["checksums"] for r in hot)
    entry = _entry(request)
    assert cold["checksums"] == _reference(entry, SEED)
    # Every small corpus kernel's inputs fit HOT_PIN_MAX_BYTES.
    assert entry.pinned is not None


def test_pristine_inputs_are_read_only_and_requests_get_copies():
    request = _request()
    _serve(request)
    entry = _entry(request)
    assert entry.pinned is None
    _serve(request)
    seed, pristine = entry.pinned
    assert seed == SEED
    assert not any(buf.flags.writeable for buf in pristine)
    first, second = entry.inputs(SEED), entry.inputs(SEED)
    for args in (first, second):
        assert all(buf.flags.writeable for buf in args)
        assert all(buf.flags.c_contiguous for buf in args)
        assert [buf.shape for buf in args] == list(entry.shapes)
    everything = pristine + first + second
    for i, a in enumerate(everything):
        for b in everything[i + 1:]:
            assert not np.shares_memory(a, b)
    for buf, fresh in zip(first, oracle.make_args(entry.shapes, SEED)):
        assert np.array_equal(buf, fresh)


def test_a_seed_change_resynthesizes_and_repins(monkeypatch):
    request = _request()
    _serve(request)
    _serve(request)
    entry = _entry(request)
    calls = _count_calls(monkeypatch, oracle, "make_args")
    other = _serve(dict(request, seed=SEED + 1))
    assert other["cached"] == "hot"
    assert len(calls) == 1
    assert entry.pinned[0] == SEED + 1
    assert other["checksums"] == _reference(entry, SEED + 1)
    # ... and back: the old seed is synthesized again, same answer.
    del calls[:]
    again = _serve(request)
    assert len(calls) == 1
    assert entry.pinned[0] == SEED
    assert again["checksums"] == _reference(entry, SEED)


def test_a_hot_execute_neither_synthesizes_nor_hashes(tmp_path, monkeypatch):
    async def scenario():
        server = CompileServer(ServerConfig(cache_dir=str(tmp_path / "c")))
        await server.start_tcp()
        client = await ServeClient.connect_tcp("127.0.0.1", server.port())
        cold = await client.execute(kernel="atax", pipeline="mlt-blas")
        first_hot = await client.execute(kernel="atax", pipeline="mlt-blas")
        synthesized = _count_calls(monkeypatch, oracle, "make_args")
        hashed = _count_calls(monkeypatch, CompileConfig, "module_key")
        hot = [
            await client.execute(kernel="atax", pipeline="mlt-blas")
            for _ in range(3)
        ]
        await client.close()
        await server.shutdown()
        return cold, first_hot, hot, synthesized, hashed

    cold, first_hot, hot, synthesized, hashed = asyncio.run(scenario())
    assert synthesized == [] and hashed == []
    for response in [first_hot] + hot:
        assert response["cached"] == "hot"
        assert response["checksums"] == cold["checksums"]


def test_unknown_names_are_refused_after_the_memo_fills():
    for name in ("gemm", "atax"):
        normalize_request(_request(name))
    memoized = len(units._REQUESTS)
    assert memoized == 2
    for bad in (
        _request("no-such-kernel"),
        _request(pipeline="no-such-pipeline"),
        _request(kernel=["gemm"]),
        _request(pipeline=["mlt-blas"]),
    ):
        with pytest.raises(BadRequest):
            normalize_request(bad)
    assert len(units._REQUESTS) == memoized


def test_the_memo_keys_every_field_that_moves_the_unit():
    specs = [
        normalize_request(_request()),
        normalize_request(_request(heavy=True)),
        normalize_request(_request(pipeline="baseline")),
        normalize_request(_request(tile=16)),
        normalize_request(_request(opt_mode="none")),
    ]
    assert len({spec["mkey"] for spec in specs}) == len(specs)
    again = normalize_request(_request(seed=7, func="other", tenant="t2"))
    assert again["mkey"] == specs[0]["mkey"]
    assert (again["seed"], again["func"]) == (7, "other")
    assert again["tenant"] == "t2"


def test_a_one_shot_unit_pins_nothing():
    _serve(_request())
    assert _entry(_request()).pinned is None
    assert serving_cache_snapshots()["_hot_pinned_bytes"] == 0


def test_inputs_over_the_cap_are_never_pinned(monkeypatch):
    request = _request()
    cold = _serve(request)
    entry = _entry(request)
    size = sum(buf.nbytes for buf in oracle.make_args(entry.shapes, SEED))
    monkeypatch.setattr(units, "HOT_PIN_MAX_BYTES", size - 1)
    for _ in range(3):
        assert _serve(request)["checksums"] == cold["checksums"]
    assert entry.pinned is None
    monkeypatch.setattr(units, "HOT_PIN_MAX_BYTES", size)
    assert _serve(request)["checksums"] == cold["checksums"]
    assert serving_cache_snapshots()["_hot_pinned_bytes"] == size


def test_reset_drops_the_memo_and_the_pins():
    request = _request()
    _serve(request)
    _serve(request)
    assert serving_cache_snapshots()["_hot_pinned_bytes"] > 0
    assert len(units._REQUESTS) == 1
    reset_serving_state()
    assert len(units._REQUESTS) == 0
    snapshot = serving_cache_snapshots()
    assert snapshot["_hot_kernels"] == 0
    assert snapshot["_hot_pinned_bytes"] == 0


@pytest.mark.skipif(not HAVE_FORK, reason="requires fork start method")
def test_pool_mode_answers_with_the_same_checksums(tmp_path):
    from repro.runtime.pool import fresh_pools

    kernels = ("gemm", "atax", "bicg", "mvt")
    expected = {name: _serve(_request(name))["checksums"] for name in kernels}
    reset_serving_state()  # the forked workers start with no hot map

    async def scenario():
        server = CompileServer(
            ServerConfig(cache_dir=str(tmp_path / "pool"), jobs=2)
        )
        await server.start_tcp()
        client = await ServeClient.connect_tcp("127.0.0.1", server.port())
        responses = [
            (name, await client.execute(**_request(name)))
            for _ in range(3)
            for name in kernels
        ]
        await client.close()
        await server.shutdown()
        return responses

    with fresh_pools():
        responses = asyncio.run(scenario())
    for name, response in responses:
        assert response["ok"], response
        assert response["checksums"] == expected[name], name
