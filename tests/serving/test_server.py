"""Concurrency suite for the compile service.

Every test drives a real server over a real socket — the properties
under test (coalescing, backpressure, drain, crash containment) only
exist under genuine concurrency, so there are no mocks here.  The
``debug_delay_s``/``debug_crash`` request fields (honored only with
``allow_debug=True``) hold units open or kill workers deterministically
so the interleavings are forced, not hoped for.
"""

import asyncio
import os

import multiprocessing

import pytest

from repro.serving import (
    CompileServer,
    ServeClient,
    ServerConfig,
    reset_serving_state,
)

HAVE_FORK = "fork" in multiprocessing.get_all_start_methods()


@pytest.fixture(autouse=True)
def _fresh_serving_state():
    # The serving layer keeps tenant caches and the hot-kernel map in
    # module globals (that is the point — state outlives requests);
    # tests must not inherit each other's.
    reset_serving_state()
    yield
    reset_serving_state()


def run(coro):
    return asyncio.run(coro)


async def start_server(tmp_path, **overrides) -> CompileServer:
    overrides.setdefault("cache_dir", str(tmp_path / "cache"))
    overrides.setdefault("allow_debug", True)
    server = CompileServer(ServerConfig(**overrides))
    await server.start_tcp()
    return server


async def connect(server: CompileServer) -> ServeClient:
    return await ServeClient.connect_tcp("127.0.0.1", server.port())


class TestManyClients:
    def test_simultaneous_clients_all_served(self, tmp_path):
        async def scenario():
            server = await start_server(tmp_path)
            clients = await asyncio.gather(
                *[connect(server) for _ in range(12)]
            )
            kernels = ("gemm", "atax", "bicg", "mvt")
            responses = await asyncio.gather(
                *[
                    client.execute(
                        kernel=kernels[i % len(kernels)],
                        pipeline="baseline",
                        seed=0,
                    )
                    for i, client in enumerate(clients)
                    for _ in range(4)
                ]
            )
            for client in clients:
                await client.close()
            stats = server.stats()
            await server.shutdown()
            return responses, stats

        responses, stats = run(scenario())
        assert len(responses) == 48
        assert all(r["ok"] for r in responses)
        # Identical (kernel, seed) requests must agree on checksums no
        # matter which client they came from or how they interleaved.
        by_kernel = {}
        for r in responses:
            by_kernel.setdefault(r["kernel"], set()).add(
                tuple(r["checksums"])
            )
        assert all(len(v) == 1 for v in by_kernel.values()), by_kernel
        assert stats["counters"]["completed"] == 48

    def test_pipelined_requests_on_one_connection(self, tmp_path):
        async def scenario():
            server = await start_server(tmp_path)
            client = await connect(server)
            responses = await asyncio.gather(
                *[
                    client.execute(
                        kernel="atax", pipeline="baseline", seed=s
                    )
                    for s in range(10)
                ]
            )
            await client.close()
            await server.shutdown()
            return responses

        responses = run(scenario())
        assert all(r["ok"] for r in responses)
        # Distinct seeds produce distinct inputs: responses must have
        # been matched back to their requests by id, not by arrival
        # order.
        checksums = {tuple(r["checksums"]) for r in responses}
        assert len(checksums) == 10


class TestCoalescing:
    def test_duplicate_inflight_one_codegen_n_responses(self, tmp_path):
        herd = 10

        async def scenario():
            server = await start_server(tmp_path)
            client = await connect(server)
            # debug_delay_s holds the leader open long enough that
            # every duplicate arrives while it is still in flight.
            responses = await asyncio.gather(
                *[
                    client.execute(
                        kernel="gemm",
                        pipeline="baseline",
                        tenant="herd",
                        debug_delay_s=0.2,
                    )
                    for _ in range(herd)
                ]
            )
            stats = server.stats()
            await client.close()
            await server.shutdown()
            return responses, stats

        responses, stats = run(scenario())
        assert all(r["ok"] for r in responses)
        assert {tuple(r["checksums"]) for r in responses} == {
            tuple(responses[0]["checksums"])
        }
        # One codegen for the whole herd...
        snap = stats["tenants"]["herd"]["kernel_cache"]["memory"]
        assert snap["codegen_count"] == 1
        # ...and every follower marked as coalesced.
        assert stats["counters"]["coalesced"] == herd - 1
        assert (
            sum(1 for r in responses if r.get("coalesced")) == herd - 1
        )

    def test_coalescing_is_per_entry_function(self, tmp_path):
        # Same module, same seed, different entry functions: the two
        # executes share a module key but must NOT coalesce — a
        # follower joining the other function's flight would receive
        # checksums computed by the wrong kernel.
        source = (
            "void f(double A[64], double B[64]) {\n"
            "  for (int i = 0; i < 64; i++)\n"
            "    B[i] = B[i] + A[i];\n"
            "}\n"
            "void g(double A[64], double B[64]) {\n"
            "  for (int i = 0; i < 64; i++)\n"
            "    B[i] = B[i] + A[i] * A[i];\n"
            "}\n"
        )

        async def scenario():
            server = await start_server(tmp_path)
            client = await connect(server)
            # debug_delay_s holds both units open so they are in
            # flight simultaneously — the exact window where a
            # func-blind coalescing key cross-serves results.
            f_resp, g_resp = await asyncio.gather(
                client.execute(
                    source=source,
                    passes=[],
                    func="f",
                    seed=3,
                    debug_delay_s=0.2,
                ),
                client.execute(
                    source=source,
                    passes=[],
                    func="g",
                    seed=3,
                    debug_delay_s=0.2,
                ),
            )
            stats = server.stats()
            await client.close()
            await server.shutdown()
            return f_resp, g_resp, stats

        f_resp, g_resp, stats = run(scenario())
        assert f_resp["ok"] and g_resp["ok"]
        # Identical inputs (same seed), different kernels: the output
        # checksums must differ — equal checksums mean one function's
        # result was served for the other.
        assert f_resp["checksums"] != g_resp["checksums"]
        assert stats["counters"]["coalesced"] == 0

    def test_distinct_requests_do_not_coalesce(self, tmp_path):
        async def scenario():
            server = await start_server(tmp_path)
            client = await connect(server)
            responses = await asyncio.gather(
                client.execute(
                    kernel="atax", pipeline="baseline", tenant="t1"
                ),
                client.execute(
                    kernel="atax", pipeline="baseline", tenant="t2"
                ),
                client.execute(
                    kernel="bicg", pipeline="baseline", tenant="t1"
                ),
            )
            stats = server.stats()
            await client.close()
            await server.shutdown()
            return responses, stats

        responses, stats = run(scenario())
        assert all(r["ok"] for r in responses)
        assert stats["counters"]["coalesced"] == 0


class TestPassCacheStats:
    def test_stats_report_pass_cache_counters_per_tenant(self, tmp_path):
        async def scenario():
            server = await start_server(tmp_path)
            client = await connect(server)
            for tenant in ("alpha", "beta"):
                resp = await client.execute(
                    kernel="gemm",
                    pipeline="baseline",
                    tenant=tenant,
                    seed=0,
                )
                assert resp["ok"], resp
            stats = server.stats()
            await client.close()
            await server.shutdown()
            return stats

        stats = run(scenario())
        # Each tenant's cold compile goes through its own
        # function-granular pass cache; the counters must surface in
        # the stats report, independently per tenant.
        for tenant in ("alpha", "beta"):
            snap = stats["tenants"][tenant]["pass_cache"]["memory"]
            assert snap["executions"] > 0, snap
            assert snap["stores"] > 0, snap

    @pytest.mark.parametrize("pipeline", ["mlt-linalg", "mlt-blas"])
    def test_corpus_unit_replays_its_named_pipeline(self, pipeline):
        # A corpus unit runs its named pass list through the tenant's
        # pass cache, as a source unit runs its own list.
        from repro.ir import print_module
        from repro.serving.units import (
            _build_module,
            _tenant_store,
            normalize_request,
        )
        from repro.telemetry import delta

        spec = normalize_request(
            {"op": "compile", "kernel": "2mm", "pipeline": pipeline}
        )
        store = _tenant_store(spec["tenant"])
        cold = print_module(_build_module(spec, store.passes))
        before = store.passes.snapshot()["memory"]
        warm = print_module(_build_module(spec, store.passes))
        replay = delta(store.passes.snapshot()["memory"], before)
        assert warm == cold
        assert replay.get("executions", 0) == 0, replay
        assert replay["hits"] > 0, replay


class TestBackpressure:
    def test_overloaded_requests_are_shed(self, tmp_path):
        kernels = ("gemm", "atax", "bicg", "mvt", "gesummv", "2mm")

        async def scenario():
            server = await start_server(tmp_path, max_pending=2)
            client = await connect(server)
            # Distinct kernels (no coalescing), each held open: only
            # max_pending fit, the rest must shed immediately.
            responses = await asyncio.gather(
                *[
                    client.execute(
                        kernel=name,
                        pipeline="baseline",
                        debug_delay_s=0.3,
                    )
                    for name in kernels
                ]
            )
            stats = server.stats()
            await client.close()
            await server.shutdown()
            return responses, stats

        responses, stats = run(scenario())
        served = [r for r in responses if r["ok"]]
        shed = [
            r
            for r in responses
            if not r["ok"] and r["code"] == "overloaded"
        ]
        assert len(served) + len(shed) == len(kernels)
        assert len(served) >= 1, "admission control must admit work"
        assert len(shed) >= 1, "six slow units must overflow 2 slots"
        assert stats["counters"]["shed"] == len(shed)

    def test_service_recovers_after_shedding(self, tmp_path):
        async def scenario():
            server = await start_server(tmp_path, max_pending=1)
            client = await connect(server)
            first = await asyncio.gather(
                *[
                    client.execute(
                        kernel=name,
                        pipeline="baseline",
                        debug_delay_s=0.2,
                    )
                    for name in ("gemm", "atax", "bicg")
                ]
            )
            # Load gone: the same requests are served normally.
            second = [
                await client.execute(kernel=name, pipeline="baseline")
                for name in ("gemm", "atax", "bicg")
            ]
            await client.close()
            await server.shutdown()
            return first, second

        first, second = run(scenario())
        assert any(not r["ok"] for r in first)
        assert all(r["ok"] for r in second)


class TestShutdown:
    def test_graceful_drain_completes_queued_work(self, tmp_path):
        async def scenario():
            server = await start_server(tmp_path)
            client = await connect(server)
            # Queue slow units, then shut down while they are open.
            pending = [
                asyncio.ensure_future(
                    client.execute(
                        kernel=name,
                        pipeline="baseline",
                        debug_delay_s=0.3,
                    )
                )
                for name in ("gemm", "atax", "bicg")
            ]
            await asyncio.sleep(0.05)  # let them be admitted
            ack = await client.request({"op": "shutdown"})
            drained = await asyncio.gather(*pending)
            await server.serve_forever()  # returns once fully stopped
            await client.close()
            return ack, drained

        ack, drained = run(scenario())
        assert ack["ok"] and ack["draining"]
        # Every queued unit completed and was answered — drain, not
        # abort.
        assert all(r["ok"] for r in drained), drained

    def test_new_work_refused_while_draining(self, tmp_path):
        async def scenario():
            server = await start_server(tmp_path)
            client = await connect(server)
            slow = asyncio.ensure_future(
                client.execute(
                    kernel="gemm", pipeline="baseline", debug_delay_s=0.3
                )
            )
            await asyncio.sleep(0.05)
            await client.request({"op": "shutdown"})
            late = await client.execute(
                kernel="atax", pipeline="baseline"
            )
            slow_response = await slow
            await server.serve_forever()
            await client.close()
            return late, slow_response

        late, slow_response = run(scenario())
        assert slow_response["ok"]
        assert not late["ok"]
        assert late["code"] == "shutting-down"

    def test_shutdown_idempotent_and_socket_closed(self, tmp_path):
        async def scenario():
            server = await start_server(tmp_path)
            port = server.port()
            client = await connect(server)
            await client.shutdown()
            await server.serve_forever()
            await client.close()
            try:
                await asyncio.wait_for(
                    ServeClient.connect_tcp("127.0.0.1", port), 1.0
                )
            except (ConnectionError, OSError, asyncio.TimeoutError):
                return True
            return False

        assert run(scenario())


@pytest.mark.skipif(not HAVE_FORK, reason="requires fork start method")
class TestPoolMode:
    def test_batching_serves_all_requests(self, tmp_path):
        from repro.runtime.pool import fresh_pools

        async def scenario():
            server = await start_server(
                tmp_path, jobs=2, batch_window_s=0.01
            )
            client = await connect(server)
            responses = await asyncio.gather(
                *[
                    client.execute(
                        kernel=name, pipeline="baseline", seed=0
                    )
                    for name in ("gemm", "atax", "bicg", "mvt")
                    for _ in range(3)
                ]
            )
            stats = server.stats()
            await client.close()
            await server.shutdown()
            return responses, stats

        with fresh_pools():
            responses, stats = run(scenario())
        assert all(r["ok"] for r in responses)
        # The batcher actually batched: fewer pool submissions than
        # requests (coalescing already collapses duplicates).
        assert 0 < stats["counters"]["batches"]
        assert (
            stats["counters"]["batched_units"]
            <= stats["counters"]["completed"]
        )

    def test_worker_crash_fails_request_cleanly(self, tmp_path):
        from repro.runtime.pool import fresh_pools

        async def scenario():
            server = await start_server(tmp_path, jobs=2)
            client = await connect(server)
            # The crash request must fail with a typed error — not
            # hang the client, not kill the server.
            crash = await asyncio.wait_for(
                client.execute(
                    kernel="gemm",
                    pipeline="baseline",
                    debug_crash=True,
                ),
                timeout=30.0,
            )
            # The pool respawned: the very next request is served.
            after = await client.execute(
                kernel="gemm", pipeline="baseline"
            )
            stats = server.stats()
            await client.close()
            await server.shutdown()
            return crash, after, stats

        with fresh_pools():
            crash, after, stats = run(scenario())
        assert not crash["ok"]
        assert crash["code"] == "worker-crash"
        assert after["ok"]
        pool = stats["pool"]["2"]
        assert pool["respawns"] >= 1
        assert pool["alive"] == 2


class TestProtocolAndValidation:
    def test_bad_kernel_and_bad_op(self, tmp_path):
        async def scenario():
            server = await start_server(tmp_path)
            client = await connect(server)
            bad_kernel = await client.compile(
                kernel="no-such-kernel", pipeline="baseline"
            )
            bad_op = await client.request({"op": "frobnicate"})
            bad_tenant = await client.compile(
                kernel="gemm", pipeline="baseline", tenant="../escape"
            )
            await client.close()
            await server.shutdown()
            return bad_kernel, bad_op, bad_tenant

        bad_kernel, bad_op, bad_tenant = run(scenario())
        assert bad_kernel["code"] == "bad-request"
        assert bad_op["code"] == "bad-request"
        assert bad_tenant["code"] == "bad-request"

    def test_unknown_pipeline_lists_the_named_pipelines(self):
        from repro.evaluation.pipelines import NAMED_PIPELINES
        from repro.serving.units import BadRequest, normalize_request

        with pytest.raises(BadRequest) as info:
            normalize_request(
                {"op": "compile", "kernel": "gemm", "pipeline": "blas"}
            )
        assert str(sorted(NAMED_PIPELINES)) in str(info.value)

    def test_malformed_field_type_gets_error_not_disconnect(
        self, tmp_path
    ):
        async def scenario():
            server = await start_server(tmp_path)
            client = await connect(server)
            # A list where a string belongs raises TypeError (not
            # BadRequest) inside normalization; the server must answer
            # with an error response, not drop the connection.
            malformed = await client.compile(
                kernel=["gemm"], pipeline="baseline"
            )
            # ...and the connection survives for the next request.
            after = await client.compile(
                kernel="gemm", pipeline="baseline"
            )
            await client.close()
            await server.shutdown()
            return malformed, after

        malformed, after = run(scenario())
        assert not malformed["ok"]
        assert malformed["code"] in ("bad-request", "internal")
        assert after["ok"]

    def test_tile_one_is_refused_where_the_schedule_tiles(self, tmp_path):
        modes = ("full", "fuse", "none", "tuned")

        async def scenario():
            server = await start_server(tmp_path)
            client = await connect(server)
            responses = {
                mode: await client.execute(
                    kernel="gemm", pipeline="baseline", tile=1, opt_mode=mode
                )
                for mode in modes
            }
            await client.close()
            await server.shutdown()
            return responses

        responses = run(scenario())
        for mode in ("full", "tuned"):
            assert responses[mode]["code"] == "bad-request", responses[mode]
            assert "tile must be >= 2" in responses[mode]["error"]
        for mode in ("fuse", "none"):
            assert responses[mode]["ok"], responses[mode]

    @pytest.mark.parametrize("field", ["seed", "tile"])
    def test_a_bool_is_not_an_integer(self, tmp_path, field):
        async def scenario():
            server = await start_server(tmp_path)
            client = await connect(server)
            hot = await client.execute(kernel="gemm", pipeline="baseline")
            responses = [
                await client.execute(
                    kernel="gemm", pipeline="baseline", **{field: value}
                )
                for value in (True, False)
            ]
            await client.close()
            await server.shutdown()
            return hot, responses

        hot, responses = run(scenario())
        assert hot["ok"]
        for response in responses:
            assert response["code"] == "bad-request", response
            assert field in response["error"]

    @pytest.mark.parametrize("field", ["heavy", "warm_hot"])
    def test_a_flag_is_a_json_boolean(self, tmp_path, field):
        # "heavy": "false" used to compile the LARGE source, and
        # "warm_hot": "no" used to pin the kernel hot.
        async def scenario():
            server = await start_server(tmp_path)
            client = await connect(server)
            refused = [
                await client.compile(
                    kernel="gemm", pipeline="baseline", **{field: value}
                )
                for value in ("false", "no", 0, 1, None)
            ]
            accepted = [
                await client.compile(
                    kernel="gemm", pipeline="baseline", **{field: value}
                )
                for value in (False, True)
            ]
            await client.close()
            await server.shutdown()
            return refused, accepted

        refused, accepted = run(scenario())
        for response in refused:
            assert response["code"] == "bad-request", response
            assert f"{field} must be a boolean" in response["error"]
        for response in accepted:
            assert response["ok"], response

    def test_stats_report_pinned_input_bytes(self, tmp_path):
        async def scenario():
            server = await start_server(tmp_path)
            client = await connect(server)
            before = await client.stats()
            for _ in range(2):  # cold, then the first hot hit pins
                await client.execute(kernel="gemm", pipeline="baseline")
            after = await client.stats()
            await client.close()
            await server.shutdown()
            return before, after

        before, after = run(scenario())
        assert before["tenants"]["_hot_pinned_bytes"] == 0
        # gemm's small inputs: A[10][12], B[12][11], C[10][11] floats.
        assert after["tenants"]["_hot_kernels"] == 1
        assert after["tenants"]["_hot_pinned_bytes"] == 4 * (120 + 132 + 110)

    def test_heavy_hot_execute_served_off_loop(self, tmp_path):
        async def scenario():
            server = await start_server(tmp_path)
            client = await connect(server)
            cold = await client.execute(
                kernel="atax", pipeline="baseline", heavy=True
            )
            hot = await client.execute(
                kernel="atax", pipeline="baseline", heavy=True
            )
            await client.close()
            await server.shutdown()
            return cold, hot

        # Heavy units skip the synchronous fast path (their ms-scale
        # kernel calls would stall the event loop) but must still be
        # served from the hot map via the executor.
        cold, hot = run(scenario())
        assert cold["ok"] and hot["ok"]
        assert hot["cached"] == "hot"
        assert cold["checksums"] == hot["checksums"]

    def test_debug_seams_refused_without_allow_debug(self, tmp_path):
        async def scenario():
            server = await start_server(tmp_path, allow_debug=False)
            client = await connect(server)
            refused = await client.execute(
                kernel="gemm", pipeline="baseline", debug_crash=True
            )
            await client.close()
            await server.shutdown()
            return refused

        refused = run(scenario())
        assert refused["code"] == "bad-request"

    def test_raw_source_request(self, tmp_path):
        source = (
            "void axpy(double A[64], double B[64]) {\n"
            "  for (int i = 0; i < 64; i++)\n"
            "    B[i] = B[i] + A[i] * A[i];\n"
            "}\n"
        )

        async def scenario():
            server = await start_server(tmp_path)
            client = await connect(server)
            response = await client.execute(
                source=source, passes=[], func="axpy", seed=1
            )
            await client.close()
            await server.shutdown()
            return response

        response = run(scenario())
        assert response["ok"], response
        assert len(response["checksums"]) == 2

    def test_raised_conv2d_with_a_larger_input_is_served(self, tmp_path):
        """TDL raises a convolution whose input is larger than
        ``out + kernel - 1`` (it reads only the window it needs); the
        raised module verifies and answers like the loop nest."""
        from ..tactics.test_partial_range import FULL_RANGE

        source, _ = FULL_RANGE["conv2d-larger-input"]

        async def scenario():
            server = await start_server(tmp_path)
            client = await connect(server)
            responses = [
                await client.execute(
                    source=source, passes=passes, func="kernel", seed=1
                )
                for passes in ([], ["raise-affine-to-linalg"])
            ]
            await client.close()
            await server.shutdown()
            return responses

        loops, raised = run(scenario())
        assert loops["ok"], loops
        assert raised["ok"], raised
        assert raised["checksums"] == pytest.approx(
            loops["checksums"], rel=1e-5
        )

    def test_truncated_ir_request_is_a_compile_error_not_a_wedge(
        self, tmp_path
    ):
        """22 bytes that used to spin the parser forever: the request
        gets its error code and the connection keeps being served."""

        async def scenario():
            server = await start_server(tmp_path)
            client = await connect(server)
            truncated = await asyncio.wait_for(
                client.execute(
                    source="func @f(%arg0: memref<4",
                    source_kind="ir",
                    passes=[],
                    func="f",
                ),
                timeout=30,
            )
            after = await client.execute(kernel="gemm", pipeline="mlt-blas")
            await client.close()
            await server.shutdown()
            return truncated, after

        truncated, after = run(scenario())
        assert not truncated["ok"] and truncated["code"] == "compile-error"
        assert "ParseError" in truncated["error"]
        assert after["ok"], after

    def test_prewarm_then_hot_execute(self, tmp_path):
        async def scenario():
            server = await start_server(tmp_path)
            client = await connect(server)
            warm = await client.prewarm(
                ["gemm", {"kernel": "atax", "pipeline": "mlt-blas"}]
            )
            hot = await client.execute(
                kernel="gemm", pipeline="baseline"
            )
            await client.close()
            await server.shutdown()
            return warm, hot

        warm, hot = run(scenario())
        assert warm["ok"]
        assert len(warm["warmed"]) == 2
        assert hot["ok"]
        assert hot["cached"] == "hot"
