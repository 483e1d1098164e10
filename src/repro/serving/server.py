"""Compilation-as-a-service front-end.

A :class:`CompileServer` keeps one process-lifetime compilation state —
per-tenant kernel caches, the hot-kernel map, and (when ``jobs > 0``) a
persistent worker pool — behind an asyncio NDJSON endpoint, so clients
pay codegen once and every later request is a cache or hot-map hit.

Request lifecycle::

    read -> admission control -> coalesce -> batch -> run -> respond

* **Admission control** — at most ``max_pending`` units may be queued
  or running; beyond that, requests are shed immediately with an
  ``overloaded`` error instead of growing an unbounded queue.  Shed
  responses cost microseconds, so a client retry loop degrades
  gracefully instead of timing out.
* **Coalescing** — concurrent requests for the same ``(tenant, module
  key, seed, entry function)`` share one in-flight compilation: the
  first becomes the *leader*, the rest await its future and are
  answered from the same result.  A thundering herd of N identical
  cold requests runs codegen exactly once.
* **Batching** — in pool mode, admitted units gather for a short
  window (``batch_window_s``) and ship to the persistent pool as one
  batched schedule, amortizing queue round-trips; the pool's
  work-stealing spreads the batch across workers.
* **Tenant isolation** — unit work for one tenant is serialized per
  key *shard* (``shards`` asyncio locks per tenant), bounding
  duplicated codegen for near-identical keys while letting distinct
  tenants and distinct shards proceed concurrently.

Shutdown is a drain: new work is refused with ``shutting-down``,
everything queued or in flight completes and is answered, then the
listener closes.  A pool-worker crash fails only the units that were
lost — the pool respawns the worker and the server answers those
requests with a ``worker-crash`` error instead of hanging the client.
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import contextlib
import os
import pickle
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..runtime.pool import WorkerCrashError, get_pool, pool_stats
from . import protocol
from .units import (
    BadRequest,
    configure_serving,
    hot_entry,
    normalize_request,
    serve_unit,
    serving_cache_snapshots,
)


@dataclass
class ServerConfig:
    """Tuning knobs for one :class:`CompileServer`."""

    #: Cache root; tenants namespace themselves under
    #: ``<cache_dir>/tenants/<tenant>/``.  ``None`` disables the disk
    #: tier (in-memory caches only).
    cache_dir: Optional[str] = None
    #: ``0`` runs units inline on executor threads of this process;
    #: ``N > 0`` ships batches to a persistent ``N``-worker pool.
    jobs: int = 0
    #: Admission bound: queued + running units; excess requests are
    #: shed with an ``overloaded`` error.
    max_pending: int = 256
    #: Pool mode: how long admitted units gather before shipping as
    #: one batch.  Zero ships every unit alone.
    batch_window_s: float = 0.002
    #: Per-tenant lock shards for inline mode.
    shards: int = 16
    default_tenant: str = "default"
    default_tile: int = 32
    #: Honor ``debug_delay_s``/``debug_crash`` request fields (test
    #: seams for the concurrency suite); never enable in production.
    allow_debug: bool = False


class CompileServer:
    """One serving endpoint over one compilation state."""

    def __init__(self, config: Optional[ServerConfig] = None):
        self.config = config or ServerConfig()
        self._server: Optional[asyncio.AbstractServer] = None
        self._draining = False
        self._stopped = asyncio.Event()
        self._pending = 0
        self._idle = asyncio.Event()
        self._idle.set()
        # Coalescing table: unit identity -> the leader's result
        # future (see :meth:`_run_coalesced` for the key shape).
        self._inflight: Dict[tuple, asyncio.Future] = {}
        self._shutdown_started = False
        self._shutdown_task: Optional[asyncio.Task] = None
        # tenant -> shard locks (inline mode serializes per shard).
        self._tenant_locks: Dict[str, List[asyncio.Lock]] = {}
        # Open connections and outstanding request tasks, so shutdown
        # can flush every response and then close every transport.
        self._connections: set = set()
        self._conn_tasks: set = set()
        self._request_tasks: set = set()
        self._batch_queue: Optional[asyncio.Queue] = None
        self._batcher_task: Optional[asyncio.Task] = None
        # Pool .map blocks, so it runs on this single-thread bridge;
        # one thread also serializes batches, matching pool.map's own
        # internal lock.
        self._pool_bridge: Optional[
            concurrent.futures.ThreadPoolExecutor
        ] = None
        self.counters = {
            "connections": 0,
            "received": 0,
            "completed": 0,
            "errors": 0,
            "shed": 0,
            "coalesced": 0,
            "batches": 0,
            "batched_units": 0,
            "worker_crashes": 0,
        }
        self._started = time.monotonic()
        configure_serving(self.config.cache_dir)

    # -- lifecycle ------------------------------------------------------

    async def start_unix(self, path: str) -> None:
        self._prepare()
        self._server = await asyncio.start_unix_server(
            self._handle_connection,
            path=path,
            limit=protocol.MAX_MESSAGE_BYTES,
        )

    async def start_tcp(self, host: str = "127.0.0.1", port: int = 0) -> None:
        self._prepare()
        self._server = await asyncio.start_server(
            self._handle_connection,
            host=host,
            port=port,
            limit=protocol.MAX_MESSAGE_BYTES,
        )

    def _prepare(self) -> None:
        if self.config.jobs > 0:
            self._batch_queue = asyncio.Queue()
            self._batcher_task = asyncio.get_running_loop().create_task(
                self._batcher()
            )
            self._pool_bridge = concurrent.futures.ThreadPoolExecutor(
                max_workers=1, thread_name_prefix="mlt-serve-pool"
            )
            # Fork workers before traffic so the first burst is not
            # also paying pool start-up.
            get_pool(self.config.jobs)

    @property
    def sockets(self):
        return self._server.sockets if self._server else ()

    def port(self) -> int:
        return self.sockets[0].getsockname()[1]

    async def serve_forever(self) -> None:
        """Run until a ``shutdown`` request (or :meth:`shutdown`)."""
        await self._stopped.wait()

    async def shutdown(self) -> None:
        """Graceful drain; idempotent."""
        if self._shutdown_started:
            await self._stopped.wait()
            return
        self._shutdown_started = True
        self._draining = True
        await self._idle.wait()  # queued + in-flight units finish
        # Flush: every admitted request has written its response.
        if self._request_tasks:
            await asyncio.gather(
                *list(self._request_tasks), return_exceptions=True
            )
        if self._batcher_task is not None:
            self._batch_queue.put_nowait(None)
            await self._batcher_task
            self._batcher_task = None
        if self._pool_bridge is not None:
            self._pool_bridge.shutdown(wait=True)
            self._pool_bridge = None
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        # Close lingering connections (handlers exit on the EOF) so no
        # task survives into event-loop teardown.
        for writer in list(self._connections):
            with contextlib.suppress(Exception):
                writer.close()
        if self._conn_tasks:
            await asyncio.gather(
                *list(self._conn_tasks), return_exceptions=True
            )
        self._stopped.set()

    # -- connection handling -------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self.counters["connections"] += 1
        self._connections.add(writer)
        self._conn_tasks.add(asyncio.current_task())
        write_lock = asyncio.Lock()
        tasks: List[asyncio.Task] = []
        try:
            while True:
                try:
                    request = await protocol.read_message(reader)
                except protocol.ProtocolError as exc:
                    await self._respond(
                        writer,
                        write_lock,
                        protocol.error_response(
                            {}, "bad-request", str(exc)
                        ),
                    )
                    break
                if request is None:
                    break
                self.counters["received"] += 1
                # Cheap hot units answer synchronously right here: no
                # task, no future, no executor — the microseconds of
                # pinned compiled call aren't worth a scheduling
                # round-trip, and this is what keeps warm p50 within a
                # few multiples of the bare engine call.  Heavy hot
                # units fall through to the task path so their ms-scale
                # kernel calls never stall the loop.
                fast = self._try_fast_path(request)
                if fast is not None:
                    await self._respond(writer, write_lock, fast)
                    continue
                # Everything else is its own task so one slow compile
                # never blocks later (possibly cache-hot) requests
                # pipelined on the same connection.
                task = asyncio.get_running_loop().create_task(
                    self._serve_request(request, writer, write_lock)
                )
                tasks.append(task)
                self._request_tasks.add(task)
                task.add_done_callback(self._request_tasks.discard)
                tasks = [t for t in tasks if not t.done()]
        finally:
            for task in tasks:
                with contextlib.suppress(Exception):
                    await task
            self._connections.discard(writer)
            self._conn_tasks.discard(asyncio.current_task())
            with contextlib.suppress(Exception):
                writer.close()

    async def _respond(
        self,
        writer: asyncio.StreamWriter,
        write_lock: asyncio.Lock,
        response: dict,
    ) -> None:
        if response.get("ok"):
            self.counters["completed"] += 1
        else:
            self.counters["errors"] += 1
        with contextlib.suppress(ConnectionError, RuntimeError):
            async with write_lock:
                await protocol.write_message(writer, response)

    def _try_fast_path(self, request: dict) -> Optional[dict]:
        """Serve a cheap hot compile/execute unit synchronously, or
        ``None`` to fall through to the task-per-request slow path."""
        if (
            request.get("op") not in ("compile", "execute")
            or self.config.jobs > 0
            or self._draining
        ):
            return None
        try:
            spec = normalize_request(
                request,
                default_tenant=self.config.default_tenant,
                default_tile=self.config.default_tile,
                allow_debug=self.config.allow_debug,
            )
        except Exception:  # noqa: BLE001 — malformed fields can raise
            # more than BadRequest (e.g. unhashable types); the slow
            # path re-runs normalization and reports the error instead
            # of letting it escape the connection read loop.
            return None
        if spec.get("heavy") or spec.get("debug_delay_s"):
            return None
        hot = hot_entry(spec)
        if hot is None:
            return None
        if not self._admit():
            return protocol.error_response(
                request,
                "overloaded",
                f"{self._pending} units pending (max "
                f"{self.config.max_pending})",
            )
        try:
            result = serve_unit(spec, hot)
        except Exception as exc:  # noqa: BLE001 — reported to client
            return protocol.error_response(
                request, "compile-error", f"{type(exc).__name__}: {exc}"
            )
        finally:
            self._release()
        return protocol.ok_response(request, coalesced=False, **result)

    async def _serve_request(
        self,
        request: dict,
        writer: asyncio.StreamWriter,
        write_lock: asyncio.Lock,
    ) -> None:
        try:
            response = await self._dispatch(request)
        except Exception as exc:  # noqa: BLE001 — never kill the task
            response = protocol.error_response(
                request, "internal", f"{type(exc).__name__}: {exc}"
            )
        if response is not None:
            await self._respond(writer, write_lock, response)

    async def _dispatch(self, request: dict) -> Optional[dict]:
        op = request.get("op")
        if op == "ping":
            return protocol.ok_response(
                request, version=protocol.PROTOCOL_VERSION
            )
        if op == "stats":
            return protocol.ok_response(request, stats=self.stats())
        if op == "shutdown":
            # Flip the drain flag *now* so requests racing behind this
            # one are refused, then finish the drain in the background
            # and answer once everything queued has been served.
            self._draining = True
            # Strong reference: asyncio only weakly references tasks,
            # so an unstored drain task could be collected mid-drain.
            self._shutdown_task = asyncio.get_running_loop().create_task(
                self.shutdown()
            )
            return protocol.ok_response(request, draining=True)
        if op in ("compile", "execute"):
            return await self._serve_unit_request(request)
        if op == "prewarm":
            return await self._serve_prewarm(request)
        return protocol.error_response(
            request,
            "bad-request",
            f"unknown op {op!r}; known: {protocol.REQUEST_OPS}",
        )

    # -- unit serving ---------------------------------------------------

    def _admit(self) -> bool:
        if self._pending >= self.config.max_pending:
            self.counters["shed"] += 1
            return False
        self._pending += 1
        self._idle.clear()
        return True

    def _release(self) -> None:
        self._pending -= 1
        if self._pending == 0:
            self._idle.set()

    async def _serve_unit_request(self, request: dict) -> dict:
        if self._draining:
            return protocol.error_response(
                request, "shutting-down", "server is draining"
            )
        try:
            spec = normalize_request(
                request,
                default_tenant=self.config.default_tenant,
                default_tile=self.config.default_tile,
                allow_debug=self.config.allow_debug,
            )
        except BadRequest as exc:
            return protocol.error_response(request, "bad-request", str(exc))
        if not self._admit():
            return protocol.error_response(
                request,
                "overloaded",
                f"{self._pending} units pending (max "
                f"{self.config.max_pending})",
            )
        try:
            result, coalesced = await self._run_coalesced(spec)
        except BadRequest as exc:
            return protocol.error_response(request, "bad-request", str(exc))
        except WorkerCrashError as exc:
            return protocol.error_response(
                request, "worker-crash", str(exc)
            )
        except Exception as exc:  # noqa: BLE001 — reported to client
            return protocol.error_response(
                request, "compile-error", f"{type(exc).__name__}: {exc}"
            )
        finally:
            self._release()
        return protocol.ok_response(
            request, coalesced=coalesced, **result
        )

    async def _run_coalesced(self, spec: dict) -> Tuple[dict, bool]:
        """Run one unit, sharing identical in-flight work.

        Coalescing keys on the content identity ``(tenant, mkey)``; an
        ``execute`` only joins an in-flight ``execute`` with the same
        seed (a compile-only leader has no checksums to share).  The
        entry function is part of the key: a multi-function module can
        be executed (and hot-pinned) per function, so followers must
        not receive checksums for a different ``func``.
        """
        key = (
            spec["tenant"],
            spec["mkey"],
            spec["execute"],
            spec["seed"] if spec["execute"] else 0,
            spec["warm_hot"],
            spec.get("func"),
        )
        existing = self._inflight.get(key)
        if existing is not None:
            self.counters["coalesced"] += 1
            result = dict(await asyncio.shield(existing))
            result["cached"] = "coalesced"
            return result, True
        future = asyncio.get_running_loop().create_future()
        self._inflight[key] = future
        try:
            result = await self._run_unit(spec)
        except BaseException as exc:
            if not future.cancelled():
                future.set_exception(exc)
                # Consume the exception in case nobody coalesced.
                future.exception()
            raise
        else:
            future.set_result(result)
            return result, False
        finally:
            self._inflight.pop(key, None)

    async def _run_unit(self, spec: dict) -> dict:
        if self.config.jobs > 0:
            return await self._run_in_pool(spec)
        # Cheap hot units (pinned compiled call, no parsing or hashing)
        # run directly on the loop — microseconds of work, and skipping
        # the executor round-trip is what keeps warm p50 within a few
        # multiples of the bare in-process call.  Heavy units (ms-scale
        # kernels) would stall every other connection, so even hot they
        # go to the executor (no shard lock: the hot path touches no
        # cache that needs serializing).
        loop = asyncio.get_running_loop()
        hot = None if spec.get("debug_delay_s") else hot_entry(spec)
        if hot is not None:
            if not spec.get("heavy"):
                return serve_unit(spec, hot)
            return await loop.run_in_executor(None, serve_unit, spec, hot)
        async with self._shard_lock(spec["tenant"], spec["mkey"]):
            return await loop.run_in_executor(None, serve_unit, spec)

    def _shard_lock(self, tenant: str, mkey: str) -> asyncio.Lock:
        locks = self._tenant_locks.get(tenant)
        if locks is None:
            locks = [asyncio.Lock() for _ in range(self.config.shards)]
            self._tenant_locks[tenant] = locks
        return locks[int(mkey[:8], 16) % self.config.shards]

    # -- pool mode: micro-batching -------------------------------------

    async def _run_in_pool(self, spec: dict) -> dict:
        future = asyncio.get_running_loop().create_future()
        self._batch_queue.put_nowait((spec, future))
        return await future

    async def _batcher(self) -> None:
        """Gather admitted units for one batch window, ship to the
        persistent pool, fan results back out to request futures."""
        loop = asyncio.get_running_loop()
        while True:
            first = await self._batch_queue.get()
            if first is None:
                return
            batch = [first]
            if self.config.batch_window_s > 0:
                deadline = loop.time() + self.config.batch_window_s
                while True:
                    remaining = deadline - loop.time()
                    if remaining <= 0:
                        break
                    try:
                        item = await asyncio.wait_for(
                            self._batch_queue.get(), remaining
                        )
                    except asyncio.TimeoutError:
                        break
                    if item is None:
                        await self._ship(batch)
                        return
                    batch.append(item)
            await self._ship(batch)

    async def _ship(self, batch) -> None:
        specs = [spec for spec, _ in batch]
        self.counters["batches"] += 1
        self.counters["batched_units"] += len(specs)
        loop = asyncio.get_running_loop()
        try:
            results = await loop.run_in_executor(
                self._pool_bridge, self._pool_map, specs
            )
        except BaseException as exc:  # noqa: BLE001 — fanned out
            if isinstance(exc, WorkerCrashError):
                self.counters["worker_crashes"] += 1
            for _, future in batch:
                if not future.done():
                    future.set_exception(_copy_exception(exc))
            return
        for (_, future), result in zip(batch, results):
            if not future.done():
                future.set_result(result)

    def _pool_map(self, specs: List[dict]) -> List[dict]:
        return get_pool(self.config.jobs).map(
            serve_unit,
            specs,
            initializer=configure_serving,
            initargs=(self.config.cache_dir,),
        )

    async def _serve_prewarm(self, request: dict) -> dict:
        """Compile a list of corpus kernels and pin them hot."""
        if self._draining:
            return protocol.error_response(
                request, "shutting-down", "server is draining"
            )
        kernels = request.get("kernels")
        if not isinstance(kernels, list) or not kernels:
            return protocol.error_response(
                request,
                "bad-request",
                "prewarm needs a non-empty 'kernels' list",
            )
        warmed, failed = [], {}
        for entry in kernels:
            if isinstance(entry, str):
                entry = {"kernel": entry}
            sub = dict(request, **entry)
            sub["op"] = "compile"
            sub["warm_hot"] = True
            sub.pop("kernels", None)
            response = await self._serve_unit_request(sub)
            if response.get("ok"):
                warmed.append(response["key"])
            else:
                failed[str(entry.get("kernel"))] = response["error"]
        if failed:
            return protocol.error_response(
                request,
                "compile-error",
                f"prewarm failed for {sorted(failed)}",
                warmed=warmed,
                failures=failed,
            )
        return protocol.ok_response(request, warmed=warmed)

    # -- stats ----------------------------------------------------------

    def stats(self) -> dict:
        report = {
            "uptime_s": time.monotonic() - self._started,
            "pending": self._pending,
            "draining": self._draining,
            "config": {
                "jobs": self.config.jobs,
                "max_pending": self.config.max_pending,
                "batch_window_s": self.config.batch_window_s,
                "cache_dir": self.config.cache_dir,
            },
            "counters": dict(self.counters),
            "pool": pool_stats(),
        }
        if self.config.jobs == 0:
            report["tenants"] = serving_cache_snapshots()
        return report


def _copy_exception(exc: BaseException) -> BaseException:
    """One exception instance per awaiting future.

    Sharing a single instance across futures is legal but makes
    tracebacks confusing; a cheap pickle round-trip gives each future
    its own copy, falling back to the shared instance for exotic
    unpicklable exceptions.
    """
    try:
        return pickle.loads(pickle.dumps(exc))
    except Exception:  # noqa: BLE001
        return exc


async def run_server(
    config: ServerConfig,
    socket_path: Optional[str] = None,
    host: str = "127.0.0.1",
    port: int = 0,
    prewarm: Optional[List[dict]] = None,
    ready_callback=None,
) -> None:
    """Start a server, announce the endpoint, and serve until drained.

    ``prewarm`` compiles a list of corpus-kernel entries (dicts with
    ``kernel`` + optional ``pipeline``) and pins them hot before the
    endpoint is announced ready.
    """
    server = CompileServer(config)
    if socket_path:
        await server.start_unix(socket_path)
        endpoint = socket_path
    else:
        await server.start_tcp(host, port)
        endpoint = f"{host}:{server.port()}"
    if prewarm:
        response = await server._serve_prewarm(
            {"op": "prewarm", "kernels": list(prewarm)}
        )
        if not response.get("ok"):
            raise RuntimeError(f"prewarm failed: {response.get('error')}")
    if ready_callback is not None:
        ready_callback(server, endpoint)
    try:
        await server.serve_forever()
    finally:
        if socket_path and os.path.exists(socket_path):
            with contextlib.suppress(OSError):
                os.unlink(socket_path)
