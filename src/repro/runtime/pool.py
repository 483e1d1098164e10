"""The worker-pool driver: deterministic parallel map over a
**persistent** pool.

A ``multiprocessing.Pool`` built and torn down per call pays fork,
import, feed and join for every wave of a fuzz campaign and every
``mlt-opt`` batch.  On the tiny units this project compiles (a few
milliseconds each) that start-up tax dominates: a 16-kernel corpus
batch measured ``jobs=4`` at 0.77x of *serial* with per-call pools.
This module keeps a process-global pool that forks its workers
**once** and feeds them batched unit schedules for the rest of the
process lifetime — the same amortization a long-lived compilation
service performs, and the same pool the serving front-end
(:mod:`repro.serving`) submits request batches to.

Design constraints, in order:

1. **Determinism** — results merge in input order regardless of which
   worker ran which batch (batches are tagged with their submission
   index), so a parallel run is byte-identical to a serial run for any
   pure per-unit function.
2. **Serial equivalence** — ``jobs=1`` never touches
   ``multiprocessing``: the unit function (and initializer) run in the
   calling process, so single-job runs behave exactly like the code
   did before the parallel driver existed — same globals, same caches,
   trivially debuggable.
3. **Work-stealing** — all workers pull batches from one shared task
   queue, so a worker that finishes early immediately takes the next
   pending batch instead of idling behind a static shard assignment.
4. **Crash containment** — a worker that dies mid-batch (segfault,
   ``os._exit``, OOM-kill) is detected via its process sentinel; the
   affected call fails *cleanly* with :class:`WorkerCrashError`
   instead of hanging, and the pool respawns a replacement worker so
   subsequent calls keep working.

Initializers run once per worker per ``map`` call (a *generation*),
matching the semantics of the old per-run ``Pool(initializer=...)``:
per-run state such as cache directories is re-applied even though the
worker process itself lives on.
"""

from __future__ import annotations

import atexit
import contextlib
import itertools
import multiprocessing
import os
import pickle
import threading
import time
from multiprocessing import connection
from typing import (
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
    TypeVar,
)

T = TypeVar("T")
R = TypeVar("R")

#: Default batches per worker for one ``map`` call: small enough to
#: amortize IPC, large enough that work-stealing can still rebalance a
#: skewed schedule.
BATCHES_PER_WORKER = 4


class WorkerCrashError(RuntimeError):
    """A pool worker died while running a batch.

    The units of the lost batch are reported in ``items``; the pool has
    already respawned a replacement worker by the time this propagates,
    so the *next* ``map`` call runs at full width again.
    """

    def __init__(self, message: str, items: Sequence = ()):
        super().__init__(message)
        self.items = list(items)


def _start_method() -> Optional[str]:
    methods = multiprocessing.get_all_start_methods()
    return "fork" if "fork" in methods else None


def resolve_jobs(jobs: Optional[int]) -> int:
    """Normalize a ``--jobs`` value: ``None``/0/negative mean "one per
    CPU"."""
    if jobs is None or jobs <= 0:
        return os.cpu_count() or 1
    return jobs


def effective_cpus() -> int:
    """CPUs actually available to this process (affinity-aware) — the
    upper bound on honest parallel speedup, recorded in scale reports."""
    try:
        return len(os.sched_getaffinity(0)) or 1
    except (AttributeError, OSError):
        return os.cpu_count() or 1


def seed_for_unit(campaign_seed: int, unit_index: int) -> int:
    """Deterministic per-unit RNG seed.

    Unit ``i`` of a campaign starting at ``campaign_seed`` gets the
    same seed no matter which worker runs it or how many workers
    exist — this is what makes ``--jobs N`` reproduce the exact
    failures (and artifacts) of a serial run.
    """
    return campaign_seed + unit_index


def plan_batches(
    count: int, jobs: int, batch_size: Optional[int] = None
) -> List[Tuple[int, int]]:
    """Split ``count`` units into contiguous ``(lo, hi)`` batches.

    The batching scheduler is pure so it can be property-tested: the
    returned slices are non-empty, in order, disjoint, and cover
    ``range(count)`` exactly — no unit is dropped or duplicated
    whatever the worker count or batch size.
    """
    if count <= 0:
        return []
    jobs = max(1, jobs)
    if batch_size is None:
        batch_size = -(-count // (jobs * BATCHES_PER_WORKER))
    batch_size = max(1, batch_size)
    return [
        (lo, min(lo + batch_size, count))
        for lo in range(0, count, batch_size)
    ]


# ----------------------------------------------------------------------
# Worker side
# ----------------------------------------------------------------------


def _worker_main(worker_id: int, task_queue, result_queue) -> None:
    """Long-lived worker loop: pull a batch, run it, post the result.

    The initializer of a *generation* (one ``map`` call) is applied by
    the first batch of that generation the worker happens to steal;
    later batches of the same generation skip it.
    """
    applied_generation = None
    while True:
        task = task_queue.get()
        if task is None:
            return
        generation, task_id, blob = task
        # Acknowledge *before* any work (including unpickling), so the
        # parent can attribute a crash to this batch.
        result_queue.put(("begin", generation, task_id, worker_id))
        try:
            fn, initializer, initargs, items = pickle.loads(blob)
            if generation != applied_generation:
                if initializer is not None:
                    initializer(*initargs)
                applied_generation = generation
            results = [fn(item) for item in items]
            result_queue.put(("done", generation, task_id, results))
        except BaseException as exc:  # report, never kill the worker
            try:
                payload = pickle.dumps(exc)
            except Exception:
                payload = pickle.dumps(
                    RuntimeError(f"{type(exc).__name__}: {exc}")
                )
            result_queue.put(("error", generation, task_id, payload))


# ----------------------------------------------------------------------
# Parent side
# ----------------------------------------------------------------------


class _ResultChannel:
    """Multi-producer result stream whose read end the pool owns.

    ``SimpleQueue`` has the right semantics, but waiting for *either* a
    result or a worker-death sentinel requires ``connection.wait`` on
    the queue's read end, which ``SimpleQueue`` only exposes as the
    undocumented ``_reader`` attribute.  This is the same
    pipe-plus-writer-lock construction with the reader public: workers
    serialize their ``put`` calls on a shared process lock, and the
    parent (one ``map`` at a time, under the pool lock) reads
    unlocked.
    """

    def __init__(self, ctx):
        self.reader, self._writer = ctx.Pipe(duplex=False)
        self._write_lock = ctx.Lock()

    def put(self, obj) -> None:
        blob = pickle.dumps(obj)
        with self._write_lock:
            self._writer.send_bytes(blob)

    def get(self):
        return pickle.loads(self.reader.recv_bytes())

    def empty(self) -> bool:
        return not self.reader.poll()


class PersistentPool:
    """A pool of worker processes forked once and reused across calls.

    ``map`` is thread-safe (one call at a time — the serving bridge
    submits batches from executor threads) and merges results in input
    order.  Workers share a single task queue, which is what provides
    work-stealing: whichever worker is free takes the next batch.
    """

    def __init__(self, jobs: int, start_method: Optional[str] = None):
        if jobs < 1:
            raise ValueError("persistent pool needs at least one worker")
        self.jobs = jobs
        self._ctx = multiprocessing.get_context(
            start_method or _start_method()
        )
        self._tasks = self._ctx.SimpleQueue()
        self._results = _ResultChannel(self._ctx)
        self._lock = threading.Lock()
        self._generation = itertools.count(1)
        self._closed = False
        self.stats = {
            "jobs": jobs,
            "maps": 0,
            "batches": 0,
            "units": 0,
            "respawns": 0,
            "crashes": 0,
        }
        self._workers: Dict[int, multiprocessing.process.BaseProcess] = {}
        for wid in range(jobs):
            self._workers[wid] = self._spawn(wid)

    def _spawn(self, worker_id: int):
        proc = self._ctx.Process(
            target=_worker_main,
            args=(worker_id, self._tasks, self._results),
            daemon=True,
            name=f"mlt-pool-{id(self) & 0xFFFF:x}-w{worker_id}",
        )
        proc.start()
        return proc

    def alive_workers(self) -> int:
        return sum(1 for p in self._workers.values() if p.is_alive())

    # -- the map protocol ----------------------------------------------

    def map(
        self,
        fn: Callable[[T], R],
        items: Iterable[T],
        initializer: Optional[Callable] = None,
        initargs: Sequence = (),
        batch_size: Optional[int] = None,
    ) -> List[R]:
        work = list(items)
        if not work:
            return []
        with self._lock:
            if self._closed:
                raise RuntimeError("persistent pool is shut down")
            return self._map_locked(fn, work, initializer, initargs, batch_size)

    def _map_locked(self, fn, work, initializer, initargs, batch_size):
        generation = next(self._generation)
        batches = plan_batches(len(work), self.jobs, batch_size)
        pending: Dict[int, Tuple[int, int]] = {}
        for task_id, (lo, hi) in enumerate(batches):
            blob = pickle.dumps(
                (fn, initializer, tuple(initargs), work[lo:hi])
            )
            self._tasks.put((generation, task_id, blob))
            pending[task_id] = (lo, hi)
        self.stats["maps"] += 1
        self.stats["batches"] += len(batches)
        self.stats["units"] += len(work)

        done: Dict[int, List] = {}
        running: Dict[int, int] = {}  # task_id -> worker_id
        failure: Optional[BaseException] = None
        crash_seen = False
        last_progress = time.monotonic()
        while len(done) < len(batches) and failure is None:
            ready = connection.wait(
                [self._results.reader]
                + [p.sentinel for p in self._workers.values() if p.is_alive()],
                timeout=1.0,
            )
            drained = False
            while not self._results.empty():
                drained = True
                last_progress = time.monotonic()
                kind, gen, task_id, payload = self._results.get()
                if gen != generation:
                    continue  # stale batch from an aborted earlier call
                if kind == "begin":
                    running[task_id] = payload
                elif kind == "done":
                    done[task_id] = payload
                    running.pop(task_id, None)
                elif kind == "error":
                    failure = pickle.loads(payload)
                    running.pop(task_id, None)
                    break
            if failure is not None:
                break
            crashed = self._reap_dead_workers()
            if crashed:
                lost = [
                    task_id
                    for task_id, wid in running.items()
                    if wid in crashed and task_id not in done
                ]
                if lost:
                    lost_items = [
                        item
                        for task_id in lost
                        for item in work[slice(*pending[task_id])]
                    ]
                    failure = WorkerCrashError(
                        f"worker crashed while running batch(es) "
                        f"{sorted(lost)} ({len(lost_items)} unit(s)); "
                        "pool respawned a replacement worker",
                        items=lost_items,
                    )
                    break
            if crashed:
                crash_seen = True
            if not ready and not drained and self.alive_workers() == 0:
                failure = WorkerCrashError(
                    "all pool workers died; pool respawned replacements"
                )
                break
            # Watchdog for the (tiny) window where a worker dies after
            # dequeuing a batch but before acknowledging it: a crash
            # was observed, the queue has drained, and nothing has made
            # progress since — fail the call instead of spinning.
            if (
                crash_seen
                and not running
                and self._tasks.empty()
                and time.monotonic() - last_progress > 5.0
            ):
                failure = WorkerCrashError(
                    "worker crashed and a dispatched batch was lost "
                    "before acknowledgement; pool respawned a "
                    "replacement worker"
                )
                break
        if failure is not None:
            self._reap_dead_workers()
            raise failure
        return [r for task_id in sorted(done) for r in done[task_id]]

    def _reap_dead_workers(self) -> List[int]:
        """Respawn any dead worker; return the worker ids that died."""
        crashed = []
        for wid, proc in list(self._workers.items()):
            if proc.is_alive():
                continue
            proc.join(timeout=0)
            crashed.append(wid)
            self.stats["crashes"] += 1
            if not self._closed:
                self._workers[wid] = self._spawn(wid)
                self.stats["respawns"] += 1
        return crashed

    # -- lifecycle -----------------------------------------------------

    def shutdown(self, timeout: float = 5.0) -> None:
        with self._lock:
            if self._closed:
                return
            self._closed = True
            for _ in range(len(self._workers)):
                try:
                    self._tasks.put(None)
                except (OSError, ValueError):
                    break
            deadline = time.monotonic() + timeout
            for proc in self._workers.values():
                proc.join(timeout=max(0.0, deadline - time.monotonic()))
                if proc.is_alive():
                    proc.terminate()
                    proc.join(timeout=1.0)
            self._workers.clear()

    def __del__(self):  # pragma: no cover - interpreter teardown
        try:
            self.shutdown(timeout=0.1)
        except Exception:
            pass


# ----------------------------------------------------------------------
# Process-global pool registry
# ----------------------------------------------------------------------

_POOLS: Dict[int, PersistentPool] = {}
_POOLS_LOCK = threading.Lock()


def get_pool(jobs: int) -> PersistentPool:
    """The process-global persistent pool with ``jobs`` workers.

    Created on first use (forking the workers once) and reused by every
    later ``parallel_map``/serving batch with the same width; pools of
    different widths coexist so a ``--jobs 2`` fuzz run and a
    ``--jobs 4`` batch never reshape each other's pool.
    """
    jobs = resolve_jobs(jobs)
    with _POOLS_LOCK:
        pool = _POOLS.get(jobs)
        if pool is None or pool._closed:
            pool = PersistentPool(jobs)
            _POOLS[jobs] = pool
        return pool


def shutdown_pools() -> None:
    """Shut down every process-global pool (tests, atexit)."""
    with _POOLS_LOCK:
        pools = list(_POOLS.values())
        _POOLS.clear()
    for pool in pools:
        pool.shutdown()


def pool_stats() -> Dict[str, dict]:
    """Dispatch statistics for every live process-global pool.

    Keyed by the worker count as a *string* so the mapping looks the
    same in-process and after a JSON round-trip through the serving
    protocol."""
    with _POOLS_LOCK:
        return {
            str(jobs): dict(pool.stats, alive=pool.alive_workers())
            for jobs, pool in _POOLS.items()
            if not pool._closed
        }


atexit.register(shutdown_pools)


@contextlib.contextmanager
def fresh_pools():
    """Force freshly-forked workers inside the ``with`` block.

    Persistent workers snapshot the parent process at fork time; code
    that mutates parent state workers must observe (tests monkeypatching
    classes, for instance) runs inside this context so the pools used in
    the block fork *after* the mutation — and are torn down again on
    exit so the mutated workers never leak into later calls.
    """
    shutdown_pools()
    try:
        yield
    finally:
        shutdown_pools()


def parallel_map(
    fn: Callable[[T], R],
    items: Iterable[T],
    jobs: int = 1,
    initializer: Optional[Callable] = None,
    initargs: Sequence = (),
) -> List[R]:
    """Apply ``fn`` to every item, in-order results, persistent pool.

    ``fn``, ``initializer`` and the items must be picklable
    (module-level functions or methods of picklable objects, plain-data
    arguments) when ``jobs > 1``; the pool makes
    :data:`BATCHES_PER_WORKER` batches per worker.
    """
    work = list(items)
    jobs = resolve_jobs(jobs)
    if jobs <= 1 or len(work) <= 1:
        if initializer is not None:
            initializer(*initargs)
        return [fn(item) for item in work]
    return get_pool(jobs).map(
        fn, work, initializer=initializer, initargs=initargs
    )
