"""Load generation for the serve workloads: one thread, blocking unix
sockets, ``select`` for waiting (microsecond timeouts — asyncio's
epoll loop rounds sleeps up to a millisecond, which would be charged
to every open-loop request).

The accounting (:class:`OpenLoop`) knows nothing about sockets or
clocks, so the tests drive it with a fake transport and a fake clock.
"""

from __future__ import annotations

import select
import socket
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from . import stats


class OpenLoop:
    """Fixed-arrival-rate accounting for one step.

    Request ``i`` is *due* at ``i / rate`` seconds after the step
    starts, whatever the system is doing; its latency runs from the due
    time, so a stall is charged to every request it delays.  How late
    the generator itself sent each request is kept separately.
    """

    def __init__(self, rate: float, count: int):
        self.rate = float(rate)
        self.count = count
        self.next_index = 0
        self.latency_s: List[float] = []
        self.lateness_s: List[float] = []
        self.failed = 0
        self.outstanding = 0
        #: Requests still unanswered when the last one fell due — a
        #: system keeping up has a handful, one falling behind has a
        #: number that grows with the step length.
        self.backlog_end: Optional[int] = None

    def due(self, index: int) -> float:
        return index / self.rate

    @property
    def end(self) -> float:
        return self.count / self.rate

    def take_due(self, now: float) -> List[int]:
        """Indices due at ``now`` and not yet sent; marks them sent."""
        ready = []
        while self.next_index < self.count and self.due(self.next_index) <= now:
            index = self.next_index
            self.next_index += 1
            self.outstanding += 1
            self.lateness_s.append(now - self.due(index))
            ready.append(index)
        return ready

    def complete(self, index: int, now: float, ok: bool) -> None:
        self.outstanding -= 1
        self.latency_s.append(now - self.due(index))
        if not ok:
            self.failed += 1

    def mark_end(self, now: float) -> None:
        if self.backlog_end is None and now >= self.end:
            self.backlog_end = self.outstanding

    def wait_hint(self, now: float) -> float:
        """Seconds until the generator next has something to do."""
        if self.next_index < self.count:
            return max(0.0, self.due(self.next_index) - now)
        if self.backlog_end is None:
            return max(0.0, self.end - now)
        return 0.05

    @property
    def done(self) -> bool:
        return (
            self.next_index >= self.count
            and self.backlog_end is not None
            and self.outstanding == 0
        )

    def report(
        self, slo_ms: float, quick: bool = False, allowed_backlog: int = 0
    ) -> Dict[str, float]:
        """``allowed_backlog``: requests that may be outstanding at the
        end without counting as a growing backlog (on top of 1% of
        those sent) — the concurrency the system normally carries."""
        lat_ms = [s * 1e3 for s in self.latency_s]
        late_ms = [s * 1e3 for s in self.lateness_s]
        tail_p = stats.supported_percentile(len(lat_ms), (99, 95, 90))
        if tail_p is None and not quick:
            raise ValueError(
                f"{len(lat_ms)} responses support no tail percentile"
            )
        tail = (
            stats.percentile(lat_ms, tail_p) if tail_p else max(lat_ms)
        )
        late_p = stats.supported_percentile(len(late_ms), (99, 95, 90))
        unanswered = self.outstanding
        backlog = self.backlog_end or 0
        meets = (
            tail <= slo_ms
            and self.failed == 0
            and unanswered == 0
            and backlog <= max(allowed_backlog, 0.01 * self.count)
        )
        return {
            "rate_rps": self.rate,
            "sent": self.count,
            "p50_ms": stats.median(lat_ms),
            "tail_ms": tail,
            "tail_percentile": tail_p or 100,
            "gen_late_p50_ms": stats.median(late_ms),
            "gen_late_tail_ms": (
                stats.percentile(late_ms, late_p) if late_p else max(late_ms)
            ),
            "backlog_end": backlog,
            "failed": self.failed + unanswered,
            "meets_limit": meets,
        }


def drive_open_loop(
    loop: OpenLoop,
    send: Callable[[int], None],
    poll: Callable[[float], Sequence[Tuple[int, float, bool]]],
    clock: Callable[[], float],
    drain_s: float = 10.0,
) -> None:
    """Run one open-loop step.

    ``send(i)`` transmits request ``i``; ``poll(timeout)`` waits up to
    ``timeout`` seconds and returns ``(index, arrival_time, ok)`` for
    every response that arrived.  After the last request falls due the
    loop drains stragglers for at most ``drain_s`` (whatever is still
    unanswered then counts as failed).
    """
    start = clock()
    while not loop.done:
        now = clock() - start
        for index in loop.take_due(now):
            send(index)
        loop.mark_end(now)
        if now > loop.end + drain_s:
            break
        for index, arrived, ok in poll(loop.wait_hint(clock() - start)):
            loop.complete(index, arrived - start, ok)


# ----------------------------------------------------------------------
# The socket transport
# ----------------------------------------------------------------------


class Connections:
    """``n`` pipelined NDJSON connections to one ``mlt-serve``."""

    def __init__(self, path: str, n: int, encode, decode):
        self._encode = encode
        self._decode = decode
        self._socks = []
        for _ in range(n):
            sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            sock.connect(path)
            self._socks.append(sock)
        self._open = list(self._socks)
        self._buffers = {sock: b"" for sock in self._socks}
        self._next_id = 0
        #: request id -> caller's tag
        self._tags: Dict[int, object] = {}

    def close(self) -> None:
        for sock in self._socks:
            sock.close()

    def __len__(self) -> int:
        return len(self._socks)

    def send(self, lane: int, message: dict, tag) -> None:
        self._next_id += 1
        self._tags[self._next_id] = tag
        self._socks[lane % len(self._socks)].sendall(
            self._encode(dict(message, id=self._next_id))
        )

    def poll(self, timeout: float) -> List[Tuple[object, float, dict]]:
        """``(tag, arrival_time, response)`` for everything readable
        within ``timeout`` seconds."""
        if not self._open:
            raise ConnectionError("server closed every connection")
        ready, _, _ = select.select(self._open, [], [], max(0.0, timeout))
        out = []
        for sock in ready:
            data = sock.recv(1 << 16)
            arrived = time.perf_counter()
            if not data:
                # Closed by the server (it does so after ``shutdown``);
                # a request still waiting on it runs into its timeout.
                self._open.remove(sock)
                continue
            *lines, self._buffers[sock] = (
                self._buffers[sock] + data
            ).split(b"\n")
            for line in lines:
                response = self._decode(line)
                out.append(
                    (self._tags.pop(response["id"]), arrived, response)
                )
        return out

    def call(self, message: dict, lane: int = 0, timeout: float = 60.0):
        """One closed-loop request: ``(latency_s, response)``."""
        start = time.perf_counter()
        self.send(lane, message, "call")
        deadline = start + timeout
        while True:
            for _, arrived, response in self.poll(deadline - time.perf_counter()):
                return arrived - start, response
            if time.perf_counter() > deadline:
                raise TimeoutError(f"no response to {message.get('op')}")


def closed_loop(
    conns: Connections,
    request_at: Callable[[int], dict],
    check: Callable[[int, dict], bool],
    depth: int,
    count: int,
    stall_s: float = 30.0,
) -> Tuple[List[float], float, int]:
    """Keep ``depth`` requests outstanding on every connection until
    ``count`` have been sent and answered: callers that each wait for
    their reply.  With ``depth * len(conns)`` above 1 the server is
    never idle, so this is also its saturation throughput.

    Returns ``(latency_ms per request, requests_per_second, failed)``;
    requests unanswered after ``stall_s`` of silence count as failed.
    """
    latency_ms: List[float] = []
    sent = failed = 0

    def send(lane: int) -> None:
        nonlocal sent
        conns.send(lane, request_at(sent), (lane, sent, time.perf_counter()))
        sent += 1

    start = last = time.perf_counter()
    for lane in range(len(conns)):
        for _ in range(depth):
            if sent < count:
                send(lane)
    answered = 0
    while answered < sent:
        arrivals = conns.poll(stall_s)
        if not arrivals:
            failed += sent - answered
            break
        for (lane, index, sent_at), arrived, response in arrivals:
            answered += 1
            last = arrived
            latency_ms.append((arrived - sent_at) * 1e3)
            if not check(index, response):
                failed += 1
            if sent < count:
                send(lane)
    return latency_ms, answered / (last - start), failed
