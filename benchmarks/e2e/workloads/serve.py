"""serve_hot / serve_mixed — ``mlt-serve`` as a subprocess on a unix
socket (``jobs=0``, ``max_pending=4096``, tenant caches on disk).

``serve_hot`` sends only four hot corpus kernels: the unit of work is
~30 us, so framing, the event loop and the hot map are the whole cost.
``serve_mixed`` makes every 10th request a *unique* raw-C compile that
misses every tier: queue, executor, coalescing table and tenant caches
write under load, and a hot-path gain that starves the cold path shows.

End-to-end numbers come from a *loaded closed loop*: 2 connections x
depth 8 = 16 callers that each wait for their reply, so the server is
never idle and a request's latency is ~16 service times.  That is the
one serving quantity this 2-vCPU microVM measures steadily: with idle
gaps between requests (depth 1, or an open loop below capacity) every
request pays for waking a halted vCPU through the hypervisor, 0.05-0.3
ms at the hypervisor's whim, which swamps a 0.1 ms service time and
moved the depth-1 median by 2x between identical runs.  Request
*counts* are fixed by ``--seconds`` (not durations), so the server's
caches hold the same entries at the same point of every run.

* one sample = one block of BLOCK_REQUESTS requests; its value is the
  block's *mean* request latency (the mean, because serve_mixed's
  requests are two populations; by Little's law it is 16 / throughput);
* ``latency_ms`` / ``tail_ms``: median / p75 of the samples, each scaled
  by the echo-server ticks before and after it; on serve_mixed with the
  server's kernel CPU share taken out (``KERNEL_TIME_EXCLUDED``);
* traced run only: the depth-1 sequential loop, and the open-loop rate
  grid with latency from the *due* time -> ``serving.seq_p50_ms``,
  ``serving.lat_*``, ``serving.max_rate_rps``; bare in-process calls
  of the protocol and unit functions -> the ``serving.*_ms`` layers.
"""

from __future__ import annotations

import os
import random
import subprocess
import sys
import time
from typing import Callable, Dict, List, Optional, Tuple

from .. import corpus, loadgen, spec, stats
from ..trace import Tracer
from .base import KERNEL_TIME_EXCLUDED, Workload, summarise, timed_samples

HOT_KERNELS = ("gemm", "atax", "bicg", "mvt")
HOT_PIPELINE = "mlt-blas"
COLD_PASSES = ["raise-affine-to-linalg"]
#: every COLD_EVERY-th request of serve_mixed is a unique cold compile
COLD_EVERY = 10
CONNECTIONS = 2
SATURATION_DEPTH = 8

#: Open-loop settings per workload: the rate ``tail_ms`` is read at,
#: the grid ``serving.max_rate_rps`` is searched on, and the latency
#: limit (on the step's tail percentile) a rate must meet.
OPEN_LOOP = {
    "serve_hot": {"design": 2000, "grid": (1000, 2000, 3000, 4000), "slo_ms": 20.0},
    "serve_mixed": {"design": 400, "grid": (200, 400, 600, 800), "slo_ms": 100.0},
}

#: Requests per sample (block) of the loaded closed loop, and blocks
#: per second of ``--seconds``.  Counts, not durations: a slower server
#: takes longer over the same requests, so its caches hold the same
#: entries at the same point of every run.  A serve_mixed block is 7
#: rounds of 9 hot + 1 cold request, so every block has the same mix.
BLOCK_REQUESTS = {"serve_hot": 400, "serve_mixed": 70}
BLOCKS_PER_SECOND = 7.5
#: Traced run: share of the loaded blocks, requests of the sequential
#: phase per second of ``--seconds``, share of ``--seconds`` per step.
TRACED_LOADED_SHARE = 0.25
SEQ_REQUESTS = 125
TRACED_STEP_SHARE = 0.15
#: lines per calibration tick through the echo server (~8 ms)
ECHO_BURST = 400
BARE_CALLS = 200
BARE_COLD_CALLS = 20


class _Serve(Workload):
    mixed = False

    # -- requests -------------------------------------------------------

    def _hot_request(self, index: int) -> dict:
        return {
            "op": "execute",
            "kernel": self.hot[index % len(self.hot)],
            "pipeline": HOT_PIPELINE,
            "seed": self.run.seed,
        }

    def _cold_request(self) -> Tuple[dict, Tuple[int, int, int]]:
        """A gemm no request before it has used (seeded extents)."""
        from repro.evaluation.kernels import gemm_source

        while True:
            extents = tuple(self._rng.randrange(4, 40) for _ in range(3))
            if extents not in self._used_extents:
                self._used_extents.add(extents)
                break
        request = {
            "op": "execute",
            "source": gemm_source(*extents),
            "passes": COLD_PASSES,
            "func": "gemm",
            "seed": self.run.seed,
        }
        return request, extents

    def _request(self, index: int) -> Tuple[dict, Optional[tuple]]:
        if self.mixed and index % COLD_EVERY == COLD_EVERY - 1:
            return self._cold_request()
        return self._hot_request(index), None

    def _expected_cold(self, extents) -> List[float]:
        """NumPy's answer for ``C = A @ B`` on the inputs the server
        derives from the seed — a reference no compiler produced."""
        from repro.fuzzing.oracle import make_args

        ni, nj, nk = extents
        a, b, _ = make_args([(ni, nk), (nk, nj), (ni, nj)], self.run.seed)
        return [float(a.sum()), float(b.sum()), float((a @ b).sum())]

    def _check(self, request: dict, extents, response: dict) -> bool:
        if not response.get("ok"):
            return False
        expected = (
            self._expected_cold(extents)
            if extents is not None
            else self.expected_hot[request["kernel"]]
        )
        got = response.get("checksums", [])
        # allclose, spelled out: this runs once per response inside the
        # generator, where a NumPy call would cost as much as the send.
        return len(got) == len(expected) and all(
            abs(g - e) <= corpus.ATOL + corpus.RTOL * abs(e)
            for g, e in zip(got, expected)
        )

    # -- setup ----------------------------------------------------------

    def setup(self) -> None:
        from repro.serving.protocol import decode_message, encode_message

        run = self.run
        self._rng = random.Random(run.seed)
        self._used_extents = set()
        #: open-loop requests sent so far: keeps the cold cadence going
        #: across steps instead of restarting it in each
        self._step_offset = 0
        hot = list(HOT_KERNELS)
        self._rng.shuffle(hot)
        self.hot = hot

        # Reference checksums: the interpreter on the untouched MET
        # module, same inputs the server derives from the seed.
        start = time.perf_counter()
        self.expected_hot = {}
        for name in hot:
            _, outputs = corpus.reference_outputs(
                corpus.small_source(name), corpus.func_name(name), run.seed
            )
            self.expected_hot[name] = [float(buf.sum()) for buf in outputs]
        self.check_ms = (time.perf_counter() - start) * 1e3

        root = _repo_root()
        self.socket_path = os.path.join(run.workdir, "s.sock")
        self._log = open(os.path.join(run.workdir, "server.log"), "w")
        env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
        self.server = subprocess.Popen(
            [
                sys.executable,
                "-c",
                "import sys; from repro.tool import serve_main; "
                "sys.exit(serve_main(sys.argv[1:]))",
                "--socket", os.path.relpath(self.socket_path, root),
                "--jobs", "0",
                "--max-pending", "4096",
                "--cache-dir",
                os.path.relpath(os.path.join(run.workdir, "serve-cache"), root),
            ],
            cwd=root,
            env=env,
            stdout=self._log,
            stderr=self._log,
        )
        # The calibration partner (see echo_server.py).
        self.echo_path = os.path.join(run.workdir, "e.sock")
        self.echo = subprocess.Popen(
            [
                sys.executable,
                os.path.join(root, "benchmarks", "e2e", "echo_server.py"),
                os.path.relpath(self.echo_path, root),
            ],
            cwd=root,
            stdout=self._log,
            stderr=self._log,
        )
        # One CPU for both servers, so where the scheduler happens to
        # put them is not a variable (see _place for the generator).
        self._cpus = sorted(os.sched_getaffinity(0))
        for process in (self.server, self.echo):
            os.sched_setaffinity(process.pid, {self._cpus[0]})
        self._place(beside_server=True)
        self.conns = self._connect(
            self.server, self.socket_path, encode_message, decode_message
        )
        self.echo_conns = self._connect(
            self.echo, self.echo_path, encode_message, decode_message
        )

        # First (cold) request per hot kernel compiles it; from here on
        # they answer from the hot map.
        for index in range(len(hot)):
            request = self._hot_request(index)
            _, response = self.conns.call(request)
            run.verdicts.check(
                self._check(request, None, response)
                and response.get("cached") == "codegen",
                f"first:{request['kernel']}",
            )
        tenants = self._stats()["tenants"]
        self.code_bytes = tenants["default"]["kernel_cache"]["memory"][
            "bytes_written"
        ]
        for index in range(200):
            self.conns.call(self._hot_request(index))

    def _place(self, beside_server: bool) -> None:
        """Pin this (generator) process.

        A depth-1 closed loop leaves one side idle at any time; on
        separate vCPUs every hand-over would wake a halted vCPU through
        the hypervisor, which costs 0.05-0.2 ms at the hypervisor's
        whim.  Beside the server there is no such wake-up.  An open loop
        (or a deep closed one) instead must not compete with the server
        for a CPU, or its own lateness is charged to the system.
        """
        cpu = self._cpus[0] if beside_server else self._cpus[-1]
        os.sched_setaffinity(0, {cpu})

    def _connect(self, process, path, encode, decode) -> loadgen.Connections:
        deadline = time.perf_counter() + 60.0
        path = os.path.relpath(path)
        while True:
            try:
                return loadgen.Connections(path, CONNECTIONS, encode, decode)
            except (FileNotFoundError, ConnectionRefusedError):
                if process.poll() is not None:
                    raise RuntimeError(
                        f"server exited {process.returncode} before "
                        "listening (see server.log)"
                    )
                if time.perf_counter() > deadline:
                    raise TimeoutError("server did not start listening")
                time.sleep(0.01)

    def _echo_tick(self) -> float:
        """Mean latency (ms) of ECHO_BURST lines through the echo
        server, in the same loaded closed loop the workload uses."""
        request = self._hot_request(0)
        _, rps, _ = loadgen.closed_loop(
            self.echo_conns,
            lambda index: request,
            lambda index, response: True,
            SATURATION_DEPTH,
            ECHO_BURST,
        )
        return CONNECTIONS * SATURATION_DEPTH * 1e3 / rps

    def _stats(self) -> dict:
        _, response = self.conns.call({"op": "stats"})
        return response["stats"]

    def _server_cpu_ticks(self) -> Tuple[int, int]:
        """(user, kernel) CPU clock ticks of the server process."""
        with open(f"/proc/{self.server.pid}/stat") as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
        return int(fields[11]), int(fields[12])

    def _server_peak_rss_mb(self) -> float:
        with open(f"/proc/{self.server.pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM for the server process")

    def teardown(self) -> None:
        server = getattr(self, "server", None)
        if server is None:
            return
        try:
            if server.poll() is None:
                self.conns.call({"op": "shutdown"}, timeout=10.0)
            self.conns.close()
        except (OSError, TimeoutError, AttributeError):
            pass
        try:
            server.wait(timeout=20.0)
        except subprocess.TimeoutExpired:
            server.kill()
            server.wait()
        echo = getattr(self, "echo", None)
        if echo is not None:
            echo.terminate()
            echo.wait()
        self._log.close()

    # -- phases ---------------------------------------------------------

    def _sequential(self, count: int) -> List[float]:
        """Closed loop, one connection, depth 1.  Returns the latency
        (ms) of the requests this workload's ``latency_ms`` is about:
        the cold ones on serve_mixed, all (hot) ones on serve_hot."""
        self._place(beside_server=True)
        wanted: List[float] = []
        for index in range(count):
            request, extents = self._request(index)
            seconds, response = self.conns.call(request)
            self.run.verdicts.check(
                self._check(request, extents, response), f"seq#{index}"
            )
            if extents is not None or not self.mixed:
                wanted.append(seconds * 1e3)
        return wanted

    def _open_loop_step(self, rate: float, seconds: float, slo_ms: float):
        self._place(beside_server=False)
        # At least enough requests for the lowest tail percentile.
        loop = loadgen.OpenLoop(
            rate, max(self.run.min_samples(90), int(rate * seconds))
        )
        offset = self._step_offset
        self._step_offset += loop.count
        sent: Dict[int, tuple] = {}

        def send(index: int) -> None:
            request, extents = self._request(offset + index)
            sent[index] = (request, extents)
            self.conns.send(index, request, index)

        def poll(timeout: float):
            out = []
            for index, arrived, response in self.conns.poll(timeout):
                request, extents = sent.pop(index)
                out.append(
                    (index, arrived, self._check(request, extents, response))
                )
            return out

        loadgen.drive_open_loop(loop, send, poll, time.perf_counter)
        report = loop.report(
            slo_ms,
            quick=self.run.quick,
            allowed_backlog=CONNECTIONS * SATURATION_DEPTH,
        )
        self.run.verdicts.add(loop.count, int(report["failed"]), f"open@{rate}")
        return report

    def _loaded_block(self, count: int):
        """``count`` requests through the saturating closed loop
        (CONNECTIONS x SATURATION_DEPTH callers, generator beside the
        server): ``(latency_ms per request, requests_per_second)``."""
        self._place(beside_server=True)
        offset = self._step_offset
        self._step_offset += count
        pending: Dict[int, tuple] = {}

        def request_at(index: int) -> dict:
            request, extents = self._request(offset + index)
            pending[index] = (request, extents)
            return request

        def check(index: int, response: dict) -> bool:
            return self._check(*pending.pop(index), response)

        latency, rps, failed = loadgen.closed_loop(
            self.conns, request_at, check, SATURATION_DEPTH, count
        )
        self.run.verdicts.add(count, failed, "loaded closed loop")
        return latency, rps

    def measure(self) -> Dict[str, float]:
        """One sample = one block of BLOCK_REQUESTS through the loaded
        closed loop; its value is the block's mean request latency."""
        run = self.run
        tail_p = spec.TAIL_PERCENTILE[self.name]
        norm = stats.Normaliser(self._echo_tick, stats.CAL_ECHO_REF_MS)
        blocks = max(
            run.min_samples(tail_p), int(BLOCKS_PER_SECOND * run.seconds)
        )
        means: List[float] = []
        rates: List[float] = []

        def block() -> None:
            latency, rps = self._loaded_block(BLOCK_REQUESTS[self.name])
            means.append(sum(latency) / len(latency))
            rates.append(rps)

        cpu_start = self._server_cpu_ticks()
        # Count-based (0 s, ``blocks`` samples); a sample's value is its
        # mean request latency, not the wall of the call.
        timed = timed_samples(block, 0.0, blocks, norm)
        timed.wall = means
        # The server is saturated, so a request's latency is ~16 service
        # times and scales with the server's CPU time; the kernel's
        # share of that CPU time is the share of the latency that is
        # kernel time (see KERNEL_TIME_EXCLUDED).
        user, kernel = (
            after - before
            for after, before in zip(self._server_cpu_ticks(), cpu_start)
        )
        kernel_share = kernel / max(1, user + kernel)
        timed.kernel = [wall * kernel_share for wall in timed.wall]
        out = summarise(
            timed,
            norm,
            tail_p,
            run.quick,
            minus_kernel=self.name in KERNEL_TIME_EXCLUDED,
        )
        out.update(
            {
                "raw_rps": stats.median(rates),
                "server_kernel_share": kernel_share,
                "callers": CONNECTIONS * SATURATION_DEPTH,
                "requests_per_sample": BLOCK_REQUESTS[self.name],
                "code_bytes": float(self.code_bytes),
                "peak_rss_mb": self._server_peak_rss_mb(),
            }
        )
        return out

    def measure_traced(self) -> Dict[str, float]:
        run = self.run
        settings = OPEN_LOOP[self.name]
        seq = self._sequential(
            max(COLD_EVERY * 3, int(SEQ_REQUESTS * run.seconds))
        )
        seq_p50 = stats.median(seq)
        _, sat_rps = self._loaded_block(
            BLOCK_REQUESTS[self.name]
            * max(1, int(BLOCKS_PER_SECOND * run.seconds * TRACED_LOADED_SHARE))
        )

        steps = [
            self._open_loop_step(
                rate, run.seconds * TRACED_STEP_SHARE, settings["slo_ms"]
            )
            for rate in settings["grid"]
        ]
        design = next(s for s in steps if s["rate_rps"] == settings["design"])
        passing = [s["rate_rps"] for s in steps if s["meets_limit"]]
        counters = self._stats()["counters"]

        # Spans around the bare calls only: the inner layers of a cold
        # unit are compile_cold's and batch_fill's subject, and wrapping
        # them here would inflate serving.unit_cold_ms.
        tracer = run.tracer = Tracer()
        bare = self._bare_calls(tracer)
        self._place(beside_server=True)
        ping = []
        for _ in range(BARE_CALLS):
            with tracer.sample("ping"):
                seconds, _ = self.conns.call({"op": "ping"})
            ping.append(seconds * 1e3)
        ping_rtt = stats.median(ping)
        unit = bare["serving.unit_cold_ms" if self.mixed else "serving.unit_hot_ms"]

        out = dict(bare)
        out.update(
            {
                "serving.ping_rtt_ms": ping_rtt,
                "serving.seq_p50_ms": seq_p50,
                "serving.loop_residual_ms": seq_p50 - ping_rtt - unit,
                "serving.overhead_ratio": seq_p50 / unit,
                "serving.sat_rps": sat_rps,
                "serving.lat_p50_ms": design["p50_ms"],
                "serving.lat_tail_ms": design["tail_ms"],
                "serving.max_rate_rps": float(max(passing, default=0)),
                "serving.coalesced": float(counters["coalesced"]),
                "serving.shed": float(counters["shed"]),
                "serving.errors": float(counters["errors"]),
                "serving.gen_late_p50_ms": design["gen_late_p50_ms"],
                "serving.gen_late_tail_ms": design["gen_late_tail_ms"],
                "serving.backlog_end": float(design["backlog_end"]),
                "interpreter.check_ms": self.check_ms,
                "trace.samples": float(BARE_CALLS),
                "trace.coverage_pct": tracer.coverage("bare") * 100.0,
            }
        )
        for step in steps:
            run.notes.append(
                f"open loop {step['rate_rps']:.0f}/s: p50 {step['p50_ms']:.3f} "
                f"p{step['tail_percentile']} {step['tail_ms']:.3f} ms, "
                f"late p50 {step['gen_late_p50_ms']:.3f} ms, backlog "
                f"{step['backlog_end']}, failed {step['failed']}, "
                f"{'meets' if step['meets_limit'] else 'MISSES'} "
                f"{settings['slo_ms']:.0f} ms"
            )
        return out

    def _bare_calls(self, tracer) -> Dict[str, float]:
        """The protocol and unit functions called in this process, one
        span each — what a served request is made of, minus the loop."""
        from repro.serving.protocol import decode_message, encode_message
        from repro.serving.units import (
            configure_serving,
            normalize_request,
            reset_serving_state,
            serve_unit,
        )

        run = self.run
        configure_serving(os.path.join(run.workdir, "bare-cache"))
        spans = {
            "serving.decode": [],
            "serving.normalize": [],
            "serving.unit_hot": [],
            "serving.encode": [],
        }

        def timed(name: str, fn: Callable, *args):
            with tracer.span(name):
                start = time.perf_counter()
                result = fn(*args)
                spans[name].append((time.perf_counter() - start) * 1e3)
            return result

        for index in range(len(self.hot)):  # compile + pin hot
            serve_unit(normalize_request(self._hot_request(index)))
        for index in range(BARE_CALLS):
            request = dict(self._hot_request(index), id=index)
            raw = encode_message(request)
            with tracer.sample("bare"):
                message = timed("serving.decode", decode_message, raw)
                unit_spec = timed("serving.normalize", normalize_request, message)
                result = timed("serving.unit_hot", serve_unit, unit_spec)
                timed("serving.encode", encode_message, dict(result, ok=True))
            run.verdicts.check(
                self._check(request, None, dict(result, ok=True)),
                f"bare#{index}",
            )
        cold = []
        for index in range(BARE_COLD_CALLS):
            request, extents = self._cold_request()
            unit_spec = normalize_request(request)
            with tracer.sample("bare-cold"), tracer.span("serving.unit_cold"):
                start = time.perf_counter()
                result = serve_unit(unit_spec)
                cold.append((time.perf_counter() - start) * 1e3)
            run.verdicts.check(
                self._check(request, extents, dict(result, ok=True)),
                f"bare-cold#{index}",
            )
        reset_serving_state()
        out = {name + "_ms": stats.median(values) for name, values in spans.items()}
        out["serving.unit_cold_ms"] = stats.median(cold)
        return out


def _repo_root() -> str:
    here = os.path.dirname(os.path.abspath(__file__))
    return os.path.dirname(os.path.dirname(os.path.dirname(here)))


class ServeHot(_Serve):
    name = "serve_hot"
    mixed = False


class ServeMixed(_Serve):
    name = "serve_mixed"
    mixed = True
