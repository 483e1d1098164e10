"""Sample statistics and the drift-normalisation calibration loops."""

from __future__ import annotations

import math
import statistics
import time
from typing import Callable, List, Optional, Sequence

#: A percentile is only reported with at least this many samples
#: strictly beyond it (choosing-metrics guide, section 1).
MIN_BEYOND = 10

#: Reference calibration times: the median of each loop on the box the
#: seed baseline was recorded on.  A reported ``*_ms`` value is
#: ``raw * CAL_REF / median(cal)``, so it reads as "milliseconds on the
#: reference box" whatever the box or its momentary load.
CAL_PY_REF_MS = 4.5
CAL_NP_REF_MS = 5.2
#: mean latency of the loaded closed loop through ``echo_server.py``
CAL_ECHO_REF_MS = 0.33


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def percentile(values: Sequence[float], p: float) -> float:
    """The ``p``-th percentile (0 < p < 100), nearest-rank.

    Refuses a percentile that fewer than :data:`MIN_BEYOND` samples lie
    beyond — such a value is one outlier, not a tail.
    """
    if not 0.0 < p < 100.0:
        raise ValueError(f"percentile {p} outside (0, 100)")
    n = len(values)
    rank = max(1, math.ceil(n * p / 100.0))
    if n - rank < MIN_BEYOND:
        raise ValueError(
            f"p{p:g} of {n} samples has {max(0, n - rank)} beyond it; "
            f"need {MIN_BEYOND}"
        )
    return float(sorted(values)[rank - 1])


def samples_needed(p: float) -> int:
    """Fewest samples for which :func:`percentile` accepts ``p``."""
    n = MIN_BEYOND
    while n - max(1, math.ceil(n * p / 100.0)) < MIN_BEYOND:
        n += 1
    return n


def supported_percentile(n: int, ladder: Sequence[float]) -> Optional[float]:
    """First percentile of ``ladder`` that ``n`` samples support."""
    for p in ladder:
        if n >= samples_needed(p):
            return p
    return None


def geomean(values: Sequence[float]) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values))


def spread(values: Sequence[float]) -> float:
    """Inter-quartile distance as a share of the median — the
    steadiness figure the benchmark contract is judged by."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


# ----------------------------------------------------------------------
# Calibration loops
# ----------------------------------------------------------------------


_CAL_NODES = 3000


def cal_py() -> float:
    """Fixed pure-Python loop; returns its wall in ms.

    Half of it is bytecode dispatch, dict stores and small-int
    arithmetic; the other half allocates a few thousand small objects
    and chases pointers between them through a dict of strings — what
    the compiler, tuner and server are made of.  The second half
    matters: a noisy neighbour on the host mostly costs cache and
    memory bandwidth, which a loop that lives in L1 never feels (ten
    disturbed compile_cold runs: spread 6.4% normalised by the
    arithmetic half alone, 4.8% by a pointer-chasing loop).
    """
    start = time.perf_counter()
    table = {}
    acc = 0
    for i in range(26000):
        table[i & 1023] = acc
        acc = (acc + i * 7) & 0xFFFFFF
    n = _CAL_NODES
    nodes = [[i, None] for i in range(n)]
    for i in range(n):
        nodes[i][1] = nodes[(i * 7919 + 13) % n]
    by_name = {}
    for i in range(n):
        by_name[str(i)] = nodes[i]
    node = nodes[0]
    for i in range(n):
        node = node[1]
        acc += node[0]
        node = by_name[str(acc % n)]
    return (time.perf_counter() - start) * 1e3


class NumpyCalibration:
    """Fixed NumPy work: a 256x256 f32 matmul plus a fused elementwise
    pass over 1M elements — what generated kernels are made of."""

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(0)
        self._a = rng.random((256, 256), dtype=np.float32)
        self._b = rng.random((256, 256), dtype=np.float32)
        self._x = rng.random(1 << 20, dtype=np.float32)
        self._out = np.empty_like(self._x)
        self._np = np

    def __call__(self) -> float:
        np = self._np
        start = time.perf_counter()
        for _ in range(4):
            self._a @ self._b
            np.multiply(self._x, 1.0001, out=self._out)
            np.add(self._out, self._x, out=self._out)
        return (time.perf_counter() - start) * 1e3


class Normaliser:
    """Calibration ticks interleaved with the measurement, and the
    scaling of raw values to the reference box.

    A value is scaled by the ticks *around it* (``scale(raw, lo, hi)``
    uses ``ticks[lo:hi]``), not by the run's median tick: the box's
    speed moves by +-10% within seconds, and pairing each sample with
    its neighbouring ticks halves the run-to-run spread that a
    ratio of medians leaves (measured on compile_cold: 6.6% -> 3.4%).
    """

    def __init__(self, loop: Callable[[], float], ref_ms: float):
        self._loop = loop
        self.ref_ms = ref_ms
        self.ticks: List[float] = []

    def tick(self) -> int:
        """Run the calibration loop once; returns the tick's index."""
        self.ticks.append(self._loop())
        return len(self.ticks) - 1

    @property
    def cal_ms(self) -> float:
        return median(self.ticks)

    def scale(self, raw: float, lo: int, hi: int) -> float:
        return raw * self.ref_ms / median(self.ticks[lo:hi])
