"""Machine models for the paper's two test platforms (Table I).

Since the reproduction runs without the authors' testbed, performance
is predicted by an analytical model parameterized by per-core machine
characteristics:

  * scalar/vector FP throughput (FMA-based),
  * a three-level cache hierarchy with per-level sustained bandwidths,
  * sustained single-thread memory bandwidth,
  * measured library efficiencies (the MKL-DNN reference lines of
    Figure 9: 145.5 GFLOP/s on the i9-9900K, 63.6 on the 2920X; the
    OpenBLAS/BLIS ``affine.matmul`` path at 23.59 GFLOP/s from §V-A),
  * the fixed dynamic-link dispatch overhead of library calls the
    paper measures at ~1.5 ms (§V-B, atax discussion).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple


@dataclass(frozen=True)
class CacheLevel:
    name: str
    size_bytes: int
    bandwidth_gbs: float  # sustained, single core


@dataclass(frozen=True)
class Machine:
    """Per-core performance characteristics of one platform."""

    name: str
    frequency_ghz: float
    simd_width_f32: int  # f32 lanes per vector FMA
    fma_units: int
    caches: Tuple[CacheLevel, ...]
    memory_bandwidth_gbs: float
    #: fraction of vector peak reachable by compiled (non-library) code
    vector_efficiency: float
    #: throughput penalty for non-vectorized reductions (dep. chains)
    reduction_penalty: float
    #: library GFLOP/s for level-3 (GEMM-shaped) kernels, by library
    library_gemm_gflops: Dict[str, float]
    #: the custom affine.matmul OpenBLAS/BLIS codegen path (§V-A)
    blis_matmul_gflops: float
    #: fixed per-call dispatch overhead of dynamically linked libraries
    library_call_overhead_s: float = 1.5e-3
    #: loop control overhead (increment+compare+branch), cycles/iter
    loop_overhead_cycles: float = 2.0

    @property
    def scalar_gflops(self) -> float:
        """Scalar FMA throughput: 2 flops per cycle."""
        return self.frequency_ghz * 2.0

    @property
    def vector_gflops(self) -> float:
        return (
            self.frequency_ghz
            * 2.0
            * self.simd_width_f32
            * self.fma_units
            * self.vector_efficiency
        )

    def cache_level_for(self, footprint_bytes: float) -> CacheLevel:
        """Smallest cache holding ``footprint_bytes``; memory otherwise."""
        for level in self.caches:
            if footprint_bytes <= level.size_bytes:
                return level
        return CacheLevel("mem", 1 << 62, self.memory_bandwidth_gbs)

    def library_gflops(self, library: str, level: int) -> float:
        """Library throughput for level-3 (GEMM) or level-2 (GEMV) BLAS."""
        gemm = self.library_gemm_gflops.get(
            library, min(self.library_gemm_gflops.values())
        )
        if level == 3:
            return gemm
        # Level-2 BLAS is memory-bound: 0.5 flop/byte against streaming
        # bandwidth.
        return self.memory_bandwidth_gbs * 0.5


INTEL_I9_9900K = Machine(
    name="Intel i9-9900K",
    frequency_ghz=3.6,
    simd_width_f32=8,  # AVX2
    fma_units=2,
    caches=(
        CacheLevel("L1", 32 * 1024, 400.0),
        CacheLevel("L2", 256 * 1024, 120.0),
        CacheLevel("L3", 16 * 1024 * 1024, 60.0),
    ),
    memory_bandwidth_gbs=18.0,
    vector_efficiency=0.65,
    reduction_penalty=0.5,
    library_gemm_gflops={"mkl-dnn": 145.5, "openblas": 120.0},
    blis_matmul_gflops=52.0,
)

AMD_2920X = Machine(
    name="AMD 2920X",
    frequency_ghz=4.3,
    simd_width_f32=8,  # AVX2
    fma_units=2,
    caches=(
        CacheLevel("L1", 32 * 1024, 350.0),
        CacheLevel("L2", 512 * 1024, 100.0),
        CacheLevel("L3", 32 * 1024 * 1024, 45.0),
    ),
    memory_bandwidth_gbs=14.0,
    vector_efficiency=0.55,
    reduction_penalty=0.5,
    library_gemm_gflops={"mkl-dnn": 63.6, "openblas": 65.9},
    blis_matmul_gflops=23.59,
)

MACHINES: List[Machine] = [INTEL_I9_9900K, AMD_2920X]
