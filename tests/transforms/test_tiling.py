"""Loop tiling: structure, legality, and semantics preservation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dialects.affine import outermost_loops, perfect_nest
from repro.execution import Interpreter
from repro.met import compile_c
from repro.transforms import TileLoopNestPass, TilingError, tile_perfect_nest
from repro.ir import Context, print_module, verify

from ..conftest import assert_close, build_gemm_module, random_arrays


class TestTilingStructure:
    def test_band_doubles(self):
        module = build_gemm_module(16, 16, 16)
        root = outermost_loops(module.functions[0])[0]
        new_loops = tile_perfect_nest(root, [4, 4, 4])
        assert len(new_loops) == 6
        verify(module, Context())
        band = perfect_nest(new_loops[0])
        assert len(band) == 6
        assert [loop.step for loop in band] == [4, 4, 4, 1, 1, 1]

    def test_divisible_tiles_have_simple_bounds(self):
        module = build_gemm_module(16, 16, 16)
        root = outermost_loops(module.functions[0])[0]
        loops = tile_perfect_nest(root, [4, 4, 4])
        point = loops[3]
        assert point.upper_bound_map.num_results == 1

    def test_non_divisible_tiles_get_min_bounds(self):
        module = build_gemm_module(10, 10, 10)
        root = outermost_loops(module.functions[0])[0]
        loops = tile_perfect_nest(root, [4, 4, 4])
        point = loops[3]
        assert point.upper_bound_map.num_results == 2

    def test_tile_size_one_keeps_point_loop(self):
        module = build_gemm_module(8, 8, 8)
        root = outermost_loops(module.functions[0])[0]
        loops = tile_perfect_nest(root, [4, 1, 4])
        assert len(loops) == 6
        verify(module, Context())

    def test_partial_band_tiling(self):
        module = build_gemm_module(8, 8, 8)
        root = outermost_loops(module.functions[0])[0]
        loops = tile_perfect_nest(root, [4, 4])  # only i, j
        verify(module, Context())
        assert len(perfect_nest(loops[0])) == 5  # 2 tile + 2 point + k

    def test_too_many_sizes_rejected(self):
        module = build_gemm_module(8, 8, 8)
        root = outermost_loops(module.functions[0])[0]
        with pytest.raises(TilingError):
            tile_perfect_nest(root, [4, 4, 4, 4])

    def test_symbolic_bounds_rejected(self):
        module = compile_c(
            """
            void f(float A[64], int n) {
              for (int i = 0; i < n; i++)
                A[i] = 0.0f;
            }
            """,
            distribute=False,
        )
        root = outermost_loops(module.functions[0])[0]
        with pytest.raises(TilingError):
            tile_perfect_nest(root, [8])


class TestTilingSemantics:
    @given(
        st.sampled_from([2, 3, 4, 5, 8]),
        st.sampled_from([2, 3, 4, 5, 8]),
    )
    @settings(max_examples=12, deadline=None)
    def test_tiled_gemm_equivalent(self, t1, t2):
        m, n, k = 7, 9, 8
        ref = build_gemm_module(m, n, k)
        tiled = build_gemm_module(m, n, k)
        root = outermost_loops(tiled.functions[0])[0]
        tile_perfect_nest(root, [t1, t2, t1])
        verify(tiled, Context())
        A, B = random_arrays(11, (m, k), (k, n))
        C1 = np.zeros((m, n), np.float32)
        C2 = np.zeros((m, n), np.float32)
        Interpreter(ref).run("gemm", A, B, C1)
        Interpreter(tiled).run("gemm", A, B, C2)
        assert_close(C1, C2)

    def test_tile_pass_runs_on_module(self):
        module = build_gemm_module(64, 64, 64)
        TileLoopNestPass(32).run(module, Context())
        root = outermost_loops(module.functions[0])[0]
        assert len(perfect_nest(root)) == 6

    def test_tile_pass_refuses_an_illegal_band(self):
        # A[i][j] reads A[i-1][j+1]: a (1, -1) dependence.  Blocked 4x4,
        # row i's column 7 reads row i-1's column 8 before the next tile
        # has written it, so `mlt-opt -affine-loop-tile` used to change
        # the result (checksum 396.29 -> 236.43).  The pass now shares
        # the schedule's dependence-legality gate.
        reference = compile_c(SKEW)
        module = compile_c(SKEW)
        pass_ = TileLoopNestPass(4)
        pass_.run(module, Context())
        assert print_module(module) == print_module(reference)
        assert pass_.counters == {}  # nothing tiled
        (want,) = random_arrays(5, (16, 16))
        got = want.copy()
        Interpreter(reference).run("skew", want)
        Interpreter(module).run("skew", got)
        assert_close(got, want)


SKEW = """
void skew(float A[16][16]) {
  for (int i = 1; i < 16; i++)
    for (int j = 0; j < 15; j++)
      A[i][j] = A[i - 1][j + 1] + A[i][j];
}
"""
