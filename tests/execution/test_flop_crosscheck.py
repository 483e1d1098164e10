"""Cross-validate the cost model's static flop accounting against the
interpreter's dynamic op counts."""

import numpy as np
import pytest

from repro.evaluation import get_kernel
from repro.execution import AMD_2920X, CostModel, Interpreter
from repro.fuzzing.generators import generate_affine_module
from repro.ir.parser import parse_module
from repro.met import compile_c
from repro.tactics import raise_affine_to_linalg
from repro.tool import build_pipeline

from ..conftest import random_arrays


def _dynamic_flops(module, func_name, arg_shapes, seed=0):
    interp = Interpreter(module, count_ops=True)
    args = [
        np.zeros(s, np.float32) for s in arg_shapes
    ]
    rng = np.random.default_rng(seed)
    args = [rng.random(s, dtype=np.float32) for s in arg_shapes]
    interp.run(func_name, *args)
    return interp.scalar_flops()


@pytest.mark.parametrize(
    "name",
    ["gemm", "2mm", "atax", "mvt", "gesummv", "abc-acd-db", "conv2d-nchw"],
)
def test_static_flops_match_dynamic(name):
    spec = get_kernel(name)
    module = compile_c(spec.small())
    func = module.lookup(spec.func_name)
    shapes = [tuple(a.type.shape) for a in func.arguments]
    static = CostModel(AMD_2920X).cost_function(func).flops
    dynamic = _dynamic_flops(module, spec.func_name, shapes)
    assert static == dynamic


@pytest.mark.parametrize("seed", range(40))
def test_declared_flops_match_dynamic_on_affine_modules(seed):
    """The cost model and the interpreter both count each op's declared
    ``FLOPS``, so they agree on arithmetic MET never emits (``negf``
    chains, strided maps)."""
    generated = generate_affine_module(seed)
    func = generated.module.lookup(generated.func_name)
    static = CostModel(AMD_2920X).cost_function(func).flops
    dynamic = _dynamic_flops(
        generated.module, generated.func_name, generated.arg_shapes
    )
    assert static == dynamic


#: ``A = B * 2.0 + C`` raised to one generic whose body holds the
#: constant: two flops per point, not three.
GENERIC_WITH_CONSTANT = """
module {
  func @f(%arg0: memref<8x6xf32>, %arg1: memref<8x6xf32>, %arg2: memref<8x6xf32>) {
    linalg.generic {indexing_maps = [affine_map<(d0, d1) -> (d0, d1)>, affine_map<(d0, d1) -> (d0, d1)>, affine_map<(d0, d1) -> (d0, d1)>], iterator_types = ["parallel", "parallel"]} ins(%arg1, %arg2) outs(%arg0) {
      ^bb0(%0: f32, %1: f32, %2: f32):
      %3 = std.constant 2.0 : f32
      %4 = std.mulf %0, %3 : f32
      %5 = std.addf %4, %1 : f32
      linalg.yield %5 : f32
    }
    return
  }
}
"""


def test_generic_declared_flops_match_lowered_loops():
    module = parse_module(GENERIC_WITH_CONSTANT)
    (generic,) = [op for op in module.walk() if op.name == "linalg.generic"]
    flops = generic.flops()
    assert flops == 8 * 6 * 2
    build_pipeline(["convert-linalg-to-affine-loops"]).run(module)
    lowered = CostModel(AMD_2920X).cost_function(module.lookup("f")).flops
    dynamic = _dynamic_flops(module, "f", [(8, 6)] * 3)
    assert flops == lowered == dynamic


def test_raised_module_flops_match_loop_flops():
    """Raising must not change the flop count the model reports for the
    core computation (fills/copies excluded: TTGT adds data movement,
    not arithmetic)."""
    spec = get_kernel("gemm")
    loops = compile_c(spec.small())
    raised = compile_c(spec.small())
    raise_affine_to_linalg(raised)
    model = CostModel(AMD_2920X)
    flops_loops = model.cost_function(loops.functions[0]).flops
    flops_raised = model.cost_function(raised.functions[0]).flops
    assert flops_loops == flops_raised


def test_interpreter_op_counts_histogram():
    module = compile_c(get_kernel("gemm").small())
    spec = get_kernel("gemm")
    interp = Interpreter(module, count_ops=True)
    func = module.lookup(spec.func_name)
    shapes = [tuple(a.type.shape) for a in func.arguments]
    args = random_arrays(0, *shapes)
    interp.run(spec.func_name, *args)
    m, n, k = 10, 11, 12
    assert interp.op_counts["std.mulf"] == m * n * k
    assert interp.op_counts["std.addf"] == m * n * k
    assert interp.op_counts["affine.store"] == m * n * k + m * n  # + init
