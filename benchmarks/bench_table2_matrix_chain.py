"""Table II: matrix-chain multiplication reordering at the Linalg level.

For each chain the harness runs the full flow — C source -> MET ->
raise-affine-to-linalg -> chain detection -> DP reordering — then
prices both versions with the machine model (AMD system, as in the
paper) and reports initial/optimal parenthesizations and speedups.

Paper rows:
  N=4  (((A1xA2)xA3)xA4)       -> (A1x(A2x(A3xA4)))        6.08x
  N=5  ((((A1xA2)xA3)xA4)xA5)  -> ((A1x(A2x(A3xA4)))xA5)   2.27x
  N=6  (((((A1xA2)xA3)xA4)xA5)xA6) -> (A1x((((A2xA3)xA4)xA5)xA6)) 3.67x
"""

from repro.evaluation.kernels import TABLE2_CHAINS, matrix_chain_source
from repro.execution import AMD_2920X, CostModel
from repro.met import compile_c
from repro.tactics import raise_affine_to_linalg, reorder_matrix_chains
from repro.tactics.chain import (
    find_matrix_chains,
    left_associative_tree,
    optimal_parenthesization,
    parenthesization_str,
)

from .harness import format_table, report, report_json

PAPER_SPEEDUPS = {4: 6.08, 5: 2.27, 6: 3.67}
PAPER_TIMES = {4: (1.289, 0.212), 5: (5.850, 2.567), 6: (28.490, 7.762)}


def run_chain(dims):
    src = matrix_chain_source(dims)
    model = CostModel(AMD_2920X)

    initial = compile_c(src)
    raise_affine_to_linalg(initial)
    chains = find_matrix_chains(initial.functions[0])
    assert len(chains) == 1 and chains[0].dims == list(dims)
    time_ip = model.cost_function(initial.functions[0]).seconds

    optimized = compile_c(src)
    raise_affine_to_linalg(optimized)
    assert reorder_matrix_chains(optimized) == 1
    time_op = model.cost_function(optimized.functions[0]).seconds
    return time_ip, time_op


def collect():
    rows = []
    for dims, ip_str, op_str in TABLE2_CHAINS:
        n = len(dims) - 1
        cost_op, tree = optimal_parenthesization(dims)
        assert parenthesization_str(tree) == op_str
        assert parenthesization_str(left_associative_tree(n)) == ip_str
        time_ip, time_op = run_chain(dims)
        paper_ip, paper_op = PAPER_TIMES[n]
        rows.append(
            (
                n,
                ip_str,
                op_str,
                time_ip,
                time_op,
                time_ip / time_op,
                PAPER_SPEEDUPS[n],
            )
        )
    return rows


def test_table2_matrix_chain(benchmark):
    rows = benchmark.pedantic(collect, rounds=1, iterations=1)
    report(
        "table2_matrix_chain",
        format_table(
            "Table II — matrix-chain reordering (AMD 2920X model)",
            [
                "N",
                "initial (IP)",
                "optimal (OP)",
                "time IP [s]",
                "time OP [s]",
                "speedup",
                "paper",
            ],
            rows,
        ),
    )
    for row in rows:
        assert row[5] > 1.2  # every chain must get faster


# ----------------------------------------------------------------------
# Measured wall-clock: initial vs reordered chains on the compiled engine
# ----------------------------------------------------------------------


def _measured_chain(dims, repeats: int = 3):
    """Wall-clock of the raised chain before/after DP reordering, each
    the best of ``repeats`` compiled runs (the kernel cache makes the
    retries nearly free).  The two chains run alternately, so load that
    arrives mid-measurement slows both sides, not one."""
    import time

    from repro.execution import ExecutionEngine
    from repro.fuzzing.oracle import make_args, module_arg_shapes

    src = matrix_chain_source(dims)
    initial = compile_c(src)
    raise_affine_to_linalg(initial)
    optimized = compile_c(src)
    raise_affine_to_linalg(optimized)
    assert reorder_matrix_chains(optimized) == 1
    runs = [
        (
            ExecutionEngine(module, pipeline=pipeline),
            module_arg_shapes(module, "chain"),
        )
        for module, pipeline in (
            (initial, "table2-initial"),
            (optimized, "table2-reordered"),
        )
    ]
    walls = [[], []]
    for _ in range(repeats):
        for (engine, shapes), times in zip(runs, walls):
            args = make_args(shapes, 0)
            start = time.perf_counter()
            engine.run("chain", *args)
            times.append(time.perf_counter() - start)
    return min(walls[0]), min(walls[1])


def collect_measured():
    rows = []
    for dims, _, _ in TABLE2_CHAINS:
        n = len(dims) - 1
        time_ip, time_op = _measured_chain(dims)
        rows.append(
            {
                "benchmark": "table2",
                "kernel": f"chain-n{n}",
                "pipeline": "mlt-linalg",
                "engine": "compiled",
                "wall_time_s": time_op,
                "checksum": None,
                "wall_time_initial_s": time_ip,
            }
        )
    return rows


def test_table2_measured_wallclock(benchmark):
    rows = benchmark.pedantic(collect_measured, rounds=1, iterations=1)
    report_json("BENCH_table2", {"rows": rows})
    report(
        "table2_measured",
        format_table(
            "Table II (measured) — compiled wall-clock, initial vs "
            "reordered chain",
            ["chain", "initial [s]", "reordered [s]", "speedup"],
            [
                (
                    r["kernel"],
                    f"{r['wall_time_initial_s']:.4f}",
                    f"{r['wall_time_s']:.4f}",
                    f"{r['wall_time_initial_s'] / r['wall_time_s']:.2f}x",
                )
                for r in rows
            ],
        ),
    )
    # The DP reordering cuts multiply volume 3-6x on the paper's
    # chains; measured times are noisier than modeled ones, so only
    # require the reordered chain not be slower.
    for r in rows:
        assert r["wall_time_s"] <= r["wall_time_initial_s"] * 1.1, r["kernel"]
