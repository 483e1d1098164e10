"""A reference interpreter for the whole dialect stack.

Executes modules at any abstraction level — linalg/blas ops run as
numpy primitives, affine/scf loops run natively, and even the lowered
LLVM CFG form executes (branch-by-branch with block arguments).  Its
purpose is *semantic validation*: raising and lowering passes must
preserve observable behaviour, which the integration tests check by
running the same inputs through the IR before and after each transform.
"""

from __future__ import annotations

from itertools import combinations
from typing import (
    Any,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from ..analysis.contraction import generic_contraction_spec
from ..dialects import llvm as llvm_d
from ..dialects import std
from ..dialects.affine import (
    AffineApplyOp,
    AffineForOp,
    AffineLoadOp,
    AffineStoreOp,
)
from ..ir import (
    Block,
    FuncOp,
    IRError,
    MemRefType,
    ModuleOp,
    Operation,
    Value,
    is_float,
)
from ..ir.types import F64Type, IndexType, IntegerType


class InterpreterError(IRError):
    pass


def _np_dtype(elem_type) -> np.dtype:
    if isinstance(elem_type, F64Type):
        return np.dtype(np.float64)
    if isinstance(elem_type, IndexType) or isinstance(elem_type, IntegerType):
        return np.dtype(np.int64)
    return np.dtype(np.float32)


def memref_argument_fault(
    memref_type: MemRefType, actual: Any
) -> Optional[str]:
    """Why ``actual`` cannot be passed for a ``memref_type`` argument,
    or ``None``.  ``memref<AxBxf32>`` *means* A*B row-major contiguous
    elements: lowered code addresses it as ``mem.reshape(-1)[i]``,
    which reads and writes a copy of anything laid out differently —
    a silently wrong result, so both backends refuse it up front."""
    if not isinstance(actual, np.ndarray):
        return f"expected ndarray for {memref_type}, got {type(actual).__name__}"
    declared = memref_type.shape
    if actual.shape != declared and (
        len(declared) != actual.ndim
        or any(
            want >= 0 and want != got
            for want, got in zip(declared, actual.shape)
        )
    ):
        return f"expected shape {declared} for {memref_type}, got {actual.shape}"
    if not actual.flags.c_contiguous:
        return (
            f"expected a C-contiguous array for {memref_type}, got strides "
            f"{actual.strides} (pass np.ascontiguousarray(...))"
        )
    return None


def overlapping_arguments(
    pairs: Iterable[Tuple[int, int]], args: Sequence[Any]
) -> Optional[str]:
    """``arguments I and J overlap`` for the first ``(I, J)`` of
    ``pairs`` (memref argument positions) whose arrays share memory, or
    ``None``.  Distinct memref arguments must not overlap: the
    vectorizer, the buffer plan and raising to BLAS all assume it, so
    an aliased call would silently compute something else under each
    backend.  The arrays have passed :func:`memref_argument_fault`, so
    they are C-contiguous and the bounds test of
    ``np.may_share_memory`` is exact."""
    for first, second in pairs:
        a, b = args[first], args[second]
        # Two arrays that each own their buffer are disjoint: that test
        # costs a quarter of the bounds test, and it is the common case.
        if (
            a is b or not (a.flags.owndata and b.flags.owndata)
        ) and np.may_share_memory(a, b):
            return f"arguments {first} and {second} overlap"
    return None


class _Env:
    """SSA value bindings for one function activation."""

    def __init__(self):
        self.bindings: Dict[int, Any] = {}

    def set(self, value: Value, concrete: Any) -> None:
        self.bindings[id(value)] = concrete

    def get(self, value: Value) -> Any:
        try:
            return self.bindings[id(value)]
        except KeyError:
            raise InterpreterError(f"unbound SSA value {value!r}")


class Interpreter:
    """Executes functions of a module against numpy arrays."""

    #: Library symbols the lowered llvm.call form may invoke, each
    #: called with the operands and the call's ``parameters``.
    LIBRARY_CALLS = {
        "cblas_sgemm": lambda args, params: _sgemm(
            *args, params.get("alpha", 1.0), params.get("beta", 1.0)
        ),
        "cblas_sgemv": lambda args, params: _sgemv(
            args[0].T if params.get("trans") else args[0], args[1], args[2]
        ),
        "mkl_somatcopy": lambda args, params: _transpose(
            *args, params["permutation"]
        ),
        "mlt_reshape_view": lambda args, params: _reshape(*args),
        "mkldnn_convolution_forward": lambda args, params: _conv2d(*args),
    }

    def __init__(
        self,
        module: ModuleOp,
        max_steps: int = 50_000_000,
        count_ops: bool = False,
    ):
        self.module = module
        self.max_steps = max_steps
        self._steps = 0
        #: dynamic op-execution histogram (enable with count_ops=True);
        #: used to cross-check the cost model's flop accounting
        self.count_ops = count_ops
        self.op_counts: Dict[str, int] = {}

    # ------------------------------------------------------------------

    def run(self, func_name: str, *args) -> List[Any]:
        func = self.module.lookup(func_name)
        if func is None:
            raise InterpreterError(f"no function @{func_name}")
        return self.call_function(func, list(args), entry=True)

    def call_function(
        self, func: FuncOp, args: Sequence[Any], entry: bool = False
    ) -> List[Any]:
        """Run ``func`` on ``args``.  Only the ``entry`` call (the one
        :meth:`run` makes) is refused for overlapping memref arguments,
        as ``ExecutionEngine.run`` refuses only the call it is handed:
        an IR-level ``func.call`` may pass one buffer twice."""
        if len(args) != len(func.arguments):
            raise InterpreterError(
                f"@{func.sym_name} expects {len(func.arguments)} args, "
                f"got {len(args)}"
            )
        env = _Env()
        memrefs = []
        for pos, (formal, actual) in enumerate(zip(func.arguments, args)):
            if isinstance(formal.type, MemRefType):
                fault = memref_argument_fault(formal.type, actual)
                if fault is not None:
                    raise InterpreterError(
                        f"@{func.sym_name}: argument {pos}: {fault}"
                    )
                memrefs.append(pos)
            env.set(formal, actual)
        if entry:
            fault = overlapping_arguments(combinations(memrefs, 2), args)
            if fault is not None:
                raise InterpreterError(f"@{func.sym_name}: {fault}")
        region = func.regions[0]
        if len(region.blocks) == 1:
            result = self._run_block_sequential(region.entry_block, env)
        else:
            result = self._run_cfg(region, env)
        return result if result is not None else []

    # -- structured execution ----------------------------------------------

    def _tick(self) -> None:
        self._steps += 1
        if self._steps > self.max_steps:
            raise InterpreterError(
                f"exceeded interpreter step budget ({self.max_steps}); "
                "use the cost model for large problem sizes"
            )

    def _run_block_sequential(self, block: Block, env: _Env) -> Optional[List]:
        for op in block.operations:
            result = self.execute_op(op, env)
            if result is not None:  # func.return payload
                return result
        return None

    def _run_cfg(self, region, env: _Env) -> Optional[List]:
        block = region.entry_block
        while True:
            for op in block.operations:
                self._tick()
                if isinstance(op, llvm_d.BrOp):
                    for formal, actual in zip(
                        op.dest.arguments,
                        [env.get(v) for v in op.operands],
                    ):
                        env.set(formal, actual)
                    block = op.dest
                    break
                if isinstance(op, llvm_d.CondBrOp):
                    cond = env.get(op.condition)
                    block = op.true_dest if cond else op.false_dest
                    break
                result = self.execute_op(op, env)
                if result is not None:
                    return result
            else:
                raise InterpreterError("block fell through without terminator")

    # -- op dispatch --------------------------------------------------------

    def execute_op(self, op: Operation, env: _Env) -> Optional[List]:
        self._tick()
        if self.count_ops:
            self.op_counts[op.name] = self.op_counts.get(op.name, 0) + 1
        # Handler lookup memoized on the op instance: a loop body op is
        # dispatched once per iteration, so the dict probe on the hot
        # path collapses to an attribute read.  Keyed per instance (not
        # per class) because unregistered op names share the base
        # Operation class.
        handler = op._interp_handler
        if handler is None:
            handler = _HANDLERS.get(op.name)
            if handler is None:
                raise InterpreterError(f"interpreter: unhandled op {op.name}")
            op._interp_handler = handler
        return handler(self, op, env)

    def scalar_flops(self) -> int:
        """Scalar float operations executed (requires count_ops)."""
        return sum(
            count
            for name, count in self.op_counts.items()
            if name
            in (
                "std.addf",
                "std.subf",
                "std.mulf",
                "std.divf",
                "std.maxf",
                "std.negf",
            )
        )


# ----------------------------------------------------------------------
# Handlers
# ----------------------------------------------------------------------


def _handle_return(interp, op, env) -> List:
    return [env.get(v) for v in op.operands]


def _handle_constant(interp, op, env) -> None:
    value = op.value
    ty = op.results[0].type
    env.set(op.results[0], float(value) if is_float(ty) else int(value))


def _make_binary_handler(func):
    def handler(interp, op, env) -> None:
        lhs = env.get(op.operand(0))
        rhs = env.get(op.operand(1))
        result = func(lhs, rhs)
        ty = op.results[0].type
        if is_float(ty):
            # model single-precision rounding for f32 results
            if str(ty) == "f32":
                result = float(np.float32(result))
            env.set(op.results[0], float(result))
        else:
            env.set(op.results[0], int(result))

    return handler


def _handle_cmpi(interp, op, env) -> None:
    pred = std.CmpIOp.PREDICATES[op.predicate]
    env.set(op.results[0], bool(pred(env.get(op.operand(0)), env.get(op.operand(1)))))


def _handle_cmpf(interp, op, env) -> None:
    pred = std.CmpFOp.PREDICATES[op.predicate]
    env.set(op.results[0], bool(pred(env.get(op.operand(0)), env.get(op.operand(1)))))


def _handle_negf(interp, op, env) -> None:
    result = -env.get(op.operand(0))
    if str(op.results[0].type) == "f32":
        result = float(np.float32(result))
    env.set(op.results[0], float(result))


def _handle_alloc(interp, op, env) -> None:
    ty = op.results[0].type
    shape = ty.shape
    if any(d < 0 for d in shape):
        raise InterpreterError("cannot allocate dynamic memref")
    env.set(op.results[0], np.zeros(shape, dtype=_np_dtype(ty.element_type)))


def _handle_dealloc(interp, op, env) -> None:
    pass


def _eval_bound(map_, operand_values, minimize: bool) -> int:
    results = map_.evaluate(operand_values)
    return min(results) if minimize else max(results)


def _handle_affine_for(interp, op: AffineForOp, env) -> None:
    lb_vals = [env.get(v) for v in op.lb_operands]
    ub_vals = [env.get(v) for v in op.ub_operands]
    lb = _eval_bound(op.lower_bound_map, lb_vals, minimize=False)
    ub = _eval_bound(op.upper_bound_map, ub_vals, minimize=True)
    iv = op.induction_var
    body_ops = op.ops_in_body()
    for i in range(lb, ub, op.step):
        env.set(iv, i)
        for body_op in body_ops:
            interp.execute_op(body_op, env)


def _handle_affine_load(interp, op: AffineLoadOp, env) -> None:
    array = env.get(op.memref)
    dims = [env.get(v) for v in op.indices]
    idx = tuple(op.map.evaluate(dims))
    env.set(op.results[0], array[idx].item() if array.ndim else array.item())


def _handle_affine_store(interp, op: AffineStoreOp, env) -> None:
    array = env.get(op.memref)
    dims = [env.get(v) for v in op.indices]
    idx = tuple(op.map.evaluate(dims))
    array[idx] = env.get(op.value)


def _handle_affine_apply(interp, op: AffineApplyOp, env) -> None:
    dims = [env.get(v) for v in op.operands]
    env.set(op.results[0], op.map.evaluate(dims)[0])


def _handle_scf_for(interp, op, env) -> None:
    lb = env.get(op.lower_bound)
    ub = env.get(op.upper_bound)
    step = env.get(op.step)
    body_ops = op.ops_in_body()
    iv = op.induction_var
    for i in range(lb, ub, step):
        env.set(iv, i)
        for body_op in body_ops:
            interp.execute_op(body_op, env)


def _handle_scf_if(interp, op, env) -> None:
    cond = env.get(op.condition)
    if cond:
        for body_op in op.then_block.ops_without_terminator():
            interp.execute_op(body_op, env)
    elif len(op.regions) > 1:
        for body_op in op.else_block.ops_without_terminator():
            interp.execute_op(body_op, env)


def _handle_std_load(interp, op, env) -> None:
    array = env.get(op.memref)
    idx = tuple(env.get(v) for v in op.indices)
    env.set(op.results[0], array[idx].item())


def _handle_std_store(interp, op, env) -> None:
    array = env.get(op.memref)
    idx = tuple(env.get(v) for v in op.indices)
    array[idx] = env.get(op.value)


def _handle_llvm_load(interp, op, env) -> None:
    array = env.get(op.memref)
    env.set(op.results[0], array.reshape(-1)[env.get(op.index)].item())


def _handle_llvm_store(interp, op, env) -> None:
    array = env.get(op.memref)
    array.reshape(-1)[env.get(op.index)] = env.get(op.value)


def _handle_func_call(interp, op, env) -> None:
    callee = interp.module.lookup(op.callee)
    if callee is None:
        raise InterpreterError(f"call to unknown function @{op.callee}")
    results = interp.call_function(callee, [env.get(v) for v in op.operands])
    for res, val in zip(op.results, results):
        env.set(res, val)


def _handle_llvm_call(interp, op, env) -> None:
    handler = Interpreter.LIBRARY_CALLS.get(op.callee)
    if handler is None:
        raise InterpreterError(f"unknown library symbol @{op.callee}")
    handler([env.get(v) for v in op.operands], op.parameters)


# -- linear algebra ops -------------------------------------------------


def _sgemm(a, b, c, alpha=1.0, beta=1.0) -> None:
    c *= np.asarray(beta, dtype=c.dtype)
    c += np.asarray(alpha, dtype=c.dtype) * (a @ b).astype(c.dtype)


def _sgemv(a, x, y) -> None:
    y += (a @ x).astype(y.dtype)


def _handle_matmul(interp, op, env) -> None:
    a, b, c = (env.get(v) for v in op.operands)
    _sgemm(a, b, c)


def _handle_blas_sgemm(interp, op, env) -> None:
    a, b, c = (env.get(v) for v in op.operands)
    _sgemm(a, b, c, op.alpha, op.beta)


def _handle_matvec(interp, op, env) -> None:
    a, x, y = (env.get(v) for v in op.operands)
    if getattr(op, "trans", False):
        a = a.T
    _sgemv(a, x, y)


def _transpose(src, dst, permutation) -> None:
    dst[...] = np.transpose(src, permutation)


def _reshape(src, dst) -> None:
    dst[...] = np.ascontiguousarray(src).reshape(dst.shape)


def _handle_transpose(interp, op, env) -> None:
    _transpose(env.get(op.input), env.get(op.output), op.permutation)


def _handle_reshape(interp, op, env) -> None:
    _reshape(env.get(op.input), env.get(op.output))


def _handle_fill(interp, op, env) -> None:
    env.get(op.output)[...] = env.get(op.fill_value)


def _handle_copy(interp, op, env) -> None:
    env.get(op.output)[...] = env.get(op.input)


def _handle_conv2d(interp, op, env) -> None:
    _conv2d(env.get(op.input), env.get(op.kernel), env.get(op.output))


def _conv2d(src, kernel, out) -> None:
    _, _, kh, kw = kernel.shape
    n, f, oh, ow = out.shape
    for dy in range(kh):
        for dx in range(kw):
            # out[n,f,y,x] += sum_c in[n,c,y+dy,x+dx] * k[f,c,dy,dx]
            patch = src[:, :, dy:dy + oh, dx:dx + ow]
            out += np.einsum(
                "nchw,fc->nfhw", patch, kernel[:, :, dy, dx]
            ).astype(out.dtype)


def _handle_generic(interp, op, env) -> None:
    """A generic the contraction reader recognises runs as one
    ``np.einsum``; every other generic as scalar loops over its body."""
    contraction = generic_contraction_spec(op)
    if contraction is None:
        _generic_loops(interp, op, env)
        return
    a, b, out = (env.get(v) for v in op.operands)
    value = np.einsum(contraction.spec, a, b).astype(out.dtype)
    at = (0,) * out.ndim if contraction.scalar_out else Ellipsis
    if contraction.subtract:
        out[at] -= value
    else:
        out[at] += value


def _generic_loops(interp, op, env) -> None:
    extents = op.iteration_domain()
    maps = op.indexing_maps
    operands = [env.get(v) for v in op.operands]
    body_ops = op.body.ops_without_terminator()
    term = op.body.terminator
    indices = [0] * len(extents)

    def loop(level: int) -> None:
        if level == len(extents):
            local = _Env()
            for arg, array, map_ in zip(op.body.arguments, operands, maps):
                idx = tuple(map_.evaluate(indices))
                local.set(arg, array[idx].item())
            for body_op in body_ops:
                interp.execute_op(body_op, local)
            for out_pos, yielded in enumerate(term.operands):
                out_map = maps[op.num_inputs + out_pos]
                idx = tuple(out_map.evaluate(indices))
                operands[op.num_inputs + out_pos][idx] = local.get(yielded)
            return
        for i in range(extents[level]):
            indices[level] = i
            loop(level + 1)

    loop(0)


def _noop(interp, op, env) -> None:
    pass


def _handle_unreachable(interp, op, env) -> None:
    raise InterpreterError(
        "executed llvm.unreachable: control flow reached a point the "
        "lowering marked as impossible (miscompiled CFG)"
    )


def _handle_cfg_terminator(interp, op, env) -> None:
    # llvm.br / llvm.cond_br are interpreted by the CFG driver; hitting
    # them through plain dispatch means a branch escaped a single-block
    # region, which is malformed IR rather than an unhandled op.
    raise InterpreterError(
        f"{op.name} outside a multi-block CFG region (malformed IR)"
    )


_HANDLERS = {
    "func.return": _handle_return,
    "func.call": _handle_func_call,
    "llvm.call": _handle_llvm_call,
    "std.constant": _handle_constant,
    **{
        cls.OP_NAME: _make_binary_handler(cls.PYTHON_FUNC)
        for cls in (
            std.AddFOp, std.SubFOp, std.MulFOp, std.DivFOp, std.MaxFOp,
            std.AddIOp, std.SubIOp, std.MulIOp, std.DivIOp, std.RemIOp,
        )
    },
    "std.negf": _handle_negf,
    "std.cmpf": _handle_cmpf,
    "std.cmpi": _handle_cmpi,
    "std.select": lambda i, op, env: env.set(
        op.results[0],
        env.get(op.operand(1)) if env.get(op.operand(0)) else env.get(op.operand(2)),
    ),
    "std.index_cast": lambda i, op, env: env.set(
        op.results[0], int(env.get(op.operand(0)))
    ),
    "std.alloc": _handle_alloc,
    "std.dealloc": _handle_dealloc,
    "std.load": _handle_std_load,
    "std.store": _handle_std_store,
    "affine.for": _handle_affine_for,
    "affine.load": _handle_affine_load,
    "affine.store": _handle_affine_store,
    "affine.apply": _handle_affine_apply,
    "affine.yield": _noop,
    "affine.matmul": _handle_matmul,
    "scf.for": _handle_scf_for,
    "scf.if": _handle_scf_if,
    "scf.yield": _noop,
    "llvm.load": _handle_llvm_load,
    "llvm.store": _handle_llvm_store,
    "llvm.br": _handle_cfg_terminator,
    "llvm.cond_br": _handle_cfg_terminator,
    "llvm.unreachable": _handle_unreachable,
    "linalg.yield": _noop,
    "linalg.matmul": _handle_matmul,
    "linalg.matvec": _handle_matvec,
    "linalg.transpose": _handle_transpose,
    "linalg.reshape": _handle_reshape,
    "linalg.conv2d_nchw": _handle_conv2d,
    "linalg.fill": _handle_fill,
    "linalg.copy": _handle_copy,
    "linalg.generic": _handle_generic,
    "blas.sgemm": _handle_blas_sgemm,
    "blas.sgemv": _handle_matvec,
    "blas.transpose": _handle_transpose,
    "blas.reshape": _handle_reshape,
    "blas.conv2d": _handle_conv2d,
}


def _handle_transform_op(interp, op, env) -> None:
    # Schedule IR scripts transformations over payload modules; it has
    # no runtime semantics of its own.
    raise InterpreterError(
        f"{op.name} is schedule IR, not payload: apply it with "
        "repro.scheduling.apply_schedule instead of executing it"
    )


_HANDLERS.update(
    {
        f"transform.{suffix}": _handle_transform_op
        for suffix in (
            "sequence",
            "yield",
            "match",
            "fuse",
            "copy_elim",
            "dead_loops",
            "canonicalize",
            "distribute",
            "tile",
            "unroll_jam",
            "vectorize",
            "raise",
        )
    }
)


def run_function(module: ModuleOp, func_name: str, *args) -> List[Any]:
    """One-shot convenience wrapper."""
    return Interpreter(module).run(func_name, *args)
