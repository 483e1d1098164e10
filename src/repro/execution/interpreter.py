"""A reference interpreter for the whole dialect stack.

Executes modules at any abstraction level — linalg/blas ops run as
numpy primitives, affine/scf loops run natively, and even the lowered
LLVM CFG form executes (block by block, with block arguments).  Its
purpose is *semantic validation*: raising and lowering passes must
preserve observable behaviour, which the integration tests check by
running the same inputs through the IR before and after each transform.

Execution is planned, then run.  :meth:`Interpreter.run` plans the
entry function, and each callee the first time it is called in that
run: every SSA value gets an integer slot in a per-activation register
list, and every op becomes one closure over its slots and the facts
that do not change between executions (f32 rounding, the comparison
predicate, compiled affine maps, the library routine).  A structured
region becomes a tuple of closures; a CFG region becomes one
``(closures, terminator)`` per block.  A plan lives for one ``run``
call and nothing is stored on the IR, so a module mutated between runs
is simply planned again.
"""

from __future__ import annotations

import operator
import struct
from itertools import combinations, product
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from ..analysis.contraction import generic_contraction_spec
from ..dialects import std
from ..dialects.llvm import BrOp, CondBrOp
from ..ir import (
    OP_REGISTRY,
    FuncOp,
    IRError,
    MemRefType,
    ModuleOp,
    Operation,
    Value,
    is_float,
)
from ..ir.affine_expr import AffineExprKind
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


class Interpreter:
    """Executes functions of a module against numpy arrays.

    ``_steps`` counts executed ops across runs: one per op, and two per
    non-branch op of a multi-block (CFG) region, whose branches count
    one.  A run that would take it past ``max_steps`` raises."""

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
        plans: Dict[int, _FunctionPlan] = {}
        try:
            return self._call(plans, func, list(args), entry=True)
        finally:
            # Call closures hold ``plans``; emptying it breaks that cycle,
            # so the plan is freed now rather than by the cyclic GC.
            plans.clear()

    def _call(
        self,
        plans: Dict[int, "_FunctionPlan"],
        func: FuncOp,
        args: Sequence[Any],
        entry: bool = False,
    ) -> List[Any]:
        """Run ``func`` on ``args`` under this run's ``plans``.  Only the
        ``entry`` call (the one :meth:`run` makes) is refused for
        overlapping memref arguments, as ``ExecutionEngine.run`` refuses
        only the call it is handed: an IR-level ``func.call`` may pass
        one buffer twice."""
        if len(args) != len(func.arguments):
            raise InterpreterError(
                f"@{func.sym_name} expects {len(func.arguments)} args, "
                f"got {len(args)}"
            )
        memrefs = []
        for pos, (formal, actual) in enumerate(zip(func.arguments, args)):
            if isinstance(formal.type, MemRefType):
                fault = memref_argument_fault(formal.type, actual)
                if fault is not None:
                    raise InterpreterError(
                        f"@{func.sym_name}: argument {pos}: {fault}"
                    )
                memrefs.append(pos)
        if entry:
            fault = overlapping_arguments(combinations(memrefs, 2), args)
            if fault is not None:
                raise InterpreterError(f"@{func.sym_name}: {fault}")
        plan = plans.get(id(func))
        if plan is None:
            plan = plans[id(func)] = _Planner(self, plans).function(func)
        regs = [_UNBOUND] * plan.num_slots
        for slot, actual in zip(plan.arg_slots, args):
            regs[slot] = actual
        result = plan.body(regs)
        return result if result is not None else []

    def _charge(self, steps: int) -> None:
        self._steps += steps
        if self._steps > self.max_steps:
            raise InterpreterError(
                f"exceeded interpreter step budget ({self.max_steps}); "
                "use the cost model for large problem sizes"
            )

    def scalar_flops(self) -> int:
        """Scalar float operations executed (requires count_ops): each
        op's declared ``FLOPS`` times its count."""
        return sum(
            count * OP_REGISTRY.get(name, Operation).FLOPS
            for name, count in self.op_counts.items()
        )


# ----------------------------------------------------------------------
# Plans
# ----------------------------------------------------------------------


#: A register's content before its value is defined in the activation.
_UNBOUND = object()

#: ``closure(regs)``: one planned op.  A CFG terminator's closure
#: returns the next block's index, or the function's results.
Closure = Callable[[List[Any]], Any]


class _FunctionPlan:
    __slots__ = ("num_slots", "arg_slots", "body")

    def __init__(self, num_slots: int, arg_slots: List[int], body: Closure):
        self.num_slots = num_slots
        self.arg_slots = arg_slots
        self.body = body


class _Block:
    """One CFG block: its step cost, its op closures, and its terminator,
    which returns the index of the next block or the function's results."""

    __slots__ = ("cost", "ops", "term")


class _Planner:
    """Plans the ops of one register file (a function, or the body of a
    ``linalg.generic``, which runs on a fresh one per iteration).

    A read of a value whose definition dominates it (earlier in its
    block or an enclosing block; a dominating CFG block) is a plain
    list index.  Any other read, possible only in malformed IR, is
    checked when its op runs and raises ``unbound SSA value``, as an
    unset binding always has."""

    def __init__(self, interp: Interpreter, plans: Dict[int, _FunctionPlan]):
        self.interp = interp
        self.plans = plans
        self.charge = interp._charge
        self.count_ops = interp.count_ops
        self.slots: Dict[int, int] = {}
        self.bound: set = set()
        self._defined: List[int] = []
        #: ``(slot, value)`` reads of the op being planned that need a
        #: check when it runs.
        self._reads: List[Tuple[int, Value]] = []

    # -- registers ---------------------------------------------------------

    def slot(self, value: Value) -> int:
        return self.slots.setdefault(id(value), len(self.slots))

    def read(self, value: Value) -> int:
        slot = self.slot(value)
        if id(value) not in self.bound:
            self._reads.append((slot, value))
        return slot

    def define(self, value: Value) -> int:
        self.bound.add(id(value))
        self._defined.append(id(value))
        return self.slot(value)

    def mark(self) -> int:
        return len(self._defined)

    def forget(self, mark: int) -> None:
        """Values defined since ``mark`` leave scope (their region ended)."""
        for key in self._defined[mark:]:
            self.bound.discard(key)
        del self._defined[mark:]

    # -- ops ---------------------------------------------------------------

    def op(
        self, op: Operation, planner=None, counted: bool = True
    ) -> Optional[Closure]:
        """One op's closure, or ``None`` for an op that does nothing
        when run (its step is still charged by the enclosing block)."""
        outer, self._reads = self._reads, []
        mark = self.mark()
        try:
            planner = planner or _PLANNERS.get(op.name)
            if planner is None:
                closure = _raiser(
                    InterpreterError, f"interpreter: unhandled op {op.name}"
                )
            else:
                closure = planner(self, op)
            reads = self._reads
        except Exception as exc:
            # Planning fails nowhere running would not: a malformed op
            # (a missing attribute, say) raises when it runs, and not at
            # all in an untaken branch.
            self.forget(mark)
            closure, reads = _reraiser(exc), []
        finally:
            self._reads = outer
        if reads:
            closure = _checked(closure, reads)
        if counted and self.count_ops:
            closure = _counted(closure, self.interp.op_counts, op.name)
        return closure

    def sequence(
        self, ops: Sequence[Operation]
    ) -> Tuple[Tuple[Closure, ...], int]:
        """A structured region's closures and its step cost per run."""
        closures = tuple(
            closure for closure in map(self.op, ops) if closure is not None
        )
        return closures, len(ops)

    def scoped(self, ops: Sequence[Operation], *args: Value):
        """:meth:`sequence` of a nested region whose block arguments
        ``args`` are bound on entry; its values leave scope after it."""
        mark = self.mark()
        for arg in args:
            self.define(arg)
        planned = self.sequence(ops)
        self.forget(mark)
        return planned

    # -- functions ---------------------------------------------------------

    def function(self, func: FuncOp) -> _FunctionPlan:
        arg_slots = [self.define(arg) for arg in func.arguments]
        region = func.regions[0]
        if len(region.blocks) == 1:
            body = self._straight(region.entry_block.operations)
        else:
            body = self._cfg(region.entry_block)
        return _FunctionPlan(len(self.slots), arg_slots, body)

    def _straight(self, ops: Sequence[Operation]) -> Closure:
        """A single-block function body: it returns at its first
        ``func.return``."""
        closures, ret = [], None
        for cost, op in enumerate(ops, 1):
            if op.name == "func.return":
                ret = self.op(op, _plan_results)
                break
            closure = self.op(op)
            if closure is not None:
                closures.append(closure)
        else:
            cost = len(ops)
        closures, charge = tuple(closures), self.charge

        def body(regs):
            charge(cost)
            for closure in closures:
                closure(regs)
            return ret(regs) if ret is not None else None

        return body

    def _cfg(self, entry) -> Closure:
        blocks, exits = _reachable(entry)
        preds: Dict[int, list] = {id(block): [] for block in blocks}
        for block in blocks:
            term = exits[id(block)][1]
            for succ in term.successors if term is not None else ():
                preds[id(succ)].append((block, term))
        # Dominator sets; reverse postorder plans every block after all
        # of its dominators, whose values are then bound in it.
        dom = {id(entry): {id(entry)}}
        changed = True
        while changed:
            changed = False
            for block in blocks[1:]:
                new = set.intersection(
                    *[dom[id(p)] for p, _ in preds[id(block)] if id(p) in dom]
                ) | {id(block)}
                if dom.get(id(block)) != new:
                    dom[id(block)], changed = new, True
        plans = [_Block() for _ in blocks]
        index = {id(block): pos for pos, block in enumerate(blocks)}
        defined: Dict[int, List[int]] = {}
        args, mark = self.bound, self.mark()
        for block, plan in zip(blocks, plans):
            self.bound = args.union(
                *[defined[key] for key in dom[id(block)] if key != id(block)]
            )
            self._plan_block(
                block, plan, index, exits[id(block)], preds[id(block)]
            )
            defined[id(block)] = self._defined[mark:]
            del self._defined[mark:]
        self.bound = args
        charge = self.charge

        def run_cfg(regs):
            block = plans[0]  # the entry: reverse postorder starts there
            while True:
                charge(block.cost)
                for closure in block.ops:
                    closure(regs)
                successor = block.term(regs)
                if successor.__class__ is not int:
                    return successor
                block = plans[successor]

        return run_cfg

    def _plan_block(self, block, plan, index, exit_, preds) -> None:
        ops, term = exit_
        for pos, arg in enumerate(block.arguments):
            # The entry block's arguments are the function's (bound at
            # the call); any other block argument is bound on entry iff
            # every edge into the block sets it.
            if id(arg) in self.bound or (
                preds
                and all(
                    isinstance(t, BrOp) and t.num_operands > pos
                    for _, t in preds
                )
            ):
                self.define(arg)
            else:
                self.slot(arg)
        plan.ops = tuple(
            closure for closure in map(self.op, ops) if closure is not None
        )
        plan.cost = 2 * len(ops)
        if term is None:
            plan.term = _raiser(
                InterpreterError, "block fell through without terminator"
            )
        elif term.name == "func.return":
            plan.cost += 2
            plan.term = self.op(term, _plan_results)
        else:
            plan.cost += 1
            plan.term = self.op(
                term,
                lambda p, op: _plan_branch(p, op, index),
                counted=False,
            )

    # -- affine maps -------------------------------------------------------

    def affine(self, map_, operands: Sequence[Value]):
        """``(slots, results)``: the operands' slots and
        :func:`_compile_map` over them."""
        slots = [self.read(v) for v in operands]
        return slots, _compile_map(map_, slots)


# -- CFG analysis ---------------------------------------------------------


def _exit(block):
    """``(ops, terminator)``: the ops a block runs before its first
    branch or return, and that op (``None`` when it falls through)."""
    ops = block.operations
    for pos, op in enumerate(ops):
        if isinstance(op, (BrOp, CondBrOp)) or op.name == "func.return":
            return ops[:pos], op
    return list(ops), None


def _reachable(entry):
    """Blocks reachable from ``entry`` in reverse postorder, and each
    one's :func:`_exit`."""
    exits = {id(entry): _exit(entry)}
    order, stack = [], [(entry, 0)]
    while stack:
        block, next_succ = stack.pop()
        term = exits[id(block)][1]
        succs = term.successors if term is not None else []
        if next_succ < len(succs):
            stack.append((block, next_succ + 1))
            succ = succs[next_succ]
            if id(succ) not in exits:
                exits[id(succ)] = _exit(succ)
                stack.append((succ, 0))
        else:
            order.append(block)
    order.reverse()
    return order, exits


# -- closure combinators ----------------------------------------------------


def _raiser(kind, message: str) -> Closure:
    def closure(regs):
        raise kind(message)

    return closure


def _reraiser(exc: Exception) -> Closure:
    exc = exc.with_traceback(None)

    def closure(regs):
        raise exc

    return closure


def _checked(closure: Optional[Closure], reads) -> Closure:
    def checked(regs):
        for slot, value in reads:
            if regs[slot] is _UNBOUND:
                raise InterpreterError(f"unbound SSA value {value!r}")
        if closure is not None:
            return closure(regs)

    return checked


def _counted(
    closure: Optional[Closure], counts: Dict[str, int], name: str
) -> Closure:
    def counted(regs):
        counts[name] = counts.get(name, 0) + 1
        if closure is not None:
            return closure(regs)

    return counted


# -- affine maps ------------------------------------------------------------


class _Uncompiled(Exception):
    pass


def _compile_map(map_, slots):
    """Each result of ``map_`` over the dims in ``slots``, compiled by
    :func:`_affine_expr`; ``None`` when only ``map_.evaluate``
    reproduces the map's behaviour (a symbol, an arity mismatch)."""
    if map_.num_dims != len(slots) or map_.num_symbols:
        return None
    try:
        return [_affine_expr(e, slots) for e in map_.results]
    except _Uncompiled:
        return None


def _affine_expr(expr, slots):
    """``fn(regs)`` computing what ``expr.evaluate`` computes over the
    operand ``slots``, or an int when ``expr`` is constant."""
    kind = expr.kind
    if kind is AffineExprKind.CONSTANT:
        return expr.value
    if kind is AffineExprKind.DIM:
        if expr.position >= len(slots):
            raise _Uncompiled()
        return operator.itemgetter(slots[expr.position])
    if kind is AffineExprKind.SYMBOL:
        raise _Uncompiled()
    left = _affine_expr(expr.lhs, slots)
    right = _affine_expr(expr.rhs, slots)
    if isinstance(left, int) and isinstance(right, int):
        try:
            return expr.evaluate(())
        except ZeroDivisionError:
            pass
    left, right = _as_fn(left), _as_fn(right)
    if kind is AffineExprKind.ADD:
        return lambda r: left(r) + right(r)
    if kind is AffineExprKind.MUL:
        return lambda r: left(r) * right(r)
    name = kind.value

    def divide(r):
        value, divisor = left(r), right(r)
        if divisor <= 0:
            raise ZeroDivisionError(f"affine {name} by non-positive value")
        if kind is AffineExprKind.MOD:
            return value % divisor
        if kind is AffineExprKind.FLOORDIV:
            return value // divisor
        return -((-value) // divisor)

    return divide


def _as_fn(value) -> Closure:
    return (lambda r: value) if isinstance(value, int) else value


def _index_fn(map_, slots, results) -> Closure:
    """The map's results as one index: a tuple, or the bare slot value
    of a one-dimension map (numpy reads both alike)."""
    if results and all(e.kind is AffineExprKind.DIM for e in map_.results):
        return operator.itemgetter(*[slots[e.position] for e in map_.results])
    fns = [_as_fn(result) for result in results]
    return lambda r: tuple([f(r) for f in fns])


def _bound_fn(p: _Planner, map_, operands, pick):
    """An ``affine.for`` bound: ``pick`` (``max`` for the lower bound,
    ``min`` for the upper) of the map's results; an int when constant."""
    slots, results = p.affine(map_, operands)
    if results is None:
        return lambda r: pick(map_.evaluate([r[s] for s in slots]))
    if results and all(isinstance(result, int) for result in results):
        return pick(results)
    if len(results) == 1:
        return results[0]
    fns = [_as_fn(result) for result in results]
    return lambda r: pick([f(r) for f in fns])


# ----------------------------------------------------------------------
# Op planners: ``planner(p, op) -> closure | None``
# ----------------------------------------------------------------------


def _plan_results(p, op) -> Closure:
    """``func.return`` as the end of a function: its result list."""
    slots = [p.read(v) for v in op.operands]
    return lambda r: [r[s] for s in slots]


def _plan_nested_return(p, op) -> None:
    # A return nested in a loop body evaluates its operands and the
    # loop goes on: only a function's own block returns.
    for value in op.operands:
        p.read(value)


def _plan_branch(p, op, index) -> Closure:
    if op.name == "llvm.cond_br":
        cond = p.read(op.condition)
        on_true, on_false = index[id(op.true_dest)], index[id(op.false_dest)]
        return lambda r: on_true if r[cond] else on_false
    target = index[id(op.dest)]
    srcs = [p.read(v) for v in op.operands]
    moves = list(zip([p.slot(arg) for arg in op.dest.arguments], srcs))
    if not moves:
        return lambda r: target
    if len(moves) == 1:
        ((dst, src),) = moves

        def move_one(r):
            r[dst] = r[src]
            return target

        return move_one
    dsts = [dst for dst, _ in moves]
    srcs = [src for _, src in moves]

    def move(r):
        values = [r[s] for s in srcs]
        for dst, value in zip(dsts, values):
            r[dst] = value
        return target

    return move


def _plan_func_call(p, op) -> Closure:
    interp = p.interp
    callee = interp.module.lookup(op.callee)
    if callee is None:
        return _raiser(
            InterpreterError, f"call to unknown function @{op.callee}"
        )
    srcs = [p.read(v) for v in op.operands]
    # Results are left unbound when the callee returns fewer values.
    dsts = [p.slot(res) for res in op.results]
    plans = p.plans

    def call(r):
        results = interp._call(plans, callee, [r[s] for s in srcs])
        for dst, value in zip(dsts, results):
            r[dst] = value

    return call


def _plan_llvm_call(p, op) -> Closure:
    handler = Interpreter.LIBRARY_CALLS.get(op.callee)
    if handler is None:
        return _raiser(
            InterpreterError, f"unknown library symbol @{op.callee}"
        )
    srcs = [p.read(v) for v in op.operands]
    params = op.parameters
    return lambda r: handler([r[s] for s in srcs], params)


def _plan_constant(p, op) -> Closure:
    ty = op.results[0].type
    value = float(op.value) if is_float(ty) else int(op.value)
    out = p.define(op.results[0])

    def constant(r):
        r[out] = value

    return constant


_F32 = struct.Struct("f")


def _binary_planner(func):
    def plan(p, op) -> Closure:
        a, b = p.read(op.operand(0)), p.read(op.operand(1))
        ty = op.results[0].type
        out = p.define(op.results[0])
        if not is_float(ty):
            def integer(r):
                r[out] = int(func(r[a], r[b]))

            return integer
        if str(ty) != "f32":
            def double(r):
                r[out] = float(func(r[a], r[b]))

            return double
        pack, unpack = _F32.pack, _F32.unpack

        def single(r):
            # Single-precision rounding, as float(np.float32(x)): a
            # struct round trip is the same C cast at half the cost;
            # what it refuses (overflow to inf) takes numpy's path.
            x = func(r[a], r[b])
            try:
                r[out] = unpack(pack(x))[0]
            except (OverflowError, struct.error):
                r[out] = float(np.float32(x))

        return single

    return plan


def _plan_negf(p, op) -> Closure:
    a = p.read(op.operand(0))
    out = p.define(op.results[0])
    if str(op.results[0].type) == "f32":
        def negf(r):
            r[out] = float(np.float32(-r[a]))
    else:
        def negf(r):
            r[out] = float(-r[a])

    return negf


def _compare_planner(op_class):
    def plan(p, op) -> Closure:
        pred = op_class.PREDICATES[op.predicate]
        a, b = p.read(op.operand(0)), p.read(op.operand(1))
        out = p.define(op.results[0])

        def compare(r):
            r[out] = bool(pred(r[a], r[b]))

        return compare

    return plan


def _plan_select(p, op) -> Closure:
    cond, a, b = (p.read(op.operand(i)) for i in range(3))
    out = p.define(op.results[0])

    def select(r):
        r[out] = r[a] if r[cond] else r[b]

    return select


def _plan_index_cast(p, op) -> Closure:
    a = p.read(op.operand(0))
    out = p.define(op.results[0])

    def index_cast(r):
        r[out] = int(r[a])

    return index_cast


def _plan_alloc(p, op) -> Closure:
    ty = op.results[0].type
    shape = ty.shape
    if any(d < 0 for d in shape):
        return _raiser(InterpreterError, "cannot allocate dynamic memref")
    dtype = _np_dtype(ty.element_type)
    out = p.define(op.results[0])

    def alloc(r):
        r[out] = np.zeros(shape, dtype=dtype)

    return alloc


def _plan_nothing(p, op) -> None:
    return None


def _plan_affine_for(p, op) -> Closure:
    lb = _bound_fn(p, op.lower_bound_map, op.lb_operands, max)
    ub = _bound_fn(p, op.upper_bound_map, op.ub_operands, min)
    step = op.step
    iv = p.slot(op.induction_var)
    body, cost = p.scoped(op.ops_in_body(), op.induction_var)
    charge = p.charge
    if isinstance(lb, int) and isinstance(ub, int):
        trips = range(lb, ub, step)
        total = cost * len(trips)

        def affine_for(r):
            charge(total)
            for i in trips:
                r[iv] = i
                for closure in body:
                    closure(r)

        return affine_for
    lb, ub = _as_fn(lb), _as_fn(ub)

    def affine_for(r):
        trips = range(lb(r), ub(r), step)
        charge(cost * len(trips))
        for i in trips:
            r[iv] = i
            for closure in body:
                closure(r)

    return affine_for


def _plan_affine_load(p, op) -> Closure:
    mem = p.read(op.memref)
    map_ = op.map
    slots, results = p.affine(map_, op.indices)
    out = p.define(op.results[0])
    rank = op.memref.type.rank
    if results is None or not rank or len(results) != rank:
        def load(r):
            array = r[mem]
            idx = tuple(map_.evaluate([r[s] for s in slots]))
            r[out] = array[idx].item() if array.ndim else array.item()

        return load
    index = _index_fn(map_, slots, results)

    def load(r):
        r[out] = r[mem].item(index(r))

    return load


def _plan_affine_store(p, op) -> Closure:
    mem = p.read(op.memref)
    map_ = op.map
    slots, results = p.affine(map_, op.indices)
    val = p.read(op.value)
    if results is None:
        def store(r):
            r[mem][tuple(map_.evaluate([r[s] for s in slots]))] = r[val]

        return store
    index = _index_fn(map_, slots, results)

    def store(r):
        r[mem][index(r)] = r[val]

    return store


def _plan_affine_apply(p, op) -> Closure:
    map_ = op.map
    slots, results = p.affine(map_, op.operands)
    out = p.define(op.results[0])
    if not results:
        def apply(r):
            r[out] = map_.evaluate([r[s] for s in slots])[0]

        return apply
    value = _as_fn(results[0])

    def apply(r):
        r[out] = value(r)

    return apply


def _plan_scf_for(p, op) -> Closure:
    lb, ub, step = (
        p.read(v) for v in (op.lower_bound, op.upper_bound, op.step)
    )
    iv = p.slot(op.induction_var)
    body, cost = p.scoped(op.ops_in_body(), op.induction_var)
    charge = p.charge

    def scf_for(r):
        trips = range(r[lb], r[ub], r[step])
        charge(cost * len(trips))
        for i in trips:
            r[iv] = i
            for closure in body:
                closure(r)

    return scf_for


def _plan_scf_if(p, op) -> Closure:
    cond = p.read(op.condition)
    then, then_cost = p.scoped(op.then_block.ops_without_terminator())
    if len(op.regions) > 1:
        other, other_cost = p.scoped(op.else_block.ops_without_terminator())
    else:
        other, other_cost = (), 0
    charge = p.charge

    def scf_if(r):
        if r[cond]:
            charge(then_cost)
            for closure in then:
                closure(r)
        elif other_cost:
            charge(other_cost)
            for closure in other:
                closure(r)

    return scf_if


def _plan_std_load(p, op) -> Closure:
    mem = p.read(op.memref)
    at = [p.read(v) for v in op.indices]
    out = p.define(op.results[0])

    def load(r):
        r[out] = r[mem][tuple([r[s] for s in at])].item()

    return load


def _plan_std_store(p, op) -> Closure:
    mem = p.read(op.memref)
    at = [p.read(v) for v in op.indices]
    val = p.read(op.value)

    def store(r):
        r[mem][tuple([r[s] for s in at])] = r[val]

    return store


def _plan_llvm_load(p, op) -> Closure:
    mem, at = p.read(op.memref), p.read(op.index)
    out = p.define(op.results[0])

    def load(r):
        # ``item(k)`` reads the flat element k: ``reshape(-1)[k]``
        # without building the view.
        r[out] = r[mem].item(r[at])

    return load


def _plan_llvm_store(p, op) -> Closure:
    mem, at, val = p.read(op.memref), p.read(op.index), p.read(op.value)

    def store(r):
        # Memref buffers are C-contiguous (arguments are checked,
        # allocations are fresh), so ``flat`` writes where
        # ``reshape(-1)`` would.
        r[mem].flat[r[at]] = r[val]

    return store


# -- linear algebra ops -------------------------------------------------


def _sgemm(a, b, c, alpha=1.0, beta=1.0) -> None:
    c *= np.asarray(beta, dtype=c.dtype)
    c += np.asarray(alpha, dtype=c.dtype) * (a @ b).astype(c.dtype)


def _sgemv(a, x, y) -> None:
    y += (a @ x).astype(y.dtype)


def _transpose(src, dst, permutation) -> None:
    dst[...] = np.transpose(src, permutation)


def _reshape(src, dst) -> None:
    dst[...] = np.ascontiguousarray(src).reshape(dst.shape)


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


def _plan_matmul(p, op) -> Closure:
    a, b, c = (p.read(v) for v in op.operands)
    return lambda r: _sgemm(r[a], r[b], r[c])


def _plan_blas_sgemm(p, op) -> Closure:
    a, b, c = (p.read(v) for v in op.operands)
    alpha, beta = op.alpha, op.beta
    return lambda r: _sgemm(r[a], r[b], r[c], alpha, beta)


def _plan_matvec(p, op) -> Closure:
    a, x, y = (p.read(v) for v in op.operands)
    if getattr(op, "trans", False):
        return lambda r: _sgemv(r[a].T, r[x], r[y])
    return lambda r: _sgemv(r[a], r[x], r[y])


def _plan_transpose(p, op) -> Closure:
    src, dst = p.read(op.input), p.read(op.output)
    permutation = op.permutation
    return lambda r: _transpose(r[src], r[dst], permutation)


def _plan_reshape(p, op) -> Closure:
    src, dst = p.read(op.input), p.read(op.output)
    return lambda r: _reshape(r[src], r[dst])


def _plan_fill(p, op) -> Closure:
    dst, value = p.read(op.output), p.read(op.fill_value)

    def fill(r):
        r[dst][...] = r[value]

    return fill


def _plan_conv2d(p, op) -> Closure:
    src, kernel, out = p.read(op.input), p.read(op.kernel), p.read(op.output)
    return lambda r: _conv2d(r[src], r[kernel], r[out])


def _plan_generic(p, op) -> Closure:
    """A generic the contraction reader recognises runs as one
    ``np.einsum``; every other generic as scalar loops over its body."""
    read = generic_contraction_spec(op)
    if read is None:
        return _plan_generic_loops(p, op)
    a, b, out = (p.read(v) for v in op.operands)
    spec = read.contraction.einsum
    subtract, scalar_out = read.subtract, read.scalar_out

    def contract(r):
        target = r[out]
        value = np.einsum(spec, r[a], r[b]).astype(target.dtype)
        at = (0,) * target.ndim if scalar_out else Ellipsis
        if subtract:
            target[at] -= value
        else:
            target[at] += value

    return contract


def _plan_generic_loops(p, op) -> Closure:
    operands = [p.read(v) for v in op.operands]
    maps = op.indexing_maps
    num_inputs = op.num_inputs
    # The body runs on its own register file, fresh per iteration: it
    # sees its block arguments and its own values, nothing outside.
    body_plan = _Planner(p.interp, p.plans)
    block = op.body
    args = [body_plan.define(arg) for arg in block.arguments]
    body, cost = body_plan.sequence(block.ops_without_terminator())
    body_plan._reads = checks = []
    yields = [body_plan.read(v) for v in block.terminator.operands]
    num_slots = len(body_plan.slots)
    index = [_point_index(m, op.num_loops) for m in maps]
    outs = [num_inputs + pos for pos in range(len(yields))]
    charge = p.charge

    def generic_loops(r):
        extents = op.iteration_domain()
        arrays = [r[s] for s in operands]
        trips = 1
        for extent in extents:
            trips *= len(range(extent))
        charge(cost * trips)
        reads = list(zip(args, arrays, index))
        writes = [(arrays[pos], index[pos], y) for pos, y in zip(outs, yields)]
        for point in product(*[range(e) for e in extents]):
            local = [_UNBOUND] * num_slots
            for slot, array, at in reads:
                local[slot] = array[at(point)].item()
            for closure in body:
                closure(local)
            for slot, value in checks:
                if local[slot] is _UNBOUND:
                    raise InterpreterError(f"unbound SSA value {value!r}")
            for array, at, slot in writes:
                array[at(point)] = local[slot]

    return generic_loops


def _point_index(map_, num_loops: int) -> Closure:
    """``map_`` over a point of a generic's iteration space."""
    dims = range(num_loops)
    results = _compile_map(map_, dims)
    if results is None:
        return lambda point: tuple(map_.evaluate(point))
    return _index_fn(map_, dims, results)


def _plan_unreachable(p, op) -> Closure:
    return _raiser(
        InterpreterError,
        "executed llvm.unreachable: control flow reached a point the "
        "lowering marked as impossible (miscompiled CFG)",
    )


def _plan_cfg_terminator(p, op) -> Closure:
    # llvm.br / llvm.cond_br are planned by the CFG planner; meeting
    # them anywhere else means a branch escaped a single-block region,
    # which is malformed IR rather than an unhandled op.
    return _raiser(
        InterpreterError,
        f"{op.name} outside a multi-block CFG region (malformed IR)",
    )


def _plan_transform_op(p, op) -> Closure:
    # Schedule IR scripts transformations over payload modules; it has
    # no runtime semantics of its own.
    return _raiser(
        InterpreterError,
        f"{op.name} is schedule IR, not payload: apply it with "
        "repro.scheduling.apply_schedule instead of executing it",
    )


_PLANNERS = {
    "func.return": _plan_nested_return,
    "func.call": _plan_func_call,
    "llvm.call": _plan_llvm_call,
    "std.constant": _plan_constant,
    **{
        cls.OP_NAME: _binary_planner(cls.PYTHON_FUNC)
        for cls in (
            std.AddFOp, std.SubFOp, std.MulFOp, std.DivFOp, std.MaxFOp,
            std.AddIOp, std.SubIOp, std.MulIOp, std.DivIOp, std.RemIOp,
        )
    },
    "std.negf": _plan_negf,
    "std.cmpf": _compare_planner(std.CmpFOp),
    "std.cmpi": _compare_planner(std.CmpIOp),
    "std.select": _plan_select,
    "std.index_cast": _plan_index_cast,
    "std.alloc": _plan_alloc,
    "std.dealloc": _plan_nothing,
    "std.load": _plan_std_load,
    "std.store": _plan_std_store,
    "affine.for": _plan_affine_for,
    "affine.load": _plan_affine_load,
    "affine.store": _plan_affine_store,
    "affine.apply": _plan_affine_apply,
    "affine.yield": _plan_nothing,
    "affine.matmul": _plan_matmul,
    "scf.for": _plan_scf_for,
    "scf.if": _plan_scf_if,
    "scf.yield": _plan_nothing,
    "llvm.load": _plan_llvm_load,
    "llvm.store": _plan_llvm_store,
    "llvm.br": _plan_cfg_terminator,
    "llvm.cond_br": _plan_cfg_terminator,
    "llvm.unreachable": _plan_unreachable,
    "linalg.yield": _plan_nothing,
    "linalg.matmul": _plan_matmul,
    "linalg.matvec": _plan_matvec,
    "linalg.transpose": _plan_transpose,
    "linalg.reshape": _plan_reshape,
    "linalg.conv2d_nchw": _plan_conv2d,
    "linalg.fill": _plan_fill,
    "linalg.generic": _plan_generic,
    "blas.sgemm": _plan_blas_sgemm,
    "blas.sgemv": _plan_matvec,
    "blas.transpose": _plan_transpose,
    "blas.reshape": _plan_reshape,
    "blas.conv2d": _plan_conv2d,
    **{
        f"transform.{suffix}": _plan_transform_op
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
        )
    },
}


def run_function(module: ModuleOp, func_name: str, *args) -> List[Any]:
    """One-shot convenience wrapper."""
    return Interpreter(module).run(func_name, *args)
