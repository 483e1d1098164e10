"""Matrix-chain multiplication reordering at the Linalg level (§V-C).

A case for *progressive* raising: once loop nests have been raised to
``linalg.matmul``, chains of multiplications become visible and the
classic dynamic-programming optimal-parenthesization (CLRS [24]) can
rewrite them, minimizing scalar multiplications.

Detection walks producer-consumer links through temporary buffers: a
matmul whose output buffer is a local temporary consumed as an input
of exactly one later matmul extends the chain.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple, Union

from ..dialects import linalg as linalg_d
from ..dialects import std
from ..ir import (
    Builder,
    Context,
    InsertionPoint,
    MemRefType,
    ModuleOp,
    Operation,
    Pass,
    Value,
)

#: Parenthesization tree: a leaf (matrix position) or (left, right).
ParenTree = Union[int, Tuple["ParenTree", "ParenTree"]]


# ----------------------------------------------------------------------
# Dynamic programming
# ----------------------------------------------------------------------


def optimal_parenthesization(dims: Sequence[int]) -> Tuple[int, ParenTree]:
    """Matrix-chain order for matrices A_i of size dims[i] x dims[i+1].

    Returns (minimal number of scalar multiplications, tree).
    """
    n = len(dims) - 1
    if n < 1:
        raise ValueError("need at least one matrix")
    if n == 1:
        return (0, 0)
    best: Dict[Tuple[int, int], int] = {}
    split: Dict[Tuple[int, int], int] = {}
    for i in range(n):
        best[(i, i)] = 0
    for length in range(2, n + 1):
        for i in range(0, n - length + 1):
            j = i + length - 1
            best[(i, j)] = 1 << 62
            for k in range(i, j):
                cost = (
                    best[(i, k)]
                    + best[(k + 1, j)]
                    + dims[i] * dims[k + 1] * dims[j + 1]
                )
                if cost < best[(i, j)]:
                    best[(i, j)] = cost
                    split[(i, j)] = k

    def build(i: int, j: int) -> ParenTree:
        if i == j:
            return i
        k = split[(i, j)]
        return (build(i, k), build(k + 1, j))

    return best[(0, n - 1)], build(0, n - 1)


def chain_multiplications(dims: Sequence[int], tree: ParenTree) -> int:
    """Scalar multiplications of an explicit parenthesization."""

    def walk(node: ParenTree) -> Tuple[int, int, int]:
        if isinstance(node, int):
            return (dims[node], dims[node + 1], 0)
        (lr, lc, lcost) = walk(node[0])
        (rr, rc, rcost) = walk(node[1])
        if lc != rr:
            raise ValueError("inconsistent parenthesization")
        return (lr, rc, lcost + rcost + lr * lc * rc)

    return walk(tree)[2]


def left_associative_tree(n: int) -> ParenTree:
    tree: ParenTree = 0
    for i in range(1, n):
        tree = (tree, i)
    return tree


def parenthesization_str(tree: ParenTree, base: int = 1) -> str:
    """Human-readable form, 1-based like Table II: ``(A1x(A2xA3))``."""
    if isinstance(tree, int):
        return f"A{tree + base}"
    left = parenthesization_str(tree[0], base)
    right = parenthesization_str(tree[1], base)
    return f"({left}x{right})"


# ----------------------------------------------------------------------
# Chain detection in the IR
# ----------------------------------------------------------------------


class MatrixChain:
    """A detected chain: ordered matrices and the matmuls computing it."""

    def __init__(
        self,
        matrices: List[Value],
        matmuls: List[linalg_d.MatmulOp],
        output: Value,
    ):
        self.matrices = matrices
        self.matmuls = matmuls
        self.output = output

    @property
    def dims(self) -> List[int]:
        dims = [m.type.shape[0] for m in self.matrices]
        dims.append(self.matrices[-1].type.shape[1])
        return dims

    def __len__(self) -> int:
        return len(self.matrices)

    def __repr__(self) -> str:
        return f"<MatrixChain n={len(self.matrices)} dims={self.dims}>"


def _is_temporary(value: Value) -> bool:
    def_op = value.defining_op
    return def_op is not None and def_op.name == "std.alloc"


def _single_matmul_consumer(
    temp: Value, after: Operation
) -> Optional[linalg_d.MatmulOp]:
    """The unique later matmul reading ``temp`` as an input; None if
    the temp escapes (other readers/writers)."""
    block = after.parent_block
    ops = block.operations
    start = ops.index(after) + 1
    consumer: Optional[linalg_d.MatmulOp] = None
    for use in temp.uses:
        user = use.owner
        if user is after or user.name == "std.dealloc":
            continue
        if user.name == "linalg.fill" and user.operand(1) is temp:
            continue  # the zero-initialization of the temporary
        if (
            type(user) is linalg_d.MatmulOp
            and user.parent_block is block
            and ops.index(user) >= start
            and (user.a is temp or user.b is temp)
            and user.c is not temp
        ):
            if consumer is not None:
                return None
            consumer = user
        else:
            return None
    return consumer


def find_matrix_chains(func) -> List[MatrixChain]:
    """Detect maximal matmul chains in a function body."""
    chains: List[MatrixChain] = []
    claimed: set = set()
    block = func.entry_block
    # Exactly ``linalg.matmul``: its library and Affine subclasses keep
    # the order they were given.
    matmuls = [
        op for op in block.operations if type(op) is linalg_d.MatmulOp
    ]
    for head in matmuls:
        if id(head) in claimed:
            continue
        # A chain head: neither of its inputs is a chained temp.
        matrices = [head.a, head.b]
        ops_in_chain = [head]
        current = head
        while _is_temporary(current.c):
            consumer = _single_matmul_consumer(current.c, current)
            if consumer is None or id(consumer) in claimed:
                break
            # Extend: temp is one operand; the other matrix joins.
            if consumer.a is current.c:
                matrices.append(consumer.b)
            else:
                matrices.insert(0, consumer.a)
            ops_in_chain.append(consumer)
            current = consumer
        if len(ops_in_chain) >= 2:
            for op in ops_in_chain:
                claimed.add(id(op))
            chains.append(
                MatrixChain(matrices, ops_in_chain, current.c)
            )
    return chains


# ----------------------------------------------------------------------
# Rewriting
# ----------------------------------------------------------------------


def _reorder_chain(chain: MatrixChain) -> bool:
    dims = chain.dims
    n = len(chain.matrices)
    best_cost, tree = optimal_parenthesization(dims)
    current_cost = _current_cost(chain)
    if best_cost >= current_cost:
        return False

    first_old = chain.matmuls[0]
    block = first_old.parent_block
    insert_index = block.operations.index(first_old)
    # The output's zero-initialization may sit between the old matmuls
    # (program order); it must precede the reordered chain.
    for op in list(block.operations[insert_index:]):
        if (
            op.name == "linalg.fill"
            and op.operand(1) is chain.output
        ):
            fill_value_def = op.operand(0).defining_op
            if (
                fill_value_def is not None
                and fill_value_def.parent_block is block
                and first_old.is_before_in_block(fill_value_def)
            ):
                fill_value_def.move_before(first_old)
            op.move_before(first_old)

    builder = Builder(InsertionPoint.before(chain.matmuls[0]))
    elem = chain.output.type.element_type

    def emit(node: ParenTree) -> Value:
        if isinstance(node, int):
            return chain.matrices[node]
        left = emit(node[0])
        right = emit(node[1])
        is_root = node is tree
        if is_root:
            out = chain.output
        else:
            shape = [left.type.shape[0], right.type.shape[1]]
            out = builder.insert(
                std.AllocOp.create(MemRefType(shape, elem))
            ).result
            zero = builder.insert(std.ConstantOp.create(0.0, elem)).result
            builder.insert(linalg_d.FillOp.create(zero, out))
        builder.insert(linalg_d.MatmulOp.create(left, right, out))
        return out

    emit(tree)
    _erase_old_chain(chain)
    return True


def _current_cost(chain: MatrixChain) -> int:
    return sum(
        op.a.type.shape[0] * op.a.type.shape[1] * op.b.type.shape[1]
        for op in chain.matmuls
    )


def _erase_old_chain(chain: MatrixChain) -> None:
    for op in chain.matmuls:
        op.erase()
    # Dead temporaries (alloc + fill pairs) are swept afterwards by
    # _cleanup_dead_temps at the function level.


def _cleanup_dead_temps(func) -> int:
    """Erase allocs whose only remaining users are fills/deallocs."""
    removed = 0
    changed = True
    while changed:
        changed = False
        for op in list(func.walk()):
            if op.name != "std.alloc" or op.parent_block is None:
                continue
            users = op.results[0].users
            if all(
                u.name in ("linalg.fill", "std.dealloc") for u in users
            ):
                for user in list(users):
                    user.erase()
                op.erase()
                removed += 1
                changed = True
    return removed


def reorder_matrix_chains(module: ModuleOp) -> int:
    """Reorder every beneficial matrix chain; returns how many."""
    from ..transforms.canonicalize import canonicalize

    reordered = 0
    for func in module.functions:
        for chain in find_matrix_chains(func):
            if len(chain) >= 3 and _reorder_chain(chain):
                reordered += 1
        _cleanup_dead_temps(func)
        canonicalize(func)
    return reordered


class MatrixChainReorderPass(Pass):
    name = "linalg-matrix-chain-reorder"

    def __init__(self):
        self.num_reordered = 0

    def run(self, module: ModuleOp, context: Context) -> None:
        self.num_reordered = reorder_matrix_chains(module)
