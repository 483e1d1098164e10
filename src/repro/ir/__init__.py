"""The multi-level IR substrate (MLIR-like)."""

from .affine_expr import (  # noqa: F401
    AffineBinaryExpr,
    AffineConstantExpr,
    AffineDimExpr,
    AffineExpr,
    AffineExprKind,
    AffineSymbolExpr,
    LinearForm,
    constant,
    dim,
    from_linear_form,
    symbol,
)
from .affine_map import AffineMap  # noqa: F401
from .attributes import (  # noqa: F401
    AffineMapAttr,
    ArrayAttr,
    Attribute,
    BoolAttr,
    FloatAttr,
    IntegerAttr,
    StringAttr,
    SymbolRefAttr,
    TypeAttr,
    UnitAttr,
    attr_from_python,
    int_array_attr,
)
from .builder import Builder, InsertionPoint  # noqa: F401
from .builtin import CallOp, FuncOp, ModuleOp, ReturnOp  # noqa: F401
from .context import Context, Dialect  # noqa: F401
from .core import (  # noqa: F401
    Block,
    IRError,
    OP_REGISTRY,
    Operation,
    Region,
    create_operation,
    register_op,
)
from .pass_cache import (  # noqa: F401
    PassResultCache,
    fingerprint_function,
)
from .pass_manager import (  # noqa: F401
    FunctionPass,
    LambdaPass,
    Pass,
    PassManager,
    PassTiming,
)
from .printer import print_module  # noqa: F401
from .rewrite import (  # noqa: F401
    DRIVERS,
    FrozenPatternSet,
    PatternRewriter,
    RewritePattern,
    RewriteResult,
    apply_conversion,
    apply_patterns_greedily,
    apply_patterns_snapshot,
    apply_patterns_worklist,
    get_default_driver,
    pattern_driver,
    set_default_driver,
)
from .types import (  # noqa: F401
    DYNAMIC,
    F32Type,
    F64Type,
    FunctionType,
    IndexType,
    IntegerType,
    MemRefType,
    TensorType,
    Type,
    VectorType,
    f32,
    f64,
    i1,
    i32,
    i64,
    index,
    is_float,
    memref,
)
from .values import BlockArgument, OpOperand, OpResult, Value  # noqa: F401
from .verifier import VerificationError, verify  # noqa: F401
