"""Execution substrate: a numpy-backed interpreter (for semantics), a
compiled NumPy execution engine (for measured performance), and an
analytical machine/cost model (for the paper's performance studies).
"""

from .interpreter import InterpreterError, Interpreter, run_function  # noqa: F401
from .engine import (  # noqa: F401
    DiskKernelCache,
    EngineError,
    ExecutionEngine,
    KERNEL_CACHE,
    KernelCache,
    OPT_MODES,
    run_function_compiled,
    run_optimizer,
)
from .machines import AMD_2920X, INTEL_I9_9900K, Machine  # noqa: F401
from .cost_model import CostModel, CostReport  # noqa: F401
