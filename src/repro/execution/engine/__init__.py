"""Compiled NumPy execution engine.

Where the interpreter plans each function into closures and runs
them, this subsystem *translates* a module into NumPy-vectorized Python source, compiles it
once with :func:`compile`, and caches the compiled kernel in a
content-addressed cache keyed by the module's printed form plus the
pipeline name.  Repeated benchmark invocations and fuzz replays of the
same module skip codegen entirely.

Entry point is :class:`ExecutionEngine`, which exposes the same
``run(func_name, *args)`` contract as the interpreter.
"""

from .cache import (  # noqa: F401
    KernelCache,
    KERNEL_CACHE,
    fingerprint_module,
)
from .codegen import (  # noqa: F401
    EMITTERS,
    EngineError,
    VECTORIZE_MODES,
    CompiledModule,
    compile_module,
    generate_module_source,
    load_compiled_source,
)
from .disk_cache import DiskKernelCache  # noqa: F401
from .engine import ExecutionEngine, run_function_compiled  # noqa: F401
from .optimizer import OPT_MODES, run_optimizer  # noqa: F401
from .vectorize import VectorizeStats  # noqa: F401
