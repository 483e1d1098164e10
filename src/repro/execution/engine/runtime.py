"""Runtime support library referenced by generated kernel code.

Generated source never imports anything itself; the engine executes it
with ``_rt`` bound to this module (plus ``_np``/``_f32``/``EngineError``
locals), so these helpers are the entire surface area available to
compiled kernels.  Numerical semantics deliberately mirror the
interpreter's handlers: ``blas.*``/``linalg.*`` ops must produce the
same values whether a module is interpreted or compiled.
"""

from __future__ import annotations

import numpy as np

from ...ir import OP_REGISTRY, IRError


class EngineError(IRError):
    """Raised on codegen gaps (no emitter) and runtime faults."""


def f32(value: float) -> float:
    """Single-precision rounding of a scalar intermediate (matches the
    interpreter's handling of ``f32``-typed arithmetic)."""
    return float(np.float32(value))


def scalar_op(name: str):
    """The ``PYTHON_FUNC`` of the registered scalar op ``name``: how a
    kernel computes an arith op codegen has no spelling for."""
    return OP_REGISTRY[name].PYTHON_FUNC


def sgemm(a, b, c, alpha: float = 1.0, beta: float = 1.0) -> None:
    if alpha == 1.0 and beta == 1.0 and a.dtype == b.dtype == c.dtype:
        # One pass over C, bit-identical to the general form below:
        # scaling by 1 is exact and the ``astype`` is a same-dtype copy.
        c += a @ b
        return
    c *= np.asarray(beta, dtype=c.dtype)
    c += np.asarray(alpha, dtype=c.dtype) * (a @ b).astype(c.dtype)


def sgemv(a, x, y, trans: bool = False) -> None:
    if trans:
        a = a.T
    y += (a @ x).astype(y.dtype, copy=False)


def transpose(src, dst, permutation) -> None:
    dst[...] = np.transpose(src, permutation)


def reshape(src, dst) -> None:
    dst[...] = np.ascontiguousarray(src).reshape(dst.shape)


# The buffer plan (see :mod:`repro.analysis.buffers`) swaps a
# zero-filled alloc plus one of the copying helpers above for a producer
# that returns the buffer itself: always a new C-contiguous array of the
# memref's dtype, so the values are the ones the copy into zeros would
# have left.


def transposed(src, permutation, dtype):
    return np.transpose(src, permutation).astype(dtype, order="C")


def reshaped(src, shape, dtype):
    return np.array(src, dtype=dtype, order="C").reshape(shape)


def reshape_view(src, shape, dtype):
    """``src``'s own memory under another shape — no copy, which is
    what the plan's rule (c) relies on when it drops the copy-back.
    Only a C-contiguous array of the memref's dtype has such a view;
    ``ExecutionEngine.run`` guarantees the first for arguments, and a
    caller that bypasses it or passes another dtype gets this error
    instead of a result that silently went to a temporary."""
    if src.dtype != dtype or not src.flags.c_contiguous:
        raise EngineError(
            f"engine: a reshape view needs a C-contiguous {dtype} buffer, "
            f"got {src.dtype} with strides {src.strides}: the argument "
            "does not match its memref type"
        )
    return src.reshape(shape)


def conv2d(src, kernel, out) -> None:
    _, _, kh, kw = kernel.shape
    _, _, oh, ow = out.shape
    for dy in range(kh):
        for dx in range(kw):
            patch = src[:, :, dy:dy + oh, dx:dx + ow]
            out += np.einsum(
                "nchw,fc->nfhw", patch, kernel[:, :, dy, dx]
            ).astype(out.dtype)


def window(view, axis, dims):
    """Open one sliced axis of ``view`` into one axis per ``(stride,
    n)`` of ``dims``: element ``(i0, i1, ...)`` of the new axes is
    element ``sum(stride_k * i_k)`` of the old one.  This is how a load
    subscript over several loop ivs (``x[i + j]``, convolution's
    ``I[y + p]``) becomes an N-d read-only view with no copy.

    ``view.shape[axis]`` must be exactly the span the ivs cover: NumPy
    slices clamp silently, and restriding a clamped slice would read
    past the buffer.
    """
    span = 1 + sum(stride * (n - 1) for stride, n in dims)
    if view.shape[axis] != span:
        raise EngineError(
            f"engine: window over {span} elements of an axis that holds "
            f"{view.shape[axis]}: subscript out of bounds"
        )
    step = view.strides[axis]
    return np.lib.stride_tricks.as_strided(
        view,
        shape=view.shape[:axis]
        + tuple(n for _, n in dims)
        + view.shape[axis + 1 :],
        strides=view.strides[:axis]
        + tuple(stride * step for stride, _ in dims)
        + view.strides[axis + 1 :],
        writeable=False,
    )


#: Library symbols the lowered ``llvm.call`` form may invoke, mirroring
#: ``Interpreter.LIBRARY_CALLS``.
LIBRARY_CALLS = {
    "cblas_sgemm": lambda args, params: sgemm(
        *args, params.get("alpha", 1.0), params.get("beta", 1.0)
    ),
    "cblas_sgemv": lambda args, params: sgemv(
        *args, trans=params.get("trans", False)
    ),
    "mkl_somatcopy": lambda args, params: transpose(
        *args, params["permutation"]
    ),
    "mlt_reshape_view": lambda args, params: reshape(*args),
    "mkldnn_convolution_forward": lambda args, params: conv2d(*args),
}


def library_call(symbol: str, args, params=None) -> None:
    handler = LIBRARY_CALLS.get(symbol)
    if handler is None:
        raise EngineError(f"engine: unknown library symbol @{symbol}")
    handler(args, params or {})
