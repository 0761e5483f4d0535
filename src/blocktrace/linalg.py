"""Dense complex matrix kernels used throughout the package.

Matrices are plain ``numpy`` arrays of ``complex128``.  The ``*_stack``
kernels act on every matrix of a (..., r, c) stack at once; each one-matrix
kernel is a thin wrapper over its stacked kernel, so the two agree bit for
bit.  Every kernel is a pure function; nothing mutates its inputs.
``one_blas_thread`` scopes the process's OpenBLAS thread count.
"""

from __future__ import annotations

import ctypes
import threading
from contextlib import contextmanager
from functools import lru_cache
from pathlib import Path

import numpy as np

# Hermiticity tolerance, taken by tolerance() at scale ||M||_F; chosen an
# order of magnitude above accumulated rounding at the matrix sizes this
# package targets (mn <= 256).
HERMITIAN_TOL = 1e-10


def as_matrix(a) -> np.ndarray:
    """Coerce input to a 2-D complex128 array."""
    m = np.asarray(a, dtype=np.complex128)
    if m.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got shape {m.shape}")
    return m


def _square(a) -> np.ndarray:
    """Coerce input to a complex128 stack of square matrices."""
    a = np.asarray(a, dtype=np.complex128)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise ValueError(f"expected square matrices, got shape {a.shape}")
    return a


def trace_stack(a) -> np.ndarray:
    """Trace of every matrix of a (..., k, k) stack, summed as np.trace sums
    one matrix: the diagonal is copied to a contiguous last axis, so each
    row gets numpy's pairwise summation whatever the stack's strides."""
    return np.diagonal(a, axis1=-2, axis2=-1).copy().sum(axis=-1)


def tolerance(tol: float, scale):
    """The tolerance of every verdict: tol relative to scale, floored at
    scale 1, so below unit scale it is tol itself."""
    return tol * np.fmax(1.0, scale)


def scale_stack(a) -> np.ndarray:
    """Frobenius norm of every matrix of a (..., r, c) stack, the scale of
    its tolerance.  Where the sum of squares overflows, a matrix of
    finite entries takes peak * sqrt(sum |a / peak|^2), peak its largest
    modulus; a matrix with an inf entry keeps the scale inf."""
    a = np.asarray(a)
    squares = a.real ** 2
    squares += a.imag ** 2
    norm = np.sqrt(squares.sum(axis=(-2, -1)))
    over = np.isinf(norm)
    if over.any():
        moduli = np.abs(a[over])
        peak = moduli.max(axis=(-2, -1), keepdims=True)
        with np.errstate(invalid="ignore"):  # inf / inf where an entry is inf
            rescaled = peak * np.sqrt(((moduli / peak) ** 2).sum(axis=(-2, -1), keepdims=True))
        norm = np.array(norm)
        norm[over] = np.where(np.isinf(peak), np.inf, rescaled)[..., 0, 0]
    return norm


def hermitian_defect(a):
    """max_{i,j} |a[i,j] - conj(a[j,i])| of a matrix or of each matrix of a stack."""
    a = _square(a)
    gaps = a.conj().swapaxes(-1, -2)
    gaps -= a
    return np.abs(gaps).max(axis=(-2, -1), initial=0.0)


def require_hermitian(a) -> np.ndarray:
    """a as complex128; ValueError unless each of its matrices is finite and
    Hermitian within HERMITIAN_TOL.  An inf or NaN entry makes its matrix's
    defect inf or NaN, which the check refuses."""
    a = _square(a)
    defects = hermitian_defect(a)
    bad = ~(defects <= tolerance(HERMITIAN_TOL, scale_stack(a))) | np.isinf(defects)
    if bad.any():
        raise ValueError(f"matrix is not Hermitian (defect {defects[bad][0]:.3e})")
    return a


def hermitian_part(x) -> np.ndarray:
    """(X + X*) / 2 of a matrix or of each matrix of a stack; exactly
    Hermitian, as entry (j, i) rounds the conjugate of entry (i, j)'s sum,
    IEEE addition commutes, and rounding commutes with negation."""
    out = np.add(x, x.conj().swapaxes(-1, -2))
    out /= 2
    return out


def pad_sorted(values, length: int) -> np.ndarray:
    """Zero-pad every (..., k) row to ``length`` and sort it non-increasing."""
    values = np.asarray(values, dtype=np.float64)
    if length < values.shape[-1]:
        raise ValueError("cannot pad to a shorter length")
    out = np.zeros(values.shape[:-1] + (length,))
    out[..., : values.shape[-1]] = values
    return np.sort(out, axis=-1)[..., ::-1]


def eigvals_descending(a: np.ndarray) -> np.ndarray:
    """Eigenvalues of every exactly Hermitian matrix of a stack, unchecked, each
    row non-increasing, by complex128 eigvalsh: the engine's spectral kernel."""
    return np.linalg.eigvalsh(np.asarray(a, dtype=np.complex128))[..., ::-1]  # from ascending


def hermitian_eigvals_stack(a) -> np.ndarray:
    """Eigenvalues of every Hermitian matrix of a stack, each row sorted
    non-increasing, by one eigvalsh call after require_hermitian."""
    return eigvals_descending(require_hermitian(a))


def hermitian_eigvals(a) -> np.ndarray:
    """Eigenvalues of a Hermitian matrix, sorted non-increasing."""
    return hermitian_eigvals_stack(as_matrix(a))


def singular_values_stack(a) -> np.ndarray:
    """Singular values of every matrix of a stack, each row non-increasing,
    as svd returns them.

    Computed by a full SVD rather than sqrt-of-Gram-eigenvalues: the Gram
    route squares the condition number, inflating singular values near zero
    to about sqrt(eps) * s_max, which is fatal for the rank-deficient
    comparisons in the check suite.
    """
    return np.linalg.svd(np.asarray(a, dtype=np.complex128), compute_uv=False)


def singular_values(a) -> np.ndarray:
    """Singular values, sorted non-increasing."""
    return singular_values_stack(as_matrix(a))


def matrix_abs_stack(x) -> np.ndarray:
    """|X| = (X* X)^(1/2), the Hermitian PSD square root, of each matrix of a stack."""
    x = _square(x)
    gram = hermitian_part(x.conj().swapaxes(-1, -2) @ x)
    w, v = np.linalg.eigh(gram)
    w = np.clip(w.real, 0.0, None)
    root = (v * np.sqrt(w)[..., None, :]) @ v.conj().swapaxes(-1, -2)
    return hermitian_part(root)


def matrix_abs(x) -> np.ndarray:
    """|X| = (X* X)^(1/2), the Hermitian PSD square root."""
    return matrix_abs_stack(as_matrix(x))


def kyfan_norm(a, k: int) -> float:
    """Sum of the k largest singular values."""
    a = as_matrix(a)
    if not 1 <= k <= min(a.shape):
        raise ValueError(f"k={k} out of range for shape {a.shape}")
    return float(np.sum(singular_values(a)[:k]))


# (get, set) thread-count symbols of the OpenBLAS builds numpy bundles, in
# the order they are tried: scipy-openblas (numpy 2.x) with 64-bit integers,
# then with 32-bit ones; then a plain OpenBLAS, whose 64-bit-integer build
# (numpy 1.x wheels) carries a `64_` suffix.
_OPENBLAS_SYMBOLS = tuple(
    (f"{prefix}get_num_threads{suffix}", f"{prefix}set_num_threads{suffix}")
    for prefix in ("scipy_openblas_", "openblas_") for suffix in ("64_", ""))


def _thread_functions(lib):
    """(get, set) thread-count functions of a loaded library, by the first
    pair of _OPENBLAS_SYMBOLS it exports both of, or None."""
    for get_name, set_name in _OPENBLAS_SYMBOLS:
        get, put = getattr(lib, get_name, None), getattr(lib, set_name, None)
        if get is not None and put is not None:
            get.argtypes, get.restype = [], ctypes.c_int
            put.argtypes, put.restype = [ctypes.c_int], None
            return get, put
    return None


@lru_cache(maxsize=None)
def _openblas():
    """(get, set) thread-count functions of the OpenBLAS that numpy loaded
    from its bundled numpy.libs, or None when there is none (MKL,
    Accelerate or a system BLAS).  Looked up on the first call only."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib_path in sorted(libs.glob("*openblas*")):
        try:
            handle = _thread_functions(ctypes.CDLL(str(lib_path)))
        except OSError:
            continue
        if handle is not None:
            return handle
    return None


_scope_lock = threading.Lock()
_scope_depth = 0
_scope_saved = None


@contextmanager
def one_blas_thread():
    """Run the enclosed block with OpenBLAS on one thread, then restore the
    thread count it had.

    The engine's spectral kernels run on many small stacks.  From mn >= 36,
    OpenBLAS splits each eigvalsh and matmul call across its threads, which
    gains no wall time at these sizes but keeps the other cores spinning
    between calls; one thread gives the same bits.  The count is
    process-wide, so scopes that nest or overlap in several threads use
    one depth counter: the first to enter saves the count and the last to
    exit restores it, also when the block raises.  While any scope is open,
    every thread's BLAS calls run on one thread.  Without a bundled
    OpenBLAS this does nothing."""
    global _scope_depth, _scope_saved
    handle = _openblas()
    if handle is None:
        yield
        return
    get, put = handle
    with _scope_lock:
        if _scope_depth == 0:
            _scope_saved = get()
            put(1)
        _scope_depth += 1
    try:
        yield
    finally:
        with _scope_lock:
            _scope_depth -= 1
            if _scope_depth == 0:
                put(_scope_saved)
