"""Dense complex matrix kernels used throughout the package.

Matrices are plain ``numpy`` arrays of ``complex128``.  Everything here is a
pure function; nothing mutates its inputs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

# Tolerance knobs.  hermitian_tol and spectral_tol are relative to
# max(1, ||M||_F); chosen an order of magnitude above accumulated rounding
# at the matrix sizes this package targets (mn <= 256).
HERMITIAN_TOL = 1e-10
SPECTRAL_TOL = 1e-9

EIGENVALUES_HERMITIAN = "eigenvalues-hermitian"
SINGULAR_VALUES = "singular-values"


def as_matrix(a) -> np.ndarray:
    """Coerce input to a 2-D complex128 array."""
    m = np.asarray(a, dtype=np.complex128)
    if m.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got shape {m.shape}")
    return m


def scale_of(a: np.ndarray) -> float:
    """Relative-tolerance scale: max(1, Frobenius norm)."""
    return max(1.0, float(np.linalg.norm(a)))


def hermitian_defect(a: np.ndarray) -> float:
    """max_{i,j} |a[i,j] - conj(a[j,i])|."""
    a = as_matrix(a)
    if a.shape[0] != a.shape[1]:
        raise ValueError("hermitian defect needs a square matrix")
    return float(np.max(np.abs(a - a.conj().T))) if a.size else 0.0


def is_hermitian(a: np.ndarray, tol: float = HERMITIAN_TOL) -> bool:
    return hermitian_defect(a) <= tol * scale_of(a)


def require_hermitian(a: np.ndarray, tol: float = HERMITIAN_TOL) -> np.ndarray:
    a = as_matrix(a)
    d = hermitian_defect(a)
    if d > tol * scale_of(a):
        raise ValueError(f"matrix is not Hermitian (defect {d:.3e})")
    return a


@dataclass(frozen=True)
class Spectrum:
    """A real spectrum sorted in non-increasing order.

    ``kind`` records the source: Hermitian eigenvalues or singular values
    (the latter are additionally non-negative).
    """

    values: np.ndarray
    kind: str

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64)
        if v.ndim != 1:
            raise ValueError("spectrum must be a 1-D real vector")
        if np.any(v[:-1] < v[1:]):
            raise ValueError("spectrum values must be non-increasing")
        if self.kind == SINGULAR_VALUES and v.size and v[-1] < 0:
            raise ValueError("singular values must be non-negative")
        object.__setattr__(self, "values", v)

    def __len__(self) -> int:
        return self.values.size

    def padded(self, length: int) -> np.ndarray:
        """Zero-pad to ``length`` (descending order is preserved for
        non-negative spectra; padding sorts back in otherwise)."""
        if length < len(self):
            raise ValueError("cannot pad to a shorter length")
        out = np.zeros(length)
        out[: len(self)] = self.values
        return np.sort(out)[::-1]


def hermitian_eigvals(a, tol: float = HERMITIAN_TOL) -> Spectrum:
    """Eigenvalues of a Hermitian matrix, sorted non-increasing."""
    a = require_hermitian(a, tol)
    w = np.linalg.eigvalsh(a)
    return Spectrum(np.sort(w.real)[::-1], EIGENVALUES_HERMITIAN)


def singular_values(a) -> Spectrum:
    """Singular values, sorted non-increasing.

    Computed by a full SVD rather than sqrt-of-Gram-eigenvalues: the Gram
    route squares the condition number, inflating singular values near zero
    to about sqrt(eps) * s_max, which is fatal for the rank-deficient
    comparisons in the check suite.
    """
    s = np.linalg.svd(as_matrix(a), compute_uv=False)
    return Spectrum(np.sort(s)[::-1], SINGULAR_VALUES)


def matrix_abs(x) -> np.ndarray:
    """|X| = (X* X)^(1/2), the Hermitian PSD square root."""
    x = as_matrix(x)
    if x.shape[0] != x.shape[1]:
        raise ValueError("matrix_abs needs a square matrix")
    gram = x.conj().T @ x
    gram = (gram + gram.conj().T) / 2
    w, v = np.linalg.eigh(gram)
    w = np.clip(w.real, 0.0, None)
    root = (v * np.sqrt(w)) @ v.conj().T
    return (root + root.conj().T) / 2


def kyfan_norm(a, k: int) -> float:
    """Sum of the k largest singular values."""
    a = as_matrix(a)
    if not 1 <= k <= min(a.shape):
        raise ValueError(f"k={k} out of range for shape {a.shape}")
    return float(np.sum(singular_values(a).values[:k]))
