"""Cyclic Jacobi eigensolver for complex Hermitian matrices.

A self-contained spectral kernel, independent of LAPACK: the test suite uses
it to cross-check the production eigenvalue route.  Each step applies a 2x2
unitary rotation annihilating one off-diagonal pair; sweeps repeat until the
off-diagonal Frobenius mass is negligible.
"""

from __future__ import annotations

import math

import numpy as np

from blocktrace.linalg import require_hermitian

OFFDIAG_TOL = 1e-13
MAX_SWEEPS = 60


class JacobiConvergenceError(RuntimeError):
    pass


def _rotation(app: float, aqq: float, apq: complex):
    """2x2 unitary V with (V* A V) off-diagonal zero for the Hermitian
    A = [[app, apq], [conj(apq), aqq]].

    Dephasing diag(1, conj(phase)) makes the off-diagonal real, then a real
    Jacobi rotation with the small-magnitude root t of t^2 + 2 tau t - 1 = 0
    annihilates it."""
    b = abs(apq)
    phase = apq / b
    tau = (aqq - app) / (2.0 * b)
    if tau >= 0:
        t = 1.0 / (tau + math.sqrt(1.0 + tau * tau))
    else:
        t = -1.0 / (-tau + math.sqrt(1.0 + tau * tau))
    c = 1.0 / math.sqrt(1.0 + t * t)
    s = t * c
    return c, s, phase


def jacobi_eigh(a) -> np.ndarray:
    """Eigenvalues of a Hermitian matrix by cyclic Jacobi, non-increasing."""
    a = require_hermitian(a)
    n = a.shape[0]
    if n <= 1:
        return np.diag(a).real.copy()
    m = a.astype(np.complex128, copy=True)
    threshold = OFFDIAG_TOL * max(np.linalg.norm(m), np.finfo(float).tiny)
    for _ in range(MAX_SWEEPS):
        off = np.linalg.norm(m - np.diag(np.diag(m)))
        if off <= threshold:
            return np.sort(np.diag(m).real)[::-1]
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = m[p, q]
                if abs(apq) <= threshold / (n * n):
                    continue
                c, s, phase = _rotation(m[p, p].real, m[q, q].real, apq)
                v = np.array(
                    [[c, s], [-s * np.conj(phase), c * np.conj(phase)]],
                    dtype=np.complex128,
                )
                m[:, [p, q]] = m[:, [p, q]] @ v
                m[[p, q], :] = v.conj().T @ m[[p, q], :]
                # re-symmetrize the touched pair against rounding drift
                m[p, q] = np.conj(m[q, p])
    off = np.linalg.norm(m - np.diag(np.diag(m)))
    if off <= threshold:
        return np.sort(np.diag(m).real)[::-1]
    raise JacobiConvergenceError(f"no convergence after {MAX_SWEEPS} sweeps (off={off:.3e})")
