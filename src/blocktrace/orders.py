"""Decision procedures for the order relations the checks quantify over:
PSD membership, Loewner comparison, PPT, (weak) majorization and elementwise
singular-value domination.

Every verdict carries its decisive witness so failures localize: the minimum
slack eigenvalue, the worst prefix-sum gap, or the worst per-index
singular-value gap.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .blocks import BlockMatrix, partial_transpose
from .linalg import (
    HERMITIAN_TOL,
    Spectrum,
    as_matrix,
    hermitian_eigvals,
    scale_of,
    singular_values,
)

PSD_TOL = 1e-8
MAJORIZATION_TOL = 1e-8


@dataclass(frozen=True)
class OrderVerdict:
    holds: bool
    witness: float
    tolerance_used: float


@dataclass(frozen=True)
class MajorizationVerdict:
    weak_holds: bool
    sum_gap: float
    worst_prefix_gap: float
    tolerance_used: float

    @property
    def holds(self) -> bool:
        """Standard majorization: weak plus equal totals."""
        return self.weak_holds and abs(self.sum_gap) <= self.tolerance_used

    @property
    def witness(self) -> float:
        return min(self.worst_prefix_gap, -abs(self.sum_gap))


def is_psd(a, tol: float = PSD_TOL) -> OrderVerdict:
    """PSD test for a Hermitian matrix: witness is lambda_min."""
    a = as_matrix(a)
    lam = hermitian_eigvals(a).values  # validates Hermiticity
    lam_min = float(lam[-1]) if lam.size else 0.0
    tolerance = tol * scale_of(a)
    return OrderVerdict(lam_min >= -tolerance, lam_min, tolerance)


def psd_verdicts(stack, tol: float = PSD_TOL) -> list:
    """is_psd of every matrix in a (P, k, k) stack, with one eigvalsh call.

    Each matrix gets is_psd's Hermitian check and its tolerance
    tol * max(1, ||.||_F), so each verdict equals is_psd's on that matrix.
    The stack goes to eigvalsh directly: hermitian_eigvals takes one matrix."""
    stack = np.asarray(stack, dtype=np.complex128)
    if stack.ndim != 3 or stack.shape[1] != stack.shape[2] or not stack.shape[1]:
        raise ValueError(f"expected a stack of square matrices, got shape {stack.shape}")
    scales = [scale_of(s) for s in stack]
    defects = np.abs(stack - stack.conj().swapaxes(1, 2)).max(axis=(1, 2))
    for defect, scale in zip(defects, scales):
        if defect > HERMITIAN_TOL * scale:
            raise ValueError(f"matrix is not Hermitian (defect {defect:.3e})")
    verdicts = []
    for lam_min, scale in zip(np.linalg.eigvalsh(stack).min(axis=1).tolist(), scales):
        tolerance = tol * scale
        verdicts.append(OrderVerdict(lam_min >= -tolerance, lam_min, tolerance))
    return verdicts


def loewner_ge(a, b, tol: float = PSD_TOL) -> OrderVerdict:
    """A >= B in the Loewner order: A - B is PSD."""
    a, b = np.asarray(a), np.asarray(b)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch {a.shape} vs {b.shape}")
    return is_psd(a - b, tol)


def is_ppt(a: BlockMatrix, tol: float = PSD_TOL) -> OrderVerdict:
    """Positive partial transpose: both A and A^tau are PSD."""
    v1 = is_psd(a.dense, tol)
    v2 = is_psd(partial_transpose(a).dense, tol)
    return OrderVerdict(
        v1.holds and v2.holds,
        min(v1.witness, v2.witness),
        max(v1.tolerance_used, v2.tolerance_used),
    )


def _descending(values) -> np.ndarray:
    if isinstance(values, Spectrum):
        values = values.values
    return np.sort(np.asarray(values, dtype=np.float64))[::-1]


def majorizes(y, x, tol: float = MAJORIZATION_TOL) -> MajorizationVerdict:
    """Test x majorized by y (x < y).  Spectra of different lengths are
    zero-padded to the longer one before sorting."""
    xv, yv = _descending(x), _descending(y)
    length = max(xv.size, yv.size)
    xp = np.zeros(length)
    xp[: xv.size] = xv
    yp = np.zeros(length)
    yp[: yv.size] = yv
    xp, yp = np.sort(xp)[::-1], np.sort(yp)[::-1]
    prefix_gaps = np.cumsum(yp) - np.cumsum(xp)
    worst = float(prefix_gaps.min()) if length else 0.0
    sum_gap = float(prefix_gaps[-1]) if length else 0.0
    tolerance = tol * max(1.0, float(np.sum(np.abs(yp))))
    return MajorizationVerdict(worst >= -tolerance, sum_gap, worst, tolerance)


def sv_dominates(lhs, rhs, factor: float = 1.0, tol: float = PSD_TOL) -> OrderVerdict:
    """factor * s_j(lhs) <= s_j(rhs) for every j (zero-padded)."""
    s_l = singular_values(lhs)
    s_r = singular_values(rhs)
    length = max(len(s_l), len(s_r))
    gaps = s_r.padded(length) - factor * s_l.padded(length)
    witness = float(gaps.min()) if length else 0.0
    tolerance = tol * max(1.0, scale_of(np.asarray(rhs)))
    return OrderVerdict(witness >= -tolerance, witness, tolerance)
