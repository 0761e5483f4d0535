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
from .linalg import hermitian_eigvals  # noqa: F401  (kept as orders.hermitian_eigvals)
from .linalg import pad_sorted, require_hermitian, scale_stack, singular_values_stack, tolerance

PSD_TOL = 1e-8


@dataclass(frozen=True)
class OrderVerdict:
    """On stacked input each field is an array over the leading axes."""

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
    def holds(self):
        """Standard majorization: weak plus equal totals."""
        return self.weak_holds & (np.abs(self.sum_gap) <= self.tolerance_used)

    @property
    def witness(self):
        worst, total = self.worst_prefix_gap, -np.abs(self.sum_gap)
        return np.where(total < worst, total, worst)  # min(worst, total), ties to worst


def gap_verdict(witness, tol: float, scale) -> OrderVerdict:
    """The one verdict rule: a witness holds when it is at least minus the
    tolerance of tol at scale (linalg.tolerance)."""
    t = tolerance(tol, scale)
    return OrderVerdict(witness >= -t, witness, t)


def psd_verdict(a: np.ndarray, tol: float = PSD_TOL) -> OrderVerdict:
    """PSD test for every matrix of a complex128 (..., k, k) stack that is
    exactly Hermitian, unchecked, by one eigvalsh call: witness is
    lambda_min, at the scale ||.||_F.  A witness is never -0.0: x + 0.0 has
    the bits of x for every x but -0.0, which it makes +0.0."""
    lam_min = np.linalg.eigvalsh(a)[..., 0] + 0.0  # eigvalsh sorts ascending
    return gap_verdict(lam_min, tol, scale_stack(a))


def is_psd(a, tol: float = PSD_TOL) -> OrderVerdict:
    """PSD test for a Hermitian matrix, or for every matrix of a (..., k, k)
    stack: psd_verdict after require_hermitian."""
    return psd_verdict(require_hermitian(a), tol)


def loewner_ge(a, b, tol: float = PSD_TOL) -> OrderVerdict:
    """A >= B in the Loewner order: A - B is PSD."""
    a, b = np.asarray(a), np.asarray(b)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch {a.shape} vs {b.shape}")
    return is_psd(a - b, tol)


def is_ppt(a: BlockMatrix, tol: float = PSD_TOL) -> OrderVerdict:
    """Positive partial transpose: both A and A^tau are PSD."""
    v = is_psd(np.stack([a.dense, partial_transpose(a).dense]), tol)
    return OrderVerdict(bool(v.holds.all()), float(v.witness.min()),
                        float(v.tolerance_used.max()))


def majorizes(y, x, tol: float = PSD_TOL) -> MajorizationVerdict:
    """Test x majorized by y (x < y) along the last axis; leading axes
    broadcast and give a verdict of arrays.  Spectra of different lengths
    are zero-padded to the longer one before sorting."""
    length = max(np.shape(x)[-1], np.shape(y)[-1])
    xp, yp = pad_sorted(x, length), pad_sorted(y, length)
    prefix_gaps = np.cumsum(yp, axis=-1) - np.cumsum(xp, axis=-1)
    weak = gap_verdict(prefix_gaps.min(axis=-1), tol, np.abs(yp).sum(axis=-1))
    return MajorizationVerdict(weak.holds, prefix_gaps[..., -1], weak.witness, weak.tolerance_used)


def sv_dominates(lhs, rhs, factor: float = 1.0, tol: float = PSD_TOL) -> OrderVerdict:
    """factor * s_j(lhs) <= s_j(rhs) for every j (zero-padded), for a pair
    of matrices or of (..., r, c) stacks."""
    s_l = singular_values_stack(lhs)
    s_r = singular_values_stack(rhs)
    length = max(s_l.shape[-1], s_r.shape[-1])
    gaps = pad_sorted(s_r, length) - factor * pad_sorted(s_l, length)
    return gap_verdict(gaps.min(axis=-1), tol, scale_stack(rhs))
