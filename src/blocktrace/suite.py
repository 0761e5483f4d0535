"""Registry binding every verifiable statement to an executable check.

Each case builds one or more derived objects from a generated instance
(a Hermitian slack matrix, a spectrum pair, a scalar gap, ...) and reports a
per-part witness: the minimum slack eigenvalue, worst prefix-sum gap, or
worst per-index singular-value gap.  A case holds when every part does;
expected-failure cases hold when the violation is detected.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from functools import cached_property, lru_cache, partial
from itertools import compress, islice, repeat
from operator import itemgetter
from typing import NamedTuple

import numpy as np

from . import serialize
from .blocks import (
    BlockMatrix,
    block_diag,
    diagonal_blocks,
    j_block,
    kron_left,
    kron_right,
    partial_trace_1,
    partial_trace_2,
    partial_transpose,
)
from .generate import GenSpec, gen, ginibre
from .linalg import hermitian_eigvals  # noqa: F401  (kept as suite.hermitian_eigvals)
from .linalg import (eigvals_descending, hermitian_eigvals_stack, matrix_abs_stack,
                     pad_sorted, require_hermitian, scale_stack, singular_values_stack)
from .linalg import hermitian_part as _herm
from .linalg import one_blas_thread
from .linalg import trace_stack as _tr
from .orders import PSD_TOL, gap_verdict, is_psd, majorizes, psd_verdict, sv_dominates
from .rng import Stream, check_seed, derive_seed, is_int

# ---------------------------------------------------------------------------
# result containers


# Named tuples: a report and its parts are built for every trial, and a
# tuple is the cheapest immutable record to build.
class Part(NamedTuple):
    label: str
    witness: float
    holds: bool


_witness, _holds = itemgetter(1), itemgetter(2)  # Part fields
_parts, _misses = itemgetter(4), itemgetter(5)  # SlackReport fields
_INF = float("inf")
# _new(Part, (label, witness, holds)) builds a named tuple without its
# Python-level __new__: the same class, fields and equality, at C speed.
_new = tuple.__new__


class SlackReport(NamedTuple):
    case_id: str
    trial_seed: int
    m: int
    n: int
    parts: tuple
    premise_misses: int = 0

    @property
    def holds(self) -> bool:
        return all(map(_holds, self.parts))

    @property
    def witness(self) -> float:
        """The least part witness, inf without parts.  Of tied parts the
        first wins, so a 0.0 before a -0.0 gives 0.0."""
        return min(map(_witness, self.parts), default=_INF)


# ---------------------------------------------------------------------------
# shared builders
#
# Every builder and check works on a stack of T instances of one shape
# (matrices (T, k, k), indexed from the end) and yields part columns,
# (label, witnesses, holds): one list entry per trial, with holds None in
# the trials where the part does not exist.


def _frozen(x: np.ndarray) -> np.ndarray:
    """x made read-only, so a constant shared between trials cannot be
    changed through any one of them."""
    x.flags.writeable = False
    return x


# Constants that depend only on the dims are built once per process.
_constant = lru_cache(maxsize=256)


@_constant
def _eye(k: int) -> np.ndarray:
    return _frozen(np.eye(k, dtype=np.complex128))


@_constant
def _jb(m: int, n: int) -> np.ndarray:
    return _frozen(j_block(m, n).dense)


def _ct(x: np.ndarray) -> np.ndarray:
    return x.conj().swapaxes(-1, -2)


def _unit(x: np.ndarray) -> np.ndarray:
    """A per-matrix scalar with two unit axes, to scale matrices."""
    return x[..., None, None]


def _col(label: str, witness, holds) -> tuple:
    return label, np.asarray(witness).tolist(), np.asarray(holds).tolist()


def _psd_cols(slacks: list, trials: int, tol: float) -> list:
    """One column per labeled slack stack, all decided by one stacked
    eigvalsh on the slacks as they are, exactly Hermitian as their instance.
    A slack without the trial axis (the eq18-matrix slack depends only on
    the dims) is decided once for all."""
    labels = [label for label, _ in slacks]
    stack = np.empty((len(slacks),) + slacks[0][1].shape, dtype=np.complex128)
    for i, out in enumerate(stack):  # each slack is released once copied
        out[...] = slacks[i][1]
        slacks[i] = None
    verdict = psd_verdict(stack, tol)
    shape = (len(labels), trials)
    return list(zip(labels,
                    np.broadcast_to(verdict.witness.reshape(len(labels), -1), shape).tolist(),
                    np.broadcast_to(verdict.holds.reshape(len(labels), -1), shape).tolist()))


def _vcol(label: str, verdict) -> tuple:
    return _col(label, verdict.witness, verdict.holds)


def _pm_cols(verdict) -> list:
    """The plus and minus columns of a verdict on a _norm_sides stack."""
    return [_col(label, w, h)
            for label, w, h in zip(("plus", "minus"), verdict.witness, verdict.holds)]


def _term(fn) -> cached_property:
    """A Derived term, built once on first read and made read-only."""
    return cached_property(lambda d: _frozen(fn(d)))


class Derived:
    """Common derived objects of a block instance, or of a (T, mn, mn)
    stack of them: the terms every bound is written in, each built once on
    first read and read-only.  Per-matrix scalars (tr, lam_max, lam_min)
    carry two unit axes, so they scale matrices directly.  The instance and
    every matrix term are exactly Hermitian, so spectra read them as they are."""

    def __init__(self, a: BlockMatrix):
        self.a = a
        self.m, self.n = a.m, a.n
        self.dense = a.dense

    tau = _term(lambda d: partial_transpose(d.a).dense)
    tr1 = _term(lambda d: partial_trace_1(d.a))
    tr2 = _term(lambda d: partial_trace_2(d.a))
    tr = _term(lambda d: _unit(_tr(d.dense).real))
    d_a = _term(lambda d: block_diag(d.a).dense)
    l1 = _term(lambda d: kron_left(d.tr1, d.m))  # I_m (x) tr_1 A
    r2 = _term(lambda d: kron_right(d.tr2, d.n))  # (tr_2 A) (x) I_n
    r2_tau = _term(lambda d: kron_right(d.tr2.swapaxes(-1, -2), d.n))  # (tr_2 A^tau) (x) I_n
    # (tr_2 D_A) (x) I_n: tr_2 D_A is the diagonal of tr_2 A
    r2_da = _term(lambda d: kron_right(np.where(np.eye(d.m, dtype=bool), d.tr2, 0), d.n))
    t = _term(lambda d: d.tr * d.identity)  # (tr A) I
    g = _term(lambda d: d.l1 - d.dense)  # I_m (x) tr_1 A - A
    tau_j = _term(lambda d: d.tau * d.jb)  # A^tau o (J_m (x) I_n)
    g_j = _term(lambda d: d.g * d.jb)  # g o (J_m (x) I_n)
    diag = _term(lambda d: np.diagonal(d.dense, axis1=-2, axis2=-1).real)  # real diagonal of A
    # Eigenvalues of each matrix, non-increasing along the last axis.
    lam = _term(lambda d: eigvals_descending(d.dense))
    lam_tau = _term(lambda d: eigvals_descending(d.tau))
    lam_tr1 = _term(lambda d: eigvals_descending(d.tr1))
    lam_tr2 = _term(lambda d: eigvals_descending(d.tr2))
    lam_da = _term(lambda d: hermitian_eigvals_stack(d.d_a))  # refuses a non-Hermitian D_A
    # The diagonal blocks M and N of H = symmetrize_offdiag(A) sum to
    # A_11 + A_22 = tr_1 A.
    lam_sym = _term(lambda d: eigvals_descending(symmetrize_offdiag(d.a, False).dense))
    lam_skew = _term(lambda d: eigvals_descending(symmetrize_offdiag(d.a, True).dense))

    @_term
    def lam_blocks(d):
        # lambda(A_11) + ... + lambda(A_mm) as sorted vectors, by one eigvalsh
        # call over every diagonal block.
        spectra = eigvals_descending(diagonal_blocks(d.a.as_blocks()))
        acc = np.zeros(spectra.shape[:-2] + spectra.shape[-1:])
        for i in range(d.m):  # in block order: spectra.sum(axis=-2) moves witness bits
            acc += spectra[..., i, :]
        return acc

    @property
    def jb(self):
        return _jb(self.m, self.n)

    @property
    def identity(self):
        return _eye(self.m * self.n)

    @property
    def lam_max(self):
        return _unit(self.lam[..., 0])

    @property
    def lam_min(self):
        return _unit(self.lam[..., -1])


def _blocks_2x2(a: BlockMatrix):
    """(A, B, C) of a 2x2 block instance [[A, B], [B*, C]]; its callers get
    only instances of 2 blocks (require_shape)."""
    return a.block(0, 0), a.block(0, 1), a.block(1, 1)


@_constant
def eq18_slack(m: int, n: int) -> np.ndarray:
    """(m-2)n I + n J_m (x) I_n - J_m (x) J_n - (m-2) I_m (x) J_n; read-only."""
    return _frozen(
        (m - 2) * n * np.eye(m * n)
        + n * _jb(m, n).real
        - np.ones((m * n, m * n))
        - (m - 2) * kron_left(np.ones((n, n)), m).real
    )


def symmetrize_offdiag(a: BlockMatrix, skew: bool) -> BlockMatrix:
    """Average a PSD 2x2 block matrix with a unitary conjugate so the
    off-diagonal block becomes exactly Hermitian (or skew-Hermitian) while
    positivity is preserved (average of two PSD matrices).

    The conjugate U A U* by U = [[0, I], [s I, 0]], s = -1 when skew and 1
    otherwise, is the block swap [[A_22, s A_21], [s A_12, A_11]]; the
    average is exactly Hermitian when A is, as IEEE addition commutes."""
    if a.m != 2:
        raise ValueError("needs a 2x2 block matrix")
    b12, b21 = a.block(0, 1), a.block(1, 0)
    if skew:
        b12, b21 = -b12, -b21
    swapped = np.block([[a.block(1, 1), b21], [b12, a.block(0, 0)]])
    return BlockMatrix(2, a.n, (a.dense + swapped) / 2)


def choi_block(a: BlockMatrix) -> BlockMatrix:
    """[[ (tr A)I + C, (tr B)I - B ], [ (tr B*)I - B*, (tr C)I + A ]]."""
    ab, bb, cb = _blocks_2x2(a)
    eye = _eye(a.n)
    tr_b = _unit(_tr(bb))
    return BlockMatrix(2, a.n, np.block([
        [_unit(_tr(ab)) * eye + cb, tr_b * eye - bb],
        [tr_b.conjugate() * eye - _ct(bb), _unit(_tr(cb)) * eye + ab],
    ]))


# ---------------------------------------------------------------------------
# slack builders: fn(Derived) -> [(label, slack matrix), ...]
# The registry row of every psd-slack and ppt-of-derived case carries its
# builder; check_case and build_slack both use it.


def _fold(row, d: Derived) -> np.ndarray:
    """Sum of row's (coef, term) pairs over the terms of d, folded left to
    right from the first term (coef 1) by acc + x or acc - x, x = |coef| * term
    when |coef| != 1: the bits of the hand-written a - b - 2 * c.  A
    (-1+0j) * x would not be exact: it flips signed zeros."""
    (_, first), *rest = row
    acc = getattr(d, first)
    for coef, name in rest:
        x = getattr(d, name) if abs(coef) == 1 else abs(coef) * getattr(d, name)
        acc = acc + x if coef > 0 else acc - x
    return acc


@dataclass(frozen=True)
class LinearSlacks:
    """Builder of slacks linear in A from a coefficient table, rows =
    ((label, ((coef, term), ...)), ...) over Derived term names, by _fold."""
    rows: tuple

    def __call__(self, d: Derived) -> list:
        return [(label, _fold(row, d)) for label, row in self.rows]


# R(A) = (tr A) I + A - I_m (x) tr_1 A - (tr_2 A) (x) I_n
_RESIDUAL = ((1, "t"), (1, "dense"), (-1, "l1"), (-1, "r2"))
# (tr_2 A^tau) (x) I_n -+ A^tau: blockwise psi(X) = (tr X) I - X on A^tau's
# blocks, and the partial transpose of blockwise phi(X) = (tr X) I + X on A's.
_CHOI_PLUS = ((1, "r2_tau"), (-1, "tau"))
_CHOI_MINUS = ((1, "r2_tau"), (1, "tau"))
# Blockwise phi, (tr_2 A) (x) I_n + A, and its partial transpose; at m = 2 it
# is the lin-2x2-ppt matrix.
_PHI = LinearSlacks((("derived", ((1, "r2"), (1, "dense"))), ("derived-tau", _CHOI_MINUS)))
_HORODECKI = LinearSlacks((("tr1", ((1, "g"),)), ("tr2", ((1, "r2"), (-1, "dense")))))


# The Hermitian bounds k lambda_min(A) I <= lhs - rhs <= k lambda_max(A) I; each
# side is a psd row on the shift A - lambda_min(A) I or lambda_max(A) I - A.
def _lambda_sides(lhs, rhs, k, d):
    """(lower, upper) slacks: lhs - k lambda_min I - rhs, rhs + k lambda_max I - lhs."""
    return lhs - k * d.lam_min * d.identity - rhs, rhs + k * d.lam_max * d.identity - lhs


# The sandwich and lambda_min bounds of base + A^tau, with correction corr and
# multiplier k - 1, name their terms: ("l1", "d_a", "m") or ("r2_tau", "tau_j", "n").
def _sb_sandwich(base, corr, k, d):
    lower, upper = _lambda_sides(getattr(d, base) + d.tau, 2 * getattr(d, corr),
                                 getattr(d, k) - 1, d)
    return [("upper", upper), ("lower", lower)]


def _sb_lambda_min(base, k, d):
    return [("main", getattr(d, base) + d.tau - (getattr(d, k) - 1) * d.lam_min * d.identity)]


def _sb_choi_hermitian_ando(d):
    lower, upper = _lambda_sides(d.dense + d.t, d.l1 + d.r2, (d.m - 1) * (d.n - 1), d)
    return [("max", upper), ("min", lower)]


def _sb_prop_hermitian_minus(d):
    lhs = d.t - d.r2
    ge_plus, le_plus = _lambda_sides(lhs, d.g, (d.m - 1) * (d.n - 1), d)
    ge_minus, le_minus = _lambda_sides(lhs, -d.g, (d.m - 1) * (d.n + 1), d)
    return [("ge-plus", ge_plus), ("ge-minus", ge_minus),
            ("le-plus", le_plus), ("le-minus", le_minus)]


def _sb_prop_hermitian_plus(d):
    ge, le = _lambda_sides(d.t + d.r2, d.l1 + d.dense, (d.m + 1) * (d.n - 1), d)
    return [("ge", ge), ("le", le)]


def _sb_eq18(d):
    return [("main", eq18_slack(d.m, d.n))]


def _sb_choi_block(d):
    """choi_block(A) and its partial transpose, the two objects
    choi-block-ppt asserts to be PSD."""
    b = choi_block(d.a)
    return [("derived", b.dense), ("derived-tau", partial_transpose(b).dense)]


# ---------------------------------------------------------------------------
# non-slack case checks: fn(payload stack, tol) -> columns, or an exact-integer
# case's _Exact


def _case_psi_not_2_positive(d: Derived, tol):
    """lambda_min of blockwise psi(E); holds when it reaches -1 (n >= 2).

    At n = 1, psi(x) = x - x = 0 on 1x1 blocks, so psi(E) is zero and no
    violation exists: the case reports witness 0 and holds=False."""
    lam_min = eigvals_descending(d.r2 - d.dense)[..., -1]  # blockwise psi(E)
    return [_col("violation-detected", lam_min, lam_min <= -1.0 + tol)]


def _trace_2x2(gap, d: Derived, tol):
    """One scalar part, gap(trA trC, |trB|^2, tr(AC), tr(B*B)) >= 0.

    |trB|^2 is libm hypot, then libm pow(., 2), as Python's abs(z) ** 2
    takes it; a plain numpy square can round it differently."""
    ab, bb, cb = _blocks_2x2(d.a)
    ac, tr_b = _tr(ab).real * _tr(cb).real, _tr(bb)
    b2 = np.float_power(np.hypot(tr_b.real, tr_b.imag), 2.0)
    tr_ac, tr_bb = _tr(ab @ cb).real, _tr(_ct(bb) @ bb).real
    scale = np.abs(ac) + b2 + np.abs(tr_ac) + tr_bb
    return [_vcol("main", gap_verdict(gap(ac, b2, tr_ac, tr_bb), tol, scale))]


def _ck_sums(x: np.ndarray) -> np.ndarray:
    """The exact sums of each matrix of the (T, m, n) integer stack x, all
    taken at once: what every exact-integer case of a draw reads.  Row i
    holds matrix i's (m, n, total, sq, row_sq, col_sq): its dims, the sum
    of its entries, of their squares, of its squared row sums and of its
    squared column sums, the arguments of a _CK_* gap in order.

    With |entries| <= K, every sum and every term of a gap is at most
    5 (mn)^2 K^2 in absolute value, so int64 is exact when
    8 (mn)^2 K^2 < 2^62; otherwise they are Python ints (object dtype).
    K is taken in Python ints: abs(-2^63) wraps in int64.  Any dtype but a
    (non-bool) integer is refused, not truncated by a cast."""
    if x.dtype.kind not in "iu":
        raise ValueError(f"an exact-integer case needs integer entries, got dtype {x.dtype}")
    trials, m, n = x.shape
    k = max(-int(x.min()), int(x.max()))
    x = x.astype(np.int64 if 8 * (m * n * k) ** 2 < 1 << 62 else object, copy=False)
    # Sums along one short axis as products with ones: numpy's integer
    # matmul loop takes them faster than its sum reduction.
    ones_m, ones_n = np.ones(m, dtype=np.int64), np.ones(n, dtype=np.int64)
    row, col = x @ ones_n, ones_m @ x
    return np.stack([np.full(trials, m), np.full(trials, n), row @ ones_m,
                     (x * x).sum(axis=(-2, -1)), (row * row) @ ones_m, (col * col) @ ones_n],
                    axis=-1)


class _Exact(NamedTuple):
    """The columns of an exact-integer case, not yet evaluated: its
    (label, gap) pairs and the _ck_sums rows of its trials (see _decided)."""
    gaps: tuple
    sums: np.ndarray


def _ck(gaps, sums: np.ndarray, tol) -> _Exact:
    """The integer inequalities gap(*sums) >= 0 of gaps, exact and so
    without a tolerance; evaluated by _decided."""
    return _Exact(gaps, sums)


def _decided(entries: list) -> list:
    """entries, one case's (m, n, columns) of _evaluate on several shape
    groups, with an exact-integer case's _Exact made its columns: each gap
    evaluated once on the sums of all the groups, with one .tolist() per
    column, and each group's columns its slice.  A gap is an integer
    expression in the row's own m and n, so groups of any dims, int64 or
    Python-int sums, share one evaluation.  Other entries are returned as
    they are."""
    if not isinstance(entries[0][2], _Exact):
        return entries
    sums = np.concatenate([exact.sums for _, _, exact in entries]).T
    columns = []
    for label, gap in entries[0][2].gaps:
        g = gap(*sums)
        columns.append((label, g.astype(np.float64).tolist(), (g >= 0).tolist()))
    decided, lo = [], 0
    for m, n, exact in entries:
        hi = lo + len(exact.sums)
        decided.append((m, n, [(label, w[lo:hi], h[lo:hi]) for label, w, h in columns]))
        lo = hi
    return decided


_CK_CLASSICAL = (
    ("main", lambda m, n, total, sq, row_sq, col_sq:
        total**2 + m * n * sq - m * row_sq - n * col_sq),
)
_CK_LIH = (
    ("abs", lambda m, n, total, sq, row_sq, col_sq:
        m * n * sq - n * col_sq - abs(m * row_sq - total**2)),
    ("plus", lambda m, n, total, sq, row_sq, col_sq:
        m * n * sq + n * col_sq - total**2 - m * row_sq),
    ("minus", lambda m, n, total, sq, row_sq, col_sq:
        m * n * sq - n * col_sq - total**2 + m * row_sq),
)
_CK_IMPROVED = (
    ("rows", lambda m, n, total, sq, row_sq, col_sq:
        (m - 2) * n * sq + n * col_sq - total**2 - (m - 2) * row_sq),
    ("cols", lambda m, n, total, sq, row_sq, col_sq:
        m * (n - 2) * sq + m * row_sq - total**2 - (n - 2) * col_sq),
)


def _majorizations(rows, d: Derived, tol):
    """One part per (label, y, x) row over Derived term names: the spectrum
    x majorized by the spectrum y."""
    return [_vcol(label, majorizes(getattr(d, y), getattr(d, x), tol)) for label, y, x in rows]


def _case_hiroshima(d: Derived, tol):
    """Each majorization part exists in the trials whose domination premise
    holds; in the others it is absent, a premise miss."""
    premises = _psd_cols(_HORODECKI(d), len(d.dense), tol)
    parts = _majorizations((("tr1", "lam_tr1", "lam"), ("tr2", "lam_tr2", "lam")), d, tol)
    return [(label, witnesses, [h if p else None for h, p in zip(holds, premise)])
            for (label, witnesses, holds), (_, _, premise) in zip(parts, premises)]


def _norm_sides(ab, bb, cb):
    """The stack [(tr B)I + B, (tr B)I - B] along a new leading axis, and
    (tr(A + C))I + A + C."""
    eye = _eye(bb.shape[-1])
    base = _unit(_tr(bb)) * eye
    return np.stack([base + bb, base - bb]), _unit(_tr(ab + cb).real) * eye + ab + cb


def _kyfan_gaps(lhs, rhs, factor: float) -> np.ndarray:
    """min over k of kyfan_k(rhs) - factor * kyfan_k(lhs), zero-padded, for
    every pair of matrices of the two stacks; extra leading axes of lhs
    broadcast over rhs, whose singular values are taken once."""
    s_l = singular_values_stack(lhs)
    s_r = singular_values_stack(rhs)
    length = max(s_l.shape[-1], s_r.shape[-1])
    gaps = (np.cumsum(pad_sorted(s_r, length), axis=-1)
            - factor * np.cumsum(pad_sorted(s_l, length), axis=-1))
    return gaps.min(axis=-1)


def _case_coro55_norms(d: Derived, tol):
    lhs, rhs = _norm_sides(*_blocks_2x2(d.a))
    return _pm_cols(gap_verdict(_kyfan_gaps(lhs, rhs, 2.0), tol, scale_stack(rhs)))


def _case_coro_half(d: Derived, tol):
    traces = d.tr2  # [[tr A, tr B], [tr B*, tr C]]
    lhs = _unit(traces[..., 0, 1]) * _eye(d.n) + d.a.block(0, 1)
    factor = 2.0 / (d.n + 1)
    gap = _kyfan_gaps(lhs, traces, factor) / factor  # rescale to the norm bound
    return [_vcol("main", gap_verdict(gap, tol, scale_stack(traces) * (d.n + 1)))]


def _case_thm37_singular(d: Derived, tol):
    return _pm_cols(sv_dominates(*_norm_sides(*_blocks_2x2(d.a)), 2.0, tol))


def _case_lem39(pair, tol):
    m_fac, n_fac = pair  # each of shape (T, n, q)
    lhs = m_fac @ _ct(n_fac)
    rhs = _herm(_ct(m_fac) @ m_fac + _ct(n_fac) @ n_fac)
    return [_vcol("main", sv_dominates(lhs, rhs, 2.0, tol))]


def _case_lem38(pair, tol):
    m_fac, n_fac = pair
    n_rows = m_fac.shape[-2]
    gram = _ct(m_fac) @ m_fac + _ct(n_fac) @ n_fac
    star = eigvals_descending(_herm(gram))  # matmul products are not exactly Hermitian
    plain = eigvals_descending(_herm(m_fac @ _ct(m_fac) + n_fac @ _ct(n_fac)))
    cross = _ct(m_fac) @ n_fac
    shift = 0.5 * _tr(gram - cross - _ct(cross)).real
    lhs = pad_sorted(star, max(star.shape[-1], n_rows))[..., :n_rows]
    rhs = plain[..., :n_rows] + shift[..., None]
    witness = (rhs - lhs).min(axis=-1)
    scale = scale_stack(m_fac) ** 2 + scale_stack(n_fac) ** 2
    return [_vcol("main", gap_verdict(witness, tol, scale))]


def _case_abs_block(x, tol):
    abs_x, abs_xs = matrix_abs_stack(np.stack([x, _ct(x)]))
    return _pm_cols(sv_dominates(*_norm_sides(abs_x, x, abs_xs), 2.0, tol))


# ---------------------------------------------------------------------------
# registry


@dataclass(frozen=True)
class TheoremCase:
    """One registry row.

    fn of a psd-slack or ppt-of-derived case is its slack builder,
    Derived -> [(label, matrix stack), ...]: a LinearSlacks coefficient
    table for a slack linear in A, else a function.  Every other case's fn
    is its check, (payload stack, tol) -> part columns.  input_class names
    an entry of INPUT_CLASSES."""
    id: str
    input_class: str
    check_kind: str
    description: str
    fn: Callable


def _registry():
    cases = [
        TheoremCase("choi-tr1", "psd", "psd-slack", "I_m(x)tr1(A^tau) dominates A^tau",
                    LinearSlacks((("main", ((1, "l1"), (-1, "tau"))),))),
        TheoremCase("li-tr1-improved", "psd", "psd-slack",
                    "I_m(x)tr1(A^tau) + A^tau dominates 2 D_A",
                    LinearSlacks((("main", ((1, "l1"), (1, "tau"), (-2, "d_a"))),))),
        TheoremCase("tr1-hermitian-sandwich", "hermitian", "psd-slack",
                    "eigenvalue sandwich for I_m(x)tr1(A^tau) + A^tau",
                    partial(_sb_sandwich, "l1", "d_a", "m")),
        TheoremCase("tr1-lambda-min", "psd", "psd-slack",
                    "lambda_min variant of the tr1 bound", partial(_sb_lambda_min, "l1", "m")),
        TheoremCase("tr2-hadamard", "psd", "psd-slack", "tr2 bound with Hadamard-J correction",
                    LinearSlacks((("main", ((1, "r2_tau"), (1, "tau"), (-2, "tau_j"))),))),
        TheoremCase("tr2-hermitian-sandwich", "hermitian", "psd-slack",
                    "eigenvalue sandwich for (tr2 A^tau)(x)I_n + A^tau",
                    partial(_sb_sandwich, "r2_tau", "tau_j", "n")),
        TheoremCase("tr2-lambda-min", "psd", "psd-slack", "lambda_min variant of the tr2 bound",
                    partial(_sb_lambda_min, "r2_tau", "n")),
        TheoremCase("choi-tr2-pm", "psd", "psd-slack", "(tr2 A^tau)(x)I_n dominates +-A^tau",
                    LinearSlacks((("plus", _CHOI_PLUS), ("minus", _CHOI_MINUS)))),
        TheoremCase("horodecki-reduction", "ppt", "psd-slack",
                    "reduction criterion for PPT instances", _HORODECKI),
        TheoremCase("phi-completely-ppt", "psd", "ppt-of-derived",
                    "blockwise (tr X)I + X yields a PPT block matrix", _PHI),
        TheoremCase("psi-completely-copositive", "psd", "psd-slack",
                    "blockwise (tr X)I - X on swapped blocks stays PSD",
                    LinearSlacks((("main", _CHOI_PLUS),))),
        TheoremCase("psi-not-2-positive", "matrix-unit-E", "expected-failure",
                    "blockwise (tr X)I - X breaks positivity on the "
                    "matrix-unit block instance", _case_psi_not_2_positive),
        TheoremCase("trace-2x2-besenyei", "psd-2x2", "scalar",
                    "trA trC - |trB|^2 >= tr(AC) - tr(B*B)",
                    partial(_trace_2x2, lambda ac, b2, tr_ac, tr_bb: ac - b2 - (tr_ac - tr_bb))),
        TheoremCase("trace-2x2-kittaneh-lin", "psd-2x2", "scalar",
                    "trA trC - |trB|^2 >= tr(B*B) - tr(AC)",
                    partial(_trace_2x2, lambda ac, b2, tr_ac, tr_bb: ac - b2 - (tr_bb - tr_ac))),
        TheoremCase("trace-2x2-plus", "psd-2x2", "scalar",
                    "trA trC + |trB|^2 >= tr(AC) + tr(B*B)",
                    partial(_trace_2x2, lambda ac, b2, tr_ac, tr_bb: ac + b2 - tr_ac - tr_bb)),
        TheoremCase("ando", "psd", "psd-slack",
                    "(tr A)I - (tr2 A)(x)I_n dominates I_m(x)tr1 A - A",
                    LinearSlacks((("main", _RESIDUAL),))),
        TheoremCase("li-liu-huang-minus", "psd", "psd-slack",
                    "two-sided version of the Ando-type bound",
                    LinearSlacks((("plus", ((1, "t"), (-1, "r2"), (-1, "g"))),
                                  ("minus", ((1, "t"), (-1, "r2"), (1, "g")))))),
        TheoremCase("li-liu-huang-pm", "psd", "psd-slack",
                    "(tr A)I +- (tr2 A)(x)I_n dominates A +- I_m(x)tr1 A",
                    LinearSlacks((("plus", ((1, "t"), (1, "r2"), (-1, "dense"), (-1, "l1"))),
                                  ("minus", ((1, "t"), (-1, "r2"), (-1, "dense"), (1, "l1")))))),
        TheoremCase("thm42-improved", "psd", "psd-slack",
                    "plus-side bound improved by 2(tr2 D_A)(x)I_n - 2 D_A",
                    LinearSlacks((("main", ((1, "t"), (1, "r2"), (-1, "dense"), (-1, "l1"),
                                            (-2, "r2_da"), (2, "d_a"))),))),
        TheoremCase("thm44-improved", "psd", "psd-slack",
                    "minus-side bound improved by a Hadamard-J correction",
                    LinearSlacks((("main", ((1, "t"), (-1, "r2"), (-1, "dense"), (1, "l1"),
                                            (-2, "g_j"))),))),
        TheoremCase("thm4p4-analogue", "psd", "psd-slack",
                    "all-plus analogue dominating 2(tr2 D_A)(x)I_n + 2 D_A",
                    LinearSlacks((("main", ((1, "t"), (1, "r2"), (1, "l1"), (1, "dense"),
                                            (-2, "r2_da"), (-2, "d_a"))),))),
        TheoremCase("choi-hermitian-ando", "hermitian", "psd-slack",
                    "(m-1)(n-1) lambda sandwich around the Ando combination",
                    _sb_choi_hermitian_ando),
        TheoremCase("prop-hermitian-minus", "hermitian", "psd-slack",
                    "(m-1)(n-+1) lambda bounds for the minus combination",
                    _sb_prop_hermitian_minus),
        TheoremCase("prop-hermitian-plus", "hermitian", "psd-slack",
                    "(m+1)(n-1) lambda bounds for the plus combination",
                    _sb_prop_hermitian_plus),
        TheoremCase("ck-classical", "real-int", "scalar",
                    "classical row/column sum-of-squares inequality "
                    "(exact integers)", partial(_ck, _CK_CLASSICAL)),
        TheoremCase("ck-lih", "real-int", "scalar",
                    "two-sided extensions of the classical inequality "
                    "(exact integers)", partial(_ck, _CK_LIH)),
        TheoremCase("ck-improved", "real-int", "scalar",
                    "improved row/column inequalities (exact integers)",
                    partial(_ck, _CK_IMPROVED)),
        TheoremCase("eq18-matrix", "zero", "psd-slack",
                    "commuting-J matrix inequality behind the scalar improvements",
                    _sb_eq18),
        TheoremCase("schur-majorization", "hermitian", "majorization",
                    "diagonal majorized by eigenvalues",
                    partial(_majorizations, (("main", "lam", "diag"),))),
        TheoremCase("eqm1-majorization", "psd", "majorization",
                    "lambda(D_A) < lambda(A) < sum of block spectra",
                    partial(_majorizations, (("lower", "lam", "lam_da"),
                                             ("upper", "lam_blocks", "lam")))),
        TheoremCase("eqm2-rotfeld-thompson", "psd", "majorization",
                    "lambda(D_A) < lambda(tr1 A) < sum of block spectra",
                    partial(_majorizations, (("lower", "lam_tr1", "lam_da"),
                                             ("upper", "lam_blocks", "lam_tr1")))),
        TheoremCase("hiroshima-conditional", "psd", "conditional-majorization",
                    "domination premise implies spectrum majorized by "
                    "partial trace", _case_hiroshima),
        TheoremCase("ppt-majorization", "ppt", "majorization",
                    "spectra of A and A^tau majorized by both partial traces",
                    partial(_majorizations, (
                        ("a-tr1", "lam_tr1", "lam"), ("a-tr2", "lam_tr2", "lam"),
                        ("tau-tr1", "lam_tr1", "lam_tau"), ("tau-tr2", "lam_tr2", "lam_tau")))),
        TheoremCase("hermitian-offdiag-majorization", "psd-2x2", "majorization",
                    "Hermitian off-diagonal block: lambda(H) < lambda(M+N)",
                    partial(_majorizations, (("main", "lam_tr1", "lam_sym"),))),
        TheoremCase("skew-offdiag-majorization", "psd-2x2", "majorization",
                    "skew-Hermitian off-diagonal block: lambda(H) < lambda(M+N)",
                    partial(_majorizations, (("main", "lam_tr1", "lam_skew"),))),
        TheoremCase("lin-2x2-ppt", "psd-2x2", "ppt-of-derived",
                    "trace-augmented 2x2 block matrix is PPT", _PHI),
        TheoremCase("choi-block-ppt", "psd-2x2", "ppt-of-derived",
                    "cross-trace-augmented 2x2 block matrix is PPT", _sb_choi_block),
        TheoremCase("coro55-norms", "psd-2x2", "scalar",
                    "Ky Fan family: 2||(trB)I+-B|| <= ||(tr(A+C))I + A+C||",
                    _case_coro55_norms),
        TheoremCase("coro-n-plus-1-half", "psd-2x2", "scalar",
                    "Ky Fan family: ||(trB)I+B|| <= (n+1)/2 ||trace 2x2||",
                    _case_coro_half),
        TheoremCase("thm37-singular", "psd-2x2", "sv-dominance",
                    "per-index singular value domination for (trB)I+-B",
                    _case_thm37_singular),
        TheoremCase("lem39-singular", "gram-pair", "sv-dominance",
                    "2 s_j(MN*) <= s_j(M*M + N*N)", _case_lem39),
        TheoremCase("lem38-eigen", "gram-pair", "scalar",
                    "lambda_j(M*M+N*N) <= lambda_j(MM*+NN*) + trace shift",
                    _case_lem38),
        TheoremCase("abs-block-corollary", "square", "sv-dominance",
                    "2 s_j((trX)I+-X) <= s_j((tr(|X|+|X*|))I + |X|+|X*|)",
                    _case_abs_block),
        TheoremCase("open-question-residual", "psd", "psd-slack",
                    "scan residual (tr A)I + A - I_m(x)tr1 A - (tr2 A)(x)I_n",
                    LinearSlacks((("ando-sanity", _RESIDUAL),))),
    ]
    return {c.id: c for c in cases}


REGISTRY = _registry()

# Check kinds whose fn builds slack matrices that must all be PSD.
_SLACK_KINDS = ("psd-slack", "ppt-of-derived")


def case_ids() -> list:
    return list(REGISTRY)


# ---------------------------------------------------------------------------
# instances and case execution


def _psd_instances(m: int, n: int, seed):
    """psd instances: seeds divisible by 5 draw rank mn/2 instead of full
    rank, to exercise boundary eigenvalues.  A seed array draws one stack
    per rank into the rows of one (T, mn, mn) stack."""
    half = max(1, (m * n) // 2)
    if np.ndim(seed) == 0:
        return gen(GenSpec("psd", m=m, n=n, seed=seed, rank=half if seed % 5 == 0 else None))
    low = seed % 5 == 0
    dense = np.empty((len(seed), m * n, m * n), dtype=np.complex128)
    for mask, rank in ((~low, None), (low, half)):
        if mask.any():
            dense[mask] = gen(GenSpec("psd", m=m, n=n, seed=seed[mask], rank=rank)).dense
    return BlockMatrix(m, n, dense)


def _gen(kind: str, m: int, n: int, seed):
    return gen(GenSpec(kind, m=m, n=n, seed=seed))


def _zero_instances(m: int, n: int, seed):
    return BlockMatrix(m, n, np.zeros(np.shape(seed) + (m * n, m * n), dtype=np.complex128))


def _psd_problem(a: BlockMatrix, tol):
    if not is_psd(a.dense, tol).holds.all():
        return "input matrix is not positive semidefinite"
    return None


def _ppt_problem(a: BlockMatrix, tol):
    problem = _psd_problem(a, tol)
    if problem is None and not is_psd(partial_transpose(a).dense, tol).holds.all():
        return "input matrix does not have a PSD partial transpose"
    return problem


def _two_blocks(m: int, n: int) -> tuple:
    return 2, n


def _square(m: int, n: int) -> tuple:
    return n, n


def _own_dims(m: int, n: int) -> tuple:
    return m, n


def _fixed_problem(input_class: str, name: str):
    """problem of a class whose draw at each dims ignores the seed: any
    input, or row of a stack, other than that fixed instance of its dims is
    refused."""
    def problem(a: BlockMatrix, tol):
        if not (_draw_at(input_class, a.m, a.n, 0).dense == a.dense).all():
            return f"input matrix is not the {name} instance of its dims"
        return None
    return problem


@dataclass(frozen=True)
class InputClass:
    """One kind of case input.

    shape(m, n) is the shape of the instance at dims (m, n): the only dims
    that draw and nbytes see, so the engine draws the trials of dims with
    one shape together.  shape(*shape(m, n)) is shape(m, n), and an input
    whose dims are not a shape is refused (require_shape).
    draw(m, n, seed) is the seeded instance of shape (m, n); a 1-D seed
    array gives every seed's instance stacked along a leading trial axis.
    load(obj) parses the JSON object of one instance, in serialize's format
    of its type, and raises ValueError when it is malformed or non-finite.
    nbytes(m, n) is the bytes of one instance of shape (m, n), which size
    the chunks of trials; load and nbytes default to a block class's.
    problem(instance, tol) names the precondition that an instance, or a
    row of a stack, fails, or is None; require_instance is its one caller.
    payload(stack) is what the non-slack checks of the class read of a
    stack, taken once for every case of a draw: the stack itself, or
    real-int's exact sums."""
    draw: Callable
    load: Callable = serialize.block_from_obj
    nbytes: Callable = lambda m, n: 16 * (m * n) ** 2
    problem: Callable = lambda instance, tol: None
    shape: Callable = _own_dims
    payload: Callable = lambda stack: stack


# 2x2-block classes fix the block count at 2 and use n as block size;
# gram-pair factors have shape (n, m); the square X is n x n.
INPUT_CLASSES = {
    "psd": InputClass(_psd_instances, problem=_psd_problem),
    "hermitian": InputClass(partial(_gen, "hermitian")),
    "ppt": InputClass(partial(_gen, "ppt"), problem=_ppt_problem),
    "psd-2x2": InputClass(partial(_gen, "psd"), problem=_psd_problem, shape=_two_blocks),
    "gram-pair": InputClass(lambda m, n, seed: _gen("gram-pair", n, m, seed),
                            serialize.pair_from_obj, lambda m, n: 2 * 16 * m * n),
    "real-int": InputClass(partial(_gen, "real-int"), serialize.int_matrix_from_obj,
                           lambda m, n: 8 * m * n, payload=_ck_sums),
    "matrix-unit-E": InputClass(partial(_gen, "matrix-unit-E"), shape=_two_blocks,
                                problem=_fixed_problem("matrix-unit-E", "matrix-unit")),
    "zero": InputClass(_zero_instances, problem=_fixed_problem("zero", "zero")),
    "square": InputClass(lambda m, n, seed: ginibre(Stream(seed), m, n),
                         serialize.matrix_from_obj, lambda m, n: 16 * m * n, shape=_square),
}


def _draw_at(input_class: str, m: int, n: int, seed):
    """The input class's instance at dims (m, n): its draw at their shape."""
    row = INPUT_CLASSES[input_class]
    return row.draw(*row.shape(m, n), seed)


def _nbytes_at(input_class: str, m: int, n: int) -> int:
    """The bytes of one instance of the input class at dims (m, n)."""
    row = INPUT_CLASSES[input_class]
    return row.nbytes(*row.shape(m, n))


def make_instance(case_id: str, m: int, n: int, seed):
    """Instance of the case's input class at the given dims; a 1-D array of
    seeds gives every seed's instance stacked along a leading trial axis."""
    return _draw_at(REGISTRY[case_id].input_class, m, n, seed)


def build_slack(case_id: str, instance):
    """The Hermitian objects whose positivity the case asserts, of an
    instance or of a stack of them; ValueError unless every row is an
    instance of the case's input class (require_instance at PSD_TOL).

    psd-slack cases return their labeled slack matrices; ppt-of-derived
    cases return the derived block matrix and its partial transpose."""
    case = REGISTRY.get(case_id)
    if case is None:
        raise KeyError(f"unknown case id {case_id!r}")
    if case.check_kind not in _SLACK_KINDS:
        raise ValueError(f"case {case_id!r} has no slack-matrix form; use check_case")
    instance = require_instance(case.input_class, instance)
    return [(label, _herm(s)) for label, s in case.fn(Derived(instance))]


def _evaluate(cases: list, draw: list, height: int, tol: float) -> list:
    """(m, n, columns) of each of cases on one draw of a shape group, case i
    on its rows [i * height, (i + 1) * height): every part column, for all
    its trials at once.  The slacks of every psd-slack and ppt-of-derived
    case among them are decided together by one _psd_cols call.

    draw is a one-element list holding the draw's stack, which _evaluate
    takes out of it, so that no argument of the call keeps the stack alive
    (CPython 3.10 holds a call's arguments until it returns, and so does a
    wrapper that holds *args).  While the verdict runs, its stack is the
    only copy of the draw's slacks: no name here keeps a slack, _psd_cols
    frees each once copied, and the draw is dropped before the call."""
    stack = draw.pop()
    m, n = _dims(stack)
    payload = INPUT_CLASSES[cases[0].input_class].payload(stack)
    columns, slacks = [], []  # per case, its columns or its count of slacks
    for i, case in enumerate(cases):
        own = _each(payload, lambda x: x[i * height:(i + 1) * height])
        if case.check_kind in _SLACK_KINDS:
            count = len(slacks)
            slacks += case.fn(Derived(own))  # its Derived is freed before the verdict
            columns.append(len(slacks) - count)
        else:
            columns.append(case.fn(Derived(own) if isinstance(own, BlockMatrix) else own, tol))
    del stack, payload, own
    decided = iter(_psd_cols(slacks, height, tol) if slacks else ())
    return [(m, n, list(islice(decided, c)) if isinstance(c, int) else c) for c in columns]


def _dims(instance) -> tuple:
    """The dims (m, n) of an instance, or of a stack of them: a gram pair's
    factors are n x m, and a plain matrix is m x n."""
    if isinstance(instance, BlockMatrix):
        return instance.m, instance.n
    if isinstance(instance, tuple):
        return np.shape(instance[0])[-1:-3:-1]
    return np.shape(instance)[-2:]


def require_shape(input_class: str, instance) -> None:
    """ValueError unless the dims of the instance, or of a stack of them,
    are a shape of the input class: shape(*dims) == dims."""
    dims = _dims(instance)
    if INPUT_CLASSES[input_class].shape(*dims) != dims:
        raise ValueError("a {} instance cannot have dims {}x{}".format(input_class, *dims))


def require_instance(input_class: str, instance, tol: float = PSD_TOL):
    """The instance check_case, build_slack and `case --input` evaluate: a
    block matrix's Hermitian part, exact as every draw is, or the instance
    itself.  ValueError unless it, or every row of a stack of them, is an
    instance of the input class: a pair's factors of one shape, dims that
    are a shape of the class, a block matrix finite and Hermitian within
    HERMITIAN_TOL, and the class's problem None at max(tol, PSD_TOL), so a
    tight tol does not refuse its rank-deficient draws on rounding."""
    if isinstance(instance, tuple) and np.shape(instance[0]) != np.shape(instance[1]):
        raise ValueError("the two factors of the pair differ in shape")
    require_shape(input_class, instance)
    if isinstance(instance, BlockMatrix):
        instance = BlockMatrix(instance.m, instance.n, _herm(require_hermitian(instance.dense)))
    problem = INPUT_CLASSES[input_class].problem(instance, max(tol, PSD_TOL))
    if problem is not None:
        raise ValueError(problem)
    return instance


def _one(x) -> np.ndarray:
    """x as a stack of one matrix; ValueError unless x is one matrix."""
    x = np.asarray(x)
    if x.ndim != 2:
        raise ValueError(f"input is not one instance: an array has shape {x.shape}")
    return x[None]


def _each(instance, fn):
    """fn applied to every array of an instance, or of a stack of them,
    of any input class."""
    if isinstance(instance, BlockMatrix):
        return BlockMatrix(instance.m, instance.n, fn(instance.dense))
    if isinstance(instance, tuple):
        return tuple(fn(x) for x in instance)
    return fn(instance)


class _Row(NamedTuple):
    """One trial's SlackReport fields after its case_id and trial_seed."""
    m: int
    n: int
    parts: tuple
    premise_misses: int


def _rows(evaluated) -> list:
    """The _Row of every trial of one case's (m, n, columns) from _evaluate.

    Each column becomes its trials' Parts in one map, and zip turns the
    columns into per-trial tuples.  Only a case with absent parts (holds
    None, a premise miss) is filtered trial by trial."""
    m, n, columns = evaluated
    trials = zip(*[map(_new, repeat(Part), zip(repeat(label), witnesses, holds))
                   for label, witnesses, holds in columns])
    if any(None in holds for _, _, holds in columns):
        present = [tuple(p for p in parts if p[2] is not None) for parts in trials]
        return [_new(_Row, (m, n, parts, len(columns) - len(parts))) for parts in present]
    return list(map(_new, repeat(_Row), zip(repeat(m), repeat(n), trials, repeat(0))))


def check_case(case_id: str, instance, tol: float = PSD_TOL, seed: int = 0) -> SlackReport:
    """Run one case on one instance, checked as a stack of one; ValueError
    unless tol is valid (check_tol), every array of the instance is one
    matrix, and it is an instance of the case's input class
    (require_instance at tol).

    run_case_trials passes instead the _Row of a trial whose shape group it
    evaluated at once; the report is that row after case_id and seed."""
    if case_id not in REGISTRY:
        raise KeyError(f"unknown case id {case_id!r}")
    if not isinstance(instance, _Row):
        check_tol(tol)
        one_trial = require_instance(REGISTRY[case_id].input_class, _each(instance, _one), tol)
        instance = _rows(_decided(_evaluate([REGISTRY[case_id]], [one_trial], 1, tol))[0])[0]
    return _new(SlackReport, (case_id, seed) + instance)


# ---------------------------------------------------------------------------
# suite runner


def check_tol(tol: float) -> float:
    """tol itself; ValueError unless it is a finite non-negative real
    number: an int or float, Python or numpy, and not a bool."""
    if not (is_int(tol) or isinstance(tol, (float, np.floating))) or not 0.0 <= tol < np.inf:
        raise ValueError(f"tol must be a finite non-negative number, got {tol!r}")
    return tol


@dataclass(frozen=True)
class RunConfig:
    cases: tuple
    dims: tuple          # ((m, n), ...)
    trials: int
    seed: int
    tol: float = PSD_TOL

    def __post_init__(self):
        object.__setattr__(self, "cases", tuple(dict.fromkeys(self.cases)))  # each id once
        if not is_int(self.trials) or self.trials < 0:
            raise ValueError(f"trials must be a non-negative integer, got {self.trials!r}")
        if not self.dims:
            raise ValueError("dims must be nonempty")
        for item in self.dims:
            if np.shape(item) != (2,) or not all(is_int(k) and k >= 1 for k in item):
                raise ValueError(f"dims items must be pairs of integers >= 1, got {item!r}")
        check_seed(self.seed)
        check_tol(self.tol)
        unknown = [c for c in self.cases if c not in REGISTRY]
        if unknown:
            raise KeyError(f"unknown case ids: {', '.join(unknown)}")
        # numpy refuses an array of more bytes than intp holds before it
        # allocates; dims whose one instance is such an array are bad input.
        for name in dict.fromkeys(REGISTRY[c].input_class for c in self.cases):
            for m, n in self.dims:
                nbytes = _nbytes_at(name, m, n)
                if nbytes > np.iinfo(np.intp).max:
                    raise ValueError(f"dims {m}x{n} are too large: one {name} instance "
                                     f"would take {nbytes} bytes")


# Cap on the bytes of the instance stacks one chunk of trials draws at once,
# so memory stays flat in the trial count.  Within a chunk, a shape group's
# fraction of its trials times this caps one draw of an input class's cases;
# the merged verdict of a draw decides at most 4 slacks per instance.
_CHUNK_BYTES = 1 << 20
# Cap on the trials of a chunk.  Every case's columns of a chunk live until
# the chunk ends, and a case's reports of one shape group at once, as Python
# objects that _CHUNK_BYTES does not count: at 1x1, its bytes alone would
# admit 131,072 trials of them.
_CHUNK_TRIALS = 4096

def _chunk_trials(input_class: str, dims) -> int:
    """Trials per chunk: as many as keep its instance stacks near
    _CHUNK_BYTES, and at most _CHUNK_TRIALS."""
    cycle_bytes = sum(_nbytes_at(input_class, m, n) for m, n in dims)
    return max(1, min(_CHUNK_TRIALS, _CHUNK_BYTES * len(dims) // max(1, cycle_bytes)))


def _groups(base: int, tokens, dims, trials: int, step: int, shape=_own_dims):
    """Every chunk of `step` trials, in order, as the list of its shape
    groups (m, n, t, seeds): chunk k holds the trials
    [k * step, min((k + 1) * step, trials)).

    Trial t of a token has dims[t % len(dims)] and seed
    derive_seed(base, token, t).  The trials of a chunk whose dims have the
    same shape(*dims) form one group, drawn at that shape (m, n).  t holds the
    group's trial indices in ascending order, and seeds is the
    (len(tokens), len(t)) uint64 array whose seeds[k, i] is the seed of
    trial t[i] of tokens[k]; each chunk derives every token's seeds in one
    fold.  A stable sort of the chunk's trials by group cuts every group
    as one slice."""
    period = len(dims)
    members = {}  # shape -> the indices into dims of its dims
    for g, (m, n) in enumerate(dims):
        members.setdefault(shape(m, n), []).append(g)
    group_of = np.empty(period, dtype=np.intp)  # dims index -> group index
    for k, g in enumerate(members.values()):
        group_of[g] = k
    for lo in range(0, trials, step):
        ids = group_of[np.arange(lo, min(lo + step, trials)) % period]
        t = lo + np.argsort(ids, kind="stable")
        seeds = derive_seed(base, list(tokens), t)
        ends = np.cumsum(np.bincount(ids, minlength=len(members))).tolist()
        yield [(m, n, t[start:end], seeds[:, start:end])
               for (m, n), start, end in zip(members, [0] + ends, ends) if start < end]


def _decided_groups(case_ids: list, config: RunConfig):
    """(case_id, t, seeds, columns) of each of case_ids, requested cases of
    one input class, in every shape group of every chunk: the group's trial
    indices and the case's seeds for them, as lists, and _evaluate's
    (m, n, columns) of the case on them.

    In each shape group of a chunk, the cases' seed rows are drawn by one
    make_instance call, and one _evaluate call checks every case on its
    own rows of that stack, with one merged PSD verdict for their slacks.
    A draw holds the rows of at most _CHUNK_BYTES // (nbytes * chunk)
    cases, so its bytes are the group's fraction of the chunk's trials
    times _CHUNK_BYTES, and many cases split into several draws.  At the
    chunk's end, _decided finishes each case's groups at once: an
    exact-integer case's gaps are evaluated once on all its groups."""
    name = REGISTRY[case_ids[0]].input_class
    input_class, cases = INPUT_CLASSES[name], [REGISTRY[c] for c in case_ids]
    step = _chunk_trials(name, config.dims)
    chunk = min(step, config.trials)  # the trials of a full chunk
    for groups in _groups(config.seed, case_ids, config.dims, config.trials, step,
                          input_class.shape):
        evaluated = []  # per group, every case's (m, n, columns)
        for m, n, t, seeds in groups:
            per_draw = max(1, _CHUNK_BYTES // (input_class.nbytes(m, n) * chunk))
            evaluated.append([])
            for b in range(0, len(cases), per_draw):
                draw = [make_instance(case_ids[b], m, n, seeds[b:b + per_draw].ravel())]
                evaluated[-1] += _evaluate(cases[b:b + per_draw], draw, len(t), config.tol)
        for i, case_id in enumerate(case_ids):
            decided = _decided([group[i] for group in evaluated])
            for (_, _, t, seeds), columns in zip(groups, decided):
                yield case_id, t.tolist(), seeds[i].tolist(), columns


def _class_entries(case_ids: list, config: RunConfig) -> dict:
    """The entry of each of case_ids, requested cases of one input class.

    Case by case and group by group (_decided_groups), check_case makes
    every trial's report from its _rows row, and maps, sum and min
    aggregate the case's run of the group.  A trial's worst_dims is its
    configured dims, config.dims[t % len(dims)], whatever shape its group
    was drawn at."""
    dims, tol = config.dims, config.tol
    # Per case: trials, failures, premise misses, worst witness, its trial
    # and seed.
    totals = dict.fromkeys(case_ids, (0, 0, 0, None, None, None))
    for case_id, t, case_seeds, group in _decided_groups(case_ids, config):
        trials, failures, misses, worst, worst_t, worst_seed = totals[case_id]
        height = len(t)
        reports = list(map(check_case, repeat(case_id), _rows(group), repeat(tol), case_seeds))
        trials += height
        misses += sum(map(_misses, reports))
        # SlackReport.holds and .witness of each report, on parts read
        # once; a report without parts holds and is skipped.
        parts = list(map(_parts, reports))
        failures += height - sum(map(all, map(map, repeat(_holds), parts)))
        kept = range(height)
        if not all(parts):
            kept = list(compress(kept, parts))
            parts = list(filter(None, parts))
        if parts:
            witnesses = list(map(min, map(map, repeat(_witness), parts)))
            witness = min(witnesses)
            # The first least witness in trial order.  Groups arrive out
            # of trial order; a tie stays with the earliest trial.
            j = kept[witnesses.index(witness)]
            if worst is None or witness < worst or (witness == worst and t[j] < worst_t):
                worst, worst_t, worst_seed = witness, t[j], case_seeds[j]
        totals[case_id] = trials, failures, misses, worst, worst_t, worst_seed
    return {case_id: {"trials": trials, "failures": failures, "premise_misses": misses,
                      "worst_witness": worst, "worst_seed": worst_seed,
                      "worst_dims": None if worst_t is None else
                      "{}x{}".format(*dims[worst_t % len(dims)])}
            for case_id, (trials, failures, misses, worst, worst_t, worst_seed) in totals.items()}


def run_case_trials(case_id: str, config: RunConfig, finished: dict) -> dict:
    """The entry of config.trials trials of one case of config.cases,
    cycling over dims.

    run_suite passes one `finished` dict to every case it runs: the first
    case of an input class to arrive runs all the requested cases of that
    class together and leaves the others' entries there, and each of them
    returns its entry from there."""
    if case_id not in finished:
        input_class = REGISTRY[case_id].input_class
        finished.update(_class_entries(sorted(
            c for c in config.cases if REGISTRY[c].input_class == input_class), config))
    return finished.pop(case_id)


def run_suite(config: RunConfig, threads: int = 1) -> dict:
    """Deterministic aggregate report over all requested cases, run one
    case after another in sorted order.

    `threads` is accepted for compatibility and no longer changes how the
    cases run: the checks are Python that holds the interpreter lock, and a
    thread pool measured slower than this serial loop.  The cases run with
    OpenBLAS on one thread (linalg.one_blas_thread)."""
    ids = sorted(config.cases)
    finished = {}
    with one_blas_thread():
        results = {c: run_case_trials(c, config, finished) for c in ids}
    return {
        "config": {
            "cases": ids,
            "dims": [f"{m}x{n}" for m, n in config.dims],
            "trials": config.trials,
            "seed": config.seed,
            "tol": config.tol,
        },
        "cases": results,
    }


def total_failures(report: dict) -> int:
    return sum(entry["failures"] for entry in report["cases"].values())


_SCAN_BINS = 10  # histogram bins of open_question_scan


def open_question_scan(dims, trials: int, seed: int, tol: float = PSD_TOL) -> dict:
    """Empirical statistics of lambda_min of the residual
    (tr A)I + A - I_m(x)tr1 A - (tr2 A)(x)I_n over random PSD instances.

    The residual is provably PSD, which the scan asserts as a sanity
    invariant; the statistics are for human inspection of how much slack
    remains for a uniform PSD subtraction.  The arguments are validated as
    a RunConfig of the open-question-residual case: ValueError when dims is
    empty, trials is negative or tol is not a finite non-negative number.
    The scan runs with OpenBLAS on one thread, as run_suite does."""
    dims = RunConfig(("open-question-residual",), tuple(dims), trials, seed, tol).dims
    residual = REGISTRY["open-question-residual"]
    if not trials:
        return {
            "trials": 0,
            "min_lambda_min": None,
            "argmin_seed": None,
            "mean_lambda_min": None,
            "histogram": {"edges": [], "counts": []},
            "sanity_violations": 0,
        }
    arr, seeds = np.empty(trials), np.empty(trials, dtype=np.uint64)
    sanity_violations = 0
    with one_blas_thread():
        for groups in _groups(seed, ("open-question-scan",), dims, trials,
                              _chunk_trials("psd", dims)):
            for m, n, t, (group_seeds,) in groups:
                [(_, _, [(_, witnesses, holds)])] = _evaluate(
                    [residual], [_gen("psd", m, n, group_seeds)], len(t), tol)
                arr[t], seeds[t] = witnesses, group_seeds
                sanity_violations += holds.count(False)
        counts, edges = np.histogram(arr, bins=_SCAN_BINS)
    argmin = int(np.argmin(arr))
    return {
        "trials": trials,
        "min_lambda_min": float(arr.min()),
        "argmin_seed": int(seeds[argmin]),
        "mean_lambda_min": float(arr.mean()),
        "histogram": {
            "edges": [float(e) for e in edges],
            "counts": [int(c) for c in counts],
        },
        "sanity_violations": sanity_violations,
    }
