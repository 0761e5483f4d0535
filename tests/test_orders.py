import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blocktrace.blocks import BlockMatrix
from blocktrace.generate import GenSpec, gen
from blocktrace.linalg import (hermitian_eigvals, hermitian_eigvals_stack, hermitian_part,
                               hermitian_part_eigvals, pad_sorted, scale_stack,
                               singular_values_stack, tolerance)
from blocktrace.orders import (PSD_TOL, is_ppt, is_psd, loewner_ge, majorizes, psd_verdict,
                               sv_dominates)
from blocktrace.rng import Stream

from jacobi import jacobi_eigh


def test_psd_accepts_gram_and_rejects_indefinite():
    g = Stream(0).complex_gaussians((4, 4))
    gram = g @ g.conj().T
    assert is_psd((gram + gram.conj().T) / 2).holds
    ind = np.diag([1.0, -0.5]).astype(np.complex128)
    v = is_psd(ind)
    assert not v.holds
    assert v.witness == pytest.approx(-0.5)


def test_psd_witness_is_lambda_min():
    a = np.diag([2.0, 0.25, 7.0]).astype(np.complex128)
    assert is_psd(a).witness == pytest.approx(0.25)


def test_psd_rejects_non_hermitian_input():
    with pytest.raises(ValueError):
        is_psd(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_psd_tolerance_scales_with_input():
    # slightly negative relative to a big scale still passes
    a = 1e6 * np.eye(3) - np.diag([0.0, 0.0, 1e-4])
    assert is_psd(a.astype(np.complex128)).holds


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")  # squaring 1e200
def test_huge_entries_get_finite_tolerances():
    """Entries of 1e200 overflow the squared Frobenius norm; the tolerance
    stays 1e-8 of the norm, so the verdicts are decided, not waved through."""
    v = is_psd(np.diag([-1e200, 1.0]))
    assert not v.holds and v.tolerance_used == pytest.approx(1e192)
    v = loewner_ge(np.diag([1e200, 1.0]), np.diag([2e200, 0.0]))
    assert not v.holds and v.tolerance_used == pytest.approx(1e192)
    # A gap of -1 against a norm of 1e200 is inside the relative tolerance.
    v = loewner_ge(np.diag([1.0, 1e200]), np.diag([2.0, 0.0]))
    assert v.holds and v.tolerance_used == pytest.approx(1e192)
    bell = np.zeros((4, 4), dtype=np.complex128)  # 1e200 |00 + 11><00 + 11|, PSD, not PPT
    bell[np.ix_([0, 3], [0, 3])] = 1e200
    v = is_ppt(BlockMatrix(2, 2, bell))
    assert not v.holds and v.witness == pytest.approx(-1e200)
    assert v.tolerance_used == pytest.approx(2e192)
    assert is_ppt(BlockMatrix(2, 2, 1e200 * np.eye(4, dtype=np.complex128))).holds


def _is_psd_reference(a, tol):
    """(holds, witness, tolerance) of is_psd's rule written out: the last
    of the checked non-increasing spectrum, against tol times the stacked
    Frobenius scale floored at 1."""
    a = np.asarray(a, dtype=np.complex128)
    lam_min = hermitian_eigvals_stack(a)[..., -1]
    tolerance = tol * np.fmax(1.0, scale_stack(a))
    return lam_min >= -tolerance, lam_min, tolerance


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")  # squaring 1e200
def test_psd_verdict_keeps_is_psd_bits():
    """psd_verdict, alone on an exactly Hermitian stack and inside is_psd,
    gives the reference witness, tolerance and verdict bit for bit: on random
    Hermitian and rank-deficient Gram stacks, the zero matrix, and 1e200
    entries whose Frobenius scale overflows."""
    g = Stream(3).complex_gaussians((6, 5, 2))
    inputs = [
        hermitian_part(Stream(1).complex_gaussians((6, 5, 5))),
        hermitian_part(g @ g.conj().swapaxes(-1, -2)),
        np.zeros((3, 3), dtype=np.complex128),
        np.diag([-1e200, 1.0]).astype(np.complex128),
        np.stack([1e200 * np.eye(2), np.diag([1e200, -1e-3])]).astype(np.complex128),
    ]
    for a in inputs:
        for tol in (PSD_TOL, 0.0, 1e-3):
            want = _is_psd_reference(a, tol)
            for verdict in (psd_verdict(a, tol), is_psd(a, tol)):
                got = (verdict.holds, verdict.witness, verdict.tolerance_used)
                for x, y in zip(got, want):
                    assert np.asarray(x).dtype == y.dtype and np.asarray(x).tobytes() == y.tobytes()
    assert not is_psd(inputs[3]).holds and psd_verdict(inputs[3]).tolerance_used == 1e192


def test_loewner_order():
    a = np.diag([3.0, 2.0]).astype(np.complex128)
    b = np.diag([1.0, 1.0]).astype(np.complex128)
    assert loewner_ge(a, b).holds
    assert not loewner_ge(b, a).holds
    with pytest.raises(ValueError):
        loewner_ge(a, np.eye(3))


def test_loewner_ge_below_unit_scale_uses_the_absolute_floor():
    """0 >= 1e-9 I holds: the scale 1e-9 * sqrt(2) is below 1, so the
    tolerance is PSD_TOL itself and the witness -1e-9 is within it.  An
    instance scaled small enough passes every PSD claim this way, true or
    not; whether the floor max(1, scale) stays is still to be decided."""
    v = loewner_ge(np.zeros((2, 2)), 1e-9 * np.eye(2))
    assert v.holds and v.witness == -1e-9
    assert v.tolerance_used == PSD_TOL


def test_sub_unit_scales_take_the_one_tolerance_rule():
    """On inputs scaled by 1e-3, below unit scale, each verdict's
    tolerance_used is tolerance(tol, scale) bit for bit, its scale being
    the Frobenius norm of the matrix or rhs, or sum |y| for majorization."""
    g = 1e-3 * Stream(7).complex_gaussians((3, 4, 4))
    h = hermitian_part(g)
    lhs = 1e-3 * Stream(8).complex_gaussians((3, 4, 4))
    y, x = hermitian_eigvals_stack(h), np.diagonal(h, axis1=-2, axis2=-1).real
    assert (scale_stack(h) < 1).all() and (np.abs(y).sum(axis=-1) < 1).all()
    for tol in (PSD_TOL, 1e-3):
        assert _same_bits(psd_verdict(h, tol).tolerance_used, tolerance(tol, scale_stack(h)))
        assert _same_bits(sv_dominates(lhs, g, 2.0, tol).tolerance_used,
                          tolerance(tol, scale_stack(g)))
        assert _same_bits(majorizes(y, x, tol).tolerance_used,
                          tolerance(tol, np.abs(y).sum(axis=-1)))


def test_ppt_detects_entanglement():
    # maximally entangled two-qubit projector: PSD but not PPT
    v = np.zeros(4, dtype=np.complex128)
    v[0] = v[3] = 1 / np.sqrt(2)
    bell = BlockMatrix(2, 2, np.outer(v, v.conj()))
    assert is_psd(bell.dense).holds
    verdict = is_ppt(bell)
    assert not verdict.holds
    assert verdict.witness == pytest.approx(-0.5)


def test_ppt_accepts_separable():
    a = gen(GenSpec("ppt", m=2, n=3, seed=9))
    assert is_ppt(a).holds


def test_majorization_basic():
    assert majorizes([3, 1, 0], [2, 1, 1]).holds
    assert not majorizes([2, 1, 1], [3, 1, 0]).holds


def test_weak_but_not_equal_totals():
    v = majorizes([3, 2, 1], [1, 1, 1])
    assert v.weak_holds
    assert not v.holds
    assert v.sum_gap == pytest.approx(3.0)
    assert v.witness < 0


def test_majorization_zero_padding():
    # spectra of different lengths compare after zero padding
    assert majorizes([2, 1, 1, 0, 0], [1, 1, 1, 1]).holds


def test_majorization_reflexive():
    v = majorizes([1.5, 0.25], [0.25, 1.5])
    assert v.holds
    assert v.worst_prefix_gap == pytest.approx(0.0)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10_000), st.integers(2, 6))
def test_diagonal_majorized_by_spectrum(seed, n):
    g = Stream(seed).complex_gaussians((n, n))
    h = (g + g.conj().T) / 2
    assert majorizes(np.linalg.eigvalsh(h), np.diag(h).real).holds


def test_sv_dominates_with_factor():
    a = np.eye(2, dtype=np.complex128)
    assert sv_dominates(a, 2 * a, factor=2.0).holds
    assert not sv_dominates(a, 2 * a, factor=3.0).holds


def test_sv_dominates_rectangular_padding():
    tall = np.ones((3, 1), dtype=np.complex128)
    square = 2 * np.eye(3, dtype=np.complex128)
    assert sv_dominates(tall, square).holds


NON_FINITE_CHECKS = {
    "is_psd": is_psd,
    "loewner_ge": lambda a: loewner_ge(a, np.zeros((2, 2))),
    "is_ppt": lambda a: is_ppt(BlockMatrix(2, 1, a)),
    "hermitian_eigvals": hermitian_eigvals,
    "hermitian_eigvals_stack": hermitian_eigvals_stack,
    "jacobi_eigh": jacobi_eigh,
}


@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")  # inf - inf
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("check", NON_FINITE_CHECKS.values(), ids=NON_FINITE_CHECKS)
def test_non_finite_matrices_are_refused(check, bad):
    """A non-finite entry fails the Hermiticity check: on the diagonal, where
    its defect is NaN, and off it beside a finite partner, where it is inf."""
    for a in (np.diag([bad, 1.0]), np.array([[1.0, bad], [0.0, 1.0]])):
        with pytest.raises(ValueError, match="not Hermitian"):
            check(a)


# ---------------------------------------------------------------------------
# order contract: eigvalsh returns ascending values and svd descending ones,
# so the kernels only reverse or pass them on, and pad_sorted is the one sort.


def _descending(values):
    return np.sort(np.asarray(values, dtype=np.float64), axis=-1)[..., ::-1]


def _same_bits(got, want) -> bool:
    got, want = np.asarray(got), np.asarray(want)
    return got.shape == want.shape and got.tobytes() == want.tobytes()


def _contract_stack(k: int, seed: int) -> np.ndarray:
    """k x k Hermitian matrices with ties and zeros: the zero matrix, a rank-one
    g g*, 2I, I_2 (x) h (each eigenvalue of h twice, for even k), a diagonal
    with repeated and zero entries, and a full-rank Hermitian matrix."""
    stream = Stream(seed)
    g = stream.complex_gaussians((k, 1))
    h = stream.complex_gaussians((k, k))
    half = stream.complex_gaussians((k // 2, k // 2))
    pair = np.kron(np.eye(2), half + half.conj().T) if k % 2 == 0 else np.eye(k)
    diag = np.diag([3.0, 3.0, 1.0, 0.0][: k] + [1.0] * max(0, k - 4))
    return np.stack([np.zeros((k, k)), g @ g.conj().T, 2 * np.eye(k), pair, diag,
                     h + h.conj().T]).astype(np.complex128)


CONTRACT_SIZES = (1, 2, 4, 5, 20)


@pytest.mark.parametrize("k", CONTRACT_SIZES)
def test_spectral_kernels_give_the_bits_of_a_sort(k):
    """Each kernel's rows equal, bit for bit, the descending sort of the raw
    eigvalsh or svd output."""
    stack = _contract_stack(k, k)
    x = stack + Stream(k + 100).complex_gaussians(stack.shape)  # not Hermitian
    assert _same_bits(hermitian_eigvals_stack(stack), _descending(np.linalg.eigvalsh(stack)))
    assert _same_bits(hermitian_part_eigvals(x),
                      _descending(np.linalg.eigvalsh(hermitian_part(x))))
    for a in (stack, x, x[..., : max(1, k - 2), :]):  # square and wide
        assert _same_bits(singular_values_stack(a),
                          _descending(np.linalg.svd(a, compute_uv=False)))


def _double_sorted_majorizes(y, x, tol):
    """majorizes as it sorted each input twice: once on its own, then again
    after zero padding."""
    xv, yv = _descending(x), _descending(y)
    length = max(xv.shape[-1], yv.shape[-1])
    xp, yp = pad_sorted(xv, length), pad_sorted(yv, length)
    prefix_gaps = np.cumsum(yp, axis=-1) - np.cumsum(xp, axis=-1)
    worst = prefix_gaps.min(axis=-1)
    tolerance = tol * np.fmax(1.0, np.abs(yp).sum(axis=-1))
    return worst >= -tolerance, prefix_gaps[..., -1], worst, tolerance


@pytest.mark.parametrize("k", CONTRACT_SIZES)
def test_majorizes_sorts_once_with_the_bits_of_sorting_twice(k):
    """On a Schur diagonal, unsorted and with negative entries, against the
    spectrum of the matrix and against a shorter spectrum (zero padded)."""
    stack = _contract_stack(k, k) - np.eye(k)
    diagonal = np.diagonal(stack, axis1=-2, axis2=-1).real
    assert (diagonal < 0).any()
    spectra = (np.linalg.eigvalsh(stack), np.linalg.eigvalsh(stack[..., 1:, 1:]))
    for y, x in ((spectra[0], diagonal), (diagonal, spectra[1]), (spectra[1], diagonal)):
        v = majorizes(y, x, 1e-8)
        got = (v.weak_holds, v.sum_gap, v.worst_prefix_gap, v.tolerance_used)
        for a, b in zip(got, _double_sorted_majorizes(y, x, 1e-8)):
            assert _same_bits(a, b)
