import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blocktrace.linalg import (
    hermitian_defect,
    hermitian_eigvals,
    hermitian_eigvals_stack,
    hermitian_part,
    hermitian_part_eigvals,
    kyfan_norm,
    matrix_abs,
    pad_sorted,
    require_hermitian,
    scale_stack,
    singular_values,
    tolerance,
)
from blocktrace.rng import Stream


def _random_hermitian(seed, n):
    g = Stream(seed).complex_gaussians((n, n))
    return (g + g.conj().T) / 2


def test_hermitian_predicates():
    h = _random_hermitian(0, 4)
    assert hermitian_defect(h) == 0
    require_hermitian(h)
    with pytest.raises(ValueError):
        require_hermitian(h + 1e-3 * 1j * np.eye(4))


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 4), st.integers(1, 6))
def test_hermitian_part_is_exactly_hermitian(seed, height, k):
    """The invariant that lets hermitian_part_eigvals skip require_hermitian,
    on non-Hermitian complex stacks whose entries span 1e-300..1e300."""
    rng = np.random.default_rng(seed)

    def component():
        return rng.standard_normal((height, k, k)) * 10.0 ** rng.integers(-300, 301, (height, k, k))
    x = component() + 1j * component()
    assert (hermitian_defect(x) > 0).all()
    h = hermitian_part(x)
    assert (hermitian_defect(h) == 0.0).all()
    with np.errstate(over="ignore"):  # the check's Frobenius scale overflows
        want = hermitian_eigvals_stack(h)
    assert hermitian_part_eigvals(x).tobytes() == want.tobytes()


def test_scale_stack_is_the_frobenius_norm():
    """No floor: the zero matrix has scale 0 and a sub-unit matrix its own norm."""
    assert scale_stack(np.zeros((2, 2))) == 0.0
    assert scale_stack(0.5 * np.eye(2)) == pytest.approx(0.5 * np.sqrt(2))
    assert scale_stack(10 * np.eye(2)) == pytest.approx(10 * np.sqrt(2))


def test_tolerance_floors_the_scale_at_one():
    """tol itself up to scale 1, tol * scale above it; elementwise on arrays."""
    for tol in (1e-8, 1e-3, 0.0):
        for s in (0.0, 0.5, 1.0):
            assert tolerance(tol, s) == tol
        for s in (1.5, 10.0, 1e200):
            assert tolerance(tol, s) == tol * s
    assert tolerance(1e-8, np.array([0.0, 0.5, 4.0])).tolist() == [1e-8, 1e-8, 4e-8]


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")  # squaring 1e200
def test_scale_stack_survives_overflowing_squares():
    """Past ||A||_F ~ 1.3e154 the squared entries overflow.  A matrix of
    finite entries still gets its finite Frobenius scale, one with an inf
    entry keeps inf, and the other matrices of the stack keep their bits."""
    small = _random_hermitian(1, 3)
    scales = scale_stack(np.stack([small, 1e200 * np.eye(3), np.diag([np.inf, 1.0, 1.0])]))
    assert scales[0] == scale_stack(small)
    assert scales[1] == pytest.approx(1e200 * np.sqrt(3))
    assert scales[2] == np.inf
    assert scale_stack(np.diag([-1e200, 1.0])) == pytest.approx(1e200)
    assert scale_stack(np.array([[1e300 + 1e300j, 0.0], [0.0, 1e300]])) == pytest.approx(
        1e300 * np.sqrt(3))


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")  # squaring 1e200
def test_require_hermitian_refuses_a_huge_defect():
    with pytest.raises(ValueError, match="not Hermitian"):
        require_hermitian([[1e200, 1e200], [0.0, 1.0]])
    require_hermitian(1e200 * np.eye(2))


def test_eigvals_descending_and_match_numpy():
    h = _random_hermitian(3, 6)
    spec = hermitian_eigvals(h)
    assert spec.dtype == np.float64 and spec.shape == (6,)
    assert np.all(np.diff(spec) <= 0)
    assert np.allclose(np.sort(spec), np.linalg.eigvalsh(h))


def test_pad_sorted_pads_with_zeros():
    s = np.array([3.0, 1.0])
    assert np.array_equal(pad_sorted(s, 4), [3.0, 1.0, 0.0, 0.0])
    assert np.array_equal(pad_sorted(s, 2), [3.0, 1.0])


def test_singular_values_vs_numpy():
    g = Stream(4).complex_gaussians((5, 3))
    s = singular_values(g)
    assert np.allclose(s, np.linalg.svd(g, compute_uv=False), atol=1e-10)


def test_matrix_abs_properties():
    g = Stream(5).complex_gaussians((4, 4))
    a = matrix_abs(g)
    assert hermitian_defect(a) <= 1e-9 * scale_stack(a)
    assert np.linalg.eigvalsh(a).min() > -1e-10
    assert np.allclose(a @ a, g.conj().T @ g, atol=1e-9)


def test_kyfan_norm_sums_top_singular_values():
    g = Stream(6).complex_gaussians((4, 4))
    s = singular_values(g)
    for k in range(1, 5):
        assert kyfan_norm(g, k) == pytest.approx(s[:k].sum())
    assert kyfan_norm(g, 1) == pytest.approx(np.linalg.norm(g, 2))
    assert kyfan_norm(g, 4) == pytest.approx(np.linalg.norm(g, "nuc"))


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10_000), st.integers(2, 6))
def test_weyl_perturbation_bound(seed, n):
    """|lambda_k(A+E) - lambda_k(A)| <= ||E||_2 for Hermitian A, E."""
    a = _random_hermitian(seed, n)
    e = 0.1 * _random_hermitian(seed + 1, n)
    la = hermitian_eigvals(a)
    lb = hermitian_eigvals(a + e)
    assert np.max(np.abs(la - lb)) <= np.linalg.norm(e, 2) + 1e-10
