import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blocktrace.linalg import (
    Spectrum,
    hermitian_defect,
    hermitian_eigvals,
    hermitian_eigvals_stack,
    hermitian_part,
    hermitian_part_eigvals,
    is_hermitian,
    kyfan_norm,
    matrix_abs,
    require_hermitian,
    scale_of,
    singular_values,
)
from blocktrace.rng import Stream


def _random_hermitian(seed, n):
    g = Stream(seed).complex_gaussians((n, n))
    return (g + g.conj().T) / 2


def test_hermitian_predicates():
    h = _random_hermitian(0, 4)
    assert is_hermitian(h)
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


def test_scale_of_floors_at_one():
    assert scale_of(np.zeros((2, 2))) == 1.0
    assert scale_of(10 * np.eye(2)) == pytest.approx(10 * np.sqrt(2))


def test_eigvals_descending_and_match_numpy():
    h = _random_hermitian(3, 6)
    spec = hermitian_eigvals(h)
    assert spec.kind == "eigenvalues-hermitian"
    assert np.all(np.diff(spec.values) <= 0)
    assert np.allclose(np.sort(spec.values), np.linalg.eigvalsh(h))


def test_spectrum_padding():
    s = Spectrum(np.array([3.0, 1.0]), "singular-values")
    assert np.array_equal(s.padded(4), [3.0, 1.0, 0.0, 0.0])
    assert np.array_equal(s.padded(2), [3.0, 1.0])


def test_singular_values_vs_numpy():
    g = Stream(4).complex_gaussians((5, 3))
    s = singular_values(g)
    assert np.allclose(s.values, np.linalg.svd(g, compute_uv=False), atol=1e-10)


def test_matrix_abs_properties():
    g = Stream(5).complex_gaussians((4, 4))
    a = matrix_abs(g)
    assert is_hermitian(a, tol=1e-9)
    assert np.linalg.eigvalsh(a).min() > -1e-10
    assert np.allclose(a @ a, g.conj().T @ g, atol=1e-9)


def test_kyfan_norm_sums_top_singular_values():
    g = Stream(6).complex_gaussians((4, 4))
    s = singular_values(g).values
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
    la = hermitian_eigvals(a).values
    lb = hermitian_eigvals(a + e).values
    assert np.max(np.abs(la - lb)) <= np.linalg.norm(e, 2) + 1e-10
