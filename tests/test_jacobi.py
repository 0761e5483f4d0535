"""The hand-rolled Jacobi eigensolver is the independent cross-check for the
production eigensolver; here both routes are compared on random Hermitian
input."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blocktrace.jacobi import jacobi_eigh
from blocktrace.linalg import hermitian_eigvals
from blocktrace.rng import Stream


def _random_hermitian(seed, n):
    g = Stream(seed).complex_gaussians((n, n))
    return (g + g.conj().T) / 2


def test_diagonal_input():
    d = np.diag([3.0, -1.0, 2.0]).astype(np.complex128)
    assert np.allclose(jacobi_eigh(d), [3.0, 2.0, -1.0])


def test_trivial_sizes():
    assert jacobi_eigh(np.array([[5.0 + 0j]]))[0] == 5.0


def test_known_spectrum():
    # [[2, 1+i], [1-i, 3]] has eigenvalues (5 +- sqrt(9)) / 2 = 4, 1
    h = np.array([[2.0, 1.0 + 1.0j], [1.0 - 1.0j, 3.0]])
    assert np.allclose(jacobi_eigh(h), [4.0, 1.0], atol=1e-12)


def test_trace_and_frobenius_invariants():
    h = _random_hermitian(1, 7)
    vals = jacobi_eigh(h)
    assert np.trace(h).real == pytest.approx(vals.sum(), abs=1e-10)
    assert np.linalg.norm(h) ** 2 == pytest.approx((vals**2).sum(), rel=1e-12)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000), st.integers(2, 10))
def test_agrees_with_production_eigensolver(seed, n):
    h = _random_hermitian(seed, n)
    jac = jacobi_eigh(h)
    ref = hermitian_eigvals(h)
    scale = max(1.0, np.abs(ref).max())
    assert np.max(np.abs(jac - ref)) <= 1e-9 * scale


def test_rejects_non_hermitian():
    with pytest.raises(ValueError):
        jacobi_eigh(np.array([[0.0, 1.0], [0.0, 0.0]], dtype=np.complex128))
