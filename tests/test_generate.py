import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blocktrace.blocks import BlockMatrix, partial_transpose
from blocktrace.generate import KINDS, GenSpec, gen, matrix_unit_block
from blocktrace.linalg import require_hermitian
from blocktrace.orders import is_ppt, is_psd


def test_spec_validation():
    with pytest.raises(ValueError):
        GenSpec("nope")
    with pytest.raises(ValueError):
        GenSpec("psd", m=0, n=2)
    with pytest.raises(ValueError):
        GenSpec("psd", m=2, n=2, rank=5)


def test_determinism():
    a = gen(GenSpec("psd", m=2, n=3, seed=5))
    b = gen(GenSpec("psd", m=2, n=3, seed=5))
    c = gen(GenSpec("psd", m=2, n=3, seed=6))
    assert np.array_equal(a.dense, b.dense)
    assert not np.array_equal(a.dense, c.dense)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10_000), st.integers(1, 4), st.integers(1, 4))
def test_psd_instances_are_psd(seed, m, n):
    a = gen(GenSpec("psd", m=m, n=n, seed=seed))
    assert isinstance(a, BlockMatrix) and (a.m, a.n) == (m, n)
    assert is_psd(a.dense, tol=1e-10).holds


def test_rank_control():
    a = gen(GenSpec("psd", m=2, n=3, seed=1, rank=2))
    assert np.linalg.matrix_rank(a.dense, tol=1e-10) == 2


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10_000), st.integers(1, 3), st.integers(1, 3))
def test_ppt_instances_are_ppt(seed, m, n):
    a = gen(GenSpec("ppt", m=m, n=n, seed=seed))
    assert is_ppt(a, tol=1e-10).holds


def test_hermitian_instances():
    a = gen(GenSpec("hermitian", m=3, n=2, seed=4))
    require_hermitian(a.dense)


def test_gram_pair_shapes():
    p, q = gen(GenSpec("gram-pair", m=3, n=2, seed=7))
    assert p.shape == (3, 2) and q.shape == (3, 2)
    assert not np.array_equal(p, q)


def test_int_matrices_exact():
    x = gen(GenSpec("real-int", m=4, n=5, seed=8, int_bound=10))
    assert x.shape == (4, 5)
    assert x.dtype == np.int64
    assert np.abs(x).max() <= 10


def test_matrix_unit_block_structure():
    e = matrix_unit_block(3)
    # block (i, j) is the unit with a single 1 at entry (i, j)
    b = BlockMatrix(2, 3, e)
    for i in range(2):
        for j in range(2):
            want = np.zeros((3, 3))
            want[i, j] = 1
            assert np.array_equal(b.block(i, j), want)
    # PSD on the nose, but applying (tr X)I - X blockwise breaks positivity
    assert is_psd(e).holds


def test_matrix_unit_block_degenerate_size():
    assert np.array_equal(matrix_unit_block(1), np.diag([1.0, 0.0]))


def test_ones_kron_tightness_instance():
    a = gen(GenSpec("ones-kron", m=2, n=2))
    assert np.array_equal(a.dense, np.kron(np.ones((2, 2)), np.ones((2, 2))))
    assert is_psd(a.dense).holds
    assert is_ppt(partial_transpose(a)).holds


@pytest.mark.parametrize("kind", KINDS)
def test_one_seed_draws_one_writable_instance(kind):
    """Only a seed array adds a trial axis; a single seed's instance is a
    fresh writable matrix, or a pair of them."""
    inst = gen(GenSpec(kind, m=2, n=3, seed=4))
    arrays = inst if isinstance(inst, tuple) else (getattr(inst, "dense", inst),)
    for x in arrays:
        assert x.ndim == 2 and x.flags.writeable
