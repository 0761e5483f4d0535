import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blocktrace.blocks import BlockMatrix, partial_transpose
from blocktrace.generate import INT_BOUND, KINDS, GenSpec, gen, matrix_unit_block
from blocktrace.linalg import require_hermitian
from blocktrace.orders import is_ppt, is_psd


def test_spec_validation():
    with pytest.raises(ValueError):
        GenSpec("nope")
    with pytest.raises(ValueError):
        GenSpec("psd", m=0, n=2)
    with pytest.raises(ValueError):
        GenSpec("psd", m=2, n=2, rank=5)


@pytest.mark.parametrize("field, value", [
    ("m", True), ("m", 2.0), ("n", True), ("n", 2.0), ("n", np.float64(2)),
    ("rank", 1.0), ("rank", True),
])
def test_spec_sizes_must_be_integers(field, value):
    """m, n and rank are integers and not bools; anything else is refused
    with ValueError, before any instance is drawn."""
    with pytest.raises(ValueError, match={"m": "dimensions", "n": "dimensions"}.get(field, field)):
        GenSpec("psd", **{"m": 2, "n": 2, field: value})
    assert getattr(GenSpec("psd", **{"m": 2, "n": 2, field: np.int64(1)}), field) == 1


@pytest.mark.parametrize("seeds", [
    np.array([1.5]), np.array([-1]), np.array([3, -2], dtype=np.int8), np.array([True]),
    np.array([[1, 2]]), np.array(4), np.array([1 + 0j]), np.array([1], dtype=object),
], ids=["float", "negative", "negative-int8", "bool", "2-d", "0-d", "complex", "object"])
def test_spec_seed_arrays_are_checked(seeds):
    """A seed array is 1-D, of integers >= 0 and not bools; anything else
    is refused with a ValueError that names the seed, before any draw.
    Signed and unsigned integer arrays of valid seeds draw one instance each."""
    with pytest.raises(ValueError, match="seed"):
        GenSpec("psd", m=2, n=2, seed=seeds)
    for good in (np.array([0, 7], dtype=np.int64), np.array([0, 2**64 - 1], dtype=np.uint64),
                 np.array([], dtype=np.int32)):
        assert gen(GenSpec("psd", m=2, n=2, seed=good)).dense.shape == (len(good), 4, 4)


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
    x = gen(GenSpec("real-int", m=4, n=5, seed=8))
    assert x.shape == (4, 5)
    assert x.dtype == np.int64
    assert np.abs(x).max() <= INT_BOUND


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
