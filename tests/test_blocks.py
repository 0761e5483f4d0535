"""Block operations are exact index permutations and contractions; every
identity here must hold to machine-exact equality on exact input."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blocktrace.blocks import (
    BlockMatrix,
    block_diag,
    diagonal_blocks,
    from_blocks,
    j_block,
    kron_left,
    kron_right,
    partial_trace_1,
    partial_trace_2,
    partial_transpose,
    reshuffle,
)
from blocktrace.rng import Stream


def _random_block(seed, m, n):
    return BlockMatrix(m, n, Stream(seed).complex_gaussians((m * n, m * n)))


dims = st.tuples(st.integers(1, 4), st.integers(1, 4))


def test_block_views_round_trip():
    a = _random_block(0, 3, 2)
    assert np.array_equal(from_blocks(3, 2, a.as_blocks()).dense, a.dense)
    assert np.array_equal(a.block(1, 2), a.dense[2:4, 4:6])


def test_shape_validation():
    with pytest.raises(ValueError):
        BlockMatrix(2, 3, np.zeros((5, 5)))


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 1000), dims)
def test_partial_transpose_involution(seed, mn):
    m, n = mn
    a = _random_block(seed, m, n)
    assert np.array_equal(partial_transpose(partial_transpose(a)).dense, a.dense)


def test_partial_transpose_swaps_blocks_only():
    a = _random_block(1, 2, 3)
    tau = partial_transpose(a)
    assert np.array_equal(tau.block(0, 1), a.block(1, 0))
    assert np.array_equal(tau.block(0, 0), a.block(0, 0))


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 1000), dims)
def test_partial_traces_contract_full_trace(seed, mn):
    m, n = mn
    a = _random_block(seed, m, n)
    t = np.trace(a.dense)
    assert np.trace(partial_trace_1(a)) == pytest.approx(t)
    assert np.trace(partial_trace_2(a)) == pytest.approx(t)


def test_partial_traces_on_kron():
    x = Stream(2).complex_gaussians((3, 3))
    y = Stream(3).complex_gaussians((2, 2))
    a = BlockMatrix(3, 2, np.kron(x, y))
    assert np.allclose(partial_trace_1(a), np.trace(x) * y)
    assert np.allclose(partial_trace_2(a), np.trace(y) * x)


def test_block_diag_zeroes_off_diagonal():
    a = _random_block(4, 3, 2)
    d = block_diag(a)
    assert np.array_equal(d.block(1, 1), a.block(1, 1))
    assert np.all(d.block(0, 2) == 0)


def test_diagonal_blocks_view_and_block_diag_on_a_stack():
    """diagonal_blocks is a view of block (i, i), and block_diag of a
    (T, mn, mn) stack is each matrix's D_A, bit for bit."""
    stack = BlockMatrix(3, 2, np.stack([_random_block(s, 3, 2).dense for s in range(4)]))
    view = diagonal_blocks(stack.as_blocks())
    assert np.shares_memory(view, stack.dense)
    assert np.array_equal(view[2, 1], stack.block(1, 1)[2])
    got = block_diag(stack).dense
    for t in range(4):
        assert got[t].tobytes() == block_diag(BlockMatrix(3, 2, stack.dense[t])).dense.tobytes()


def test_j_block_is_all_ones_kron_identity():
    assert np.array_equal(j_block(2, 3).dense, np.kron(np.ones((2, 2)), np.eye(3)))


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 1000), dims)
def test_reshuffle_is_an_involution_up_to_dims(seed, mn):
    m, n = mn
    a = _random_block(seed, m, n)
    r = reshuffle(a)
    assert (r.m, r.n) == (n, m)
    assert np.array_equal(reshuffle(r).dense, a.dense)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 1000), dims)
def test_reshuffle_swaps_kron_factors(seed, mn):
    m, n = mn
    s = Stream(seed)
    x = s.complex_gaussians((m, m))
    y = s.complex_gaussians((n, n))
    a = BlockMatrix(m, n, np.kron(x, y))
    assert np.allclose(reshuffle(a).dense, np.kron(y, x))


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 1000), dims)
def test_second_partial_trace_is_first_of_reshuffle(seed, mn):
    """The two partial-trace routes agree exactly: tracing out the inner
    factor equals tracing out the outer factor after reshuffling."""
    m, n = mn
    a = _random_block(seed, m, n)
    assert np.array_equal(partial_trace_2(a), partial_trace_1(reshuffle(a)))


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 1000), dims)
def test_reshuffle_transpose_identity(seed, mn):
    """The block swap of the reshuffle equals the entrywise transpose of the
    reshuffle of the block swap."""
    m, n = mn
    a = _random_block(seed, m, n)
    lhs = partial_transpose(reshuffle(a)).dense
    rhs = reshuffle(partial_transpose(a)).dense.swapaxes(-1, -2)
    assert np.array_equal(lhs, rhs)


def test_embeddings():
    x = Stream(5).complex_gaussians((3, 3))
    assert np.array_equal(kron_left(x, 2), np.kron(np.eye(2), x))
    assert np.array_equal(kron_right(x, 2), np.kron(x, np.eye(2)))
