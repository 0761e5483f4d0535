"""Block-structured operators on mn x mn matrices.

A :class:`BlockMatrix` is one dense matrix plus (m, n) metadata: m blocks per
side, each block n x n.  Degenerate structures (m = 1 or n = 1) are legal.
``dense`` may carry leading trial axes, (..., mn, mn): every operator here
indexes from the end, so one code path serves a single matrix and a stack.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class BlockMatrix:
    m: int
    n: int
    dense: np.ndarray

    def __post_init__(self):
        d = np.asarray(self.dense, dtype=np.complex128)
        if self.m < 1 or self.n < 1:
            raise ValueError("block counts must be positive")
        if d.shape[-2:] != (self.m * self.n, self.m * self.n):
            raise ValueError(
                f"dense shape {d.shape} does not match m={self.m}, n={self.n}"
            )
        object.__setattr__(self, "dense", d)

    def block(self, i: int, j: int) -> np.ndarray:
        """The n x n submatrix at block position (i, j); a view."""
        n = self.n
        return self.dense[..., i * n : (i + 1) * n, j * n : (j + 1) * n]

    def as_blocks(self) -> np.ndarray:
        """View indexed [..., i, j, r, s] -> block(i, j)[r, s]."""
        m, n = self.m, self.n
        return self.dense.reshape(self.dense.shape[:-2] + (m, n, m, n)).swapaxes(-3, -2)


def diagonal_blocks(blocks: np.ndarray) -> np.ndarray:
    """View [..., i, r, s] -> blocks[..., i, i, r, s] of an as_blocks()-indexed array."""
    return np.einsum("...iirs->...irs", blocks)


def from_blocks(m: int, n: int, blocks) -> BlockMatrix:
    """Assemble from a [..., i, j, r, s]-indexed array of blocks."""
    b = np.asarray(blocks, dtype=np.complex128)
    if b.shape[-4:] != (m, m, n, n):
        raise ValueError(f"expected block array of shape {(m, m, n, n)}, got {b.shape}")
    dense = b.swapaxes(-3, -2).reshape(b.shape[:-4] + (m * n, m * n))
    return BlockMatrix(m, n, dense)


def partial_transpose(a: BlockMatrix) -> BlockMatrix:
    """A^tau: block (i, j) of the result is block (j, i) of the input.

    Blocks are swapped in position, not internally transposed."""
    return from_blocks(a.m, a.n, a.as_blocks().swapaxes(-4, -3))


def partial_trace_1(a: BlockMatrix) -> np.ndarray:
    """tr_1 A = sum of the diagonal blocks; an n x n matrix."""
    return np.einsum("...iirs->...rs", a.as_blocks())


def partial_trace_2(a: BlockMatrix) -> np.ndarray:
    """tr_2 A = [tr A_{i,j}]; an m x m matrix of block traces."""
    return np.einsum("...ijrr->...ij", a.as_blocks())


def block_diag(a: BlockMatrix) -> BlockMatrix:
    """D_A: off-diagonal blocks zeroed, diagonal blocks kept."""
    return BlockMatrix(a.m, a.n, _on_diagonal(diagonal_blocks(a.as_blocks()), a.m))


def j_block(m: int, n: int) -> BlockMatrix:
    """The m x m block matrix with every block I_n, i.e. J_m (x) I_n."""
    if m < 1 or n < 1:
        raise ValueError("block counts must be positive")
    return BlockMatrix(m, n, kron_right(np.ones((m, m)), n))


def reshuffle(a: BlockMatrix) -> BlockMatrix:
    """The (n, m)-block matrix whose block (r, s)[i, j] = block (i, j)[r, s].

    An exact entry permutation: (r*m+i, s*m+j) <- (i*n+r, j*n+s).  Swaps the
    roles of block and intra-block indices."""
    return from_blocks(a.n, a.m, np.moveaxis(a.as_blocks(), (-2, -1), (-4, -3)))


def _on_diagonal(blocks, m: int) -> np.ndarray:
    """Zeroed (..., mn, mn) matrices with blocks, (..., m or 1, n, n), on the block diagonal."""
    lead, n = blocks.shape[:-3], blocks.shape[-1]
    out = np.zeros(lead + (m, n, m, n), dtype=np.complex128)
    diagonal_blocks(out.swapaxes(-3, -2))[...] = blocks
    return out.reshape(lead + (m * n, m * n))


def kron_left(x, m: int) -> np.ndarray:
    """Dense I_m (x) x for n x n matrices x: x in every diagonal block."""
    return _on_diagonal(np.asarray(x)[..., None, :, :], m)


def kron_right(x, n: int) -> np.ndarray:
    """Dense x (x) I_n for m x m matrices x: x copied onto the n intra-block
    diagonals of a zeroed (..., m, n, m, n) array."""
    x = np.asarray(x)
    m = x.shape[-1]
    out = np.zeros(x.shape[:-2] + (m, n, m, n), dtype=np.complex128)
    diag = np.arange(n)
    out[..., :, diag, :, diag] = x
    return out.reshape(x.shape[:-2] + (m * n, m * n))
