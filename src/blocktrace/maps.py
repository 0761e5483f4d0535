"""Blockwise application of the trace-augmented maps
phi(X) = (tr X) I + X and psi(X) = (tr X) I - X."""

from __future__ import annotations

import numpy as np

from .blocks import BlockMatrix, from_blocks
from .linalg import trace_stack

# (tr X) I combined with X: added for phi, X subtracted for psi.
_MAPS = {"phi": np.add, "psi": np.subtract}


def apply_map_blockwise(kind: str, a: BlockMatrix, transpose_blocks: bool = False) -> BlockMatrix:
    """Apply phi or psi to every block of A.

    With ``transpose_blocks`` the map acts on A_{j,i} instead of A_{i,j},
    giving the copositivity-side block matrix [map(A_{j,i})]."""
    blocks = a.as_blocks()
    if transpose_blocks:
        blocks = blocks.swapaxes(-4, -3)
    trace_eye = trace_stack(blocks)[..., None, None] * np.eye(a.n)
    return from_blocks(a.m, a.n, _MAPS[kind](trace_eye, blocks))
