"""Blockwise application of the trace-augmented maps
phi(X) = (tr X) I + X and psi(X) = (tr X) I - X."""

from __future__ import annotations

import numpy as np

from .blocks import BlockMatrix, from_blocks
from .linalg import trace_stack

# (tr X) I combined with X: added for phi, X subtracted for psi.
_MAPS = {"phi": np.add, "psi": np.subtract}


def apply_map_blockwise(kind: str, a: BlockMatrix) -> BlockMatrix:
    """Apply phi or psi to every block of A."""
    blocks = a.as_blocks()
    trace_eye = trace_stack(blocks)[..., None, None] * np.eye(a.n)
    return from_blocks(a.m, a.n, _MAPS[kind](trace_eye, blocks))
