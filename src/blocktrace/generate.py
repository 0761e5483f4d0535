"""Seeded construction of the input classes the checks quantify over."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .blocks import BlockMatrix
from .linalg import hermitian_part
from .rng import Stream, box_muller, check_seed, is_int

KINDS = (
    "psd",
    "ppt",
    "hermitian",
    "gram-pair",
    "real-int",
    "matrix-unit-E",
    "ones-kron",
)


@dataclass(frozen=True)
class GenSpec:
    kind: str
    m: int = 1
    n: int = 1
    seed: int = 0
    rank: int | None = None
    int_bound: int = 100

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown generator kind {self.kind!r}")
        if not (is_int(self.m) and is_int(self.n)) or self.m < 1 or self.n < 1:
            raise ValueError(f"dimensions must be positive integers, got {self.m!r}x{self.n!r}")
        if self.rank is not None and not (is_int(self.rank) and 1 <= self.rank <= self.m * self.n):
            raise ValueError(f"rank {self.rank!r} out of range for size {self.m * self.n}")
        if not is_int(self.int_bound) or self.int_bound < 0:
            raise ValueError(f"int_bound must be a non-negative integer, got {self.int_bound!r}")
        if isinstance(self.seed, np.ndarray):
            _check_seed_array(self.seed)
        else:
            check_seed(self.seed)


def _check_seed_array(seeds: np.ndarray) -> None:
    """ValueError unless seeds is a 1-D array of integers >= 0, not bools.
    O(1) for derive_seed's uint64 arrays: only a signed one is scanned."""
    kind = seeds.dtype.kind
    if (seeds.ndim != 1 or kind not in "iu"
            or (kind == "i" and seeds.size and seeds.min() < 0)):
        raise ValueError(f"a seed array must be 1-D with integer entries >= 0, got {seeds!r}")


def ginibre(stream: Stream, rows: int, cols: int) -> np.ndarray:
    return stream.complex_gaussians((rows, cols))


def _gram(g: np.ndarray) -> np.ndarray:
    return hermitian_part(g @ g.conj().swapaxes(-1, -2))


def random_psd(stream: Stream, size: int, rank: int | None = None) -> np.ndarray:
    """G G* with G a size x rank matrix of standard complex Gaussians."""
    return _gram(ginibre(stream, size, rank if rank is not None else size))


def random_hermitian(stream: Stream, size: int) -> np.ndarray:
    return hermitian_part(ginibre(stream, size, size))


def _rank1_psd(u: np.ndarray) -> np.ndarray:
    """g g* for the complex Gaussian column g Box-Muller makes of the doubles
    u (..., 2 size): what random_psd(stream, size, rank=1) draws from them."""
    re, im = box_muller(u)
    return _gram((re + 1j * im)[..., None])


def random_ppt(stream: Stream, m: int, n: int) -> np.ndarray:
    """Separable mixture sum_t w_t (P_t (x) Q_t) of k = mn terms, rank-1 PSD
    factors, w_t > 0.

    PPT by construction: the partial transpose transposes each Q_t, which
    preserves its positivity.  Separable states under-cover PPT-entangled
    ones; good enough for instances that must certainly be PPT.

    After the k weights, one draw holds every term's doubles: 2m for P_t,
    then 2n for Q_t, term by term, the layout of k rank-1 random_psd pairs.
    The factors are built as (..., k, size, size) stacks; the terms are then
    summed in place in order, one (batch, mn, mn) product each."""
    k = m * n
    batch = stream.batch
    weights = stream.doubles(k)
    u = stream.doubles(k * 2 * (m + n)).reshape(batch + (k, 2 * (m + n)))
    ps = _rank1_psd(u[..., : 2 * m])
    qs = _rank1_psd(u[..., 2 * m :])
    acc = np.zeros(batch + (m * n, m * n), dtype=np.complex128)
    for t in range(k):
        p = ps[..., t, :, None, :, None]
        q = qs[..., t, None, :, None, :]
        acc += weights[..., t, None, None] * (p * q).reshape(batch + (m * n, m * n))
    return hermitian_part(acc)


def matrix_unit_block(n: int) -> np.ndarray:
    """The 2n x 2n block matrix [E_{i,j}], i,j in {1,2}, where E_{i,j} is the
    n x n matrix unit with 1 at entry (i, j) and 0 elsewhere.

    For n = 1 the units with an index of 2 have no such entry and are zero
    (degenerate case; the resulting E is diag(1, 0))."""
    out = np.zeros((2 * n, 2 * n), dtype=np.complex128)
    for i in range(2):
        for j in range(2):
            if i < n and j < n:
                out[i * n + i, j * n + j] = 1
    return out


def gen(spec: GenSpec):
    """Produce the instance a GenSpec describes; pure in the spec.

    A 1-D array of T seeds gives one instance stacked along a leading trial
    axis, drawn at once: a BlockMatrix whose dense is (T, mn, mn), a
    (T, m, n) integer array or a pair of (T, m, n) factor stacks.  Row i is
    bit for bit the instance of seed i alone; the fixed kinds repeat their
    one instance T times."""
    stream = Stream(spec.seed)
    m, n = spec.m, spec.n
    if spec.kind == "psd":
        dense = random_psd(stream, m * n, spec.rank)
    elif spec.kind == "ppt":
        dense = random_ppt(stream, m, n)
    elif spec.kind == "hermitian":
        dense = random_hermitian(stream, m * n)
    elif spec.kind == "gram-pair":
        return ginibre(stream, m, n), ginibre(stream, m, n)
    elif spec.kind == "real-int":
        return stream.integers(-spec.int_bound, spec.int_bound, (m, n))
    elif spec.kind == "matrix-unit-E":
        m, unit = 2, matrix_unit_block(n)
        dense = np.broadcast_to(unit, stream.batch + unit.shape).copy()
    else:
        dense = np.ones(stream.batch + (m * n, m * n), dtype=np.complex128)
    return BlockMatrix(m, n, dense)
