"""Seeded construction of the input classes the checks quantify over."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .blocks import BlockMatrix
from .linalg import hermitian_part
from .rng import Stream, check_seed, complex_normals, is_int

INT_BOUND = 100  # real-int entries lie in [-INT_BOUND, INT_BOUND]


@dataclass(frozen=True)
class GenSpec:
    kind: str
    m: int = 1
    n: int = 1
    seed: int = 0
    rank: int | None = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown generator kind {self.kind!r}")
        if not (is_int(self.m) and is_int(self.n)) or self.m < 1 or self.n < 1:
            raise ValueError(f"dimensions must be positive integers, got {self.m!r}x{self.n!r}")
        if self.rank is not None and not (is_int(self.rank) and 1 <= self.rank <= self.m * self.n):
            raise ValueError(f"rank {self.rank!r} out of range for size {self.m * self.n}")
        if isinstance(self.seed, np.ndarray):
            _check_seed_array(self.seed)
        else:
            check_seed(self.seed)


def _check_seed_array(seeds: np.ndarray) -> None:
    """ValueError unless seeds is a 1-D array of integers >= 0, not bools.
    O(1) for derive_seed's uint64 arrays: only a signed one is scanned."""
    kind = seeds.dtype.kind
    if (seeds.ndim != 1 or kind not in "iu"
            or (kind != "u" and seeds.size and seeds.min() < 0)):
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
    """g g* for the complex Gaussian column g = complex_normals(u) of the
    doubles u (..., 2 size): what random_psd(stream, size, rank=1) draws from
    them."""
    return _gram(complex_normals(u)[..., None])


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


# kind -> draw(stream, spec), the instance of a GenSpec of that kind.  The
# fixed kinds copy their one instance per seed, so every row stays writable.
_DRAWS = {
    "psd": lambda s, g: BlockMatrix(g.m, g.n, random_psd(s, g.m * g.n, g.rank)),
    "ppt": lambda s, g: BlockMatrix(g.m, g.n, random_ppt(s, g.m, g.n)),
    "hermitian": lambda s, g: BlockMatrix(g.m, g.n, random_hermitian(s, g.m * g.n)),
    "gram-pair": lambda s, g: (ginibre(s, g.m, g.n), ginibre(s, g.m, g.n)),
    "real-int": lambda s, g: s.integers(-INT_BOUND, INT_BOUND, (g.m, g.n)),
    "matrix-unit-E": lambda s, g: BlockMatrix(2, g.n, np.broadcast_to(
        matrix_unit_block(g.n), s.batch + (2 * g.n,) * 2).copy()),
    "ones-kron": lambda s, g: BlockMatrix(
        g.m, g.n, np.ones(s.batch + (g.m * g.n,) * 2, dtype=np.complex128)),
}
KINDS = tuple(_DRAWS)


def gen(spec: GenSpec):
    """Produce the instance a GenSpec describes; pure in the spec.

    A 1-D array of T seeds gives one instance stacked along a leading trial
    axis, drawn at once: a BlockMatrix whose dense is (T, mn, mn), a
    (T, m, n) integer array or a pair of (T, m, n) factor stacks.  Row i is
    bit for bit the instance of seed i alone; the fixed kinds repeat their
    one instance T times."""
    return _DRAWS[spec.kind](Stream(spec.seed), spec)
