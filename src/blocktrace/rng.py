"""A counter-based, deterministic random stream.

The k-th raw word for seed s is splitmix64(s + (k+1) * GAMMA) with the usual
finalizer constants, so any counter range can be produced independently and
the stream is reproducible bit-for-bit across platforms and languages.

Every function also takes a 1-D array of seeds in place of one seed.  Each
draw then gains a leading batch axis whose row i is bit-for-bit the draw for
seed i alone, so a whole stack of trials costs one set of numpy calls.
"""

from __future__ import annotations

import math
import operator

import numpy as np

_GAMMA_INT = 0x9E3779B97F4A7C15
_MIX1_INT = 0xBF58476D1CE4E5B9
_MIX2_INT = 0x94D049BB133111EB
_MASK64 = 0xFFFFFFFFFFFFFFFF

GAMMA = np.uint64(_GAMMA_INT)
_MIX1 = np.uint64(_MIX1_INT)
_MIX2 = np.uint64(_MIX2_INT)

_U64 = np.uint64


def _mix(z: np.ndarray) -> np.ndarray:
    z = (z ^ (z >> _U64(30))) * _MIX1
    z = (z ^ (z >> _U64(27))) * _MIX2
    return z ^ (z >> _U64(31))


def _mix_int(z: int) -> int:
    """_mix on a Python int in [0, 2^64)."""
    z = ((z ^ (z >> 30)) * _MIX1_INT) & _MASK64
    z = ((z ^ (z >> 27)) * _MIX2_INT) & _MASK64
    return z ^ (z >> 31)


def is_int(x) -> bool:
    """x is a Python or numpy integer and not a bool, which isinstance
    counts as an int."""
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool)


def check_seed(seed) -> int:
    """seed itself; ValueError unless it is an integer in [0, 2^64), not a bool."""
    if not is_int(seed) or not 0 <= seed <= _MASK64:
        raise ValueError(f"seed must be an integer in [0, 2^64), got {seed!r}")
    return seed


def _seed_words(seed) -> np.ndarray:
    """A seed, or a 1-D seed array as a column, reduced to uint64."""
    if isinstance(seed, np.ndarray):
        return seed.astype(np.uint64, copy=False)[:, None]
    return _U64(int(seed) & _MASK64)


def splitmix64(seed, start: int, count: int) -> np.ndarray:
    """Raw words at counters [start, start+count) for the given seed; a seed
    array gives one row of words per seed."""
    counters = np.arange(start + 1, start + count + 1, dtype=np.uint64)
    return _mix(_seed_words(seed) + counters * GAMMA)


def _token_bytes(tok) -> bytes:
    if isinstance(tok, str):
        return tok.encode("utf-8")
    if isinstance(tok, int):
        return tok.to_bytes(8, "little", signed=tok < 0)
    raise TypeError(f"unsupported token type {type(tok)!r}")


def _absorb(h: int, tokens) -> int:
    """The hash h after the bytes of each of tokens, in order."""
    for tok in tokens:
        for byte in _token_bytes(tok):
            h = _mix_int(((h ^ byte) * _GAMMA_INT + _GAMMA_INT) & _MASK64)
    return h


def derive_seed(base: int, *tokens):
    """Stable sub-seed from a base seed and a mix of str/int tokens.

    The last token may be an array of non-negative integers; the result is
    then the uint64 array of the sub-seeds of each of its values.  The
    token before such an array may be a list of tokens: the result is then
    one row per listed token, row k bit for bit
    derive_seed(base, ..., tokens[-2][k], array), all folded at once."""
    last = tokens[-1] if tokens else None
    if not isinstance(last, np.ndarray):
        return _absorb(operator.index(base) & _MASK64, tokens)
    if last.dtype.kind not in "iu" or (last.size and last.min() < 0):
        raise TypeError("an array token must hold non-negative integers")
    table = len(tokens) > 1 and isinstance(tokens[-2], list)
    h = _absorb(operator.index(base) & _MASK64, tokens[:-2] if table else tokens[:-1])
    values = last.astype(np.uint64)
    heads = [_absorb(h, (tok,)) for tok in tokens[-2]] if table else h
    # Unit axes for the values' axes; the first round broadcasts them out.
    out = np.array(heads, dtype=np.uint64).reshape(np.shape(heads) + (1,) * values.ndim)
    with np.errstate(over="ignore"):
        for shift in range(0, 64, 8):  # the 8 little-endian bytes of each value
            byte = (values >> _U64(shift)) & _U64(0xFF)
            out = _mix((out ^ byte) * GAMMA + GAMMA)
    return out


def box_muller(u: np.ndarray) -> tuple:
    """(r cos theta, r sin theta) from doubles u whose last axis holds the
    radii's pairs then the angles' pairs: two standard normal arrays."""
    pairs = u.shape[-1] // 2
    r = np.sqrt(-2.0 * np.log(u[..., :pairs]))
    theta = 2.0 * np.pi * u[..., pairs:]
    return r * np.cos(theta), r * np.sin(theta)


def complex_normals(u: np.ndarray) -> np.ndarray:
    """re + 1j * im of (re, im) = box_muller(u): standard complex normals,
    as many as u has pairs along its last axis."""
    re, im = box_muller(u)
    return re + 1j * im


class Stream:
    """Value-like stateful view over the counter-based stream.

    Copies are cheap; parallel trials take independent streams by deriving
    distinct seeds, never by sharing one stream.  A stream over a seed array
    draws every seed's values at once, along a leading batch axis; all
    slicing happens on the last axis so each row matches its seed's stream.
    """

    def __init__(self, seed):
        if isinstance(seed, np.ndarray):
            self.seed = seed.astype(np.uint64)
            self.batch = self.seed.shape
        else:
            self.seed = int(seed) & _MASK64
            self.batch = ()
        self.counter = 0

    def words(self, count: int) -> np.ndarray:
        out = splitmix64(self.seed, self.counter, count)
        self.counter += count
        return out

    def doubles(self, count: int) -> np.ndarray:
        """Uniform doubles in (0, 1]; 53-bit resolution, never exactly 0."""
        return ((self.words(count) >> _U64(11)).astype(np.float64) + 1.0) * 2.0**-53

    def complex_gaussians(self, shape) -> np.ndarray:
        """Matrix of independent standard complex Gaussians (re, im ~ N(0,1))."""
        shape = tuple(shape)
        count = math.prod(shape)
        return complex_normals(self.doubles(2 * count)).reshape(self.batch + shape)

    def integers(self, low: int, high: int, shape) -> np.ndarray:
        """Uniform integers in [low, high] via rejection-free modular draw.

        The modulo bias is below 2^-50 for the bounds used here (|range| <=
        a few hundred), irrelevant for test-instance generation."""
        if high < low:
            raise ValueError("empty integer range")
        shape = tuple(shape)
        count = math.prod(shape)
        span = np.uint64(high - low + 1)
        vals = (self.words(count) % span).astype(np.int64) + low
        return vals.reshape(self.batch + shape)
