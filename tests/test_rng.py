"""The random stream is part of the reproducibility contract: frozen golden
words guard against silent drift in the mixing constants or the counter
layout."""

import numpy as np

from blocktrace.rng import Stream, box_muller, derive_seed, splitmix64

# reference vector for the 64-bit mixer at seed 0
GOLDEN_SEED0 = [
    0xE220A8397B1DCDAF,
    0x6E789E6AA1B965F4,
    0x06C45D188009454F,
    0xF88BB8A8724C81EC,
]

GOLDEN_SEED42 = [
    0xBDD732262FEB6E95,
    0x28EFE333B266F103,
    0x47526757130F9F52,
    0x581CE1FF0E4AE394,
]


def test_golden_words_seed0():
    assert [int(w) for w in splitmix64(0, 0, 4)] == GOLDEN_SEED0


def test_golden_words_seed42():
    assert [int(w) for w in splitmix64(42, 0, 4)] == GOLDEN_SEED42


def test_counter_slices_are_independent():
    full = splitmix64(7, 0, 10)
    tail = splitmix64(7, 6, 4)
    assert np.array_equal(full[6:], tail)


def test_stream_matches_raw_words():
    s = Stream(123)
    a = s.words(5)
    b = s.words(5)
    assert np.array_equal(np.concatenate([a, b]), splitmix64(123, 0, 10))


def test_doubles_range_and_determinism():
    u = Stream(9).doubles(1000)
    assert np.all(u > 0) and np.all(u <= 1)
    assert np.array_equal(u, Stream(9).doubles(1000))


def test_doubles_golden():
    got = Stream(7).doubles(3)
    want = [0.3898297483912716, 0.016788294528156222, 0.9007606806068835]
    assert np.array_equal(got, want)


def _gaussians(seed: int, pairs: int) -> np.ndarray:
    """2 * pairs standard normals: box_muller on the stream's first
    2 * pairs doubles."""
    return np.concatenate(box_muller(Stream(seed).doubles(2 * pairs)), axis=-1)


def test_gaussians_golden():
    got = _gaussians(7, 2)
    want = [
        1.1143177218512101,
        -2.479619031544314,
        -0.8014900936899307,
        -1.4232484806926928,
    ]
    assert np.array_equal(got, want)


def test_gaussians_moments():
    g = _gaussians(1, 100_000)
    assert abs(g.mean()) < 0.01
    assert abs(g.std() - 1.0) < 0.01


def test_complex_gaussians_shape():
    z = Stream(2).complex_gaussians((3, 4))
    assert z.shape == (3, 4)
    assert z.dtype == np.complex128


def test_integers_bounds():
    v = Stream(5).integers(-3, 3, (1000,))
    assert v.min() >= -3 and v.max() <= 3
    assert set(np.unique(v)) == set(range(-3, 4))


def test_derive_seed_golden():
    assert derive_seed(42, "ando", 0) == 5152479815633439501
    assert derive_seed(42, "ando", 1) == 8770110154575268770
    assert derive_seed(0, "x") == 3964739607747407278


def test_derive_seed_sensitivity():
    base = derive_seed(1, "case", 0)
    assert derive_seed(1, "case", 1) != base
    assert derive_seed(2, "case", 0) != base
    assert derive_seed(1, "esac", 0) != base
