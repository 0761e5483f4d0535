import json

import numpy as np
import pytest

from blocktrace import serialize
from blocktrace.generate import GenSpec, gen
from blocktrace.rng import Stream


def test_complex_matrix_round_trip_exact(tmp_path):
    a = Stream(0).complex_gaussians((3, 4))
    path = tmp_path / "m.json"
    path.write_text(serialize.dump(serialize.matrix_to_obj(a)) + "\n")
    b = serialize.matrix_from_obj(serialize.load(path))
    assert np.array_equal(a, b)  # binary64 survives JSON bit-for-bit


def test_block_round_trip(tmp_path):
    a = gen(GenSpec("psd", m=2, n=3, seed=1))
    path = tmp_path / "b.json"
    path.write_text(serialize.dump(serialize.block_to_obj(a)) + "\n")
    b = serialize.block_from_obj(serialize.load(path))
    assert (b.m, b.n) == (2, 3)
    assert np.array_equal(a.dense, b.dense)


def test_int_matrix_round_trip(tmp_path):
    x = gen(GenSpec("real-int", m=3, n=2, seed=2))
    path = tmp_path / "i.json"
    path.write_text(serialize.dump(serialize.int_matrix_to_obj(x)) + "\n")
    y = serialize.int_matrix_from_obj(serialize.load(path))
    assert np.array_equal(x, y)
    assert y.dtype == np.int64


def test_pair_round_trip(tmp_path):
    pair = gen(GenSpec("gram-pair", m=2, n=3, seed=3))
    path = tmp_path / "p.json"
    path.write_text(serialize.dump(serialize.pair_to_obj(pair)) + "\n")
    p, q = serialize.pair_from_obj(serialize.load(path))
    assert np.array_equal(pair[0], p)
    assert np.array_equal(pair[1], q)


def test_shape_mismatch_rejected():
    obj = {"rows": 2, "cols": 2, "entries": [[[1.0, 0.0]]]}
    with pytest.raises(ValueError):
        serialize.matrix_from_obj(obj)


def test_dump_is_canonical():
    text = serialize.dump({"b": 1, "a": 2})
    assert text == json.dumps({"a": 2, "b": 1}, indent=2, sort_keys=True)


@pytest.mark.parametrize("cell", [
    [True, False], [1.0, True], [False, 0], "ab", [1.0], [1.0, 0.0, 0.0], 1.0, [None, 0.0],
    ["1", 0.0], {"re": 1.0, "im": 0.0},
], ids=["bools", "bool-im", "bool-re", "string", "short", "long", "bare-number", "null",
        "string-re", "object"])
def test_complex_entries_are_pairs_of_numbers(cell):
    """A complex entry is a [re, im] pair of JSON numbers, not bools; the
    ValueError names the entry."""
    obj = {"rows": 1, "cols": 2, "entries": [[[1.0, 0.0], cell]]}
    with pytest.raises(ValueError, match=r"entry \(0, 1\)"):
        serialize.matrix_from_obj(obj)
    with pytest.raises(ValueError, match=r"entry \(1, 1\)"):
        serialize.block_from_obj({"m": 1, "n": 2, "matrix": {**obj, "rows": 2, "entries": [
            [[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], cell]]}})
    ok = {"rows": 1, "cols": 2, "entries": [[[1, 0], [0.5, -2]]]}
    assert serialize.matrix_from_obj(ok).tolist() == [[1 + 0j, 0.5 - 2j]]
