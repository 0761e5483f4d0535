"""JSON matrix formats.

Complex matrix:   {"rows": R, "cols": C, "entries": [[[re, im], ...], ...]}
Block instance:   {"m": M, "n": N, "matrix": {...}}
Integer matrix:   {"rows": R, "cols": C, "entries": [[int, ...], ...]}
Gram pair:        {"pair": [matrix, matrix]}

Floats round-trip losslessly: json emits shortest-round-trip decimals and
binary64 parses back exactly.
"""

from __future__ import annotations

import json

import numpy as np

from .blocks import BlockMatrix


def matrix_to_obj(a: np.ndarray) -> dict:
    a = np.asarray(a, dtype=np.complex128)
    return {
        "rows": a.shape[0],
        "cols": a.shape[1],
        "entries": [[[float(z.real), float(z.imag)] for z in row] for row in a],
    }


def _field(obj: dict, key: str):
    """obj[key]; ValueError naming the field when obj has none such, or is
    no JSON object."""
    if not isinstance(obj, dict):
        raise ValueError(f"expected a JSON object with field {key!r}, "
                         f"got {type(obj).__name__}")
    if key not in obj:
        raise ValueError(f"missing field {key!r}")
    return obj[key]


def _size(obj: dict, key: str) -> int:
    v = _field(obj, key)
    if type(v) is not int or v < 1:
        raise ValueError(f"{key} must be a positive integer, got {v!r}")
    return v


def _entries(obj: dict) -> list:
    """obj["entries"], a list of lists checked against obj's rows and cols."""
    rows, cols = _size(obj, "rows"), _size(obj, "cols")
    entries = _field(obj, "entries")
    if not isinstance(entries, list):
        raise ValueError(f"entries is not a list, got {type(entries).__name__}")
    for i, row in enumerate(entries):
        if not isinstance(row, list):
            raise ValueError(f"entries row {i} is not a list, got {type(row).__name__}")
    if len(entries) != rows or any(len(r) != cols for r in entries):
        raise ValueError("entries shape does not match rows/cols")
    return entries


def _is_real(x) -> bool:
    """x is a JSON number: an int or float, not a bool."""
    return type(x) in (int, float)


def matrix_from_obj(obj: dict) -> np.ndarray:
    entries = _entries(obj)
    out = np.empty((len(entries), len(entries[0])), dtype=np.complex128)
    for i, row in enumerate(entries):
        for j, cell in enumerate(row):
            if not (isinstance(cell, (list, tuple)) and len(cell) == 2
                    and all(map(_is_real, cell))):
                raise ValueError(f"matrix entry ({i}, {j}) {cell!r} is not a [re, im] "
                                 "pair of numbers")
            out[i, j] = complex(*cell)
    if not np.isfinite(out).all():
        raise ValueError("matrix has non-finite entries")
    return out


def int_matrix_to_obj(a: np.ndarray) -> dict:
    a = np.asarray(a)
    return {
        "rows": a.shape[0],
        "cols": a.shape[1],
        "entries": [[int(v) for v in row] for row in a],
    }


def int_matrix_from_obj(obj: dict) -> np.ndarray:
    entries = _entries(obj)
    for row in entries:
        for v in row:
            if type(v) is not int or not -(2**63) <= v < 2**63:
                raise ValueError(f"integer matrix entry {v!r} is not a 64-bit integer")
    return np.array(entries, dtype=np.int64)


def block_to_obj(a: BlockMatrix) -> dict:
    return {"m": a.m, "n": a.n, "matrix": matrix_to_obj(a.dense)}


def block_from_obj(obj: dict) -> BlockMatrix:
    return BlockMatrix(_size(obj, "m"), _size(obj, "n"), matrix_from_obj(_field(obj, "matrix")))


def pair_to_obj(pair) -> dict:
    m, n = pair
    return {"pair": [matrix_to_obj(m), matrix_to_obj(n)]}


def pair_from_obj(obj: dict):
    pair = _field(obj, "pair")
    if not isinstance(pair, list) or len(pair) != 2:
        got = f"{len(pair)} items" if isinstance(pair, list) else type(pair).__name__
        raise ValueError(f"pair must be a list of two matrices, got {got}")
    return matrix_from_obj(pair[0]), matrix_from_obj(pair[1])


def instance_to_obj(x) -> dict:
    """The JSON object of an instance, in the format of its type: a block
    matrix, a factor pair, an integer matrix or a complex matrix."""
    if isinstance(x, BlockMatrix):
        return block_to_obj(x)
    if isinstance(x, tuple):
        return pair_to_obj(x)
    if np.issubdtype(np.asarray(x).dtype, np.integer):
        return int_matrix_to_obj(x)
    return matrix_to_obj(x)


def dump(obj: dict) -> str:
    return json.dumps(obj, indent=2, sort_keys=True)


def load(path) -> dict:
    """The JSON object in the file at path; ValueError when the file holds
    another JSON value, since every format here is an object."""
    with open(path) as fh:
        obj = json.load(fh)
    if not isinstance(obj, dict):
        raise ValueError("input is not a JSON object")
    return obj
