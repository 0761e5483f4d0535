import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "scripts" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)


def _run(sha="a" * 64, correct=True):
    return {"report_sha256": sha, "correct": correct}


def test_matching_correct_pair_counts():
    assert bench_pairs.pair_problem({"parent": _run(), "change": _run()}) is None


@pytest.mark.parametrize("pair, words", [
    ({"parent": _run(), "change": _run("b" * 64)}, "report_sha256 differs"),
    ({"parent": _run(correct=False), "change": _run()}, "parent run is not correct"),
    ({"parent": _run(), "change": _run(correct=False)}, "change run is not correct"),
])
def test_mismatched_or_incorrect_pair_is_refused(pair, words):
    assert words in bench_pairs.pair_problem(pair)
