import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "scripts" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)


def _run(sha="a" * 64, correct=True, env=None):
    return {"report_sha256": sha, "correct": correct,
            "env": {"git_sha": "c" * 40} if env is None else env}


def test_matching_correct_pair_counts():
    assert bench_pairs.pair_problem({"parent": _run(), "change": _run()}) is None


@pytest.mark.parametrize("pair, words", [
    ({"parent": _run(), "change": _run("b" * 64)}, "report_sha256 differs"),
    ({"parent": _run(correct=False), "change": _run()}, "parent run is not correct"),
    ({"parent": _run(), "change": _run(correct=False)}, "change run is not correct"),
    ({"parent": _run(env={"git_sha": None}), "change": _run()}, "parent is not a git checkout"),
    ({"parent": _run(), "change": _run(env={"git_sha": None})}, "change is not a git checkout"),
])
def test_mismatched_or_incorrect_pair_is_refused(pair, words):
    assert words in bench_pairs.pair_problem(pair)


PARENT = [100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.3]


@pytest.mark.parametrize("change, better, bound, want", [
    # 10/10 pairs won and the medians 10 apart, against a parent q3 - q1 under 1.
    ([x + 10 for x in PARENT], "higher", 0.25, "gain"),
    ([x - 10 for x in PARENT], "lower", 0.25, "gain"),
    # 9/10 pairs is still a gain; 8/10 is not.
    ([x + 10 for x in PARENT[:9]] + [PARENT[9] - 1], "higher", 0.25, "gain"),
    ([x + 10 for x in PARENT[:8]] + [x - 1 for x in PARENT[8:]], "higher", 0.25, "flat"),
    # Every pair won, by less than the parent's quartile spread.
    ([x + 0.1 for x in PARENT], "higher", 0.25, "flat"),
    # Worse by more than the bound, in either direction of better.
    ([x * 0.7 for x in PARENT], "higher", 0.25, "worse"),
    ([x * 1.3 for x in PARENT], "lower", 0.25, "worse"),
    ([x * 0.8 for x in PARENT], "higher", 0.25, "flat"),
    ([x * 1.05 for x in PARENT], "lower", 0.1, "flat"),
    ([x * 1.15 for x in PARENT], "lower", 0.1, "worse"),
    # Ties count for neither side.
    (list(PARENT), "higher", 0.25, "flat"),
])
def test_verdict_on_synthetic_pairs(change, better, bound, want):
    assert bench_pairs.verdict(PARENT, change, better, bound) == want


def test_verdict_is_unresolved_when_the_parent_spreads_wider_than_the_bound():
    wide = [50.0, 150.0, 60.0, 140.0, 70.0, 130.0, 80.0, 120.0, 90.0, 110.0]
    # Medians equal: nothing can be told at this spread.
    assert bench_pairs.verdict(wide, wide[::-1], "higher", 0.25) == "unresolved"
    # Every change run better than every parent run resolves it.
    assert bench_pairs.verdict(wide, [x + 200 for x in wide[::-1]], "higher", 0.25) == "gain"
    # ... also when the medians differ by less than that spread.
    assert bench_pairs.verdict(wide, [151.0 + i for i in range(10)][::-1], "higher",
                               0.25) == "flat"
    assert bench_pairs.verdict(wide, [49.0 - i for i in range(10)], "lower", 0.25) == "flat"


def test_summary_records_each_metric_verdict():
    spec = [{"name": "trials_per_s", "unit": "trials/s", "better": "higher", "bound": 0.25}]
    pairs = [{"parent": {"metrics": {"trials_per_s": p}},
              "change": {"metrics": {"trials_per_s": p + 10}}} for p in PARENT]
    entry = bench_pairs.summarize(pairs, spec)["trials_per_s"]
    assert (entry["verdict"], entry["change_wins"]) == ("gain", 10)
