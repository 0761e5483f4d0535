"""Tests of the benchmark itself: tracing leaves reports alone, counts
repeat, and the result line matches BENCHMARK.json.

    PYTHONPATH=src python -m pytest -q perfbench
"""

import hashlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import spans

bt = run._import_blocktrace()

CONFIG = bt.RunConfig(
    ("hiroshima-conditional", "ppt-majorization", "horodecki-reduction", "ck-lih",
     "abs-block-corollary", "psi-not-2-positive", "thm37-singular", "phi-completely-ppt"),
    ((2, 2), (2, 3), (3, 2)), 4, 11)


def _sha(threads: int) -> str:
    text = bt.serialize.dump(bt.run_suite(CONFIG, threads=threads))
    return hashlib.sha256(text.encode()).hexdigest()


def _traced(threads: int):
    with spans.Tracer() as tracer:
        sha = _sha(threads)
    return sha, tracer.snapshot()


def test_tracing_keeps_reports_and_counts_repeat():
    plain = _sha(1)
    sha_a, snap_a = _traced(1)
    sha_b, snap_b = _traced(1)
    sha_t, snap_t = _traced(2)
    assert sha_a == sha_b == sha_t == plain

    words = ("rng.words", "linalg.flops_computed", "linalg.bytes_computed",
             "serialize.dump.bytes")
    assert snap_a.calls == snap_b.calls == snap_t.calls
    assert {k: snap_a.counters[k] for k in words} == {k: snap_b.counters[k] for k in words}
    assert {k: snap_a.counters[k] for k in words} == {k: snap_t.counters[k] for k in words}
    assert snap_a.counters["rng.words"] > 0
    assert snap_a.calls["suite.check_case"] == len(CONFIG.cases) * CONFIG.trials


def test_threaded_spans_nest_per_thread():
    _, snap = _traced(2)
    assert min(snap.self_s.values()) >= -1e-9
    # The workers' case spans are run_suite's children, so its self time is
    # only the pool's own overhead.
    run_suite_s = snap.counters["suite.pool.capacity_s"] / 2
    assert snap.self_s["suite.run_suite"] < 0.5 * run_suite_s
    assert snap.counters["suite.pool.busy_s"] <= snap.counters["suite.pool.capacity_s"]


def test_uninstall_restores_every_alias():
    before = {name: getattr(bt.suite, name) for name in ("derive_seed", "gen", "is_psd",
                                                          "hermitian_eigvals", "run_case_trials")}
    with spans.Tracer():
        assert bt.suite.derive_seed is not before["derive_seed"]
        assert bt.orders.hermitian_eigvals is bt.suite.hermitian_eigvals
    assert {name: getattr(bt.suite, name) for name in before} == before
    assert bt.rng.derive_seed is before["derive_seed"]


def _result(trace: int) -> dict:
    out = subprocess.run(
        [sys.executable, str(Path(run.__file__)), "--workload", "exact-int", "--seed", "3",
         "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, timeout=170, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace, key", [(0, "end_to_end"), (1, "per_layer")])
def test_result_line_matches_benchmark_json(trace, key):
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    result = _result(trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] > 0
    expected = {m["name"]: m["unit"] for m in spec[key]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep-small", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
