"""The engine runs its kernels on one OpenBLAS thread and gives the host
process its thread count back: after each entry point, after an exception,
and when entries nest or overlap in several threads.  The thread count
must not move a report bit."""

import contextlib
import dataclasses
import subprocess
import sys
import threading

import pytest

from blocktrace import linalg, serialize, suite
from blocktrace.suite import REGISTRY, RunConfig, case_ids, open_question_scan, run_suite

TIMEOUT_S = 60


@pytest.fixture
def blas():
    """(get, set) of numpy's OpenBLAS thread count, set to 2 for the test
    so that one thread is observable, and put back afterwards."""
    handle = linalg._openblas()
    if handle is None:
        pytest.skip("numpy has no bundled OpenBLAS whose thread count can be set")
    get, put = handle
    original = get()
    put(2)
    try:
        yield get, put
    finally:
        put(original)


@pytest.fixture
def counts(monkeypatch, blas):
    """(thread name, BLAS thread count) at every suite._evaluate call."""
    get, _ = blas
    seen = []
    evaluate = suite._evaluate

    def spy(*args):
        seen.append((threading.current_thread().name, get()))
        return evaluate(*args)

    monkeypatch.setattr(suite, "_evaluate", spy)
    return seen


def test_library_is_looked_up_at_the_first_engine_call_not_at_import():
    code = ("import blocktrace; from blocktrace import linalg; "
            "assert linalg._openblas.cache_info().misses == 0; "
            "blocktrace.run_suite(blocktrace.RunConfig(('ando',), ((2, 2),), 1, 0)); "
            "assert linalg._openblas.cache_info().misses == 1")
    subprocess.run([sys.executable, "-c", code], check=True, timeout=TIMEOUT_S)


SMALL = RunConfig(("ando", "choi-tr1", "ck-classical"), ((2, 2), (6, 6)), 3, 1)


def test_entry_points_run_on_one_thread_and_restore(blas, counts):
    get, _ = blas
    run_suite(SMALL)
    assert counts and {c for _, c in counts} == {1}
    assert get() == 2
    counts.clear()
    open_question_scan([(2, 2), (6, 6)], 4, 1)
    assert counts and {c for _, c in counts} == {1}
    assert get() == 2


def test_count_restored_when_a_case_raises(blas, counts, monkeypatch):
    get, _ = blas

    def boom(*args):
        raise RuntimeError("boom")

    for case_id in ("ando", "open-question-residual"):
        monkeypatch.setitem(REGISTRY, case_id, dataclasses.replace(REGISTRY[case_id], fn=boom))
    with pytest.raises(RuntimeError, match="boom"):
        run_suite(SMALL)
    assert get() == 2
    with pytest.raises(RuntimeError, match="boom"):
        open_question_scan([(2, 2)], 3, 1)
    assert get() == 2
    assert counts and {c for _, c in counts} == {1}


def test_nested_entry_restores_only_at_the_outer_exit(blas, counts):
    get, _ = blas
    with linalg.one_blas_thread():
        run_suite(SMALL)
        assert get() == 1
        open_question_scan([(2, 2)], 3, 1)
        assert get() == 1
    assert get() == 2
    assert {c for _, c in counts} == {1}


def test_overlapping_runs_in_two_threads_restore_once(blas, monkeypatch):
    """Thread "late" enters first and waits in its first _evaluate call
    until thread "early" has entered, run and exited its own run_suite.
    Early's exit must leave the count at 1 for late; late's exit restores."""
    get, _ = blas
    late_inside, early_done = threading.Event(), threading.Event()
    seen, errors = [], []
    evaluate = suite._evaluate

    def spy(*args):
        name = threading.current_thread().name
        if name == "late" and not late_inside.is_set():
            late_inside.set()
            assert early_done.wait(TIMEOUT_S)
        elif name == "early":
            assert late_inside.wait(TIMEOUT_S)
        seen.append((name, get()))
        return evaluate(*args)

    monkeypatch.setattr(suite, "_evaluate", spy)

    def run(done=None):
        try:
            run_suite(SMALL)
        except Exception as exc:  # reported by the main thread below
            errors.append(exc)
        finally:
            if done is not None:
                done.set()

    late = threading.Thread(target=run, name="late")
    early = threading.Thread(target=run, args=(early_done,), name="early")
    late.start()
    assert late_inside.wait(TIMEOUT_S)
    early.start()
    for thread in (early, late):
        thread.join(TIMEOUT_S)
        assert not thread.is_alive()
    assert errors == []
    assert {name for name, _ in seen} == {"early", "late"}
    assert {c for _, c in seen} == {1}
    # late's calls after early exited still ran on one thread
    assert seen[-1][0] == "late"
    assert get() == 2


def test_thread_count_moves_no_report_bit(blas, monkeypatch):
    """At 6x6 and 8x8 OpenBLAS splits eigvalsh and matmul across threads;
    the reports with one thread and with two are the same text."""
    config = RunConfig(tuple(case_ids()), ((6, 6), (8, 8)), 20, 3)

    def reports():
        return (serialize.dump(run_suite(config)),
                serialize.dump(open_question_scan([(6, 6)], 40, 3)))

    one = reports()
    monkeypatch.setattr(suite, "one_blas_thread", contextlib.nullcontext)
    spread = reports()
    assert len(case_ids()) == 44
    assert one == spread
