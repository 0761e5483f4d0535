"""Span tracer that wraps blocktrace's public functions from outside the package.

A wrapped call is one span. Each thread keeps its own span stack, so spans
opened in ``run_suite``'s worker threads nest under their own thread's
parent, never under a span of another thread. On close a span adds its
duration minus the time its children cover to its function's self time.

A span that opens on an empty stack in a worker thread (any thread but the
main one) is a child of the main-thread span that waits for it: the first
main-thread span to close after it ends takes it. With ``run_suite`` called
from the main thread, that is ``run_suite`` itself, so its self time is its
wall time minus the time in which at least one worker ran a case.

Wrapping works only where the callee is looked up at call time. Modules
that did ``from .x import y`` hold their own reference to ``y``, so
``install`` rebinds every module-level alias of a wrapped function across
all loaded ``blocktrace`` modules, and ``uninstall`` puts the originals back.
"""

from __future__ import annotations

import functools
import sys
import threading
from collections import Counter
from time import perf_counter

import numpy as np


def _square_cost(counters: Counter, args, kwargs, result, duration) -> None:
    """Dense-kernel cost of one call, as computed from the input's shape.

    For an r x c input: r * c * min(r, c) flops (k^3 when square) and
    16 * r * c bytes of complex128 input. Cache misses are not counted."""
    rows, cols = np.shape(args[0])
    counters["linalg.flops_computed"] += rows * cols * min(rows, cols)
    counters["linalg.bytes_computed"] += 16 * rows * cols


def _words(counters: Counter, args, kwargs, result, duration) -> None:
    counters["rng.words"] += args[2]


def _dump_bytes(counters: Counter, args, kwargs, result, duration) -> None:
    counters["serialize.dump.bytes"] += len(result)


def _pool_capacity(counters: Counter, args, kwargs, result, duration) -> None:
    threads = kwargs.get("threads", args[1] if len(args) > 1 else 1)
    counters["suite.pool.capacity_s"] += threads * duration


def _case_busy(counters: Counter, args, kwargs, result, duration) -> None:
    case_id = args[0]
    counters["suite.pool.busy_s"] += duration
    counters["case_s:" + case_id] += duration
    counters["case_trials:" + case_id] += result["trials"]


# (module under blocktrace, function, hook adding counts at that boundary)
TARGETS = (
    ("rng", "derive_seed", None),
    ("rng", "splitmix64", _words),
    ("generate", "gen", None),
    ("generate", "random_ppt", None),
    ("generate", "random_psd", None),
    ("blocks", "partial_transpose", None),
    ("blocks", "partial_trace_1", None),
    ("blocks", "partial_trace_2", None),
    ("blocks", "block_diag", None),
    ("blocks", "j_block", None),
    ("maps", "apply_map_blockwise", None),
    ("suite", "run_suite", _pool_capacity),
    ("suite", "run_case_trials", _case_busy),
    ("suite", "make_instance", None),
    ("suite", "check_case", None),
    ("linalg", "hermitian_eigvals", _square_cost),
    ("linalg", "singular_values", _square_cost),
    ("linalg", "matrix_abs", _square_cost),
    ("orders", "is_psd", None),
    ("orders", "majorizes", None),
    ("orders", "sv_dominates", None),
    ("serialize", "dump", _dump_bytes),
)

SPAN_NAMES = tuple(f"{mod}.{fn}" for mod, fn, _ in TARGETS)


def _covered(intervals, start: float, end: float) -> float:
    """Length of the union of ``intervals`` clipped to [start, end]."""
    total, reach = 0.0, start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


class _ThreadState:
    def __init__(self):
        self.main = threading.current_thread() is threading.main_thread()
        self.stack = []  # one [child seconds] cell per open span
        self.calls = Counter()
        self.self_s = Counter()
        self.counters = Counter()


class Snapshot:
    """Totals over every thread at one moment; subtract two for a window."""

    def __init__(self, calls: Counter, self_s: Counter, counters: Counter):
        self.calls, self.self_s, self.counters = calls, self_s, counters

    def __sub__(self, other: "Snapshot") -> "Snapshot":
        def diff(a, b):
            return Counter({k: a[k] - b[k] for k in a.keys() | b.keys()})

        return Snapshot(
            diff(self.calls, other.calls),
            diff(self.self_s, other.self_s),
            diff(self.counters, other.counters),
        )


class Tracer:
    def __init__(self):
        self._local = threading.local()
        self._states = []
        self._lock = threading.Lock()
        self._restore = []
        self._worker_roots = []  # (start, end) of closed worker-thread roots

    def _state(self) -> _ThreadState:
        st = getattr(self._local, "state", None)
        if st is None:
            st = self._local.state = _ThreadState()
            with self._lock:
                self._states.append(st)
        return st

    def wrap(self, name: str, fn, hook=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            st = self._state()
            cell = [0.0]
            st.stack.append(cell)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                duration = end - start
                st.stack.pop()
                if st.stack:
                    st.stack[-1][0] += duration
                elif not st.main:
                    with self._lock:
                        self._worker_roots.append((start, end))
                if st.main and self._worker_roots:
                    with self._lock:
                        roots, self._worker_roots = self._worker_roots, []
                    cell[0] += _covered(roots, start, end)
                st.calls[name] += 1
                st.self_s[name] += duration - cell[0]
            if hook is not None:
                hook(st.counters, args, kwargs, result, duration)
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every target and rebind all its aliases in blocktrace."""
        if self._restore:
            raise RuntimeError("tracer already installed")
        modules = [m for k, m in list(sys.modules.items())
                   if m is not None and (k == "blocktrace" or k.startswith("blocktrace."))]
        for mod_name, fn_name, hook in TARGETS:
            original = getattr(sys.modules["blocktrace." + mod_name], fn_name)
            wrapper = self.wrap(f"{mod_name}.{fn_name}", original, hook)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._restore.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._restore):
            setattr(module, attr, original)
        self._restore.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def snapshot(self) -> Snapshot:
        """Merged totals. Take it only while no traced call is running."""
        calls, self_s, counters = Counter(), Counter(), Counter()
        with self._lock:
            states = list(self._states)
        for st in states:
            calls.update(st.calls)
            self_s.update(st.self_s)
            counters.update(st.counters)
        return Snapshot(calls, self_s, counters)
