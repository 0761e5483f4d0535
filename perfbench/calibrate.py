"""Machine-speed calibration for the benchmark.

On a shared machine the same round of blocktrace work can take 1.5x longer
from one minute to the next, because other tenants contend for the cores
and caches; process CPU time rises with wall time, so the process is not
descheduled but runs slower. ``calibrate`` times a fixed piece of work that
shares no code with blocktrace, and the benchmark runs it between every two
samples. A sample's times are scaled by ``REFERENCE_S`` over the mean CPU
time of the calibrations on either side of it. That puts every sample in
reference seconds: the seconds it would have taken on the machine at the
speed at which the calibration takes ``REFERENCE_S`` of CPU. CPU time, not
wall time, because a calibration descheduled for part of its 50 ms would
misread the machine's speed by that share.

The work mixes the two kinds of code a sweep runs: a pure-Python integer
loop and small numpy calls (kron, einsum, eigvalsh, sort, cumsum and
uint64 scalar arithmetic). Each alone tracks the sweep's slow-downs with a
log-log slope of about 1.2 and 0.8; their sum tracks it with a slope near 1.
Its inputs are fixed, so it does the same work in every run, and no change
to blocktrace can change it. It runs in the benchmark process itself: a
calibrating child process often ran on the other core, whose contention
differs, and scaled runs spread twice as wide. It adds about 1 MB, a
constant, to the process's peak memory.
"""

from __future__ import annotations

from time import thread_time

import numpy as np

# About what one calibration takes on the 2-core x86 box the benchmark was
# tuned on. It only sets the scale; never change it between two commits
# being compared.
REFERENCE_S = 0.05

# Fixed inputs from a closed formula (numpy.random would add to the
# importing process's memory).
_HERM6 = np.sin(np.arange(64 * 36, dtype=float) * 0.7).reshape(64, 6, 6)
_HERM6 = _HERM6 + _HERM6.transpose(0, 2, 1)
_G4 = np.cos(np.arange(32 * 16) * 1.3).reshape(32, 4, 4) + 1j * np.sin(
    np.arange(32 * 16) * 0.9).reshape(32, 4, 4)
_PSD4 = [g @ g.conj().T for g in _G4]
_EYE2 = np.eye(2)
_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)


def _python_loop() -> int:
    acc = 0
    for _ in range(24):
        for h in _HERM6:
            np.linalg.eigvalsh(h)
            x = 0
            for j in range(200):
                x = (x * 31 + j) & 0xFFFF
            acc += x
    return acc


def _numpy_calls() -> float:
    acc = 0.0
    with np.errstate(over="ignore"):
        for _ in range(8):
            for a in _PSD4:
                k = np.kron(_EYE2, a)
                k = (k + k.conj().T) / 2
                t = np.einsum("iirs->rs", k.reshape(2, 4, 2, 4).transpose(0, 2, 1, 3))
                lam = np.sort(np.linalg.eigvalsh(k))[::-1]
                mu = np.sort(np.linalg.eigvalsh(t))[::-1]
                acc += float((np.cumsum(lam[:4]) - np.cumsum(mu)).min())
                z = np.uint64(7)
                for byte in b"abcdefgh":
                    z = (z ^ np.uint64(byte)) * _GAMMA + _GAMMA
                    z = (z ^ (z >> np.uint64(30))) * _MIX1
                    z = (z ^ (z >> np.uint64(27))) * _MIX2
    return acc


def calibrate() -> float:
    """CPU seconds of this thread the fixed calibration work takes right now.

    Thread time, so BLAS or pool threads still spinning after a round do not
    count."""
    start = thread_time()
    _python_loop()
    _numpy_calls()
    return thread_time() - start

