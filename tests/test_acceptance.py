"""Acceptance gate.

Each test covers one numbered criterion, pins the stated tolerance, and
prints exactly one PASS/FAIL line so the gate can be read off the log.

Criterion 3 includes the degenerate size n = 1.  There psi(x) = (tr x)I - x
= x - x = 0 on 1x1 blocks, so the blockwise image of E = diag(1, 0) is the
zero matrix and the faithful witness is exactly 0: no violation exists.
That sub-case asserts the zero witness exactly.
"""

import time

import numpy as np
import pytest

from blocktrace import serialize
from blocktrace.blocks import (
    BlockMatrix,
    full_transpose,
    partial_trace_1,
    partial_trace_2,
    partial_transpose,
    reshuffle,
)
from blocktrace.generate import GenSpec, gen
from blocktrace.linalg import hermitian_eigvals
from blocktrace.rng import Stream, derive_seed
from blocktrace.suite import (
    RunConfig,
    ando_residual,
    case_ids,
    check_case,
    make_instance,
    run_suite,
    total_failures,
)

MASTER_EXCLUDED = ("psi-not-2-positive", "open-question-residual")


def _report(name: str, ok: bool, detail: str = ""):
    import sys

    tail = f" ({detail})" if detail else ""
    line = f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'}{tail}"
    # bypass capture so the one-line-per-criterion gate always shows in the log
    print(line, file=sys.__stdout__)
    assert ok, line


def test_criterion_1_structural_exactness():
    """Permutation identities hold with zero tolerance on 200 instances."""
    start = time.time()
    ok = True
    dims = [(m, n) for m in (1, 2, 3, 4) for n in (1, 2, 3, 4)]
    for trial in range(200):
        m, n = dims[trial % len(dims)]
        a = BlockMatrix(m, n, Stream(derive_seed(42, "structural", trial))
                        .complex_gaussians((m * n, m * n)))
        tau = partial_transpose(a)
        ok &= np.array_equal(partial_transpose(tau).dense, a.dense)
        ok &= np.array_equal(reshuffle(reshuffle(a)).dense, a.dense)
        ok &= np.array_equal(
            partial_transpose(reshuffle(a)).dense,
            full_transpose(reshuffle(tau)).dense,
        )
        ok &= np.array_equal(partial_trace_2(a), partial_trace_1(reshuffle(a)))
        # the swap identity, as an entry permutation of the very same
        # products (an independent index-arithmetic oracle for reshuffle)
        k = np.kron(
            Stream(derive_seed(42, "structural-x", trial)).complex_gaussians((m, m)),
            Stream(derive_seed(42, "structural-y", trial)).complex_gaussians((n, n)),
        )
        permuted = np.empty((m * n, m * n), dtype=np.complex128)
        for i in range(m):
            for j in range(m):
                for r in range(n):
                    for s_ in range(n):
                        permuted[r * m + i, s_ * m + j] = k[i * n + r, j * n + s_]
        ok &= np.array_equal(reshuffle(BlockMatrix(m, n, k)).dense, permuted)
        # bitwise commutation of the factors needs exact products: integer
        # entries multiply without rounding, so both sides agree bit-for-bit
        sx = Stream(derive_seed(42, "structural-ix", trial))
        xi = (sx.integers(-9, 9, (m, m)) + 1j * sx.integers(-9, 9, (m, m)))
        yi = (sx.integers(-9, 9, (n, n)) + 1j * sx.integers(-9, 9, (n, n)))
        ok &= np.array_equal(
            reshuffle(BlockMatrix(m, n, np.kron(xi, yi))).dense, np.kron(yi, xi)
        )
    elapsed = time.time() - start
    _report("1-structural-exactness", ok and elapsed < 5.0, f"{elapsed:.2f}s")


def test_criterion_2_master_suite():
    """All cases except the counterexample and the residual scan pass with
    witness >= -1e-8 * scale: 500 trials per case, dims (2..4)^2, seed 42."""
    cases = tuple(c for c in case_ids() if c not in MASTER_EXCLUDED)
    dims = tuple((m, n) for m in (2, 3, 4) for n in (2, 3, 4))
    config = RunConfig(cases, dims, trials=500, seed=42, tol=1e-8)
    start = time.time()
    report = run_suite(config)
    elapsed = time.time() - start
    failures = total_failures(report)
    _report("2-master-suite", failures == 0 and elapsed < 180.0,
            f"failures={failures}, {elapsed:.1f}s")


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_criterion_3_counterexample_fidelity(n):
    """The witness is the true depth of psi's violation on E.

    Oracle first: for n >= 2 the 2x2 principal submatrix at rows {0, n+1}
    is [[0, -1], [-1, 0]], forcing lambda_min <= -1.  For n = 1, psi is
    zero on 1x1 blocks, so the image of E = diag(1, 0) is zero and the
    faithful witness is exactly 0, reported as not holding."""
    from blocktrace.maps import apply_map_blockwise

    inst = make_instance("psi-not-2-positive", 2, n, 0)
    report = check_case("psi-not-2-positive", inst)
    w = apply_map_blockwise("psi", inst).dense
    if n >= 2:
        ok = report.witness <= -1.0 + 1e-8
        # independent oracle: brute-force eigendecomposition of the block
        sub = w[np.ix_([0, n + 1], [0, n + 1])]
        assert np.array_equal(sub.real, [[0, -1], [-1, 0]])
        assert np.linalg.eigvalsh((w + w.conj().T) / 2).min() <= -1.0 + 1e-12
    else:
        # independent oracle: E is diag(1, 0) and psi sends it to zero
        assert np.array_equal(inst.dense, np.diag([1, 0]))
        assert not w.any()
        ok = report.witness == 0.0 and report.holds is False
    _report(f"3-counterexample-n{n}", ok, f"witness={report.witness:.6g}")


def test_criterion_4_exact_scalar_suite():
    """The three integer inequalities hold exactly on 10,000 matrices."""
    start = time.time()
    dims = [(m, n) for m in range(1, 7) for n in range(1, 7)]
    bad = 0
    for trial in range(10_000):
        m, n = dims[trial % len(dims)]
        x = gen(GenSpec("real-int", m=m, n=n,
                        seed=derive_seed(42, "exact-scalar", trial), int_bound=100))
        for cid in ("ck-classical", "ck-lih", "ck-improved"):
            if not check_case(cid, x).holds:
                bad += 1
    elapsed = time.time() - start
    _report("4-exact-scalar-suite", bad == 0 and elapsed < 10.0,
            f"violations={bad}, {elapsed:.1f}s")


def test_criterion_5_tightness_witnesses():
    a = gen(GenSpec("ones-kron", m=2, n=2))
    w1 = check_case("choi-tr1", a).witness
    ok = abs(w1) <= 1e-10
    detail = [f"all-ones witness={w1:.3g}"]
    for m, n in [(2, 2), (3, 3), (4, 2), (4, 4)]:
        ident = BlockMatrix(m, n, np.eye(m * n, dtype=np.complex128))
        lam = hermitian_eigvals(ando_residual(ident))
        want = (m - 1) * (n - 1)
        ok &= bool(np.all(np.abs(lam - want) <= 1e-10))
    detail.append("identity residual matches (m-1)(n-1)")
    _report("5-tightness-witnesses", ok, "; ".join(detail))


def test_criterion_6_ando_sanity_scan():
    """No residual dips below -1e-8 * scale over 2,000 PSD instances."""
    dims = [(m, n) for m in (2, 3, 4) for n in (2, 3, 4)]
    from blocktrace.suite import open_question_scan

    report = open_question_scan(dims, trials=2000, seed=42, tol=1e-8)
    ok = report["sanity_violations"] == 0
    _report("6-ando-sanity-scan", ok,
            f"min lambda_min={report['min_lambda_min']:.6g}")


def test_criterion_7_oracle_equivalence():
    """Both partial-trace routes agree exactly on every generated kind."""
    ok = True
    for kind in ("psd", "ppt", "hermitian"):
        for trial in range(50):
            m, n = 2 + trial % 3, 2 + (trial // 3) % 3
            a = gen(GenSpec(kind, m=m, n=n, seed=derive_seed(42, kind, trial)))
            ok &= np.array_equal(partial_trace_2(a), partial_trace_1(reshuffle(a)))
    _report("7-oracle-equivalence", ok)


def test_criterion_8_spectral_soundness():
    """Trace and unitary-invariance identities of the eigenvalue kernel
    within 1e-9 * scale on 1,000 Hermitian matrices up to 16x16."""
    ok = True
    for trial in range(1000):
        n = 2 + trial % 15
        s = Stream(derive_seed(42, "spectral", trial))
        g = s.complex_gaussians((n, n))
        h = (g + g.conj().T) / 2
        vals = hermitian_eigvals(h)
        scale = max(1.0, float(np.abs(vals).sum()))
        ok &= abs(vals.sum() - np.trace(h).real) <= 1e-9 * scale
        q = np.linalg.qr(s.complex_gaussians((n, n)))[0]
        rotated = hermitian_eigvals(q @ h @ q.conj().T)
        ok &= bool(np.max(np.abs(rotated - vals)) <= 1e-9 * scale)
    _report("8-spectral-soundness", ok)


def test_criterion_9_determinism():
    """Identical configs give byte-identical JSON reports."""
    cases = tuple(c for c in case_ids() if c not in MASTER_EXCLUDED)
    dims = tuple((m, n) for m in (2, 3, 4) for n in (2, 3, 4))
    config = RunConfig(cases, dims, trials=20, seed=42, tol=1e-8)
    r1 = serialize.dump(run_suite(config, threads=1))
    r2 = serialize.dump(run_suite(config, threads=2))
    ok = r1.encode() == r2.encode()
    _report("9-determinism", ok)
