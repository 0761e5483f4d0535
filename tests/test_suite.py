import dataclasses
import math
import subprocess
import sys
import threading
from functools import cached_property, partial
from pathlib import Path

import numpy as np
import pytest

import blocktrace
from blocktrace import serialize, suite
from blocktrace.blocks import (BlockMatrix, block_diag, diagonal_blocks, j_block, kron_left,
                               kron_right, partial_trace_1, partial_trace_2, partial_transpose)
from blocktrace.generate import GenSpec, gen
from blocktrace.linalg import (hermitian_eigvals, hermitian_eigvals_stack, hermitian_part,
                               scale_stack, trace_stack)
from blocktrace.orders import is_ppt, is_psd
from blocktrace.rng import check_seed, derive_seed
from blocktrace.suite import (
    INPUT_CLASSES,
    REGISTRY,
    Derived,
    Part,
    RunConfig,
    SlackReport,
    build_slack,
    case_ids,
    check_case,
    check_tol,
    eq18_slack,
    make_instance,
    open_question_scan,
    require_instance,
    run_suite,
    symmetrize_offdiag,
    total_failures,
)

ALL_IDS = case_ids()


def test_registry_shape():
    assert len(REGISTRY) == 44
    assert len(set(ALL_IDS)) == 44
    for case in REGISTRY.values():
        assert case.description
        assert case.check_kind in (
            "psd-slack",
            "ppt-of-derived",
            "scalar",
            "majorization",
            "conditional-majorization",
            "sv-dominance",
            "expected-failure",
        )


@pytest.mark.parametrize("case_id", ALL_IDS)
@pytest.mark.parametrize("dims", [(2, 2), (3, 2), (2, 4), (3, 3)])
def test_every_case_holds_on_random_instances(case_id, dims):
    m, n = dims
    for trial in range(3):
        seed = derive_seed(1000, case_id, trial)
        report = check_case(case_id, make_instance(case_id, m, n, seed), seed=seed)
        assert report.holds, (case_id, dims, seed, report.witness)


def test_expected_failure_case_detects_violation():
    expected_failures = [c for c, case in REGISTRY.items() if case.check_kind == "expected-failure"]
    assert expected_failures == ["psi-not-2-positive"]
    inst = make_instance("psi-not-2-positive", 2, 3, 0)
    report = check_case("psi-not-2-positive", inst)
    assert report.holds  # holds means: the violation was found
    assert report.witness <= -1.0 + 1e-8


def test_build_slack_matches_check():
    a = make_instance("ando", 3, 2, 17)
    slack = build_slack("ando", a)
    assert [label for label, _ in slack] == ["main"]
    report = check_case("ando", a)
    lam_min = hermitian_eigvals(slack[0][1])[-1]
    assert report.witness == pytest.approx(float(lam_min))


def test_build_slack_for_derived_ppt_cases():
    a = make_instance("lin-2x2-ppt", 2, 3, 4)
    slack = dict(build_slack("lin-2x2-ppt", a))
    assert set(slack) == {"derived", "derived-tau"}
    for s in slack.values():
        assert is_psd((s + s.conj().T) / 2).holds


@pytest.mark.parametrize("case_id", ["lin-2x2-ppt", "choi-block-ppt"])
def test_build_slack_refuses_dims_outside_its_input_class(case_id):
    """A 3-block psd instance, alone or stacked, is no psd-2x2 instance:
    build_slack names the class and the dims, as require_instance does."""
    for seed in (1, derive_seed(0, "stack", np.arange(3))):
        with pytest.raises(ValueError, match="a psd-2x2 instance cannot have dims 3x2"):
            build_slack(case_id, make_instance("ando", 3, 2, seed))
        assert build_slack(case_id, make_instance(case_id, 3, 2, seed))


def test_build_slack_refuses_non_hermitian_or_non_finite_instances():
    """A non-Hermitian instance, a stack whose one row is not Hermitian, and
    an instance with a NaN entry are refused with require_hermitian's
    ValueError; the seeded stack itself still builds."""
    stack = make_instance("ando", 2, 2, derive_seed(0, "stack", np.arange(3)))
    bad_row = stack.dense.copy()
    bad_row[1, 0, 1] += 1.0
    nan = make_instance("ando", 2, 2, 1).dense.copy()
    nan[0, 0] = np.nan
    for dense in (np.arange(16.0).reshape(4, 4), bad_row, nan, np.full((4, 4), np.nan)):
        with pytest.raises(ValueError, match="not Hermitian"):
            build_slack("ando", BlockMatrix(2, 2, dense))
    assert len(build_slack("ando", stack)[0][1]) == 3


def test_build_slack_rejects_non_slack_cases():
    a = make_instance("schur-majorization", 2, 2, 0)
    with pytest.raises(ValueError):
        build_slack("schur-majorization", a)
    with pytest.raises(KeyError):
        build_slack("no-such-case", a)


def test_tightness_all_ones_input():
    """On the rank-one all-ones instance the first slack matrix is singular:
    the inequality is attained."""
    a = gen(GenSpec("ones-kron", m=2, n=2))
    report = check_case("choi-tr1", a)
    assert report.holds
    assert abs(report.witness) < 1e-12


def test_tightness_identity_residual():
    for m, n in [(2, 2), (3, 4), (4, 4)]:
        a = BlockMatrix(m, n, np.eye(m * n, dtype=np.complex128))
        [(_, residual)] = build_slack("ando", a)
        lam = hermitian_eigvals(residual)
        assert np.allclose(lam, (m - 1) * (n - 1))


def test_eq18_slack_is_psd_for_small_dims():
    for m in range(1, 6):
        for n in range(1, 6):
            assert is_psd(eq18_slack(m, n)).holds, (m, n)


def test_correction_terms_are_psd():
    """The improved bounds differ from the classical ones by explicit
    correction terms; each must itself be PSD on PSD input, otherwise
    'improved' would be vacuous."""
    a = gen(GenSpec("psd", m=3, n=3, seed=23))
    d = Derived(a)
    jb = j_block(3, 3).dense
    corrections = {
        "block-diagonal": 2 * d.d_a,
        "swapped-hadamard": 2 * (d.tau * jb),
        "trace-of-diagonal": 2 * np.kron(partial_trace_2(block_diag(a)), np.eye(3))
        - 2 * d.d_a,
        "gap-hadamard": 2 * ((np.kron(np.eye(3), d.tr1) - d.dense) * jb),
    }
    for label, corr in corrections.items():
        assert is_psd((corr + corr.conj().T) / 2).holds, label


def test_improved_bounds_imply_classical_ones():
    """Chain check: subtracting a PSD correction from a PSD slack keeps the
    classical statement PSD, so the improved cases strictly refine the
    classical cases on every instance."""
    a = gen(GenSpec("psd", m=3, n=2, seed=31))
    improved = dict(build_slack("li-tr1-improved", a))["main"]
    classical = dict(build_slack("choi-tr1", a))["main"]
    d = Derived(a)
    assert np.allclose(classical, improved + 2 * d.d_a - d.tau - d.tau)
    # and numerically: improved witness <= classical witness is not required,
    # but classical = improved + PSD must be PSD whenever improved is
    assert is_psd((improved + improved.conj().T) / 2).holds
    assert is_psd((classical + classical.conj().T) / 2).holds


def test_integer_cases_imply_each_other():
    """The improved integer inequalities dominate the two-sided ones
    (their sum recovers the classical inequality with room to spare)."""
    for seed in range(30):
        x = gen(GenSpec("real-int", m=4, n=5, seed=seed))
        improved = check_case("ck-improved", x)
        classical = check_case("ck-classical", x)
        two_sided = check_case("ck-lih", x)
        assert improved.holds and classical.holds and two_sided.holds
        # the absolute-value part is the strongest of the two-sided family
        by_label = {p.label: p.witness for p in two_sided.parts}
        assert by_label["abs"] <= by_label["minus"]
        # exactness: witnesses are integers
        for p in improved.parts + classical.parts + two_sided.parts:
            assert float(p.witness).is_integer()


CK_GAPS = {"ck-classical": suite._CK_CLASSICAL, "ck-lih": suite._CK_LIH,
           "ck-improved": suite._CK_IMPROVED}
I64_MAX, I64_MIN = 2**63 - 1, -(2**63)


def ck_oracle(gaps, x) -> list:
    """The (label, witnesses, holds) columns of the integer inequalities on
    the stack x, one matrix at a time, in Python ints summed row by row."""
    m, n = x.shape[-2:]
    cols = [(label, [], []) for label, _ in gaps]
    for rows in x.tolist():
        total = sum(sum(r) for r in rows)
        sq = sum(v * v for r in rows for v in r)
        row_sq = sum(sum(r) ** 2 for r in rows)
        col_sq = sum(sum(col) ** 2 for col in zip(*rows))
        for (_, gap), (_, witnesses, holds) in zip(gaps, cols):
            g = gap(m, n, total, sq, row_sq, col_sq)
            witnesses.append(float(g))
            holds.append(g >= 0)
    return cols


def ck_columns(gaps, x) -> list:
    """The columns of the exact-integer gaps on the integer stack x, by the
    engine's path: one _ck_sums reduction, then _decided's evaluation."""
    m, n = x.shape[-2:]
    [(_, _, columns)] = suite._decided([(m, n, suite._ck(gaps, suite._ck_sums(x), 0.0))])
    return columns


def _float_bits(witnesses) -> list:
    return [np.float64(w).tobytes() for w in witnesses]


def _assert_ck_identities(x):
    """ck-lih/abs is min(ck-classical/main, ck-lih/minus), since
    F - |G| = min(F - G, F + G), and ck-improved/cols on X is
    ck-improved/rows on X^T: witness bits and verdicts."""
    [(_, main, main_holds)] = ck_columns(suite._CK_CLASSICAL, x)
    (abs_label, abs_w, abs_holds), _, (minus_label, minus_w, minus_holds) = \
        ck_columns(suite._CK_LIH, x)
    assert (abs_label, minus_label) == ("abs", "minus")
    assert _float_bits(abs_w) == _float_bits(map(min, main, minus_w))
    assert abs_holds == list(map(min, main_holds, minus_holds))
    (rows_label, rows_w, rows_holds), _ = ck_columns(suite._CK_IMPROVED, x.swapaxes(-1, -2))
    _, (cols_label, cols_w, cols_holds) = ck_columns(suite._CK_IMPROVED, x)
    assert (rows_label, cols_label) == ("rows", "cols")
    assert _float_bits(cols_w) == _float_bits(rows_w) and cols_holds == rows_holds


def _assert_ck_matches_oracle(x):
    _assert_ck_identities(x)
    for case_id, gaps in CK_GAPS.items():
        got = ck_columns(gaps, x)
        assert got == ck_oracle(gaps, x), case_id
        for _, witnesses, holds in got:
            assert all(type(w) is float for w in witnesses)
            assert all(type(h) is bool for h in holds)


@pytest.mark.parametrize("m", range(1, 9))
def test_ck_stack_matches_python_int_oracle(m):
    for n in range(1, 9):
        seeds = derive_seed(9, "ck-oracle", np.arange(40))
        _assert_ck_matches_oracle(make_instance("ck-lih", m, n, seeds))


@pytest.mark.parametrize("m, n", [(1, 1), (1, 2), (2, 2), (6, 6)])
def test_ck_stack_exact_on_int64_extremes(m, n):
    rng = np.random.default_rng(m * 10 + n)
    values = np.array([I64_MAX, -I64_MAX, I64_MIN, 0], dtype=np.int64)
    x = rng.choice(values, (60, m, n))
    x[0], x[1] = I64_MIN, I64_MAX
    assert suite._ck_sums(x).dtype == object
    _assert_ck_matches_oracle(x)
    _assert_ck_matches_oracle(rng.choice(values[2:], (60, m, n)))  # -2^63 and 0 only
    # K = k is the largest bound the int64 reductions take (8 (mn K)^2 < 2^62)
    # and k + 1 the smallest that goes to Python ints; the powers of two
    # sweep every magnitude up to the extremes
    k = math.isqrt(2**59 - 1) // (m * n)
    for bound in (k, k + 1, *(2**j for j in range(8, 63))):
        _assert_ck_matches_oracle(rng.choice(np.array([bound, -bound, 0]), (20, m, n)))


def test_ck_stack_exact_where_int64_arithmetic_wraps():
    """The classical gap of this x is I64_MAX^2; in int64 it wraps to 1."""
    x = np.array([[[I64_MAX, 0], [0, 0]]], dtype=np.int64)
    rows, cols = x.sum(axis=-1), x.sum(axis=-2)
    wrapped = (rows.sum(axis=-1), (x * x).sum(axis=(-2, -1)),
               (rows * rows).sum(axis=-1), (cols * cols).sum(axis=-1))
    _, gap = suite._CK_CLASSICAL[0]
    assert gap(2, 2, *wrapped).tolist() == [1]
    assert ck_oracle(suite._CK_CLASSICAL, x)[0][1] == [float(I64_MAX**2)]
    _assert_ck_matches_oracle(x)


def test_one_evaluation_of_int64_and_object_groups_equals_the_oracle():
    """One chunk of three shape groups: a 2x3 and a 3x1 group of seeded
    draws, whose sums are int64, and a 2x2 group of int64-extreme entries,
    whose sums are Python ints.  Each case's gaps are evaluated once on all
    three, and every group's columns are the oracle's on its own stack."""
    stacks = [make_instance("ck-lih", 2, 3, derive_seed(1, "mixed", np.arange(40))),
              np.random.default_rng(3).choice(
                  np.array([I64_MAX, I64_MIN, -5, 0], dtype=np.int64), (25, 2, 2)),
              make_instance("ck-lih", 3, 1, derive_seed(2, "mixed", np.arange(30)))]
    assert [suite._ck_sums(x).dtype for x in stacks] == [np.int64, object, np.int64]
    for case_id, gaps in CK_GAPS.items():
        entries = [entry for x in stacks
                   for entry in suite._evaluate([REGISTRY[case_id]], [x], len(x), 0.0)]
        assert all(isinstance(columns, suite._Exact) for _, _, columns in entries)
        decided = suite._decided(entries)
        assert [(m, n) for m, n, _ in decided] == [(2, 3), (2, 2), (3, 1)]
        for x, (_, _, columns) in zip(stacks, decided):
            assert columns == ck_oracle(gaps, x), case_id


TRACE_2X2_IDS = ("trace-2x2-besenyei", "trace-2x2-kittaneh-lin", "trace-2x2-plus")


def trace_2x2_rows(gap, a: BlockMatrix, tol) -> list:
    """The trace-2x2 column of the stack a, one matrix at a time in Python
    floats, with |tr B|^2 as abs(z) ** 2."""
    n = a.n
    witnesses, holds = [], []
    for x in a.dense:
        ab, bb, cb = x[:n, :n], x[:n, n:], x[n:, n:]
        tr_a, tr_c = trace_stack(ab).real.item(), trace_stack(cb).real.item()
        tr_b = trace_stack(bb).item()
        tr_ac = trace_stack(ab @ cb).real.item()
        tr_bb = trace_stack(bb.conj().T @ bb).real.item()
        scale = abs(tr_a * tr_c) + abs(tr_b) ** 2 + abs(tr_ac) + tr_bb
        g = gap(tr_a * tr_c, abs(tr_b) ** 2, tr_ac, tr_bb)
        witnesses.append(float(g))
        holds.append(g >= -tol * max(1.0, scale))
    return [("main", witnesses, holds)]


@pytest.mark.parametrize("n", range(1, 7))
def test_trace_2x2_matches_python_float_rows(n):
    """Witness bits and holds of the stacked trace-2x2 check equal the
    row-by-row Python-float reference, over 2,000 seeds per case."""
    for case_id in TRACE_2X2_IDS:
        gap = REGISTRY[case_id].fn.args[0]
        a = make_instance(case_id, 2, n, derive_seed(11, case_id, np.arange(2000)))
        for tol in (suite.PSD_TOL, 0.0):
            [(label, witnesses, holds)] = suite._trace_2x2(gap, Derived(a), tol)
            [(_, want_witnesses, want_holds)] = trace_2x2_rows(gap, a, tol)
            assert label == "main" and holds == want_holds
            assert all(type(w) is float for w in witnesses)
            assert np.array(witnesses).tobytes() == np.array(want_witnesses).tobytes()


def test_offdiag_symmetrization_is_exact():
    a = gen(GenSpec("psd", m=2, n=3, seed=3))
    h = symmetrize_offdiag(a, skew=False)
    k = h.block(0, 1)
    assert np.allclose(k, k.conj().T)
    assert is_psd(h.dense).holds
    hs = symmetrize_offdiag(a, skew=True)
    ks = hs.block(0, 1)
    assert np.allclose(ks, -ks.conj().T)
    assert is_psd(hs.dense).holds


def test_conditional_case_counts_premise_misses():
    seen_miss = False
    for seed in range(40):
        a = make_instance("hiroshima-conditional", 2, 2, seed)
        report = check_case("hiroshima-conditional", a, seed=seed)
        assert report.holds
        if report.premise_misses:
            seen_miss = True
    assert seen_miss  # random PSD matrices usually violate the premise


def test_run_config_validation():
    with pytest.raises(KeyError):
        RunConfig(("bogus",), ((2, 2),), 1, 0)
    with pytest.raises(ValueError):
        RunConfig(("ando",), (), 1, 0)
    with pytest.raises(ValueError):
        RunConfig(("ando",), ((2, 2),), -1, 0)


@pytest.mark.parametrize("seed", [-1, 2**64, 1.0, "1"])
def test_seed_must_be_a_64_bit_integer(seed):
    with pytest.raises(ValueError, match="seed"):
        RunConfig(("ando",), ((2, 2),), 1, seed)
    with pytest.raises(ValueError, match="seed"):
        GenSpec("psd", seed=seed)


def test_seed_bounds_and_seed_arrays_are_accepted():
    for seed in (0, 2**64 - 1, np.uint64(2**64 - 1)):
        RunConfig(("ando",), ((2, 2),), 1, seed)
        GenSpec("psd", seed=seed)
    GenSpec("psd", seed=np.array([0, 2**64 - 1], dtype=np.uint64))


@pytest.mark.parametrize("bad", [(2, 0), (0, 2), (-1, 3), (2, 2.0), (2,), (2, 2, 2)])
def test_dims_must_be_pairs_of_positive_integers(bad):
    for case_id in ("ando", "lem38-eigen", "abs-block-corollary"):
        with pytest.raises(ValueError, match="dims"):
            run_suite(RunConfig((case_id,), ((2, 2), bad), 3, 1))
    with pytest.raises(ValueError, match="dims"):
        open_question_scan([bad], trials=3, seed=1)


@pytest.mark.parametrize("case_id, dims, want", [
    ("lem39-singular", (2, 3), (2, 3)), ("lem38-eigen", (2, 3), (2, 3)),
    ("lem38-eigen", (3, 2), (3, 2)), ("ck-lih", (2, 3), (2, 3)), ("ando", (2, 3), (2, 3)),
    ("coro55-norms", (4, 3), (2, 3)), ("psi-not-2-positive", (4, 3), (2, 3)),
    ("abs-block-corollary", (4, 3), (3, 3))])
def test_report_dims_are_the_drawn_instance_dims(case_id, dims, want):
    """psd-2x2 and matrix-unit-E draw 2 blocks whatever m is, and square
    draws an n x n matrix; gram-pair reports m and n, not its factor shape."""
    report = check_case(case_id, make_instance(case_id, *dims, 0))
    assert (report.m, report.n) == want


def test_run_case_trials_aggregates():
    config = RunConfig(("ando",), ((2, 2), (2, 3)), 6, 42)
    entry = run_suite(config)["cases"]["ando"]
    assert entry["trials"] == 6
    assert entry["failures"] == 0
    assert entry["worst_witness"] is not None
    assert entry["worst_dims"] in ("2x2", "2x3")


def test_report_fields_are_read_only():
    report = check_case("ando", make_instance("ando", 2, 2, 3))
    for obj, field in ((report, "case_id"), (report, "parts"), (report, "premise_misses"),
                       (report.parts[0], "witness"), (report.parts[0], "holds")):
        with pytest.raises(AttributeError):
            setattr(obj, field, None)


def test_report_without_parts_holds_with_infinite_witness():
    report = SlackReport("hiroshima-conditional", 0, 2, 2, (), 2)
    assert report.witness == math.inf
    assert report.holds is True
    assert report.premise_misses == 2
    assert SlackReport("ando", 0, 2, 2, ()).premise_misses == 0


def test_zero_witnesses_are_positive_zeros():
    """No check_case part reports -0.0 on the make_instance input of any
    case at dims 1..4x1..4 and seeds 0 and 1.  The sign is a bit of the
    report: eigvalsh gives some slacks a -0.0 lambda_min, which
    psd_verdict's + 0.0 makes +0.0."""
    zeros = 0
    for case_id in ALL_IDS:
        for m, n in DIMS_1_4:
            for seed in (0, 1):
                report = check_case(case_id, make_instance(case_id, m, n, seed), seed=seed)
                for part in report.parts:
                    if part.witness == 0.0:
                        zeros += 1
                        assert math.copysign(1.0, part.witness) == 1.0, (case_id, m, n, seed, part)
    assert zeros > 0


def test_report_witness_keeps_the_first_of_tied_zeros():
    for first, second in ((0.0, -0.0), (-0.0, 0.0)):
        report = SlackReport("x", 0, 1, 1, (Part("a", first, True), Part("b", second, False)))
        assert math.copysign(1.0, report.witness) == math.copysign(1.0, first)
    # The zero-witness cases at n = 1 report their part's +0.0.
    for case_id in ("eq18-matrix", "psi-not-2-positive"):
        report = check_case(case_id, make_instance(case_id, 2, 1, 0))
        assert math.copysign(1.0, report.witness) == math.copysign(1.0, report.parts[0].witness)
        assert report.witness == 0.0


@pytest.mark.parametrize("case_id, dims", [("eq18-matrix", (3, 3)), ("eq18-matrix", (2, 1)),
                                           ("psi-not-2-positive", (2, 1))])
def test_run_case_trials_gives_tied_worst_to_earliest_trial(case_id, dims):
    """Every trial of these fixed-instance cases has the same witness."""
    config = RunConfig((case_id,), (dims,), 5, 11)
    entry = run_suite(config)["cases"][case_id]
    first = check_case(case_id, make_instance(case_id, *dims, 0))
    assert entry["worst_seed"] == derive_seed(11, case_id, 0)
    assert math.copysign(1.0, entry["worst_witness"]) == math.copysign(1.0, first.witness)
    assert entry["worst_witness"] == first.witness


def test_tied_worst_goes_to_earliest_trial_across_dims_groups(monkeypatch):
    """Trials 0, 2, 4 (2x2) are aggregated before trials 1, 3, 5 (2x3).
    Trial 0 has witness 1.0 and every other trial 0.0, so trial 2 reaches
    the tie first, and trial 1 must take it over."""
    config = RunConfig(("ando",), ((2, 2), (2, 3)), 6, 5)
    first = derive_seed(5, "ando", 0)
    real = suite.check_case

    def check(case_id, instance, tol, seed):
        report = real(case_id, instance, tol, seed)
        witness = 1.0 if seed == first else 0.0
        return report._replace(parts=tuple(p._replace(witness=witness) for p in report.parts))

    monkeypatch.setattr(suite, "check_case", check)
    entry = run_suite(config)["cases"]["ando"]
    assert (entry["worst_seed"], entry["worst_dims"]) == (derive_seed(5, "ando", 1), "2x3")
    assert entry["worst_witness"] == 0.0


def test_tied_worst_in_engine_columns_goes_to_earliest_trial(monkeypatch):
    """The ties above, forced into the witness columns _evaluate returns
    for each draw instead of into check_case's reports: a draw's seeds are
    read where make_instance receives them."""
    config = RunConfig(("ando",), ((2, 2), (2, 3)), 6, 5)
    first = derive_seed(5, "ando", 0)
    make, evaluate, drawn = suite.make_instance, suite._evaluate, []

    def draw(case_id, m, n, seeds):
        drawn.append(seeds.tolist())
        return make(case_id, m, n, seeds)

    def tied(cases, draw, height, tol):
        [(m, n, columns)] = evaluate(cases, draw, height, tol)
        witnesses = [1.0 if seed == first else 0.0 for seed in drawn.pop()]
        return [(m, n, [(label, witnesses, holds) for label, _, holds in columns])]

    monkeypatch.setattr(suite, "make_instance", draw)
    monkeypatch.setattr(suite, "_evaluate", tied)
    entry = run_suite(config)["cases"]["ando"]
    assert (entry["worst_seed"], entry["worst_dims"]) == (derive_seed(5, "ando", 1), "2x3")
    assert entry["worst_witness"] == 0.0 and not drawn


def test_suite_report_deterministic_and_thread_invariant():
    config = RunConfig(tuple(ALL_IDS), ((2, 2), (2, 3)), 4, 42)
    r1 = run_suite(config, threads=1)
    r2 = run_suite(config, threads=4)
    assert serialize.dump(r1) == serialize.dump(r2)
    assert total_failures(r1) == 0


def test_run_suite_starts_no_thread(monkeypatch):
    before = threading.active_count()
    seen = []
    real = suite.run_case_trials

    def spy(case_id, config, *rest):
        seen.append((threading.active_count(), threading.current_thread() is threading.main_thread()))
        return real(case_id, config, *rest)

    monkeypatch.setattr(suite, "run_case_trials", spy)
    config = RunConfig(("ando", "ck-lih", "lin-2x2-ppt"), ((2, 2), (2, 3)), 3, 7)
    run_suite(config, threads=4)
    assert seen == [(before, True)] * 3


def test_blocktrace_does_not_import_concurrent_futures():
    code = ("import sys, blocktrace as bt\n"
            "bt.run_suite(bt.RunConfig(('ando', 'choi-tr1'), ((2, 2),), 2, 1), threads=4)\n"
            "print('concurrent.futures' in sys.modules)")
    root = Path(blocktrace.__file__).resolve().parent.parent
    out = subprocess.run([sys.executable, "-c", code], cwd=root, capture_output=True,
                         text=True, timeout=120, check=True)
    assert out.stdout.strip() == "False"


def _cached_constants():
    d = Derived(gen(GenSpec("psd", m=2, n=3, seed=1)))
    return {
        "identity": d.identity,
        "jb": d.jb,
        "eye": suite._eye(4),
        "eq18": eq18_slack(3, 2),
    }


@pytest.mark.parametrize("name", sorted(_cached_constants()))
def test_cached_constants_are_read_only(name):
    x = _cached_constants()[name]
    before = x.copy()
    with pytest.raises(ValueError):
        x[0, 0] = 7
    with pytest.raises(ValueError):
        x += 1
    assert np.array_equal(x, before)


def test_constants_are_shared_per_dims():
    a, b = (Derived(gen(GenSpec("psd", m=2, n=3, seed=s))) for s in (1, 2))
    assert a.identity is b.identity and a.jb is b.jb
    assert eq18_slack(3, 2) is eq18_slack(3, 2)
    assert np.array_equal(a.jb, j_block(2, 3).dense)


@pytest.mark.parametrize("dims", [(2, 1), (2, 3), (3, 2)])
def test_check_case_independent_of_cases_run_between(dims):
    for cache in (suite._eye, suite._jb, eq18_slack):
        cache.cache_clear()
    instances = {c: make_instance(c, *dims, derive_seed(3, c, 0)) for c in ALL_IDS}
    first = {c: check_case(c, instances[c]) for c in ALL_IDS}
    for case_id in ALL_IDS:
        for between in ALL_IDS:
            check_case(between, instances[between])
            assert check_case(case_id, instances[case_id]) == first[case_id], (case_id, between)


def test_open_question_scan_contract():
    report = open_question_scan([(2, 2), (3, 2)], trials=20, seed=42)
    assert report["trials"] == 20
    assert report["sanity_violations"] == 0
    assert report["min_lambda_min"] > 0  # strictly positive in practice
    assert sum(report["histogram"]["counts"]) == 20
    again = open_question_scan([(2, 2), (3, 2)], trials=20, seed=42)
    assert serialize.dump(report) == serialize.dump(again)


def test_open_question_scan_empty():
    report = open_question_scan([(2, 2)], trials=0, seed=0)
    assert report["trials"] == 0
    assert report["min_lambda_min"] is None
    with pytest.raises(ValueError, match="trials"):
        open_question_scan([(2, 2)], trials=-1, seed=0)
    with pytest.raises(ValueError, match="dims"):
        open_question_scan((), trials=5, seed=1)
    with pytest.raises(ValueError, match="tol"):
        open_question_scan([(2, 2)], trials=5, seed=1, tol=-1.0)


def _spelled_terms(a: BlockMatrix) -> dict:
    """Each shared term of Derived, written out from the blocks and linalg
    operators."""
    m, n = a.m, a.n
    tr1, tr2 = partial_trace_1(a), partial_trace_2(a)
    return {
        "l1": kron_left(tr1, m),
        "r2": kron_right(tr2, n),
        "r2_tau": kron_right(partial_trace_2(partial_transpose(a)), n),
        "t": trace_stack(a.dense).real[..., None, None] * np.eye(m * n, dtype=np.complex128),
        "g": kron_left(tr1, m) - a.dense,
        "tau_j": partial_transpose(a).dense * j_block(m, n).dense,
        "g_j": (kron_left(tr1, m) - a.dense) * j_block(m, n).dense,
        "r2_da": kron_right(partial_trace_2(block_diag(a)), n),
        "diag": np.diagonal(a.dense, axis1=-2, axis2=-1).real,
        "lam": hermitian_eigvals_stack(hermitian_part(a.dense)),
        "lam_tau": hermitian_eigvals_stack(hermitian_part(partial_transpose(a).dense)),
        "lam_tr1": hermitian_eigvals_stack(hermitian_part(tr1)),
        "lam_tr2": hermitian_eigvals_stack(hermitian_part(tr2)),
        "lam_da": hermitian_eigvals_stack(block_diag(a).dense),
        # summed in block order, from a +0.0 start
        "lam_blocks": sum(hermitian_eigvals_stack(hermitian_part(a.block(i, i)))
                          for i in range(m)),
    } | ({
        "lam_sym": hermitian_eigvals_stack(symmetrize_offdiag(a, skew=False).dense),
        "lam_skew": hermitian_eigvals_stack(symmetrize_offdiag(a, skew=True).dense),
    } if m == 2 else {})


@pytest.mark.parametrize("dims", [(1, 1), (2, 3), (3, 2), (4, 4)])
@pytest.mark.parametrize("height", [None, 5])
def test_derived_terms_match_their_formulas(dims, height):
    """On one instance and on a (T, mn, mn) stack, every shared term of
    Derived has the bits of its formula and cannot be written to."""
    seed = 7 if height is None else np.arange(height, dtype=np.uint64)
    a = make_instance("ando", *dims, seed)
    d = Derived(a)
    for name, want in _spelled_terms(a).items():
        got = getattr(d, name)
        assert got.dtype == want.dtype and got.shape == want.shape, name
        assert np.ascontiguousarray(got).tobytes() == np.ascontiguousarray(want).tobytes(), name
        assert getattr(d, name) is got, name
        with pytest.raises(ValueError):
            got[...] = 7


LINEAR_CASES = [cid for cid, case in REGISTRY.items() if isinstance(case.fn, suite.LinearSlacks)]


def _is_derived_term(name: str) -> bool:
    return name == "dense" or isinstance(vars(Derived).get(name), cached_property)


@pytest.mark.parametrize("dims", [(2, 3), (3, 2), (3, 3)])
def test_linear_slack_rows_name_derived_terms_and_are_linear(dims):
    """Every coefficient-table row of the registry starts from coef 1 and
    names only Derived terms, and its slack is linear in A: on seeded PSD
    stacks, S(A + B) = S(A) + S(B) and S(2A) = 2 S(A) up to rounding."""
    assert len(LINEAR_CASES) == 15
    m, n = dims
    a, b = (make_instance("ando", m, n, np.arange(k, k + 4, dtype=np.uint64)) for k in (0, 4))
    both, twice = BlockMatrix(m, n, a.dense + b.dense), BlockMatrix(m, n, 2 * a.dense)
    for cid in LINEAR_CASES:
        fn = REGISTRY[cid].fn
        for label, row in fn.rows:
            assert row[0][0] == 1, (cid, label)
            for coef, name in row:
                assert isinstance(coef, int) and coef != 0, (cid, label)
                assert _is_derived_term(name), (cid, label, name)
        s_a, s_b, s_both, s_twice = (fn(Derived(x)) for x in (a, b, both, twice))
        for (label, x), (_, y), (_, z), (_, w) in zip(s_a, s_b, s_both, s_twice):
            assert x.shape == a.dense.shape, (cid, label)
            np.testing.assert_allclose(z, x + y, rtol=0, atol=1e-12, err_msg=cid)
            np.testing.assert_allclose(w, 2 * x, rtol=0, atol=1e-12, err_msg=cid)


MAJORIZATION_CASES = [cid for cid, case in REGISTRY.items()
                      if isinstance(case.fn, partial) and case.fn.func is suite._majorizations]
DIMS_2_4 = tuple((m, n) for m in range(2, 5) for n in range(2, 5))


def test_majorization_rows_fail_when_swapped():
    """Negative controls: every (label, y, x) row of the six majorization
    cases names Derived terms and holds on 60 seeded trials at dims 2..4x2..4
    (trial t at dims t % 9, the engine's layout), and the same row with y and
    x swapped fails at least one of those trials."""
    assert sorted(MAJORIZATION_CASES) == sorted([
        "schur-majorization", "eqm1-majorization", "eqm2-rotfeld-thompson",
        "ppt-majorization", "hermitian-offdiag-majorization", "skew-offdiag-majorization"])
    rows = {cid: REGISTRY[cid].fn.args[0] for cid in MAJORIZATION_CASES}
    assert sum(map(len, rows.values())) == 11
    trials = 60
    for cid, case_rows in rows.items():
        for _, y, x in case_rows:
            assert _is_derived_term(y) and _is_derived_term(x), (cid, y, x)
        swapped = tuple((label, x, y) for label, y, x in case_rows)
        held, caught = [0] * len(case_rows), [0] * len(case_rows)
        for g, (m, n) in enumerate(DIMS_2_4):
            seeds = derive_seed(42, cid, np.arange(g, trials, len(DIMS_2_4)))
            d = Derived(make_instance(cid, m, n, seeds))
            for i, ((_, _, holds), (_, _, swapped_holds)) in enumerate(zip(
                    suite._majorizations(case_rows, d, suite.PSD_TOL),
                    suite._majorizations(swapped, d, suite.PSD_TOL))):
                held[i] += sum(holds)
                caught[i] += swapped_holds.count(False)
        assert held == [trials] * len(case_rows), cid
        assert all(caught), (cid, caught)


SWEEP_CASES = tuple(c for c in ALL_IDS if c not in ("psi-not-2-positive", "open-question-residual"))
DIMS_1_4 = tuple((m, n) for m in range(1, 5) for n in range(1, 5))
DIMS_5_8 = tuple((m, n) for m in range(5, 9) for n in range(5, 9))


def _draw_rank_one(monkeypatch):
    """Make the psd and psd-2x2 classes draw rank-one instances a a*."""
    for name in ("psd", "psd-2x2"):
        monkeypatch.setitem(INPUT_CLASSES, name, dataclasses.replace(
            INPUT_CLASSES[name],
            draw=lambda m, n, s: gen(GenSpec("psd", m=m, n=n, seed=s, rank=1))))


@pytest.mark.parametrize("dims, trials, seed, rank_one",
                         [(DIMS_1_4, 300, 42, False), (DIMS_5_8, 64, 7, False),
                          (DIMS_1_4, 300, 42, True)],
                         ids=["dims-1..4", "dims-5..8", "dims-1..4-rank-one"])
def test_sweep_holds_at_tight_tolerance(monkeypatch, dims, trials, seed, rank_one):
    """The criterion-2 case set gives no failure at tol=1e-12, four orders
    below PSD_TOL, on default draws and with psd and psd-2x2 drawn at rank
    one."""
    if rank_one:
        _draw_rank_one(monkeypatch)
    assert total_failures(run_suite(RunConfig(SWEEP_CASES, dims, trials, seed, 1e-12))) == 0


@pytest.mark.parametrize("rank_one", [False, True], ids=["default", "rank-one"])
def test_tight_tolerance_catches_a_residual_short_by_1e_10_trace(monkeypatch, rank_one):
    """The Ando residual minus 1e-10 (tr A) I, a wrong constant that
    PSD_TOL lets through: the tight sweep fails in ando alone, and the
    sweep at PSD_TOL passes, on default and on rank-one draws."""
    if rank_one:
        _draw_rank_one(monkeypatch)
    mutant = suite.LinearSlacks((("main", suite._RESIDUAL + ((-1e-10, "t"),)),))
    monkeypatch.setitem(REGISTRY, "ando", dataclasses.replace(REGISTRY["ando"], fn=mutant))
    config = RunConfig(SWEEP_CASES, DIMS_1_4, 300, 42, 1e-12)
    tight = run_suite(config)
    assert total_failures(tight) == tight["cases"]["ando"]["failures"] > 0
    assert total_failures(run_suite(dataclasses.replace(config, tol=suite.PSD_TOL))) == 0


def _replace_row(case_id: str, new_row: tuple, monkeypatch) -> None:
    """Give the majorization case new_row in place of its row of that label."""
    rows = tuple(new_row if row[0] == new_row[0] else row for row in REGISTRY[case_id].fn.args[0])
    monkeypatch.setitem(REGISTRY, case_id, dataclasses.replace(
        REGISTRY[case_id], fn=partial(suite._majorizations, rows)))


def _lam_blocks_without_block_0(monkeypatch) -> None:
    def lam_blocks(d):
        return hermitian_eigvals_stack(diagonal_blocks(d.a.as_blocks()))[..., 1:, :].sum(axis=-2)
    monkeypatch.setattr(Derived, "lam_blocks", property(lam_blocks))


EQM_CASES = ("eqm1-majorization", "eqm2-rotfeld-thompson")
# mutant -> (the cases it changes, the change): a majorization row that
# names a neighbouring Derived spectrum, or lam_blocks without block 0.
NEIGHBOUR_MUTANTS = {
    "eqm1-upper-tr1-for-blocks": (EQM_CASES[:1], partial(
        _replace_row, "eqm1-majorization", ("upper", "lam_tr1", "lam"))),
    "eqm1-upper-tau-for-lam": (EQM_CASES[:1], partial(
        _replace_row, "eqm1-majorization", ("upper", "lam_blocks", "lam_tau"))),
    "eqm2-upper-tr2-for-tr1": (EQM_CASES[1:], partial(
        _replace_row, "eqm2-rotfeld-thompson", ("upper", "lam_blocks", "lam_tr2"))),
    "lam-blocks-without-block-0": (EQM_CASES, _lam_blocks_without_block_0),
}


@pytest.mark.parametrize("mutant", NEIGHBOUR_MUTANTS)
def test_majorization_rows_fail_with_a_neighbouring_spectrum(monkeypatch, mutant):
    """Negative controls: a sweep of the eqm cases at dims 1..4x1..4, 200
    trials, seed 42, has no failure, and each mutant fails at least one of
    its trials in every case it changes.  The single-term substitutions
    that this sweep does not catch are listed in the README."""
    cases, mutate = NEIGHBOUR_MUTANTS[mutant]
    config = RunConfig(cases, DIMS_1_4, 200, 42)
    assert total_failures(run_suite(config)) == 0
    mutate(monkeypatch)
    entries = run_suite(config)["cases"]
    assert all(entries[case_id]["failures"] > 0 for case_id in cases), entries


# Parts of two registry rows that state one linear map: (case, label) of
# each part, then (case, label) of its twin.
RESTATEMENTS = ((("psi-completely-copositive", "main"), ("choi-tr2-pm", "plus")),
                (("phi-completely-ppt", "derived-tau"), ("choi-tr2-pm", "minus")),
                (("lin-2x2-ppt", "derived-tau"), ("choi-tr2-pm", "minus")))


@pytest.mark.parametrize("m", range(1, 7))
def test_restated_parts_build_their_twins_slacks(m):
    """psi-completely-copositive/main is choi-tr2-pm/plus, (tr2 A^tau)(x)I_n
    - A^tau, and phi-completely-ppt/derived-tau is choi-tr2-pm/minus, as is
    lin-2x2-ppt/derived-tau at m = 2, its one dims.  On 40 seeded psd
    instances at each n, their build_slack matrices are equal bit for bit."""
    seeds = derive_seed(0, "restatements", np.arange(40))
    for n in range(1, 7):
        a = make_instance("choi-tr2-pm", m, n, seeds)
        for (case_id, label), (twin_id, twin_label) in RESTATEMENTS:
            if case_id == "lin-2x2-ppt" and m != 2:
                continue
            got = dict(build_slack(case_id, a))[label]
            want = dict(build_slack(twin_id, a))[twin_label]
            assert got.tobytes() == want.tobytes(), (case_id, m, n)


@pytest.mark.parametrize("m", range(1, 7))
def test_public_maps_agree_with_the_phi_and_psi_rows(m):
    """blocktrace.apply_map_blockwise, which sums each block's trace by
    trace_stack, builds the slacks of the phi and psi rows, which read
    partial_trace_2's einsum sums: phi on A is phi-completely-ppt/derived,
    its partial transpose is /derived-tau, and psi on A^tau is
    psi-completely-copositive/main.  On 40 seeded psd instances at each n,
    they are equal bit for bit at n <= 3, where the two sums agree, and
    within 1e-12 * max(1, ||A||_F) at n = 4..6."""
    seeds = derive_seed(0, "public-maps", np.arange(40))
    for n in range(1, 7):
        a = make_instance("phi-completely-ppt", m, n, seeds)
        phi = blocktrace.apply_map_blockwise("phi", a)
        psi_tau = blocktrace.apply_map_blockwise("psi", partial_transpose(a))
        rows = dict(REGISTRY["phi-completely-ppt"].fn(Derived(a)))
        [(_, psi_row)] = REGISTRY["psi-completely-copositive"].fn(Derived(a))
        pairs = ((phi.dense, rows["derived"]),
                 (partial_transpose(phi).dense, rows["derived-tau"]),
                 (psi_tau.dense, psi_row))
        scale = np.fmax(1.0, scale_stack(a.dense))[:, None, None]
        for i, (got, want) in enumerate(pairs):
            if n <= 3:
                assert (np.ascontiguousarray(got).tobytes()
                        == np.ascontiguousarray(want).tobytes()), (i, m, n)
            else:
                assert (np.abs(got - want) <= 1e-12 * scale).all(), (i, m, n)


@pytest.mark.parametrize("tol", [-1.0, np.nan, np.inf, "1", None, 1j])
def test_check_case_refuses_a_bad_tol(tol):
    """Each boundary that takes a tol refuses a negative, NaN or infinite
    one, and one that is not a real number, with ValueError."""
    with pytest.raises(ValueError, match="tol"):
        check_case("ando", make_instance("ando", 2, 2, 0), tol)
    with pytest.raises(ValueError, match="tol"):
        RunConfig(("ando",), ((2, 2),), 1, 0, tol)
    with pytest.raises(ValueError, match="tol"):
        open_question_scan([(2, 2)], 1, 0, tol)


@pytest.mark.parametrize("flag", [True, False])
def test_bools_are_refused_as_seed_tol_and_dims(flag):
    """A bool is an int to isinstance, but never a seed, tol or dimension."""
    with pytest.raises(ValueError, match="seed"):
        RunConfig(("ando",), ((2, 2),), 1, flag)
    with pytest.raises(ValueError, match="seed"):
        check_seed(flag)
    with pytest.raises(ValueError, match="seed"):
        GenSpec("psd", seed=flag)
    for tol in (flag, np.bool_(flag)):
        with pytest.raises(ValueError, match="tol"):
            RunConfig(("ando",), ((2, 2),), 1, 0, tol)
        with pytest.raises(ValueError, match="tol"):
            check_tol(tol)
    for dims in ((flag, 2), (2, flag)):
        with pytest.raises(ValueError, match="dims"):
            RunConfig(("ando",), ((2, 2), dims), 2, 0)
    assert check_seed(np.uint64(1)) == 1 and check_tol(0) == 0


@pytest.mark.parametrize("trials", [2.5, True, "3", None])
def test_trials_must_be_a_non_negative_integer(trials):
    with pytest.raises(ValueError, match="trials"):
        RunConfig(("ando",), ((2, 2),), trials, 0)
    assert RunConfig(("ando",), ((2, 2),), np.int64(3), 0).trials == 3


def test_input_classes_match_registry():
    assert {c.input_class for c in REGISTRY.values()} == set(INPUT_CLASSES)


def test_block_load_accepts_rounding_asymmetry():
    x = make_instance("ando", 2, 3, 4).dense.copy()
    x[0, 1] += 1e-13  # within HERMITIAN_TOL * max(1, ||x||_F)
    loaded = require_instance("psd", INPUT_CLASSES["psd"].load(
        serialize.block_to_obj(BlockMatrix(2, 3, x))))
    assert np.array_equal(loaded.dense, hermitian_part(x))
    assert check_case("ando", loaded).holds


@pytest.mark.parametrize("x", [np.array([[0.9, 0.2], [0.3, 0.7]]), np.eye(2, dtype=bool),
                               np.array([[1, 2]], dtype=object)], ids=["float", "bool", "object"])
def test_exact_integer_cases_refuse_non_integer_entries(x):
    """A cast to int64 would read 0.9 as 0 and True as 1; the cases refuse
    any dtype but a signed or unsigned integer instead."""
    for case_id in ("ck-classical", "ck-lih", "ck-improved"):
        with pytest.raises(ValueError, match="integer entries"):
            check_case(case_id, x)
    ints = np.array([[9, 2], [3, 7]])
    for dtype in (np.uint8, np.int32, np.uint64):
        assert check_case("ck-classical", ints.astype(dtype)) == check_case("ck-classical", ints)


def _non_hermitian(m: int, n: int) -> BlockMatrix:
    x = np.eye(m * n, dtype=np.complex128)
    x[0, -1] = 0.5
    return BlockMatrix(m, n, x)


def _nan_block() -> BlockMatrix:
    x = np.eye(4, dtype=np.complex128)
    x[1, 1] = np.nan
    return BlockMatrix(2, 2, x)


# A Hermitian draw that is not PSD, a PSD draw that is not PPT, and a PSD
# 2x2 draw, which is neither the matrix-unit nor the zero instance.
_NOT_PSD = make_instance("schur-majorization", 2, 2, 3)
_NOT_PPT = make_instance("ando", 2, 2, 3)
_PSD_2X2 = make_instance("thm37-singular", 2, 2, 3)
# input class -> (one of its cases, [(instance case --input would refuse, error), ...])
REFUSED_INSTANCES = {
    "psd": ("ando", [(_non_hermitian(2, 2), "not Hermitian"),
                     (_NOT_PSD, "not positive semidefinite")]),
    "hermitian": ("schur-majorization", [(_non_hermitian(3, 1), "not Hermitian"),
                                         (_nan_block(), "not Hermitian")]),
    "ppt": ("horodecki-reduction", [(_non_hermitian(2, 3), "not Hermitian"),
                                    (_NOT_PPT, "does not have a PSD partial transpose")]),
    "psd-2x2": ("thm37-singular", [(make_instance("ando", 3, 2, 1), "cannot have dims 3x2"),
                                   (_non_hermitian(2, 2), "not Hermitian"),
                                   (_NOT_PSD, "not positive semidefinite")]),
    "gram-pair": ("lem39-singular", [((np.ones((2, 3)), np.ones((3, 2))), "differ in shape")]),
    "real-int": ("ck-lih", [(np.arange(4), "not one instance")]),
    "matrix-unit-E": ("psi-not-2-positive",
                      [(make_instance("ando", 3, 2, 1), "cannot have dims 3x2"),
                       (_PSD_2X2, "not the matrix-unit instance")]),
    "zero": ("eq18-matrix", [(_nan_block(), "not Hermitian"),
                             (_PSD_2X2, "not the zero instance")]),
    "square": ("abs-block-corollary", [(np.ones((2, 3), dtype=np.complex128),
                                        "cannot have dims 2x3")]),
}


@pytest.mark.parametrize("input_class", list(INPUT_CLASSES))
def test_check_case_refuses_what_case_input_refuses(input_class):
    """check_case raises ValueError on a stack of two instances, and on an
    instance whose dims are not a shape of its class, that is not one
    matrix per array, finite and Hermitian, or that fails its class's
    problem, before it evaluates anything.  The seeded instance passes."""
    case_id, refused = REFUSED_INSTANCES[input_class]
    assert REGISTRY[case_id].input_class == input_class
    stack = make_instance(case_id, 2, 2, np.array([1, 2], dtype=np.uint64))
    for instance, message in [(stack, "not one instance"), *refused]:
        with pytest.raises(ValueError, match=message):
            check_case(case_id, instance)
    instance = make_instance(case_id, 2, 2, 1)
    accepted = require_instance(input_class, instance)
    if isinstance(instance, BlockMatrix):  # a draw is its own Hermitian part
        assert accepted.dense.tobytes() == instance.dense.tobytes()
    else:
        assert accepted is instance
    check_case(case_id, instance)


def test_build_slack_refuses_a_stack_with_one_row_outside_its_class():
    """A stack of seeded instances whose one row is not PSD, or not PPT, is
    refused with the message `case --input` prints for that row alone."""
    seeds = derive_seed(0, "stack", np.arange(3))
    for case_id, row, message in (("ando", _NOT_PSD, "not positive semidefinite"),
                                  ("horodecki-reduction", _NOT_PPT, "PSD partial transpose")):
        stack = make_instance(case_id, 2, 2, seeds)
        assert len(build_slack(case_id, stack)[0][1]) == 3
        dense = stack.dense.copy()
        dense[1] = row.dense
        with pytest.raises(ValueError, match=message):
            build_slack(case_id, BlockMatrix(2, 2, dense))


def test_slack_builders_cover_declared_cases():
    """Every psd-slack and ppt-of-derived row builds labeled mn x mn slack
    matrices from its one callable; no other row has a slack form."""
    for cid, case in REGISTRY.items():
        inst = make_instance(cid, 2, 3, 0)
        if case.check_kind in ("psd-slack", "ppt-of-derived"):
            slacks = build_slack(cid, inst)
            assert slacks and all(s.shape == (inst.m * inst.n,) * 2 for _, s in slacks)
        else:
            with pytest.raises(ValueError):
                build_slack(cid, inst)


# The block classes whose cases read an input's Hermitian part; zero and
# matrix-unit-E refuse any input but their one instance.
HERMITIAN_PART_CLASSES = ("psd", "hermitian", "ppt", "psd-2x2")
HERMITIAN_PART_IDS = [c for c in ALL_IDS if REGISTRY[c].input_class in HERMITIAN_PART_CLASSES]


def _skewed(case_id: str, m: int, n: int, seed: int) -> BlockMatrix:
    """The case's draw with entry (0, 1) moved by 1e-13: not exactly
    Hermitian, and within HERMITIAN_TOL."""
    a = make_instance(case_id, m, n, seed)
    x = a.dense.copy()
    x[0, 1] += 1e-13
    return BlockMatrix(a.m, a.n, x)


def _part_bits(report) -> list:
    return [(p.label, np.float64(p.witness).tobytes(), p.holds) for p in report.parts]


def test_every_eigvalsh_input_is_exactly_hermitian(monkeypatch):
    """The engine takes no Hermitian part before a spectrum: every matrix
    that reaches eigvalsh equals its conjugate transpose, in a sweep of all
    44 cases and in check_case on inputs a rounding away from Hermitian."""
    real, seen = np.linalg.eigvalsh, []

    def eigvalsh(a, *args, **kwargs):
        seen.append(bool((a == np.conj(np.swapaxes(a, -1, -2))).all()))
        return real(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", eigvalsh)
    run_suite(RunConfig(tuple(ALL_IDS), DIMS_1_4, 32, 5))
    sweep = len(seen)
    for case_id in HERMITIAN_PART_IDS:
        for m, n in ((2, 2), (3, 2), (2, 3)):
            for seed in (0, 1):
                check_case(case_id, _skewed(case_id, m, n, seed))
    assert sweep > 0 and len(seen) > sweep
    assert all(seen)


@pytest.mark.parametrize("case_id", HERMITIAN_PART_IDS)
def test_check_case_reads_the_hermitian_part(case_id):
    """check_case of an input a rounding away from Hermitian is check_case
    of its Hermitian part, bit for bit."""
    for m, n in ((2, 2), (3, 2), (2, 3)):
        for seed in (0, 1, 2):
            a = _skewed(case_id, m, n, seed)
            h = BlockMatrix(a.m, a.n, hermitian_part(a.dense))
            assert _part_bits(check_case(case_id, a)) == _part_bits(check_case(case_id, h))


@pytest.mark.parametrize("tol", [0.0, 1e-12, suite.PSD_TOL])
def test_check_case_accepts_its_own_draws_at_every_tol(tol):
    """The class precondition runs at max(tol, PSD_TOL), so a tight verdict
    tol does not refuse the rank-deficient draws (seed % 5 == 0) that a
    sweep at that tol evaluates."""
    for case_id in ALL_IDS:
        for m, n in ((2, 2), (3, 3), (2, 3)):
            for seed in (0, 1, 5, 10):
                check_case(case_id, make_instance(case_id, m, n, seed), tol)


def test_lam_da_accepts_what_the_boundary_accepts():
    """J_4 with 3.6e-10i added to entry (0, 1) is Hermitian within
    tolerance(HERMITIAN_TOL, ||A||_F = 4).  D_A's own tolerance would be
    taken at ||D_A||_F < ||A||_F and refuse it; check_case builds D_A from
    the Hermitian part, so lam_da's check passes."""
    x = np.ones((4, 4), dtype=np.complex128)
    x[0, 1] += 3.6e-10j
    a = BlockMatrix(2, 2, x)
    require_instance("psd", a)
    assert check_case("ando", a).holds
    for case_id in ("eqm1-majorization", "eqm2-rotfeld-thompson"):
        assert check_case(case_id, a).holds


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_symmetrize_offdiag_is_ppt(n):
    """Why lam_tr2 for lam_tr1 cannot fail either off-diagonal case: H is
    PPT, since H^tau = H with a Hermitian off-diagonal block and
    D H^tau D = H with a skew one, D = diag(I, -I).  So lambda(H) <
    lambda(tr_2 H) (ppt-majorization), and tr_2 H averages tr_2 A with a
    unitary conjugate of it, so lambda(tr_2 H) < lambda(tr_2 A)."""
    a = make_instance("hermitian-offdiag-majorization", 2, n, derive_seed(0, "sym", np.arange(50)))
    d = np.repeat([1.0, -1.0], n)
    h = symmetrize_offdiag(a, skew=False)
    hs = symmetrize_offdiag(a, skew=True)
    assert (partial_transpose(h).dense == h.dense).all()
    assert (d[:, None] * partial_transpose(hs).dense * d == hs.dense).all()
    for x in (h, hs):
        assert is_ppt(x).holds


def test_every_case_has_part_columns():
    """Every registry case's _evaluate gives at least one part column, at
    dims 1..4x1..4 on two seeded draws.  The engine relies on it: a case
    without columns makes check_case raise IndexError (no trial to read a
    row from) and run_suite count each of its trials failed, while
    SlackReport.holds counts a report without parts as held.  An engine
    that aggregates the columns directly must keep this rule, or change it
    on purpose and say which way a case without parts counts."""
    seeds = np.arange(2, dtype=np.uint64)
    for case_id in ALL_IDS:
        for m, n in DIMS_1_4:
            stack = make_instance(case_id, m, n, seeds)
            [(_, _, columns)] = suite._decided(
                suite._evaluate([REGISTRY[case_id]], [stack], len(seeds), suite.PSD_TOL))
            assert columns, (case_id, m, n)
            assert all(len(w) == len(h) == len(seeds) for _, w, h in columns), (case_id, m, n)


# Each Hermitian part is a psd-class row on a spectral shift of A (see
# _shifts): (case, its part on P, its part on Q, the row's (case, label)).
SHIFT_ROWS = (
    ("tr1-hermitian-sandwich", "lower", "upper", ("li-tr1-improved", "main")),
    ("tr2-hermitian-sandwich", "lower", "upper", ("tr2-hadamard", "main")),
    ("choi-hermitian-ando", "min", "max", ("ando", "main")),
    ("prop-hermitian-minus", "ge-plus", "le-plus", ("ando", "main")),
    ("prop-hermitian-minus", "ge-minus", "le-minus", ("li-liu-huang-pm", "minus")),
    ("prop-hermitian-plus", "ge", "le", ("li-liu-huang-pm", "plus")),
)
# The lambda_min cases: (case, row, correction term C) with
# case(A) = row(P) + 2 C(P) + 2 lambda_min(A) I.
LAMBDA_MIN_ROWS = (("tr1-lambda-min", "li-tr1-improved", "d_a"),
                   ("tr2-lambda-min", "tr2-hadamard", "tau_j"))
SHIFT_PAIRS = ({(c, part) for c, lower, upper, _ in SHIFT_ROWS for part in (lower, upper)}
               | {(c, "main") for c, _, _ in LAMBDA_MIN_ROWS})


def _shifts(a: BlockMatrix) -> tuple:
    """P = A - lambda_min(A) I and Q = lambda_max(A) I - A: PSD, and exactly
    Hermitian when A is."""
    d = Derived(a)
    return (BlockMatrix(a.m, a.n, a.dense - d.lam_min * d.identity),
            BlockMatrix(a.m, a.n, d.lam_max * d.identity - a.dense))


def _shift_misses(m: int, n: int) -> set:
    """The (case, part) of SHIFT_PAIRS whose slack, on seeded draws of its
    case at m x n, is not its identity's right-hand side within
    1e-12 * max(1, ||A||_F).  The rows are build_slack of psd cases, so
    each shift is also checked to be an instance of the psd class."""
    seeds = derive_seed(0, "spectral-shifts", np.arange(4))
    misses = set()

    def check(case_id, label, got, want, a):
        bound = 1e-12 * np.fmax(1.0, scale_stack(a.dense))[:, None, None]
        if not (np.abs(got - want) <= bound).all():
            misses.add((case_id, label))

    for case_id, lower, upper, (row_id, row_label) in SHIFT_ROWS:
        a = make_instance(case_id, m, n, seeds)
        parts = dict(build_slack(case_id, a))
        for label, shift in zip((lower, upper), _shifts(a)):
            check(case_id, label, parts[label], dict(build_slack(row_id, shift))[row_label], a)
    for case_id, row_id, term in LAMBDA_MIN_ROWS:
        a = make_instance(case_id, m, n, seeds)
        d, (p, _) = Derived(a), _shifts(a)
        [(_, row)] = build_slack(row_id, p)
        want = row + 2 * getattr(Derived(p), term) + 2 * d.lam_min * d.identity
        check(case_id, "main", dict(build_slack(case_id, a))["main"], want, a)
    return misses


@pytest.mark.parametrize("m", range(1, 9))
def test_hermitian_parts_are_psd_rows_on_spectral_shifts(m):
    """Each side of a Hermitian bound is a psd row on a shift of A: L(A) -
    c lambda_min(A) I is L(A - lambda_min(A) I) and c lambda_max(A) I -
    L(A) is L(lambda_max(A) I - A), since L(I) = c I, and both shifts are
    PSD.  So the sandwiches are li-tr1-improved and tr2-hadamard, the
    (m-1)(n-1) sides ando, the (m-1)(n+1) sides li-liu-huang-pm/minus and
    the (m+1)(n-1) sides li-liu-huang-pm/plus.  The lambda_min cases are
    their sandwich's row on P plus the PSD 2 D_P or 2 P^tau o (J_m (x)
    I_n), plus 2 lambda_min(A) I.  Checked at n = 1..8."""
    for n in range(1, 9):
        assert not _shift_misses(m, n), (m, n)


@pytest.mark.parametrize("m", range(1, 9))
def test_one_more_lambda_breaks_every_shift_identity(monkeypatch, m):
    """Negative control: with k + 1 in _lambda_sides, and one more
    lambda_min(A) I taken from each lambda_min case, every identity above
    fails at every n = 1..8."""
    sides = suite._lambda_sides
    monkeypatch.setattr(suite, "_lambda_sides", lambda lhs, rhs, k, d: sides(lhs, rhs, k + 1, d))
    for case_id, _, _ in LAMBDA_MIN_ROWS:
        case = REGISTRY[case_id]
        monkeypatch.setitem(REGISTRY, case_id, dataclasses.replace(
            case, fn=lambda d, fn=case.fn: [(label, s - d.lam_min * d.identity)
                                            for label, s in fn(d)]))
    for n in range(1, 9):
        assert _shift_misses(m, n) == SHIFT_PAIRS, (m, n)
