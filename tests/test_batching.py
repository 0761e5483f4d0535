"""The batched trial engine must reproduce the one-trial-at-a-time path bit
for bit: vectorized seeds, stacked draws, stacked PSD verdicts, the chunked
runner, random_ppt's single draw and the builders that assemble blocks or
reuse cached constants are each checked against a plain oracle."""

import dataclasses
import struct
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blocktrace import linalg, serialize, suite
from blocktrace.blocks import BlockMatrix, from_blocks
from blocktrace.generate import KINDS, GenSpec, gen, random_ppt, random_psd
from blocktrace.maps import apply_map_blockwise
from blocktrace.orders import is_psd, sv_dominates
from blocktrace.rng import Stream, derive_seed
from blocktrace.suite import (
    REGISTRY,
    Part,
    RunConfig,
    SlackReport,
    build_slack,
    case_ids,
    check_case,
    choi_block,
    eq18_slack,
    make_instance,
    run_suite,
    symmetrize_offdiag,
)

BIG = 2**63 + 12345
SEEDS = np.array([0, 5, 17, BIG, 2**64 - 1], dtype=np.uint64)
DIMS_1_4 = tuple((m, n) for m in range(1, 5) for n in range(1, 5))
DIMS_1_8 = tuple((m, n) for m in range(1, 9) for n in range(1, 9))


def _bytes(instance) -> bytes:
    """The raw bytes of an instance of any input class."""
    if isinstance(instance, tuple):
        return b"".join(_bytes(x) for x in instance)
    dense = getattr(instance, "dense", instance)
    return np.ascontiguousarray(dense).view(np.uint8).tobytes()


def _row(stack, j):
    """Trial j of a stacked instance of any input class."""
    if isinstance(stack, BlockMatrix):
        return BlockMatrix(stack.m, stack.n, stack.dense[j])
    if isinstance(stack, tuple):
        return tuple(x[j] for x in stack)
    return stack[j]


def _trial_counts(stack) -> set:
    """The leading-axis length of every array of a stacked instance."""
    arrays = stack if isinstance(stack, tuple) else (getattr(stack, "dense", stack),)
    return {len(x) for x in arrays}


def test_array_derive_seed_matches_scalar():
    rng = np.random.default_rng(3)
    bases = [0, 42, 2**63, BIG, 2**64 - 1, *rng.integers(0, 2**63, 4).tolist()]
    t = np.concatenate([np.arange(300), rng.integers(256, 2**40, 40)])
    checked = 0
    for base in bases:
        for case_id in ("ando", "horodecki-reduction", "open-question-scan"):
            got = derive_seed(base, case_id, t)
            assert got.dtype == np.uint64 and got.shape == t.shape
            assert got.tolist() == [derive_seed(base, case_id, int(v)) for v in t]
            checked += t.size
    assert checked >= 2000
    # A list of tokens before the array folds every token's seeds at once:
    # row k is bit for bit derive_seed of tokens[k] alone, after any tokens
    # before the list, and the list may hold ints or be empty.
    tokens = ["ando", "horodecki-reduction", "open-question-scan", 7, "ando"]
    for base in bases[:5]:
        for prefix in ((), ("pre",), ("pre", 3)):
            got = derive_seed(base, *prefix, tokens, t)
            assert got.dtype == np.uint64 and got.shape == (len(tokens), t.size)
            for row, token in zip(got, tokens):
                assert row.tolist() == derive_seed(base, *prefix, token, t).tolist()
            assert got[0, :5].tolist() == [derive_seed(base, *prefix, "ando", int(v))
                                           for v in t[:5]]
        assert derive_seed(base, [], t).shape == (0, t.size)
        assert derive_seed(base, tokens, t[:0]).shape == (len(tokens), 0)


def test_array_derive_seed_rejects_negative_values():
    for token in ("ando", ["ando", "ck-lih"]):
        with pytest.raises(TypeError):
            derive_seed(1, token, np.array([3, -1]))


def test_batched_stream_rows_match_single_streams():
    batch = Stream(SEEDS)
    batch.words(3)
    draws = [batch.words(5), batch.doubles(4),
             batch.complex_gaussians((2, 3)), batch.integers(-4, 9, (3, 2))]
    for i, seed in enumerate(SEEDS.tolist()):
        single = Stream(seed)
        single.words(3)
        want = [single.words(5), single.doubles(4),
                single.complex_gaussians((2, 3)), single.integers(-4, 9, (3, 2))]
        for got, expected in zip(draws, want):
            assert _bytes(got[i]) == _bytes(expected)


@pytest.mark.parametrize("kind", KINDS)
def test_batched_gen_rows_match_single_draws(kind):
    for m in range(1, 9):
        for n in range(1, 9):
            ranks = (None, 1, max(1, m * n // 2)) if kind == "psd" else (None,)
            for rank in ranks:
                stacked = gen(GenSpec(kind, m=m, n=n, seed=SEEDS, rank=rank))
                assert _trial_counts(stacked) == {len(SEEDS)}
                for j, seed in enumerate(SEEDS.tolist()):
                    got = _row(stacked, j)
                    single = gen(GenSpec(kind, m=m, n=n, seed=seed, rank=rank))
                    assert type(got) is type(single)
                    assert _bytes(got) == _bytes(single), (kind, m, n, rank, seed)


@pytest.mark.parametrize("case_id", case_ids())
def test_batched_make_instance_matches_single_seeds(case_id):
    seeds = derive_seed(9, case_id, np.arange(12))
    for m, n in ((1, 3), (2, 2), (3, 4)):
        stacked = make_instance(case_id, m, n, seeds)
        assert _trial_counts(stacked) == {len(seeds)}
        for j, seed in enumerate(seeds.tolist()):
            assert _bytes(_row(stacked, j)) == _bytes(make_instance(case_id, m, n, seed))


def test_psd_verdicts_equal_is_psd_per_matrix():
    """is_psd of a stack equals is_psd of each of its matrices."""
    g = Stream(11).complex_gaussians((6, 5, 5))
    stack = g @ g.conj().swapaxes(1, 2)
    stack = (stack + stack.conj().swapaxes(1, 2)) / 2
    stack[1] -= 3 * np.eye(5)
    stack[2] *= 1e6
    got = is_psd(stack)
    for i, matrix in enumerate(stack):
        want = is_psd(matrix)
        assert (got.witness[i], got.holds[i], got.tolerance_used[i]) == (
            want.witness, want.holds, want.tolerance_used)
    assert not got.holds[1]
    bad = stack.copy()
    bad[4, 0, 1] += 1.0
    with pytest.raises(ValueError, match="not Hermitian"):
        is_psd(bad)


def test_psd_cols_equal_is_psd_per_part():
    """_psd_cols decides its merged stack of exactly Hermitian slacks
    without is_psd; each column is is_psd of that part, witness and holds
    bit for bit."""
    g = Stream(12).complex_gaussians((2, 3, 5, 5))
    parts = linalg.hermitian_part(
        g @ g.conj().swapaxes(-1, -2) + 1e-3 * Stream(13).complex_gaussians((2, 3, 5, 5)))
    parts[0, 1] -= 3 * np.eye(5)
    parts[1, 2] *= 1e6
    cols = suite._psd_cols([("a", parts[0].copy()), ("b", parts[1].copy())], 3, 1e-8)
    assert [label for label, _, _ in cols] == ["a", "b"]
    for (_, witnesses, holds), part in zip(cols, parts):
        want = is_psd(part, 1e-8)
        assert np.array(witnesses).tobytes() == want.witness.tobytes()
        assert holds == want.holds.tolist()
    assert cols[0][2] == [True, False, True]


def _reference_case_trials(case_id: str, config: RunConfig) -> dict:
    """The runner as one scalar trial at a time, in index order."""
    trials = failures = premise_misses = 0
    worst_witness = worst_seed = worst_dims = None
    for t in range(config.trials):
        m, n = config.dims[t % len(config.dims)]
        seed = derive_seed(config.seed, case_id, t)
        report = check_case(case_id, make_instance(case_id, m, n, seed), config.tol, seed)
        trials += 1
        premise_misses += report.premise_misses
        if report.parts and not report.holds:
            failures += 1
        if report.parts and (worst_witness is None or report.witness < worst_witness):
            worst_witness, worst_seed, worst_dims = report.witness, seed, f"{m}x{n}"
    return {
        "trials": trials,
        "failures": failures,
        "premise_misses": premise_misses,
        "worst_witness": worst_witness,
        "worst_seed": worst_seed,
        "worst_dims": worst_dims,
    }


@settings(max_examples=3, deadline=None)
@given(st.integers(0, 2**64 - 1))
def test_run_case_trials_matches_scalar_loop(seed):
    """Each case alone, and all 44 in one run_suite call, where the cases of
    an input class share their draws (split in several at 4x4) and their
    PSD verdicts."""
    config = RunConfig(tuple(case_ids()), DIMS_1_4, 37, seed)
    assert len(config.cases) == 44
    together = run_suite(config)["cases"]
    for case_id in config.cases:
        want = _reference_case_trials(case_id, config)
        alone = RunConfig((case_id,), config.dims, config.trials, config.seed)
        assert run_suite(alone)["cases"][case_id] == want
        assert together[case_id] == want


def test_groups_match_scalar_draws():
    """Chunks of 5 trials over four dims cut inside the groups.  Chunk k is
    the list of shape groups of exactly the trials [5k, min(5k + 5, 23)),
    so the chunks cover range(23) in order.  Drawn at its class's shape,
    every trial's row is its own draw at its configured dims.  psd-2x2,
    matrix-unit-E and square merge the dims that share n, so some of their
    groups hold trials of two configured dims."""
    dims = ((2, 3), (1, 1), (4, 3), (3, 1))
    for case_id in ("ando", "horodecki-reduction", "lem39-singular", "ck-lih",
                    "coro55-norms", "psi-not-2-positive", "abs-block-corollary"):
        shape = suite.INPUT_CLASSES[REGISTRY[case_id].input_class].shape
        tokens = (case_id, "other-" + case_id)
        chunks = list(suite._groups(7, tokens, dims, 23, 5, shape))
        assert len(chunks) == 5
        merged = False
        for k, groups in enumerate(chunks):
            assert len({(m, n) for m, n, _, _ in groups}) == len(groups)
            covered = []
            for m, n, t, seeds in groups:
                t = t.tolist()
                assert t == sorted(set(t)) and len(seeds) == len(tokens)
                merged |= len({dims[trial % 4] for trial in t}) > 1
                for token, token_seeds in zip(tokens, seeds):
                    stacked = make_instance(case_id, m, n, token_seeds)
                    for i, (trial, seed) in enumerate(zip(t, token_seeds.tolist(), strict=True)):
                        assert seed == derive_seed(7, token, trial)
                        assert (m, n) == shape(*dims[trial % 4])
                        assert _bytes(_row(stacked, i)) == _bytes(
                            make_instance(case_id, *dims[trial % 4], seed))
                covered += t
            assert sorted(covered) == list(range(5 * k, min(5 * k + 5, 23)))
        assert merged == (REGISTRY[case_id].input_class in ("psd-2x2", "matrix-unit-E",
                                                             "square")), case_id


@pytest.mark.parametrize("input_class", sorted(suite.INPUT_CLASSES))
def test_each_shape_is_the_dims_its_draw_reads(input_class):
    """A shape is its own shape, so the instance at dims (m, n) is byte for
    byte, block structure and all, the instance at dims shape(m, n), which
    a shape group draws.  Only the classes that ignore m merge dims: one
    shape per n."""
    row = suite.INPUT_CLASSES[input_class]
    for m, n in DIMS_1_4:
        key = row.shape(m, n)
        assert row.shape(*key) == key, (m, n)
        got, want = suite._draw_at(input_class, m, n, SEEDS), suite._draw_at(input_class, *key, SEEDS)
        assert type(got) is type(want) and _bytes(got) == _bytes(want), (m, n)
        assert (getattr(got, "m", None), getattr(got, "n", None)) == \
            (getattr(want, "m", None), getattr(want, "n", None))
    shapes = {row.shape(m, n) for m, n in DIMS_1_4}
    merges = input_class in ("psd-2x2", "matrix-unit-E", "square")
    assert len(shapes) == (4 if merges else len(DIMS_1_4))


@pytest.mark.parametrize("cap", [1, 3000, 10_000])
def test_chunk_boundaries_change_nothing(monkeypatch, cap):
    cases = ("ando", "hiroshima-conditional", "ppt-majorization", "lem38-eigen",
             "ck-improved", "abs-block-corollary", "psi-not-2-positive", "lin-2x2-ppt")
    config = RunConfig(cases, ((2, 2), (3, 2), (2, 4)), 31, 5)
    want = run_suite(config)
    monkeypatch.setattr(suite, "_CHUNK_BYTES", cap)
    # Each cap cuts chunks at a different trial count, inside the dims groups.
    assert suite._chunk_trials(REGISTRY["ando"].input_class, config.dims) < config.trials
    assert run_suite(config) == want


def test_chunk_stacks_stay_near_the_cap():
    for input_class, size in (("psd", lambda m, n: 16 * (m * n) ** 2),
                              ("real-int", lambda m, n: 8 * m * n)):
        for dims in (((8, 8),), ((6, 6), (8, 8)), DIMS_1_4, DIMS_1_8):
            sizes = [size(m, n) for m, n in dims]
            step = suite._chunk_trials(input_class, dims)
            for lo in range(len(dims)):
                chunk = sum(sizes[t % len(dims)] for t in range(lo, lo + step))
                assert chunk <= suite._CHUNK_BYTES + sum(sizes), (input_class, dims)


def _reference_random_ppt(stream, m, n, terms=None):
    """random_ppt as one rank-1 random_psd pair per term, drawn in turn."""
    k = terms if terms is not None else m * n
    batch = stream.batch
    acc = np.zeros(batch + (m * n, m * n), dtype=np.complex128)
    weights = stream.doubles(k)
    for t in range(k):
        p = random_psd(stream, m, rank=1)[..., :, None, :, None]
        q = random_psd(stream, n, rank=1)[..., None, :, None, :]
        acc += weights[..., t, None, None] * (p * q).reshape(batch + (m * n, m * n))
    return (acc + acc.conj().swapaxes(-1, -2)) / 2


@pytest.mark.parametrize("seed", [BIG, SEEDS], ids=["scalar", "array"])
def test_random_ppt_matches_per_term_loop(seed):
    for m in range(1, 9):
        for n in range(1, 9):
            got_stream, want_stream = Stream(seed), Stream(seed)
            got_stream.words(3), want_stream.words(3)
            got = random_ppt(got_stream, m, n)
            want = _reference_random_ppt(want_stream, m, n, m * n)
            assert got.shape == want.shape
            assert np.array_equal(got.view(np.uint8), want.view(np.uint8)), (m, n)
            # The stream ends where the loop's does, so the next draw agrees.
            assert got_stream.counter == want_stream.counter
            assert np.array_equal(got_stream.words(2), want_stream.words(2))


def _psd_2x2(n: int, seed: int) -> BlockMatrix:
    return gen(GenSpec("psd", m=2, n=n, seed=seed))


def _same_bits(got, want) -> bool:
    return got.dtype == want.dtype and np.array_equal(got.view(np.uint8), want.view(np.uint8))


def _psi_on_swapped_blocks(a: BlockMatrix) -> np.ndarray:
    """[psi(A_ji)] built without A^tau: psi applied to a block-swapped view
    of A's blocks, the reference for psi on A^tau.  The block traces are
    summed by the einsum that partial_trace_2 sums them with; the result is
    made contiguous, since at n = 1 from_blocks gives a transposed view."""
    blocks = a.as_blocks().swapaxes(-4, -3)
    trace_eye = np.einsum("...ijrr->...ij", blocks)[..., None, None] * np.eye(a.n)
    return np.ascontiguousarray(from_blocks(a.m, a.n, trace_eye - blocks).dense)


@pytest.mark.parametrize("m", range(1, 7))
def test_psi_on_a_tau_equals_the_swapped_block_build(m):
    """psi-completely-copositive's slack, psi blockwise on A^tau, has the
    bits of the swapped-block build at dims 1..6 x 1..6, for a stack of
    trials and for each trial alone."""
    case_id = "psi-completely-copositive"
    build = REGISTRY[case_id].fn
    for n in range(1, 7):
        stack = make_instance(case_id, m, n, SEEDS)
        [(_, got)] = build(suite.Derived(stack))
        assert _same_bits(got, _psi_on_swapped_blocks(stack))
        for seed in SEEDS.tolist():
            one = make_instance(case_id, m, n, seed)
            [(_, got)] = build(suite.Derived(one))
            assert _same_bits(got, _psi_on_swapped_blocks(one))


@pytest.mark.parametrize("n", range(1, 5))
def test_two_block_builders_match_np_block(n):
    for seed in range(4):
        a = _psd_2x2(n, seed)
        ab, bb, cb = a.block(0, 0), a.block(0, 1), a.block(1, 1)
        eye = np.eye(n, dtype=np.complex128)
        lin = np.block([
            [np.trace(ab) * eye + ab, np.trace(bb) * eye + bb],
            [np.trace(bb).conjugate() * eye + bb.conj().T, np.trace(cb) * eye + cb],
        ])
        choi = np.block([
            [np.trace(ab) * eye + cb, np.trace(bb) * eye - bb],
            [np.trace(bb).conjugate() * eye - bb.conj().T, np.trace(cb) * eye + ab],
        ])
        assert _same_bits(apply_map_blockwise("phi", a).dense, lin)
        assert _same_bits(choi_block(a).dense, choi)
        zero, one = np.zeros((n, n)), np.eye(n)
        for skew, u in ((False, np.block([[zero, one], [one, zero]])),
                        (True, np.block([[zero, one], [-one, zero]]))):
            avg = (a.dense + u @ a.dense @ u.conj().T) / 2
            want = (avg + avg.conj().T) / 2
            assert _same_bits(symmetrize_offdiag(a, skew).dense, want)


@pytest.mark.parametrize("n", range(1, 5))
def test_eq18_slack_matches_kron_formula(n):
    for m in range(1, 5):
        jm, jn = np.ones((m, m)), np.ones((n, n))
        raw = ((m - 2) * n * np.eye(m * n) + n * np.kron(jm, np.eye(n))
               - np.kron(jm, jn) - (m - 2) * np.kron(np.eye(m), jn))
        assert _same_bits(eq18_slack(m, n), (raw + raw.conj().T) / 2)


def _group_reports(case_id, m, n, seeds, tol=suite.PSD_TOL):
    """check_case on every row of one stacked evaluation of the dims group."""
    stacked = make_instance(case_id, m, n, seeds)
    [columns] = suite._decided(suite._evaluate([REGISTRY[case_id]], lambda: stacked, len(seeds),
                                               tol))
    rows = suite._rows(*suite._dims(stacked), columns)
    return stacked, [check_case(case_id, rows[j], tol, seed)
                     for j, seed in enumerate(seeds.tolist())]


@pytest.mark.parametrize("case_id", case_ids())
def test_each_row_equals_check_case_alone(case_id):
    """Rows 0, 5 and 10 draw low-rank psd instances (seed % 5 == 0)."""
    seeds = np.array([0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, BIG], dtype=np.uint64)
    for m, n in DIMS_1_4:
        stacked, reports = _group_reports(case_id, m, n, seeds)
        for j, (seed, report) in enumerate(zip(seeds.tolist(), reports)):
            assert report == check_case(case_id, _row(stacked, j), seed=seed), (m, n, seed)


DIMS_1_3 = tuple((m, n) for m in range(1, 4) for n in range(1, 4))


def _witness_bits(x: float) -> bytes:
    return struct.pack("<d", x)


@pytest.mark.parametrize("case_id", case_ids())
def test_row_reports_equal_public_constructors(case_id):
    """check_case builds a trial's report from its row without the named
    tuples' constructors; it must still be the report that Part(...) and
    SlackReport(...) give, of the same types and with the same witness bits."""
    seeds = np.array([0, 1, 5, BIG], dtype=np.uint64)
    for m, n in DIMS_1_3:
        stacked = make_instance(case_id, m, n, seeds)
        [columns] = suite._decided(suite._evaluate([REGISTRY[case_id]], lambda: stacked,
                                                   len(seeds), suite.PSD_TOL))
        gm, gn = suite._dims(stacked)
        for j, seed in enumerate(seeds.tolist()):
            report = check_case(case_id, suite._rows(gm, gn, columns)[j], suite.PSD_TOL, seed)
            parts = tuple(Part(label, w[j], h[j]) for label, w, h in columns if h[j] is not None)
            want = SlackReport(case_id, seed, gm, gn, parts, len(columns) - len(parts))
            assert type(report) is SlackReport and report == want and repr(report) == repr(want)
            assert report._replace(trial_seed=1) == want._replace(trial_seed=1)
            assert [type(p) for p in report.parts] == [Part] * len(parts)
            assert [_witness_bits(p.witness) for p in report.parts] == \
                [_witness_bits(p.witness) for p in parts]
            assert (report.holds, _witness_bits(report.witness)) == \
                (want.holds, _witness_bits(want.witness))
            if n == 1 and case_id in ("eq18-matrix", "psi-not-2-positive"):
                # The exact zero witnesses at n = 1 are +0.0, never -0.0.
                assert _witness_bits(report.witness) == _witness_bits(0.0)
                assert report.holds is (case_id == "eq18-matrix")


def test_run_suite_checks_each_trial_once_through_check_case(monkeypatch):
    """One suite.check_case call per trial of every case, each on that
    trial's seed, and the report is the one the calls return."""
    config = RunConfig(("ck-lih", "hiroshima-conditional", "lem39-singular", "eq18-matrix",
                        "ando"), ((2, 2), (2, 3)), 7, 3)
    plain = serialize.dump(run_suite(config))
    real, calls = suite.check_case, []

    def spy(case_id, instance, tol, seed):
        calls.append((case_id, seed))
        return real(case_id, instance, tol, seed)

    monkeypatch.setattr(suite, "check_case", spy)
    assert serialize.dump(run_suite(config)) == plain
    assert len(calls) == len(config.cases) * config.trials
    assert sorted(calls) == sorted((c, derive_seed(config.seed, c, t))
                                   for c in config.cases for t in range(config.trials))


def test_run_suite_draws_each_trial_seed_once(monkeypatch):
    """Across input classes and shape groups, the seed of every trial of
    every case reaches suite.make_instance exactly once, and each entry
    reports config.trials trials."""
    config = RunConfig(("ck-lih", "hiroshima-conditional", "lem39-singular", "lin-2x2-ppt",
                        "ando"), ((1, 2), (2, 2), (2, 3), (3, 3)), 9, 3)
    real, drawn = suite.make_instance, []

    def spy(case_id, m, n, seeds):
        drawn.extend(seeds.tolist())
        return real(case_id, m, n, seeds)

    monkeypatch.setattr(suite, "make_instance", spy)
    report = run_suite(config)
    assert sorted(drawn) == sorted(derive_seed(config.seed, c, t)
                                   for c in config.cases for t in range(config.trials))
    assert [e["trials"] for e in report["cases"].values()] == [config.trials] * len(config.cases)


def _reference_entries(config: RunConfig) -> dict:
    """run_suite's entries by the per-trial loop: each case's dims groups
    drawn in one chunk, and every trial's report built from its row by the
    public constructors and aggregated one at a time."""
    entries = {}
    for case_id in sorted(config.cases):
        trials = failures = misses = 0
        worst = worst_t = worst_seed = worst_dims = None
        for groups in suite._groups(config.seed, (case_id,), config.dims, config.trials,
                                    max(1, config.trials)):
            for m, n, t, (seeds,) in groups:
                [columns] = suite._decided(suite._evaluate(
                    [REGISTRY[case_id]], lambda: make_instance(case_id, m, n, seeds), len(t),
                    config.tol))
                for j, (tj, seed) in enumerate(zip(t.tolist(), seeds.tolist())):
                    parts = tuple(Part(label, w[j], h[j]) for label, w, h in columns
                                  if h[j] is not None)
                    report = SlackReport(case_id, seed, m, n, parts, len(columns) - len(parts))
                    trials += 1
                    misses += report.premise_misses
                    if not parts:
                        continue
                    failures += not report.holds
                    w = report.witness
                    if worst is None or w < worst or (w == worst and tj < worst_t):
                        worst, worst_t, worst_seed, worst_dims = w, tj, seed, f"{m}x{n}"
        entries[case_id] = {"trials": trials, "failures": failures, "premise_misses": misses,
                            "worst_witness": worst, "worst_seed": worst_seed,
                            "worst_dims": worst_dims}
    return entries


TINY_DIMS = ((1, 1), (1, 2), (2, 1))
AGGREGATION_CONFIGS = {
    # Exact zero witnesses at n = 1 tie in every trial and every group.
    "zero-witness-ties": RunConfig(("eq18-matrix", "psi-not-2-positive"),
                                   ((2, 1), (1, 1), (3, 1), (4, 1)), 23, 3),
    # Trials where one or both premises miss, and at 1x1 where none does.
    "premise-misses": RunConfig(("hiroshima-conditional",),
                                ((1, 1), (2, 2), (3, 3), (2, 4)), 60, 1),
    # Both trials miss both premises: no part at all, so no worst trial.
    "no-parts": RunConfig(("hiroshima-conditional",), ((2, 2),), 2, 0),
    # Two chunks of a 1x1 input class; the second starts inside a cycle of
    # the dims, so its groups arrive out of trial order.
    "past-chunk-trials": RunConfig(("ck-classical", "ck-lih", "ck-improved"), TINY_DIMS,
                                   suite._CHUNK_TRIALS + 37, 11),
    "mixed-dims": RunConfig(tuple(case_ids()), DIMS_1_4, 20, 8),
    # psd-2x2, square and matrix-unit-E cases, whose first three dims share
    # n = 2 and so one shape group; psi-not-2-positive ties at -1 in every
    # trial.
    "shape-merged": RunConfig(("trace-2x2-besenyei", "hermitian-offdiag-majorization",
                               "lin-2x2-ppt", "coro55-norms", "thm37-singular",
                               "abs-block-corollary", "psi-not-2-positive"),
                              ((3, 2), (2, 2), (4, 2), (2, 3)), 30, 6),
}


@pytest.mark.parametrize("config", AGGREGATION_CONFIGS.values(), ids=AGGREGATION_CONFIGS)
def test_run_suite_equals_per_trial_aggregation(config):
    """The mapped aggregation of _class_entries gives the per-trial loop's
    entries: the same counts, and the first least witness in trial order,
    with its sign bit (serialize.dump writes -0.0 as such)."""
    want = _reference_entries(config)
    got = run_suite(config)["cases"]
    assert got == want and serialize.dump(got) == serialize.dump(want)
    if config is AGGREGATION_CONFIGS["no-parts"]:
        assert got["hiroshima-conditional"]["worst_witness"] is None
    if config is AGGREGATION_CONFIGS["past-chunk-trials"]:
        assert suite._chunk_trials("real-int", config.dims) == suite._CHUNK_TRIALS


def test_exact_integer_draws_split_across_chunks_equal_per_trial_aggregation(monkeypatch):
    """A cap of three dims cycles' bytes makes chunks of 192 trials at dims
    1..8x1..8, so the 500 trials span three chunks, the last one short.  At
    8x8 each case of a group takes its own draw; at 1x1 one draw holds all
    three.  Each case's gaps, evaluated once per chunk over its groups,
    still give the per-trial loop's entries."""
    config = RunConfig(("ck-classical", "ck-lih", "ck-improved"), DIMS_1_8, 500, 12)
    want = _reference_entries(config)
    cycle = sum(suite._nbytes_at("real-int", m, n) for m, n in DIMS_1_8)
    monkeypatch.setattr(suite, "_CHUNK_BYTES", 3 * cycle)
    assert suite._chunk_trials("real-int", DIMS_1_8) == 192
    real, drawn = suite.make_instance, []

    def draw(case_id, m, n, seeds):
        drawn.append((m, n, len(seeds)))
        return real(case_id, m, n, seeds)

    monkeypatch.setattr(suite, "make_instance", draw)
    got = run_suite(config)["cases"]
    assert got == want and serialize.dump(got) == serialize.dump(want)
    assert [rows for m, n, rows in drawn if (m, n) == (8, 8)] == [3, 3, 3, 3, 3, 3, 1, 1, 1]
    assert [rows for m, n, rows in drawn if (m, n) == (1, 1)] == [9, 9, 6]


@pytest.mark.parametrize("cap", [600, 1000, 2500])
def test_shape_merged_groups_equal_per_dims_aggregation(monkeypatch, cap):
    """Small chunk caps cut the chunks inside the merged shape groups, and
    split a group's cases into several draws.  The entries still equal the
    per-trial loop over per-dims groups, and each worst_dims is the
    configured dims of its trial: psi-not-2-positive's tie stays with
    trial 0, at 3x2, though its group is drawn at 2x2."""
    config = AGGREGATION_CONFIGS["shape-merged"]
    want = _reference_entries(config)
    monkeypatch.setattr(suite, "_CHUNK_BYTES", cap)
    for input_class in ("psd-2x2", "square", "matrix-unit-E"):
        step = suite._chunk_trials(input_class, config.dims)
        assert step < config.trials and step % len(config.dims)
    got = run_suite(config)["cases"]
    assert got == want and serialize.dump(got) == serialize.dump(want)
    psi = got["psi-not-2-positive"]
    assert (psi["worst_witness"], psi["worst_dims"]) == (-1.0, "3x2")
    assert psi["worst_seed"] == derive_seed(config.seed, "psi-not-2-positive", 0)


def test_rows_with_absent_parts_equal_a_per_trial_build():
    """Columns whose holds hold None in some trials: each row keeps the
    present parts in column order and counts the absent ones."""
    columns = [("a", [0.5, -1.0, 0.0, 2.0], [True, False, None, None]),
               ("b", [-0.0, 3.0, 1.0, 4.0], [None, True, True, None]),
               ("c", [1.0, 2.0, -3.0, 5.0], [True, True, False, True])]
    rows = suite._rows(2, 3, columns)
    for j, row in enumerate(rows):
        parts = tuple(Part(label, w[j], h[j]) for label, w, h in columns if h[j] is not None)
        assert type(row) is suite._Row and row == (2, 3, parts, len(columns) - len(parts))
        assert [type(p) for p in row.parts] == [Part] * len(parts)
    assert [row.premise_misses for row in rows] == [1, 0, 1, 2]
    assert _witness_bits(rows[0].parts[0].witness) == _witness_bits(0.5)
    assert suite._rows(1, 1, [("a", [-0.0], [None])]) == [(1, 1, (), 1)]
    assert suite._rows(1, 1, [("a", [-0.0], [True])])[0].parts == (Part("a", -0.0, True),)


@pytest.mark.parametrize("input_class", sorted(suite.INPUT_CLASSES))
def test_chunks_never_exceed_chunk_trials(monkeypatch, input_class):
    """However small the instances and large the byte cap, a chunk holds
    at most _CHUNK_TRIALS trials."""
    for cap in (suite._CHUNK_BYTES, 1 << 40):
        monkeypatch.setattr(suite, "_CHUNK_BYTES", cap)
        for dims in (((1, 1),), TINY_DIMS, DIMS_1_4, ((8, 8),)):
            assert 1 <= suite._chunk_trials(input_class, dims) <= suite._CHUNK_TRIALS
    assert suite._chunk_trials(input_class, ((1, 1),)) == suite._CHUNK_TRIALS


# Cases of several check kinds that share one draw of their input class.
MIXED_DRAWS = {
    "psd": (("ando", "choi-tr1", "phi-completely-ppt", "eqm1-majorization",
             "hiroshima-conditional"), ((2, 2), (2, 3), (3, 2))),
    "psd-2x2": (("lin-2x2-ppt", "choi-block-ppt", "coro55-norms"), ((2, 1), (2, 2), (2, 3))),
}


def _column_bits(columns) -> list:
    """An _evaluate entry with each witness column as its bits."""
    return [(label, _bits(w), h) for label, w, h in columns]


@pytest.mark.parametrize("height", [1, 3])
@pytest.mark.parametrize("input_class", sorted(MIXED_DRAWS))
def test_one_evaluate_call_equals_one_call_per_case(monkeypatch, input_class, height):
    """One _evaluate call on the draw that the cases share, with one merged
    verdict for all their slacks, gives each case the columns of its own
    call on its own draw: labels, witness bits, holds and the None of a
    missed premise."""
    cases, dims = MIXED_DRAWS[input_class]
    real_cols, calls = suite._psd_cols, []

    def psd_cols(slacks, trials, tol):
        calls.append([label for label, _ in slacks])
        return real_cols(slacks, trials, tol)

    monkeypatch.setattr(suite, "_psd_cols", psd_cols)
    misses = 0
    for m, n in dims:
        for base in range(8):
            seeds = [derive_seed(base, c, np.arange(height)) for c in cases]
            stack = make_instance(cases[0], m, n, np.concatenate(seeds))
            calls.clear()
            got = suite._evaluate([REGISTRY[c] for c in cases], lambda: stack, height,
                                  suite.PSD_TOL)
            # One call for the slacks of every slack case, and hiroshima's
            # own call for its premises.
            merged = [label for c in cases if REGISTRY[c].check_kind in suite._SLACK_KINDS
                      for label, _ in build_slack(c, make_instance(c, m, n, 0))]
            assert sorted(calls) == sorted([merged] + [["tr1", "tr2"]] * (
                "hiroshima-conditional" in cases))
            assert len(got) == len(cases)
            for case_id, case_seeds, entry in zip(cases, seeds, got):
                [want] = suite._evaluate([REGISTRY[case_id]], lambda: make_instance(
                    case_id, m, n, case_seeds), height, suite.PSD_TOL)
                assert _column_bits(entry) == _column_bits(want), (case_id, m, n, base)
                misses += sum(h is None for _, _, holds in entry for h in holds)
    assert (misses > 0) == ("hiroshima-conditional" in cases)


def test_slack_verdicts_stay_within_four_draws(monkeypatch):
    """With a small chunk cap over mixed dims, where some draws hold many
    cases and some one, each _psd_cols call decides at most 4x the bytes
    of the draw it came from: 4 is the most slack labels of any case."""
    slack_ids = [c for c in case_ids() if REGISTRY[c].check_kind in suite._SLACK_KINDS]
    most = max(len(build_slack(c, make_instance(c, 2, 2, 0))) for c in slack_ids)
    assert most == 4
    config = RunConfig(tuple(case_ids()), ((1, 3), (4, 4), (2, 2), (3, 1)), 30, 8)
    want = run_suite(config)
    real_draw, real_cols = suite.make_instance, suite._psd_cols
    drawn, decided = [], []

    def draw(case_id, m, n, seeds):
        stack = real_draw(case_id, m, n, seeds)
        drawn.append(len(_bytes(stack)))
        return stack

    def psd_cols(slacks, trials, tol):
        decided.append((drawn[-1], sum(s.nbytes for _, s in slacks), len(slacks)))
        return real_cols(slacks, trials, tol)

    monkeypatch.setattr(suite, "_CHUNK_BYTES", 20_000)
    monkeypatch.setattr(suite, "make_instance", draw)
    monkeypatch.setattr(suite, "_psd_cols", psd_cols)
    assert run_suite(config) == want
    assert all(nbytes <= most * draw_bytes for draw_bytes, nbytes, _ in decided)
    # Some draws merge the slacks of several cases, and some hold one case.
    assert max(count for _, _, count in decided) > most
    assert min(count for _, _, count in decided) == 1


RELEASE_CONFIGS = {
    # One hermitian case per draw: a 16-trial chunk of 8x8 draws fills
    # _CHUNK_BYTES, so each of the five cases has a draw and a verdict.
    "hermitian-8x8": (tuple(c for c in case_ids() if REGISTRY[c].input_class == "hermitian"
                            and REGISTRY[c].check_kind in suite._SLACK_KINDS), ((8, 8),), 12, 5),
    # Every psd slack case in one draw, with one merged verdict.
    "psd-2x2": (tuple(c for c in case_ids() if REGISTRY[c].input_class == "psd"
                      and REGISTRY[c].check_kind in suite._SLACK_KINDS), ((2, 2),), 6, 1),
}


@pytest.mark.parametrize("name", sorted(RELEASE_CONFIGS))
def test_merged_verdict_holds_the_only_reference_to_each_slack(monkeypatch, name):
    """While psd_verdict runs, no slack of any draw and no draw's dense
    stack is alive outside the merged verdict's own copy: every slack is
    freed once _psd_cols copies it, and every draw before the verdict.
    _evaluate is reached through a wrapper that holds its arguments until
    it returns, as CPython 3.10 holds every call's, so the rule cannot
    rest on how the draw is passed."""
    cases, dims, trials, verdicts = RELEASE_CONFIGS[name]
    slacks, draws, alive = [], [], []

    def keep_refs(fn):
        def built(d):
            out = fn(d)
            slacks.extend(weakref.ref(s) for _, s in out)
            return out
        return built

    for c in cases:
        monkeypatch.setitem(REGISTRY, c, dataclasses.replace(REGISTRY[c], fn=keep_refs(
            REGISTRY[c].fn)))
    real_draw, real_evaluate, real_verdict = suite.make_instance, suite._evaluate, suite.psd_verdict

    def draw(case_id, m, n, seeds):
        stack = real_draw(case_id, m, n, seeds)
        draws.append(weakref.ref(stack.dense))
        return stack

    def held(*args):
        return real_evaluate(*args)

    def verdict(stack, tol):
        alive.append((sum(r() is not None for r in slacks), sum(r() is not None for r in draws)))
        return real_verdict(stack, tol)

    monkeypatch.setattr(suite, "make_instance", draw)
    monkeypatch.setattr(suite, "_evaluate", held)
    monkeypatch.setattr(suite, "psd_verdict", verdict)
    run_suite(RunConfig(cases, dims, trials, 1))
    assert len(alive) == verdicts and len(draws) == verdicts
    assert len(slacks) >= len(cases)
    assert alive == [(0, 0)] * verdicts


def test_merged_group_draw_budget_is_the_sum_of_its_dims_shares(monkeypatch):
    """Three dims with n = 4 make one psd-2x2 group of 27 trials, drawn in
    draws of at most three dims' shares of _CHUNK_BYTES: 3 cases per draw
    here, where one share would admit 1."""
    cases = tuple(c for c in case_ids() if REGISTRY[c].input_class == "psd-2x2")
    config = RunConfig(cases, ((2, 4), (3, 4), (4, 4)), 27, 2)
    want = run_suite(config)
    monkeypatch.setattr(suite, "_CHUNK_BYTES", 90_000)
    assert suite._chunk_trials("psd-2x2", config.dims) > config.trials
    real, drawn = suite.make_instance, []

    def draw(case_id, m, n, seeds):
        stack = real(case_id, m, n, seeds)
        drawn.append(len(_bytes(stack)))
        return stack

    monkeypatch.setattr(suite, "make_instance", draw)
    assert run_suite(config) == want
    share = 90_000 // len(config.dims)
    per_draw = 3 * share // (27 * suite.INPUT_CLASSES["psd-2x2"].nbytes(2, 4))
    assert per_draw == 3 and len(cases) == 10
    assert len(drawn) == 4 and max(drawn) <= 3 * share


@pytest.mark.parametrize("input_class", sorted(suite.INPUT_CLASSES))
def test_nbytes_is_the_bytes_of_one_instance(input_class):
    for m, n in DIMS_1_4:
        for t in (1, 3, 5):
            drawn = suite._draw_at(input_class, m, n, SEEDS[:t])
            assert suite._nbytes_at(input_class, m, n) * t == len(_bytes(drawn)), (m, n, t)


def test_stack_height_changes_nothing(monkeypatch):
    config = RunConfig(tuple(case_ids()), DIMS_1_4, 40, 17)
    want = run_suite(config)
    monkeypatch.setattr(suite, "_CHUNK_BYTES", 1)
    assert all(suite._chunk_trials(REGISTRY[c].input_class, DIMS_1_4) == 1
               for c in config.cases)
    assert run_suite(config) == want


ROW_DIMS = ((2, 2), (3, 2), (2, 3))
# Two other cases of each target's input class; one of them is checked by
# another kind than the target.
SIBLINGS = {
    "ando": ("choi-tr1", "eqm1-majorization"),
    "choi-tr1": ("ando", "hiroshima-conditional"),
    "lin-2x2-ppt": ("choi-block-ppt", "coro55-norms"),
}


@pytest.mark.parametrize("case_id", ["ando", "choi-tr1", "lin-2x2-ppt"])
@pytest.mark.parametrize("trial", [0, 6, 9, 10],
                         ids=["first-row", "middle-row", "last-row", "past-chunk-boundary"])
def test_one_negated_trial_is_named(monkeypatch, case_id, trial):
    """Chunks of 10 trials over three dims: trials 0, 3, 6, 9 are one stack
    of the first chunk, and trial 10 opens the second chunk.  Negating the
    PSD instance of one trial makes exactly that trial fail, also when two
    other cases of its input class share its draws and verdicts."""
    config = RunConfig((case_id,), ROW_DIMS, 30, 5)
    target = derive_seed(config.seed, case_id, trial)
    real = suite.make_instance

    def draw(cid, m, n, seeds):
        stacked = real(cid, m, n, seeds)
        dense = stacked.dense.copy()
        for j, seed in enumerate(seeds.tolist()):
            if seed == target:
                dense[j] = -dense[j]
        return BlockMatrix(stacked.m, stacked.n, dense)

    monkeypatch.setattr(suite, "_chunk_trials", lambda input_class, dims: 10)
    monkeypatch.setattr(suite, "make_instance", draw)
    entry = run_suite(config)["cases"][case_id]
    m, n = ROW_DIMS[trial % 3]
    assert entry["failures"] == 1
    assert (entry["worst_seed"], entry["worst_dims"]) == (target, f"{m}x{n}")
    assert entry["worst_witness"] < 0
    together = run_suite(RunConfig((case_id, *SIBLINGS[case_id]), ROW_DIMS, 30, 5))["cases"]
    assert together[case_id] == entry
    for sibling in SIBLINGS[case_id]:
        assert REGISTRY[sibling].input_class == REGISTRY[case_id].input_class
        alone = RunConfig((sibling,), ROW_DIMS, 30, 5)
        assert together[sibling] == run_suite(alone)["cases"][sibling]
        assert together[sibling]["failures"] == 0


def _bits(x):
    x = np.asarray(x)
    return x.dtype, x.shape, np.ascontiguousarray(x).tobytes()


def _random_stack(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


@pytest.mark.parametrize("k", [1, 2, 3, 5, 7, 8, 9, 16, 17, 31, 33, 64])
def test_one_matrix_kernels_equal_stacked_kernels(k):
    rng = np.random.default_rng(k)
    g = _random_stack(rng, (2, 3, k, k))
    herm = g + g.conj().swapaxes(-1, -2)
    views = (g, g.swapaxes(-1, -2), g[..., ::-1, :])  # contiguous and strided stacks
    eig = linalg.hermitian_eigvals_stack(herm)
    for i in np.ndindex(*herm.shape[:-2]):
        assert _bits(linalg.hermitian_eigvals(herm[i])) == _bits(eig[i])
    for stack in views:
        sv = linalg.singular_values_stack(stack)
        absolute = linalg.matrix_abs_stack(stack)
        scale = linalg.scale_stack(stack)
        traces = linalg.trace_stack(stack)
        for i in np.ndindex(*stack.shape[:-2]):
            assert _bits(np.trace(stack[i])) == _bits(traces[i])
            assert _bits(linalg.singular_values(stack[i])) == _bits(sv[i])
            assert _bits(linalg.matrix_abs(stack[i])) == _bits(absolute[i])
            assert _bits(linalg.scale_stack(stack[i])) == _bits(scale[i])
    # The blocks of a block-matrix stack are views whose rows are closer
    # together than their diagonal entries.
    blocks = BlockMatrix(2, k, _random_stack(rng, (3, 2 * k, 2 * k))).as_blocks()
    traces = linalg.trace_stack(blocks)
    for i in np.ndindex(*blocks.shape[:-2]):
        assert _bits(np.trace(blocks[i])) == _bits(traces[i])


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 8])
def test_merged_plus_minus_rows_equal_separate_calls(k):
    """thm37-singular, coro55-norms and abs-block-corollary decide their
    plus and minus sides by one call over a leading axis (and |X|, |X*| by
    one matrix_abs_stack); each row equals the separate call bit for bit,
    on contiguous operands and on transposed views, which the merged stack
    copies."""
    g = _random_stack(np.random.default_rng(k), (3, 4, k, k))
    for plus, minus, rhs in (tuple(g), tuple(x.swapaxes(-1, -2) for x in g)):
        merged = np.stack([plus, minus])
        verdict = sv_dominates(merged, rhs, 2.0)
        gaps = suite._kyfan_gaps(merged, rhs, 2.0)
        for i, side in enumerate((plus, minus)):
            want = sv_dominates(side, rhs, 2.0)
            assert _bits(verdict.witness[i]) == _bits(want.witness)
            assert _bits(verdict.holds[i]) == _bits(want.holds)
            assert _bits(verdict.tolerance_used) == _bits(want.tolerance_used)
            assert _bits(gaps[i]) == _bits(suite._kyfan_gaps(side, rhs, 2.0))
        absolute = linalg.matrix_abs_stack(np.stack([plus, suite._ct(plus)]))
        assert _bits(absolute[0]) == _bits(linalg.matrix_abs_stack(plus))
        assert _bits(absolute[1]) == _bits(linalg.matrix_abs_stack(suite._ct(plus)))


@pytest.mark.parametrize("case_id", ["thm37-singular", "coro55-norms", "abs-block-corollary"])
def test_merged_cases_match_each_side_alone(case_id):
    """The plus and minus parts of a merged case are the one-matrix oracles
    on (tr B)I + B and (tr B)I - B against the shared right-hand side."""
    for n in (1, 2, 3, 5):
        eye = np.eye(n)
        for seed in range(4):
            inst = make_instance(case_id, 2, n, seed)
            if case_id == "abs-block-corollary":
                b = inst
                both = linalg.matrix_abs(b) + linalg.matrix_abs(b.conj().T)
            else:
                b, both = inst.block(0, 1), inst.block(0, 0) + inst.block(1, 1)
            rhs = np.trace(both).real * eye + both
            report = check_case(case_id, inst)
            assert [p.label for p in report.parts] == ["plus", "minus"]
            for part, sign in zip(report.parts, (1, -1)):
                lhs = np.trace(b) * eye + sign * b
                if case_id == "coro55-norms":
                    want = min(linalg.kyfan_norm(rhs, k) - 2 * linalg.kyfan_norm(lhs, k)
                               for k in range(1, n + 1))
                else:
                    want = sv_dominates(lhs, rhs, 2.0).witness
                assert part.witness == pytest.approx(want, rel=1e-12, abs=1e-12), (n, seed)


def test_non_hermitian_row_in_a_stack_raises(monkeypatch):
    g = _random_stack(np.random.default_rng(1), (2, 5, 4, 4))
    stack = g + g.conj().swapaxes(-1, -2)
    stack[1, 3, 0, 2] += 1e-3
    with pytest.raises(ValueError, match="not Hermitian"):
        linalg.hermitian_eigvals_stack(stack)
    with pytest.raises(ValueError, match="not Hermitian"):
        is_psd(stack)
    real = suite.make_instance
    target = derive_seed(3, "eqm1-majorization", 4)

    def draw(cid, m, n, seeds):
        stacked = real(cid, m, n, seeds)
        dense = stacked.dense.copy()
        for j, seed in enumerate(seeds.tolist()):
            if seed == target:
                dense[j, 0, 1] += 1e-3
        return BlockMatrix(stacked.m, stacked.n, dense)

    monkeypatch.setattr(suite, "make_instance", draw)
    with pytest.raises(ValueError, match="not Hermitian"):
        run_suite(RunConfig(("eqm1-majorization",), ((2, 2),), 9, 3))


@pytest.mark.parametrize("case_id", [c for c in case_ids()
                                     if REGISTRY[c].check_kind in ("psd-slack", "ppt-of-derived")])
def test_each_part_is_lambda_min_of_its_labeled_slack(case_id):
    """The stacked evaluation keeps labels and slacks paired: every part's
    witness is lambda_min of the slack build_slack gives for its label."""
    seeds = derive_seed(4, case_id, np.arange(5))
    for m, n in ((2, 2), (3, 2), (2, 3)):
        stacked, reports = _group_reports(case_id, m, n, seeds)
        for j, report in enumerate(reports):
            slacks = build_slack(case_id, _row(stacked, j))
            assert [p.label for p in report.parts] == [label for label, _ in slacks]
            for part, (_, slack) in zip(report.parts, slacks):
                assert part.witness == float(is_psd(slack).witness)
