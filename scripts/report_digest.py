"""Print one sha256 over the reports that a refactor must leave bit for bit
unchanged, computed with the blocktrace package found under --src.

The digest covers:
  - the criterion-2 report, `verify --format json` over the 42 cases other
    than psi-not-2-positive and open-question-residual, dims 2..4x2..4,
    500 trials, seed 42 (the text the README command hashes);
  - the check_case report of every case at dims 1..8x1..8 and seeds 0..5 on
    its make_instance input: the label, witness bits and holds of each part,
    m, n and the premise misses;
  - the criterion-6 scan, open_question_scan over dims 2..4x2..4, 2,000
    trials, seed 42;
  - the run_suite report of all 44 cases at dims 1..8x1..8, 100 trials,
    seed 42, a shape where the cases of an input class take several draws
    per shape group, each decided by its own merged PSD verdict;
  - the run_suite report of all 44 cases at dims 2..4x2..4, 2,000 trials,
    seed 7, a shape where an input class's trials span several chunks of
    several shape groups each: psd, hermitian, ppt and zero take 3 chunks
    of 701 trials in 9 groups, psd-2x2 and matrix-unit-E 2 chunks of
    1,694 trials in 3 merged groups;
  - the check_case report of each exact-integer case on fixed int64-extreme
    matrices (entries +-(2^63 - 1), -2^63 and 0 at dims 1x1, 1x2, 2x2 and
    6x6), whose sums exceed int64;
  - the bits of every build_slack matrix of each psd-slack and
    ppt-of-derived case at dims 1..8x1..8 and seeds 0..2 on its
    make_instance input;
  - the check_case report of every case whose input class scales (the
    block classes other than the fixed zero and matrix-unit-E, gram-pair
    with both factors, and square) at dims 1..3x1..3 and seeds 0..2, on its
    make_instance input multiplied by 1e-12, 1e-6 and 1e6: verdicts whose
    scale is far below 1, where the tolerance floor decides, and far above.

Run it on two checkouts; equal digests mean equal reports:

    python3 scripts/report_digest.py --src ../parent/src
    python3 scripts/report_digest.py --src src

stdout is the one combined digest.  stderr gets the digest of each section
(verify, cases, scan, suite, chunks, extremes, slacks, scaled), so when two
checkouts differ, the lines that differ name the sections that moved.  Its last line,
`criterion-2 <sha256>`, is the sha256 of the criterion-2 text itself, the
value the README's `verify ... | sha256sum` command prints.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import struct
import sys
from pathlib import Path

import numpy as np

SWEEP_EXCLUDED = ("psi-not-2-positive", "open-question-residual")
CASE_DIMS = tuple((m, n) for m in range(1, 9) for n in range(1, 9))
CASE_SEEDS = tuple(range(6))
SCAN_DIMS = tuple((m, n) for m in range(2, 5) for n in range(2, 5))
EXACT_CASES = ("ck-classical", "ck-lih", "ck-improved")
EXTREME_DIMS = ((1, 1), (1, 2), (2, 2), (6, 6))
EXTREME_VALUES = (2**63 - 1, -(2**63 - 1), -(2**63), 0)
SLACK_DIMS = tuple((m, n) for m in range(1, 9) for n in range(1, 9))
SLACK_SEEDS = tuple(range(3))
SLACK_KINDS = ("psd-slack", "ppt-of-derived")
SCALED_CLASSES = ("psd", "hermitian", "ppt", "psd-2x2", "gram-pair", "square")
SCALED_DIMS = tuple((m, n) for m in range(1, 4) for n in range(1, 4))
SCALED_SEEDS = tuple(range(3))
SCALE_FACTORS = (1e-12, 1e-6, 1e6)


def load(src: str):
    """The blocktrace package under the directory src."""
    sys.path.insert(0, str(Path(src).resolve()))
    return importlib.import_module("blocktrace")


def verify_report(bt, dims: str, trials: int, seed: int) -> str:
    """What `blocktrace verify --format json` prints for the sweep cases."""
    cases = [c for c in bt.case_ids() if c not in SWEEP_EXCLUDED]
    cli = importlib.import_module("blocktrace.cli")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        cli.main(["verify", "--format", "json", "--dims", dims, "--trials", str(trials),
                  "--seed", str(seed), "--cases", *cases])
    return out.getvalue()


def _parts(report) -> list:
    return [[p.label, struct.pack("<d", p.witness).hex(), bool(p.holds)] for p in report.parts]


def case_records(bt, dims, seeds) -> list:
    """[case, seed, m, n, premise misses, [[label, witness bits, holds], ...]]
    of check_case on every case's instance at each dims and seed."""
    records = []
    for case_id in bt.case_ids():
        for m, n in dims:
            for seed in seeds:
                r = bt.check_case(case_id, bt.make_instance(case_id, m, n, seed), seed=seed)
                records.append([case_id, seed, r.m, r.n, r.premise_misses, _parts(r)])
    return records


def extreme_matrices(dims) -> list:
    """Integer matrices at each dims: every entry one of EXTREME_VALUES, and
    entry (i, j) = EXTREME_VALUES[(i n + j + shift) % 4] for each shift."""
    out = []
    for m, n in dims:
        out += [[[v] * n for _ in range(m)] for v in EXTREME_VALUES]
        out += [[[EXTREME_VALUES[(i * n + j + shift) % 4] for j in range(n)] for i in range(m)]
                for shift in range(4)]
    return out


def extreme_records(bt, matrices) -> list:
    """[case, entries, [[label, witness bits, holds], ...]] of check_case on
    each exact-integer case and each int64 matrix."""
    return [[case_id, x, _parts(bt.check_case(case_id, np.array(x, dtype=np.int64)))]
            for case_id in EXACT_CASES for x in matrices]


def slack_records(bt, dims, seeds) -> list:
    """[case, seed, m, n, [[label, dtype, shape, sha256 of the bytes], ...]]
    of build_slack on every slack case's instance at each dims and seed."""
    records = []
    for case_id in bt.case_ids():
        if bt.suite.REGISTRY[case_id].check_kind not in SLACK_KINDS:
            continue
        for m, n in dims:
            for seed in seeds:
                slacks = bt.build_slack(case_id, bt.make_instance(case_id, m, n, seed))
                records.append([case_id, seed, m, n, [
                    [label, s.dtype.str, list(s.shape),
                     hashlib.sha256(np.ascontiguousarray(s).tobytes()).hexdigest()]
                    for label, s in slacks]])
    return records


def scaled(bt, instance, factor: float):
    """instance with every matrix multiplied by factor: a block matrix's
    dense matrix, both factors of a pair, or a plain matrix."""
    return bt.suite._each(instance, lambda x: factor * x)


def scaled_records(bt, dims, seeds, factors) -> list:
    """[case, seed, m, n, factor, premise misses, [[label, witness bits,
    holds], ...]] of check_case on the instance of every SCALED_CLASSES case
    at each dims and seed, multiplied by each factor."""
    records = []
    for case_id in bt.case_ids():
        if bt.suite.REGISTRY[case_id].input_class not in SCALED_CLASSES:
            continue
        for m, n in dims:
            for seed in seeds:
                instance = bt.make_instance(case_id, m, n, seed)
                for factor in factors:
                    r = bt.check_case(case_id, scaled(bt, instance, factor), seed=seed)
                    records.append([case_id, seed, r.m, r.n, factor, r.premise_misses,
                                    _parts(r)])
    return records


def scan_report(bt, dims, trials: int, seed: int) -> str:
    return bt.serialize.dump(bt.open_question_scan(dims, trials, seed))


def suite_report(bt, dims, trials: int, seed: int) -> str:
    """The JSON text of run_suite over every case."""
    return bt.serialize.dump(bt.run_suite(bt.RunConfig(tuple(bt.case_ids()), dims, trials, seed)))


SECTIONS = ("verify", "cases", "scan", "suite", "chunks", "extremes", "slacks", "scaled")


def _sha256(value) -> str:
    return hashlib.sha256(json.dumps(value).encode()).hexdigest()


def digest(*sections) -> str:
    """sha256 over the eight sections, given in SECTIONS order."""
    return _sha256(dict(zip(SECTIONS, sections, strict=True)))


def section_digests(*sections) -> dict:
    """{section: sha256 of that section's JSON text}, in SECTIONS order."""
    return {name: _sha256(value) for name, value in zip(SECTIONS, sections, strict=True)}


def stderr_lines(*sections) -> list:
    """The digest of each section, then the sha256 of the verify text."""
    lines = [f"{name:<8} {value}" for name, value in section_digests(*sections).items()]
    return lines + [f"criterion-2 {hashlib.sha256(sections[0].encode()).hexdigest()}"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", required=True,
                        help="directory that holds the blocktrace package, e.g. src")
    args = parser.parse_args(argv)
    bt = load(args.src)
    sections = (verify_report(bt, "2..4x2..4", 500, 42),
                case_records(bt, CASE_DIMS, CASE_SEEDS),
                scan_report(bt, SCAN_DIMS, 2000, 42),
                suite_report(bt, CASE_DIMS, 100, 42),
                suite_report(bt, SCAN_DIMS, 2000, 7),
                extreme_records(bt, extreme_matrices(EXTREME_DIMS)),
                slack_records(bt, SLACK_DIMS, SLACK_SEEDS),
                scaled_records(bt, SCALED_DIMS, SCALED_SEEDS, SCALE_FACTORS))
    print(*stderr_lines(*sections), sep="\n", file=sys.stderr)
    print(digest(*sections))
    return 0


if __name__ == "__main__":
    sys.exit(main())
