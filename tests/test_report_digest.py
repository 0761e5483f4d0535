import copy
import hashlib
import importlib.util
import json
import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import blocktrace as bt

_PATH = Path(__file__).resolve().parent.parent / "scripts" / "report_digest.py"
_SPEC = importlib.util.spec_from_file_location("report_digest", _PATH)
report_digest = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(report_digest)

DIMS = ((1, 1), (2, 3))
SEEDS = (0, 1)


def _inputs():
    return (report_digest.verify_report(bt, "2x2", 3, 1),
            report_digest.case_records(bt, DIMS, SEEDS),
            report_digest.scan_report(bt, ((2, 2), (3, 2)), 5, 1),
            report_digest.suite_report(bt, DIMS, 3, 1),
            report_digest.suite_report(bt, ((2, 2), (3, 2)), 5, 2),
            report_digest.extreme_records(bt, report_digest.extreme_matrices(((2, 2),))),
            report_digest.slack_records(bt, DIMS, SEEDS),
            report_digest.scaled_records(bt, DIMS, SEEDS, report_digest.SCALE_FACTORS))


SLACK_IDS = [c for c, case in bt.suite.REGISTRY.items()
             if case.check_kind in report_digest.SLACK_KINDS]
SCALED_IDS = [c for c, case in bt.suite.REGISTRY.items()
              if case.input_class in report_digest.SCALED_CLASSES]


def test_equal_reports_give_equal_digests():
    verify, records, scan, suite, chunks, extremes, slacks, scaled = _inputs()
    assert verify.startswith("{") and '"trials": 3' in verify
    assert len(records) == len(bt.case_ids()) * len(DIMS) * len(SEEDS)
    assert len(json.loads(suite)["cases"]) == len(bt.case_ids())
    assert json.loads(chunks)["config"]["trials"] == 5
    assert len(extremes) == len(report_digest.EXACT_CASES) * 8
    assert len(slacks) == len(SLACK_IDS) * len(DIMS) * len(SEEDS)
    assert len(scaled) == len(SCALED_IDS) * len(DIMS) * len(SEEDS) * 3
    assert report_digest.digest(verify, records, scan, suite, chunks, extremes, slacks,
                                scaled) == report_digest.digest(*_inputs())


def test_extreme_records_are_exact():
    """x = [[M, -M], [-2^63, 0]] with M = 2^63 - 1 has the classical gap
    total^2 + 4 sq - 2 row_sq - 2 col_sq = 9 * 2^126 - 6 * 2^64 + 4, far
    outside int64."""
    matrices = report_digest.extreme_matrices(((2, 2),))
    assert matrices[4] == [[2**63 - 1, -(2**63 - 1)], [-(2**63), 0]]
    case_id, _, parts = report_digest.extreme_records(bt, matrices)[4]
    assert case_id == "ck-classical"
    assert parts == [["main", struct.pack("<d", 9 * 2**126 - 6 * 2**64 + 4).hex(), True]]


def test_one_flipped_witness_bit_changes_the_digest():
    verify, records, scan, suite, chunks, extremes, slacks, scaled = _inputs()
    want = report_digest.digest(verify, records, scan, suite, chunks, extremes, slacks, scaled)
    case_id, seed, m, n, _, parts = records[7]
    _, bits, _ = parts[0]
    report = bt.check_case(case_id, bt.make_instance(case_id, m, n, seed), seed=seed)
    assert struct.unpack("<d", bytes.fromhex(bits))[0] == report.parts[0].witness
    flipped = copy.deepcopy(records)
    flipped[7][5][0][1] = f"{int(bits, 16) ^ 1:016x}"
    assert flipped != records
    assert report_digest.digest(verify, flipped, scan, suite, chunks, extremes, slacks,
                                scaled) != want
    worst_seed = json.loads(suite)["cases"]["ando"]["worst_seed"]
    other_seed = suite.replace(str(worst_seed), str(worst_seed ^ 1))
    assert other_seed != suite
    assert report_digest.digest(verify, records, scan, other_seed, chunks, extremes, slacks,
                                scaled) != want
    flipped = copy.deepcopy(extremes)
    flipped[0][2][0][1] = f"{int(flipped[0][2][0][1], 16) ^ 1:016x}"
    assert report_digest.digest(verify, records, scan, suite, chunks, flipped, slacks,
                                scaled) != want


def test_slack_records_hash_every_slack_bit():
    """A record holds the sha256 of its slack's bytes, so a slack that
    differs in one bit changes its record and the digest."""
    *rest, slacks, scaled = _inputs()
    want = report_digest.digest(*rest, slacks, scaled)
    case_id, seed, m, n, labeled = slacks[5]
    assert case_id in SLACK_IDS
    label, dtype, shape, bits = labeled[0]
    s = dict(bt.build_slack(case_id, bt.make_instance(case_id, m, n, seed)))[label]
    assert [dtype, shape, bits] == [s.dtype.str, list(s.shape),
                                    hashlib.sha256(s.tobytes()).hexdigest()]
    s.view(np.uint8)[0] ^= 1
    changed = copy.deepcopy(slacks)
    changed[5][4][0][3] = hashlib.sha256(s.tobytes()).hexdigest()
    assert changed != slacks
    assert report_digest.digest(*rest, changed, scaled) != want


def test_scaled_records_check_each_instance_times_each_factor():
    """Each scaled record is check_case on factor times the make_instance
    input, so a linear slack's witness scales with it (up to rounding) and
    a sub-unit instance is decided by the same verdict rule; one flipped
    holds bit moves only the scaled section."""
    inputs = _inputs()
    scaled = inputs[-1]
    assert {r[0] for r in scaled} == set(SCALED_IDS)
    assert "eq18-matrix" not in SCALED_IDS  # its zero class is one fixed instance per dims
    by_key = {(r[0], r[1], r[2], r[3], r[4]): r[6] for r in scaled}
    case_id, seed, m, n, _, _, parts = next(r for r in scaled if r[0] == "ando" and r[2] == 2)
    report = bt.check_case(case_id, bt.make_instance(case_id, m, n, seed), seed=seed)
    for factor in report_digest.SCALE_FACTORS:
        label, bits, holds = by_key[case_id, seed, m, n, factor][0]
        assert holds and label == report.parts[0].label
        assert struct.unpack("<d", bytes.fromhex(bits))[0] == pytest.approx(
            factor * report.parts[0].witness, rel=1e-9)
    sections = report_digest.section_digests(*inputs)
    flipped = copy.deepcopy(scaled)
    flipped[3][6][0][2] = not flipped[3][6][0][2]
    moved = report_digest.section_digests(*inputs[:-1], flipped)
    assert [name for name in sections if moved[name] != sections[name]] == ["scaled"]


def test_section_digests_name_the_section_that_moved():
    """One digest per section, in SECTIONS order; a flipped witness bit in
    the check_case records moves the cases digest and no other."""
    inputs = _inputs()
    sections = report_digest.section_digests(*inputs)
    assert tuple(sections) == report_digest.SECTIONS
    assert all(len(value) == 64 and int(value, 16) >= 0 for value in sections.values())
    assert len(set(sections.values())) == len(sections)
    assert sections == report_digest.section_digests(*_inputs())
    records = copy.deepcopy(inputs[1])
    bits = records[7][5][0][1]
    records[7][5][0][1] = f"{int(bits, 16) ^ 1:016x}"
    moved = report_digest.section_digests(inputs[0], records, *inputs[2:])
    assert [name for name in sections if moved[name] != sections[name]] == ["cases"]


def test_last_stderr_line_hashes_the_verify_text_as_the_cli_prints_it():
    """`criterion-2` is the sha256 of the bytes `blocktrace verify` writes
    to stdout, what `| sha256sum` reads, on a small config here."""
    inputs = _inputs()
    lines = report_digest.stderr_lines(*inputs)
    assert lines[:-1] == [f"{name:<8} {value}"
                          for name, value in report_digest.section_digests(*inputs).items()]
    cases = [c for c in bt.case_ids() if c not in report_digest.SWEEP_EXCLUDED]
    src = Path(bt.__file__).resolve().parent.parent
    stdout = subprocess.run(
        [sys.executable, "-m", "blocktrace.cli", "verify", "--format", "json", "--dims", "2x2",
         "--trials", "3", "--seed", "1", "--cases", *cases],
        env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True, timeout=120).stdout
    assert lines[-1] == f"criterion-2 {hashlib.sha256(stdout).hexdigest()}"
