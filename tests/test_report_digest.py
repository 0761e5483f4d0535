import copy
import importlib.util
import json
import struct
from pathlib import Path

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
            report_digest.suite_report(bt, DIMS, 3, 1))


def test_equal_reports_give_equal_digests():
    verify, records, scan, suite = _inputs()
    assert verify.startswith("{") and '"trials": 3' in verify
    assert len(records) == len(bt.case_ids()) * len(DIMS) * len(SEEDS)
    assert len(json.loads(suite)["cases"]) == len(bt.case_ids())
    assert report_digest.digest(verify, records, scan, suite) == report_digest.digest(*_inputs())


def test_one_flipped_witness_bit_changes_the_digest():
    verify, records, scan, suite = _inputs()
    want = report_digest.digest(verify, records, scan, suite)
    case_id, seed, m, n, _, parts = records[7]
    _, bits, _ = parts[0]
    report = bt.check_case(case_id, bt.make_instance(case_id, m, n, seed), seed=seed)
    assert struct.unpack("<d", bytes.fromhex(bits))[0] == report.parts[0].witness
    flipped = copy.deepcopy(records)
    flipped[7][5][0][1] = f"{int(bits, 16) ^ 1:016x}"
    assert flipped != records
    assert report_digest.digest(verify, flipped, scan, suite) != want
    worst_seed = json.loads(suite)["cases"]["ando"]["worst_seed"]
    other_seed = suite.replace(str(worst_seed), str(worst_seed ^ 1))
    assert other_seed != suite
    assert report_digest.digest(verify, records, scan, other_seed) != want
