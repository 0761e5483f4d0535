import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import blocktrace
from blocktrace import serialize
from blocktrace.blocks import BlockMatrix
from blocktrace.cli import main, parse_dims
from blocktrace.generate import KINDS, GenSpec, gen
from blocktrace.suite import _CK_LIH, case_ids, check_case, make_instance
from test_suite import I64_MAX, I64_MIN, ck_oracle


def test_parse_dims_grammar():
    assert parse_dims("2x3") == ((2, 3),)
    assert parse_dims("2x2,3x4") == ((2, 2), (3, 4))
    assert parse_dims("2..3x2..3") == ((2, 2), (2, 3), (3, 2), (3, 3))
    assert parse_dims("2..3x4") == ((2, 4), (3, 4))
    for bad in ("", "2", "0x2", "ax2", "4..2x3", "2x2,4..2x3", "2x3..1"):
        with pytest.raises(ValueError):
            parse_dims(bad)
    # An empty LO..HI range is a bad item, not one that expands to nothing.
    with pytest.raises(ValueError, match=r"^bad dimension item '4\.\.2x3'$"):
        parse_dims("2x2,4..2x3")


@pytest.mark.parametrize("command", ["verify --cases ando", "scan --trials 3"])
def test_empty_dims_range_exits_2(capsys, command):
    assert main(command.split() + ["--dims", "2x2,4..2x3"]) == 2
    captured = capsys.readouterr()
    assert "bad dimension item '4..2x3'" in captured.err and captured.out == ""


def test_verify_unknown_case_prints_the_bare_message(capsys):
    assert main(["verify", "--cases", "ando", "nope", "--dims", "2x2", "--trials", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: unknown case ids: nope\n" and captured.out == ""


def test_verify_text_report(capsys):
    code = main(["verify", "--cases", "ando", "choi-tr1", "--dims", "2x2",
                 "--trials", "3", "--seed", "1"])
    out = capsys.readouterr().out.strip().splitlines()
    assert code == 0
    assert len(out) == 2
    # line format: id trials failures worst_witness worst_seed
    case_id, trials, failures, witness, seed = out[0].split()
    assert case_id == "ando"
    assert (trials, failures) == ("3", "0")
    float(witness), int(seed)


def test_verify_json_deterministic(tmp_path):
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    args = ["verify", "--cases", "ando", "--dims", "2x2", "--trials", "2",
            "--seed", "7", "--format", "json"]
    assert main(args + ["--out", str(p1)]) == 0
    assert main(args + ["--out", str(p2)]) == 0
    assert p1.read_bytes() == p2.read_bytes()
    report = json.loads(p1.read_text())
    assert report["cases"]["ando"]["failures"] == 0


def test_verify_usage_errors(capsys):
    assert main(["verify", "--cases", "not-a-case"]) == 2
    assert main(["verify", "--dims", "junk"]) == 2
    assert main(["verify", "--trials", "x"]) == 2
    capsys.readouterr()


def test_gen_then_case_round_trip(tmp_path, capsys):
    inst = tmp_path / "inst.json"
    assert main(["gen", "--kind", "psd", "--m", "2", "--n", "3",
                 "--seed", "11", "--out", str(inst)]) == 0
    assert main(["case", "--id", "ando", "--input", str(inst)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["holds"] is True
    assert report["case"] == "ando"


def test_case_precondition_rejected(tmp_path, capsys):
    inst = tmp_path / "herm.json"
    assert main(["gen", "--kind", "hermitian", "--m", "2", "--n", "2",
                 "--seed", "3", "--out", str(inst)]) == 0
    # a generic Hermitian matrix is almost surely not PSD
    assert main(["case", "--id", "ando", "--input", str(inst)]) == 2
    assert "not positive semidefinite" in capsys.readouterr().err


def test_case_detects_failure(tmp_path, capsys):
    """Exit code 1 from the expected-failure case: on the canonical
    matrix-unit instance at n = 1, diag(1, 0), psi is zero on the 1x1 blocks
    and no violation exists; at n = 3 the violation is detected."""
    for n, code in ((1, 1), (3, 0)):
        inst = tmp_path / f"e{n}.json"
        e = gen(GenSpec("matrix-unit-E", n=n))
        inst.write_text(serialize.dump(serialize.block_to_obj(e)) + "\n")
        assert main(["case", "--id", "psi-not-2-positive", "--input", str(inst)]) == code
        report = json.loads(capsys.readouterr().out)
        assert report["holds"] is (code == 0)
        assert report["witness"] == (0.0 if n == 1 else pytest.approx(-1.0))


def test_case_refuses_non_canonical_fixed_inputs(tmp_path, capsys):
    """matrix-unit-E and zero cases take only their one instance per dims."""
    ones = gen(GenSpec("ones-kron", m=2, n=3))
    refused = {
        "psi-not-2-positive": [ones, BlockMatrix(3, 1, np.diag([1.0, 0.0, 0.0]) + 0j),
                               BlockMatrix(2, 1, np.diag([0.0, 1.0]) + 0j)],
        "eq18-matrix": [ones, BlockMatrix(2, 2, 1e-300 * np.eye(4) + 0j)],
    }
    for case_id, instances in refused.items():
        for a in instances:
            inst = tmp_path / "inst.json"
            inst.write_text(serialize.dump(serialize.block_to_obj(a)) + "\n")
            assert main(["case", "--id", case_id, "--input", str(inst)]) == 2
            captured = capsys.readouterr()
            assert captured.err.startswith("error:") and "instance" in captured.err
            assert captured.out == ""
    inst = tmp_path / "zero.json"
    zero = make_instance("eq18-matrix", 3, 2, 0)
    inst.write_text(serialize.dump(serialize.block_to_obj(zero)) + "\n")
    assert main(["case", "--id", "eq18-matrix", "--input", str(inst)]) == 0
    assert json.loads(capsys.readouterr().out)["holds"] is True


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")  # squaring 1e200
def test_case_refuses_huge_non_psd_and_non_hermitian_inputs(tmp_path, capsys):
    """Entries of 1e200 overflow the squared Frobenius norm; the input
    checks still refuse a non-PSD and a non-Hermitian matrix with exit 2."""
    inst = tmp_path / "huge.json"
    for x, message in ((np.diag([-1e200, 1.0]), "not positive semidefinite"),
                       (np.array([[1e200, 1e200], [0.0, 1.0]]), "not Hermitian")):
        inst.write_text(serialize.dump(serialize.block_to_obj(BlockMatrix(1, 2, x + 0j))) + "\n")
        assert main(["case", "--id", "ando", "--input", str(inst)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error:") and message in captured.err
        assert captured.out == ""


def test_case_ck_exact_on_int64_extremes(tmp_path, capsys):
    """case --input with extreme int64 entries gives the Python-int
    oracle's parts, not a wrapped or approximate result."""
    x = np.array([[I64_MAX, I64_MIN], [I64_MIN, 0]], dtype=np.int64)
    inst = tmp_path / "ints.json"
    inst.write_text(serialize.dump(serialize.int_matrix_to_obj(x)) + "\n")
    code = main(["case", "--id", "ck-lih", "--input", str(inst)])
    captured = capsys.readouterr()
    want = [{"label": label, "witness": w[0], "holds": h[0]}
            for label, w, h in ck_oracle(_CK_LIH, x[None])]
    assert json.loads(captured.out)["parts"] == want
    assert code == (0 if all(p["holds"] for p in want) else 1)
    assert captured.err == ""


def test_case_malformed_input(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"m": 2, "n": 2}')
    assert main(["case", "--id", "ando", "--input", str(bad)]) == 2
    assert main(["case", "--id", "nope", "--input", str(bad)]) == 2
    assert main(["case", "--id", "ando", "--input", str(tmp_path / "missing.json")]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("kind", KINDS)
def test_gen_writes_instance_to_obj_and_reads_back_bit_for_bit(tmp_path, kind):
    """gen --out writes the format instance_to_obj picks for the library's
    instance, and the reader of that format gives the instance back."""
    out = tmp_path / "g.json"
    assert main(["gen", "--kind", kind, "--m", "2", "--n", "3", "--seed", "7",
                 "--out", str(out)]) == 0
    instance = gen(GenSpec(kind, m=2, n=3, seed=7))
    assert out.read_text() == serialize.dump(serialize.instance_to_obj(instance)) + "\n"
    obj = json.loads(out.read_text())
    if isinstance(instance, BlockMatrix):
        back = serialize.block_from_obj(obj)
        assert (back.m, back.n) == (instance.m, instance.n)
        got, want = [back.dense], [instance.dense]
    elif isinstance(instance, tuple):
        got, want = serialize.pair_from_obj(obj), instance
    else:
        got, want = [serialize.int_matrix_from_obj(obj)], [instance]
    for x, y in zip(got, want, strict=True):
        assert x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()


def test_verify_cases_all_literal(tmp_path):
    out = tmp_path / "all.json"
    assert main(["verify", "--cases", "all", "--dims", "2x2", "--trials", "1",
                 "--seed", "42", "--format", "json", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert len(report["cases"]) == 44


def test_expected_failure_case_counts_as_pass():
    assert main(["verify", "--cases", "psi-not-2-positive", "--dims", "2x2",
                 "--trials", "1"]) == 0


def test_gen_matches_golden_fixture(tmp_path):
    """The deterministic fixture is frozen byte-for-byte; any drift in the
    construction or the JSON encoding shows up here."""
    import pathlib

    golden = pathlib.Path(__file__).parent / "data" / "matrix_unit_e_n2.json"
    out = tmp_path / "e.json"
    assert main(["gen", "--kind", "matrix-unit-E", "--n", "2",
                 "--out", str(out)]) == 0
    assert out.read_bytes() == golden.read_bytes()


def test_scan(tmp_path):
    out = tmp_path / "scan.json"
    assert main(["scan", "--dims", "2x2", "--trials", "5", "--seed", "1",
                 "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["sanity_violations"] == 0
    assert report["trials"] == 5


def test_thread_env_does_not_change_report(tmp_path, monkeypatch):
    args = ["verify", "--cases", "ando", "choi-tr1", "--dims", "2x2",
            "--trials", "3", "--seed", "1", "--format", "json"]
    p1, p2 = tmp_path / "t1.json", tmp_path / "t2.json"
    monkeypatch.setenv("BLOCKTRACE_THREADS", "1")
    assert main(args + ["--out", str(p1)]) == 0
    monkeypatch.setenv("BLOCKTRACE_THREADS", "4")
    assert main(args + ["--out", str(p2)]) == 0
    assert p1.read_bytes() == p2.read_bytes()


@pytest.mark.parametrize("case_id", case_ids())
def test_case_round_trip_every_case(tmp_path, capsys, case_id):
    """`case` on a dumped make_instance reports what check_case reports.
    Seeds 0 and 5 draw the rank-deficient psd instances."""
    path = tmp_path / "inst.json"
    for seed in (0, 1, 5):
        instance = make_instance(case_id, 2, 3, seed)
        path.write_text(serialize.dump(serialize.instance_to_obj(instance)) + "\n")
        assert main(["case", "--id", case_id, "--input", str(path)]) == 0
        got = json.loads(capsys.readouterr().out)["parts"]
        want = check_case(case_id, instance).parts
        assert got == [{"label": p.label, "witness": p.witness, "holds": p.holds}
                       for p in want]


def _block_obj(dense) -> dict:
    return {"m": 2, "n": len(dense) // 2, "matrix": serialize.matrix_to_obj(dense)}


def _nan_block() -> dict:
    x = np.eye(4)
    x[0, 0] = np.nan
    return _block_obj(x)


def _non_hermitian_block() -> dict:
    x = 2 * np.eye(4)
    x[0, 1] = 0.5
    return _block_obj(x)


_RECT = {"rows": 2, "cols": 3, "entries": [[[1.0, 0.0]] * 3] * 2}
_SQUARE = {"rows": 2, "cols": 2, "entries": [[[1.0, 0.0]] * 2] * 2}
BAD_INPUTS = {
    "nan-ando": ("ando", _nan_block()),
    "nan-schur": ("schur-majorization", _nan_block()),
    "nan-psi": ("psi-not-2-positive", _nan_block()),
    "nan-eq18": ("eq18-matrix", _nan_block()),
    "non-hermitian-ando": ("ando", _non_hermitian_block()),
    "fractional-block-count": ("ando", {**_block_obj(np.eye(4)), "m": 1.9, "n": 4}),
    "fractional-int": ("ck-classical", {"rows": 1, "cols": 2, "entries": [[1.7, 2]]}),
    "bool-int": ("ck-lih", {"rows": 1, "cols": 2, "entries": [[True, 2]]}),
    "huge-int": ("ck-improved", {"rows": 1, "cols": 2, "entries": [[10**30, 2]]}),
    "empty-int": ("ck-classical", {"rows": 0, "cols": 0, "entries": []}),
    "pair-shape-mismatch": ("lem39-singular", {"pair": [_SQUARE, _RECT]}),
    "non-square-x": ("abs-block-corollary", _RECT),
    "three-block-psd-2x2": ("lin-2x2-ppt",
                            {"m": 3, "n": 1, "matrix": serialize.matrix_to_obj(np.eye(3))}),
    "huge-complex-entry": ("abs-block-corollary",
                           {"rows": 1, "cols": 1, "entries": [[[10**400, 0]]]}),
    "missing-matrix": ("ando", {"m": 2, "n": 2}),
    "top-level-list": ("ck-classical", [[1, 2], [3, 4]]),
    "scalar-entries": ("ando", {"m": 1, "n": 1,
                                "matrix": {"rows": 1, "cols": 1, "entries": 5}}),
    "scalar-entries-row": ("ando", {"m": 1, "n": 1,
                                    "matrix": {"rows": 1, "cols": 1, "entries": [5]}}),
    "scalar-int-row": ("ck-lih", {"rows": 1, "cols": 2, "entries": [3]}),
    "scalar-pair": ("lem39-singular", {"pair": 5}),
    "three-item-pair": ("lem39-singular", {"pair": [_SQUARE, _SQUARE, _SQUARE]}),
}
# The whole error line of the inputs whose problem it must name.
BAD_INPUT_ERRORS = {
    "missing-matrix": "error: cannot read input: missing field 'matrix'\n",
    "top-level-list": "error: cannot read input: input is not a JSON object\n",
    "scalar-entries": "error: cannot read input: entries is not a list, got int\n",
    "scalar-entries-row": "error: cannot read input: entries row 0 is not a list, got int\n",
    "scalar-int-row": "error: cannot read input: entries row 0 is not a list, got int\n",
    "scalar-pair": "error: cannot read input: pair must be a list of two matrices, got int\n",
    "three-item-pair":
        "error: cannot read input: pair must be a list of two matrices, got 3 items\n",
}


@pytest.mark.parametrize("name", BAD_INPUTS)
def test_case_rejects_bad_input(tmp_path, capsys, name):
    case_id, obj = BAD_INPUTS[name]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(obj))
    assert main(["case", "--id", case_id, "--input", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    if name in BAD_INPUT_ERRORS:
        assert err == BAD_INPUT_ERRORS[name]


_BOOL_1X1 = {"rows": 1, "cols": 1, "entries": [[[True, False]]]}
BOOL_ENTRIES = {
    "block": ("choi-tr1", {"m": 1, "n": 1, "matrix": _BOOL_1X1}),
    "pair": ("lem39-singular", {"pair": [{"rows": 1, "cols": 1, "entries": [[[1.0, 0.0]]]},
                                         _BOOL_1X1]}),
    "square": ("abs-block-corollary", _BOOL_1X1),
}


@pytest.mark.parametrize("case_id, obj", BOOL_ENTRIES.values(), ids=BOOL_ENTRIES)
def test_case_refuses_json_booleans_as_entries(tmp_path, capsys, case_id, obj):
    """A JSON true is not the number 1: the entry is named and `case` exits 2."""
    path = tmp_path / "bool.json"
    path.write_text(json.dumps(obj))
    assert main(["case", "--id", case_id, "--input", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: cannot read input: matrix entry (0, 0) [True, False]")
    assert captured.out == ""


BAD_TOLS = ("nan", "-1", "inf")


@pytest.mark.parametrize("tol", BAD_TOLS)
def test_verify_rejects_bad_tol(capsys, tol):
    assert main(["verify", "--cases", "ando", "--dims", "2x2", "--trials", "3",
                 f"--tol={tol}"]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and captured.out == ""


@pytest.mark.parametrize("tol", BAD_TOLS)
def test_case_rejects_bad_tol(tmp_path, capsys, tol):
    inst = tmp_path / "inst.json"
    assert main(["gen", "--kind", "psd", "--m", "2", "--n", "3", "--out", str(inst)]) == 0
    assert main(["case", "--id", "ando", "--input", str(inst), f"--tol={tol}"]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and captured.out == ""


@pytest.mark.parametrize("tol", BAD_TOLS)
def test_scan_rejects_bad_tol(capsys, tol):
    assert main(["scan", "--dims", "2x2", "--trials", "3", f"--tol={tol}"]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and captured.out == ""


def test_scan_rejects_negative_trials(capsys):
    assert main(["scan", "--dims", "2x2", "--trials", "-5"]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and captured.out == ""


def test_scan_rejects_empty_dims(capsys):
    assert main(["scan", "--dims", ""]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and captured.out == ""


def test_verify_runs_a_repeated_case_once(capsys):
    args = ["verify", "--dims", "2x2", "--trials", "3", "--format", "json", "--cases"]
    assert main(args + ["ando", "ando", "choi-tr1"]) == 0
    repeated = capsys.readouterr().out
    assert main(args + ["ando", "choi-tr1"]) == 0
    assert repeated == capsys.readouterr().out
    report = json.loads(repeated)
    assert report["config"]["cases"] == list(report["cases"]) == ["ando", "choi-tr1"]
    assert report["cases"]["ando"]["trials"] == 3


def test_zero_tol_is_accepted(capsys):
    assert main(["verify", "--cases", "ck-lih", "--dims", "2x2", "--trials", "3",
                 "--tol", "0"]) == 0
    capsys.readouterr()


@pytest.mark.parametrize("dims, code", [("2x2", 0), ("2x1", 1)])
def test_closed_stdout_ends_quietly_with_earned_code(dims, code):
    """`verify | head -0`: the reader is gone before the report is written.
    psi-not-2-positive fails at n = 1, so 2x1 earns exit code 1."""
    src = Path(blocktrace.__file__).resolve().parent.parent
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        out = subprocess.run(
            [sys.executable, "-m", "blocktrace.cli", "verify", "--cases",
             "psi-not-2-positive", "--dims", dims, "--trials", "3"],
            stdout=write_end, stderr=subprocess.PIPE, text=True, timeout=120,
            env=dict(os.environ, PYTHONPATH=str(src)))
    finally:
        os.close(write_end)
    assert out.returncode == code
    assert out.stderr == ""


@pytest.mark.parametrize("argv", [
    ["verify", "--cases", "ando", "--dims", "2x2", "--trials", "1", "--seed", "-1"],
    ["verify", "--cases", "ando", "--dims", "2x2", "--trials", "1", "--seed", str(2**64)],
    ["scan", "--dims", "2x2", "--trials", "1", "--seed", "-1"],
    ["scan", "--dims", "2x2", "--trials", "1", "--seed", str(2**64)],
    ["gen", "--kind", "psd", "--seed", "-1"],
    ["gen", "--kind", "psd", "--seed", str(2**64)],
], ids=lambda argv: f"{argv[0]}{argv[-1]}")
def test_out_of_range_seed_is_refused(capsys, argv):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: seed must be an integer in [0, 2^64)")
    assert captured.err.count("\n") == 1 and captured.out == ""


@pytest.mark.parametrize("command", ["verify", "case", "gen", "scan"])
def test_unwritable_out_is_refused(tmp_path, capsys, command):
    inst = tmp_path / "inst.json"
    assert main(["gen", "--kind", "psd", "--m", "2", "--n", "2", "--out", str(inst)]) == 0
    argv = {
        "verify": ["verify", "--cases", "ando", "--dims", "2x2", "--trials", "1"],
        "case": ["case", "--id", "ando", "--input", str(inst)],
        "gen": ["gen", "--kind", "psd"],
        "scan": ["scan", "--dims", "2x2", "--trials", "1"],
    }[command]
    out = tmp_path / "missing" / "report.json"
    assert main(argv + ["--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: cannot write {out}:")
    assert captured.err.count("\n") == 1 and captured.out == ""
    assert not out.parent.exists()


@pytest.mark.parametrize("command", [["verify", "--cases", "eq18-matrix"], ["scan"]])
@pytest.mark.parametrize("dims", ["99999x99999", "2x2,99999x99999"])
def test_dims_too_large_for_numpy_exit_2(capsys, command, dims):
    """One 99999x99999 instance would take 1.6e21 bytes, more than numpy's
    intp counts, so numpy refuses the array before allocating anything.
    RunConfig refuses the dims first, before any trial runs."""
    assert main(command + ["--dims", dims, "--trials", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: dims 99999x99999 are too large")
    assert captured.out == ""


_ADDRESS_SPACE = 2 << 30  # bytes the child below may map


@pytest.mark.parametrize("argv, sizes", [
    (["verify", "--dims", "300x300", "--trials", "1", "--cases", "ando"], "dims 300x300"),
    (["scan", "--dims", "300x300", "--trials", "1"], "dims 300x300"),
    (["gen", "--kind", "real-int", "--m", "99999", "--n", "99999"], "--m 99999 --n 99999"),
    (["gen", "--kind", "psd", "--m", "99999", "--n", "99999"], "--m 99999 --n 99999"),
], ids=["verify", "scan", "gen-real-int", "gen-psd"])
def test_sizes_beyond_memory_exit_2(argv, sizes):
    """A 300x300 instance takes 121 GiB, and a 99999x99999 integer draw
    75 GiB: numpy can count those bytes but not allocate them.  A psd
    instance at 99999x99999 is more bytes than numpy counts.  Each prints
    one error: line naming the sizes, and exits 2.  The child lowers its
    own address-space limit before it imports numpy, so that these sizes
    fail to allocate instead of reaching the machine's memory."""
    code = ("import resource, sys; "
            "resource.setrlimit(resource.RLIMIT_AS, "
            f"({_ADDRESS_SPACE}, resource.getrlimit(resource.RLIMIT_AS)[1])); "
            "from blocktrace.cli import main; sys.exit(main(sys.argv[1:]))")
    src = Path(blocktrace.__file__).resolve().parent.parent
    out = subprocess.run([sys.executable, "-c", code, *argv], capture_output=True, text=True,
                         timeout=120, env=dict(os.environ, PYTHONPATH=str(src)))
    assert out.returncode == 2
    assert out.stderr.startswith(f"error: {sizes} are too large")
    assert out.stderr.count("\n") == 1 and out.stdout == ""
