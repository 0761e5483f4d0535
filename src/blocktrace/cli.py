"""Command-line front end.

Subcommands:
    verify  run the case registry over random trials
    case    run one case on a JSON-serialized input
    gen     emit a seeded instance as JSON
    scan    residual statistics for the open positivity question

Exit codes: 0 success, 1 a checked statement failed, 2 usage or input error.
A reader that closes stdout early (`blocktrace verify | head -1`) ends the
output quietly; the exit code is still the one the run earned.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import serialize
from .generate import KINDS, GenSpec, gen
from .orders import PSD_TOL
from .suite import (
    INPUT_CLASSES,
    REGISTRY,
    RunConfig,
    case_ids,
    check_case,
    run_suite,
    open_question_scan,
    total_failures,
)

USAGE_ERROR = 2


def _parse_range(token: str) -> range:
    if ".." in token:
        lo, hi = token.split("..", 1)
        return range(int(lo), int(hi) + 1)
    v = int(token)
    return range(v, v + 1)


def parse_dims(text: str) -> tuple:
    """Dimension list grammar: comma-separated MxN items where M and N are
    integers or LO..HI ranges; a range expands to its cartesian product.

    Examples: "2x3", "2x2,3x3", "2..4x2..4"."""
    out = []
    for item in text.split(","):
        item = item.strip()
        if not item:
            continue
        try:
            m_part, n_part = item.split("x", 1)
            ms, ns = _parse_range(m_part), _parse_range(n_part)
        except ValueError as exc:
            raise ValueError(f"bad dimension item {item!r}") from exc
        if not ms or not ns or ms[0] < 1 or ns[0] < 1:  # an empty range too
            raise ValueError(f"bad dimension item {item!r}")
        out.extend((m, n) for m in ms for n in ns)
    if not out:
        raise ValueError("empty dimension list")
    return tuple(out)


def _text_report(report: dict) -> str:
    lines = []
    for cid, entry in report["cases"].items():
        w = entry["worst_witness"]
        lines.append("{} {} {} {} {}".format(
            cid,
            entry["trials"],
            entry["failures"],
            "n/a" if w is None else f"{w:.12g}",
            "n/a" if entry["worst_seed"] is None else entry["worst_seed"],
        ))
    return "\n".join(lines)


def _error(message) -> int:
    """Print the one `error:` line of a usage or input error; returns
    USAGE_ERROR."""
    print(f"error: {message}", file=sys.stderr)
    return USAGE_ERROR


def _emit(text: str, out_path, code: int = 0) -> int:
    """Write text to out_path, or to stdout without one; returns code, or
    USAGE_ERROR when out_path cannot be written."""
    if out_path:
        try:
            with open(out_path, "w") as fh:
                fh.write(text + "\n")
        except OSError as exc:
            return _error(f"cannot write {out_path}: {exc.strerror}")
        return code
    try:
        print(text, flush=True)
    except BrokenPipeError:
        # The reader is gone: send the flush at interpreter exit to devnull.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return code


def _cmd_verify(args) -> int:
    try:
        dims = parse_dims(args.dims)
        cases = tuple(args.cases or case_ids())
        if cases == ("all",):
            cases = tuple(case_ids())
        config = RunConfig(cases, dims, args.trials, args.seed, args.tol)
    except (ValueError, KeyError) as exc:
        # args[0], not str(exc): str of a KeyError quotes its message.
        return _error(exc.args[0])
    try:
        report = run_suite(config)
    except MemoryError:
        return _error(f"dims {args.dims} are too large: the run does not fit in memory")
    text = serialize.dump(report) if args.format == "json" else _text_report(report)
    return _emit(text, args.out, 1 if total_failures(report) else 0)


def _cmd_case(args) -> int:
    if args.id not in REGISTRY:
        return _error(f"unknown case id {args.id!r}")
    load = INPUT_CLASSES[REGISTRY[args.id].input_class].load
    try:
        instance = load(serialize.load(args.input))
    except (OSError, ValueError, KeyError, TypeError, OverflowError) as exc:
        return _error(f"cannot read input: {exc}")
    try:
        report = check_case(args.id, instance, args.tol)
    except ValueError as exc:
        return _error(exc)
    obj = {
        "case": args.id,
        "holds": report.holds,
        "witness": report.witness if report.parts else None,
        "parts": [
            {"label": p.label, "witness": p.witness, "holds": p.holds}
            for p in report.parts
        ],
        "premise_misses": report.premise_misses,
    }
    return _emit(serialize.dump(obj), args.out, 0 if report.holds else 1)


def _cmd_gen(args) -> int:
    try:
        spec = GenSpec(args.kind, m=args.m, n=args.n, seed=args.seed)
    except ValueError as exc:
        return _error(exc)
    try:
        instance = gen(spec)
    except (MemoryError, ValueError):  # numpy refuses or cannot allocate its arrays
        return _error(f"--m {args.m} --n {args.n} are too large: "
                      "the instance does not fit in memory")
    return _emit(serialize.dump(serialize.instance_to_obj(instance)), args.out)


def _cmd_scan(args) -> int:
    try:
        report = open_question_scan(parse_dims(args.dims), args.trials, args.seed, args.tol)
    except ValueError as exc:
        return _error(exc)
    except MemoryError:
        return _error(f"dims {args.dims} are too large: the run does not fit in memory")
    return _emit(serialize.dump(report), args.out, 1 if report["sanity_violations"] else 0)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="blocktrace",
        description="verify partial-trace inequalities for block matrices",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="run the case registry over random trials")
    p.add_argument("--cases", nargs="*", metavar="ID",
                   help='case ids to run, or the literal "all" (default: all)')
    p.add_argument("--dims", default="2..4x2..4",
                   help="dimension list, e.g. 2x3,3x3 or 2..4x2..4")
    p.add_argument("--trials", type=int, default=100, help="trials per case")
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--tol", type=float, default=PSD_TOL)
    p.add_argument("--format", choices=("json", "text"), default="text")
    p.add_argument("--out", help="write the report to a file")
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("case", help="run one case on a JSON input")
    p.add_argument("--id", required=True, help="case id")
    p.add_argument("--input", required=True, help="path to the JSON instance")
    p.add_argument("--tol", type=float, default=PSD_TOL)
    p.add_argument("--out", help="write the report to a file")
    p.set_defaults(fn=_cmd_case)

    p = sub.add_parser("gen", help="emit a seeded instance as JSON")
    p.add_argument("--kind", required=True, choices=KINDS)
    p.add_argument("--m", type=int, default=2)
    p.add_argument("--n", type=int, default=2)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="write the instance to a file")
    p.set_defaults(fn=_cmd_gen)

    p = sub.add_parser("scan", help="residual statistics for the open question")
    p.add_argument("--dims", default="2..4x2..4")
    p.add_argument("--trials", type=int, default=200)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--tol", type=float, default=PSD_TOL)
    p.add_argument("--out", help="write the statistics to a file")
    p.set_defaults(fn=_cmd_scan)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return USAGE_ERROR if exc.code not in (0, None) else 0
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
