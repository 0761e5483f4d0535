"""Compare two checkouts with perfbench/run.py and write a BENCH_*.json file.

For every workload in BENCHMARK.json, runs PAIRS alternating pairs of the
parent and the change (the order flips each pair, both sides of a pair use
the same seed, from FIRST_SEED on), one process at a time, each for the
benchmark's `run_seconds`. It records each run's environment line, report
hash and end-to-end metrics, plus each side's median and quartiles and the
number of pairs the change won. A pair whose sides report different hashes,
where either side is not `correct`, or where either checkout is not a git
repository (its environment line has no git sha), stops the script with
exit code 1 before it reaches the summary.

Each metric of each workload also gets a verdict, printed on stderr when
the workload ends (see `verdict`): gain, worse, unresolved or flat.

    git clone -q . ../parent && git -C ../parent checkout -q <parent sha>
    git clone -q . ../change && git -C ../change checkout -q <change sha>
    python3 scripts/bench_pairs.py --parent ../parent --change ../change \\
        --out BENCH_<n>.json
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PAIRS = 10
FIRST_SEED = 20


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True, check=True)
    lines = out.stdout.splitlines()
    env = next(json.loads(line[4:]) for line in lines if line.startswith("env "))
    sha = next(line.split()[1] for line in lines if line.startswith("report_sha256 "))
    result = json.loads(lines[-1])
    return {
        "seed": seed,
        "env": env,
        "report_sha256": sha,
        "correct": result["correct"],
        "metrics": {name: m["value"] for name, m in result["metrics"].items()},
    }


def pair_problem(pair: dict) -> str | None:
    """Why a pair cannot count toward the summary, or None if it can.

    Both sides must be git checkouts: peak_rss_mb reads about 0.3 MB more
    on a copy of the same tree without .git, a shift no code causes."""
    for side in ("parent", "change"):
        if pair[side]["env"]["git_sha"] is None:
            return f"{side} is not a git checkout (env git_sha is null)"
        if not pair[side]["correct"]:
            return f"{side} run is not correct"
    if pair["parent"]["report_sha256"] != pair["change"]["report_sha256"]:
        return (f"report_sha256 differs: parent {pair['parent']['report_sha256']}, "
                f"change {pair['change']['report_sha256']}")
    return None


def _quartiles(values: list) -> dict:
    q = statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3
    return {"median": statistics.median(values), "q1": q[0], "q3": q[2]}


def change_wins(parent: list, change: list, better: str) -> int:
    """The pairs whose change run is better than its parent run; ties
    count for neither side."""
    higher = better == "higher"
    return sum((c > p) if higher else (c < p) for p, c in zip(parent, change))


def verdict(parent: list, change: list, better: str, bound: float,
            wins: int | None = None) -> str:
    """The verdict on one metric from the paired runs of each side, given
    the change's wins if they are counted already.

    - gain: the change wins at least 9 in 10 pairs (ties count for
      neither), and its median is better than the parent's by more than
      the parent's q3 - q1;
    - worse: the change's median is worse than the parent's by more than
      `bound`, a fraction of the parent's median;
    - unresolved: the parent's q3 - q1 is wider than `bound` of its
      median, and not every change run is better than every parent run;
    - flat: any other result.
    """
    sign = 1 if better == "higher" else -1
    if wins is None:
        wins = change_wins(parent, change, better)
    p, c = _quartiles(parent), _quartiles(change)
    spread = p["q3"] - p["q1"]
    gap = sign * (c["median"] - p["median"])  # > 0: the change is better
    if 10 * wins >= 9 * len(parent) and gap > spread:
        return "gain"
    if -gap > bound * abs(p["median"]):
        return "worse"
    every_run_better = min(sign * x for x in change) > max(sign * x for x in parent)
    if spread > bound * abs(p["median"]) and not every_run_better:
        return "unresolved"
    return "flat"


def summarize(pairs: list, spec: list) -> dict:
    out = {}
    for metric in spec:
        name = metric["name"]
        sides = {side: [p[side]["metrics"][name] for p in pairs] for side in ("parent", "change")}
        wins = change_wins(sides["parent"], sides["change"], metric["better"])
        entry = {"unit": metric["unit"], "better": metric["better"], "change_wins": wins}
        for side, values in sides.items():
            entry[side] = _quartiles(values)
        entry["ratio"] = entry["change"]["median"] / entry["parent"]["median"]
        entry["verdict"] = verdict(sides["parent"], sides["change"], metric["better"],
                                   metric["bound"], wins)
        out[name] = entry
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    report = {"pairs": PAIRS, "seconds": seconds, "workloads": {}}
    for workload in (w["name"] for w in spec["workloads"]):
        pairs = []
        for p in range(PAIRS):
            seed = FIRST_SEED + p
            order = ("parent", "change") if p % 2 == 0 else ("change", "parent")
            pair = {side: run_once(getattr(args, side), workload, seed, seconds)
                    for side in order}
            print(workload, seed, {side: pair[side]["metrics"]["trials_per_s"] for side in order},
                  file=sys.stderr, flush=True)
            problem = pair_problem(pair)
            if problem:
                print(f"{workload} seed {seed}: {problem}", file=sys.stderr)
                return 1
            pairs.append(pair)
        summary = summarize(pairs, spec["end_to_end"])
        report["workloads"][workload] = {"summary": summary, "runs": pairs}
        for name, entry in summary.items():
            print(f"{workload} {name}: {entry['verdict']} (parent {entry['parent']['median']:.6g}, "
                  f"change {entry['change']['median']:.6g}, {entry['change_wins']}/{len(pairs)} "
                  "pairs won)", file=sys.stderr, flush=True)
        args.out.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
