"""Benchmark for blocktrace: seeded registry sweeps, timed end to end.

    python3 perfbench/run.py --workload sweep-small --seed 1 --seconds 20 --trace 0

A run repeats one sweep shape in rounds until ``--seconds`` have passed.
Each round is one ``run_suite`` call on a fresh seed, plus ``serialize.dump``
of its report, so no round reuses another's instances. Between rounds, at
evenly spaced times, a fresh interpreter imports ``blocktrace.cli`` to time
set-up. A fixed calibration runs between every two samples and scales their
times to reference seconds (see ``calibrate.py``). Every figure is a median
over the rounds or the set-up probes.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` alternates traced
and untraced rounds and prints the per-layer metrics, taken from spans
around blocktrace's public functions (see ``spans.py``).

Every run checks its outputs: each case ran the requested number of trials,
no trial failed (``psi-not-2-positive`` fails when it does not detect its
violation), and an untimed serial, untraced rerun of the first round gives a
byte-identical report. The last line of stdout is one JSON object; the
lines before it give the same figures for a reader, with the environment.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter, process_time

from calibrate import REFERENCE_S, calibrate

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

NPROC = len(os.sched_getaffinity(0))

# Set-up probes per run, spread evenly over the measured time.
SETUP_PROBES = 9
MIN_ROUNDS = 3

# Seeds of round r are base * ROUND_STRIDE + r; the warm-up round uses the
# last slot, which no timed round reaches.
ROUND_STRIDE = 1_000_000
WARMUP_ROUND = ROUND_STRIDE - 1

# Each premise-checked case tests two dominations per trial (tr1 and tr2).
PREMISES_PER_TRIAL = 2

PROBE = (
    "import time\n"
    "t0 = time.perf_counter()\n"
    "import numpy\n"
    "t1 = time.perf_counter()\n"
    "import blocktrace.cli as cli\n"
    "t2 = time.perf_counter()\n"
    "print(t1 - t0, t2 - t1, len(cli.REGISTRY), cli.__file__)\n"
)


def _grid(ms, ns) -> tuple:
    return tuple((m, n) for m in ms for n in ns)


@dataclass(frozen=True)
class Workload:
    cases: tuple | None  # None: the whole registry
    dims: tuple
    trials: int  # per case per round
    threads: int


SMALL_DIMS = _grid(range(2, 5), range(2, 5))

# Round sizes give rounds of about half a second on a 2-core x86 box.
WORKLOADS = {
    # Tiny matrices: per-call Python overhead across every layer.
    "sweep-small": Workload(None, SMALL_DIMS, 27, 1),
    # mn 36-64: generation and eigvalsh dominate.
    "sweep-large": Workload(None, ((6, 6), (6, 8), (8, 6), (8, 8)), 12, 1),
    # Exact integer cases: no spectral kernel, rng does most of the work.
    "exact-int": Workload(("ck-classical", "ck-lih", "ck-improved"),
                          _grid(range(1, 7), range(1, 7)), 1440, 1),
    # sweep-small through run_suite's thread pool; same configs, same reports.
    "sweep-threads": Workload(None, SMALL_DIMS, 27, max(2, NPROC)),
}


class BenchError(Exception):
    """The benchmark cannot run here, or a check on the program's output failed."""


def _import_blocktrace():
    if not (SRC / "blocktrace" / "__init__.py").is_file():
        raise BenchError(f"no blocktrace sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import blocktrace
    import blocktrace.serialize

    if Path(blocktrace.__file__).resolve().parent != SRC / "blocktrace":
        raise BenchError(f"imported blocktrace from {blocktrace.__file__}, not {SRC}")
    return blocktrace


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    return env


def _git_sha():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30, env=env)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _src_sha256() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "blocktrace").rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def _blas_threads(np):
    """Thread count OpenBLAS will use, asked of the library numpy loaded."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib_path in sorted(libs.glob("*openblas*")):
        try:
            lib = ctypes.CDLL(str(lib_path))
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def environment(bt) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_sha": _git_sha(),
        "src_sha256": _src_sha256(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(np),
        "blas_env": {k: v for k, v in os.environ.items()
                     if k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "nproc": NPROC,
        "blocktrace": bt.__version__,
    }


@dataclass
class Round:
    wall_s: float
    cpu_s: float
    trials: int
    failed: int
    sha256: str
    premise_attempts: int
    premise_hits: int
    scale: float = 1.0  # reference seconds per measured second
    traced: bool = False
    delta: object = None  # spans.Snapshot of a traced round


@dataclass
class Probe:
    wall_s: float
    numpy_s: float
    cli_s: float
    scale: float = 1.0


def _config(bt, workload: Workload, seed: int, index: int):
    cases = workload.cases or tuple(bt.REGISTRY)
    return bt.RunConfig(cases, workload.dims, workload.trials, seed * ROUND_STRIDE + index)


def _check(bt, config, report) -> tuple:
    """(failed trials, premise attempts, premises met); raises on a malformed report."""
    if sorted(report["cases"]) != sorted(config.cases):
        raise BenchError(f"report covers {sorted(report['cases'])}, not the requested cases")
    failed = attempts = misses = 0
    for case_id, entry in report["cases"].items():
        if entry["trials"] != config.trials:
            raise BenchError(f"{case_id}: {entry['trials']} trials, expected {config.trials}")
        failed += entry["failures"]
        if bt.REGISTRY[case_id].check_kind == "conditional-majorization":
            attempts += PREMISES_PER_TRIAL * entry["trials"]
            misses += entry["premise_misses"]
    return failed, attempts, attempts - misses


def run_round(bt, config, threads: int) -> Round:
    """One sweep, timed from the run_suite call to the report text in hand."""
    trials = config.trials * len(config.cases)
    start, cpu_start = perf_counter(), process_time()
    try:
        report = bt.run_suite(config, threads=threads)
        text = bt.serialize.dump(report)
    except Exception:
        traceback.print_exc()
        wall, cpu = perf_counter() - start, process_time() - cpu_start
        return Round(wall, cpu, trials, trials, "", 0, 0)
    wall, cpu = perf_counter() - start, process_time() - cpu_start
    failed, attempts, hits = _check(bt, config, report)
    sha = hashlib.sha256(text.encode()).hexdigest()
    return Round(wall, cpu, trials, failed, sha, attempts, hits)


def setup_probe(env: dict) -> Probe:
    """Wall time of a fresh interpreter importing blocktrace.cli, and its split."""
    start = perf_counter()
    out = subprocess.run([sys.executable, "-c", PROBE], env=env, capture_output=True,
                         text=True, timeout=120)
    wall = perf_counter() - start
    if out.returncode != 0:
        raise BenchError(f"set-up probe failed:\n{out.stderr}")
    numpy_s, cli_s, cases, path = out.stdout.split()
    if Path(path).resolve().parent != SRC / "blocktrace" or int(cases) < 1:
        raise BenchError(f"set-up probe imported {path} with {cases} cases")
    return Probe(wall, float(numpy_s), float(cli_s))


def measure(bt, workload: Workload, seed: int, seconds: float, trace: bool):
    """Warm up, then interleave rounds and set-up probes for ``seconds``,
    with a calibration between every two samples."""
    env = _child_env()
    tracer = None
    if trace:
        from spans import Tracer

        tracer = Tracer()
    warmup = run_round(bt, _config(bt, workload, seed, WARMUP_ROUND), workload.threads)
    setup_probe(env)

    calibrate()  # loads the numpy code it uses
    rounds, probes = _sample(bt, workload, seed, seconds, env, tracer)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    # Serial and untraced: the same report as the first (possibly threaded or
    # traced) round, byte for byte.
    check = run_round(bt, _config(bt, workload, seed, 0), 1)
    return rounds, probes, peak_rss_mb, (warmup, check)


def _sample(bt, workload: Workload, seed: int, seconds: float, env: dict, tracer):
    rounds, probes = [], []
    probe_every = seconds / SETUP_PROBES
    start = perf_counter()
    cal_before = calibrate()
    while True:
        elapsed = perf_counter() - start
        if elapsed >= seconds and len(rounds) >= MIN_ROUNDS and len(probes) >= SETUP_PROBES:
            break
        if len(probes) < SETUP_PROBES and (len(probes) * probe_every <= elapsed
                                           or elapsed >= seconds):
            sample = setup_probe(env)
            probes.append(sample)
        else:
            config = _config(bt, workload, seed, len(rounds))
            if tracer is not None and len(rounds) % 2 == 0:
                with tracer:
                    before = tracer.snapshot()
                    sample = run_round(bt, config, workload.threads)
                    sample.delta = tracer.snapshot() - before
                sample.traced = True
            else:
                sample = run_round(bt, config, workload.threads)
            rounds.append(sample)
        cal_after = calibrate()
        sample.scale = 2 * REFERENCE_S / (cal_before + cal_after)
        cal_before = cal_after
    return rounds, probes


def _median(values):
    return statistics.median(list(values))


def _quartiles(values) -> tuple:
    values = list(values)
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def end_to_end_metrics(rounds, probes, peak_rss_mb) -> dict:
    """name -> (value, unit, samples in reference seconds, raw samples)."""
    tps = [r.trials / (r.wall_s * r.scale) for r in rounds]
    setup = [p.wall_s * p.scale for p in probes]
    cpu = [r.cpu_s * r.scale for r in rounds]
    return {
        "trials_per_s": (_median(tps), "trials/s", tps, [r.trials / r.wall_s for r in rounds]),
        "setup_s": (_median(setup), "s", setup, [p.wall_s for p in probes]),
        "cpu_s": (_median(cpu), "s", cpu, [r.cpu_s for r in rounds]),
        "peak_rss_mb": (peak_rss_mb, "MB", None, None),
    }


def per_layer_metrics(rounds, probes, threads: int) -> dict:
    from spans import SPAN_NAMES

    traced = [r for r in rounds if r.traced]
    untraced = [r for r in rounds if not r.traced]
    first = traced[0]
    out = {}
    # Counts come from the first traced round, so they depend only on the seed.
    for name in SPAN_NAMES:
        out[name + ".calls"] = (first.delta.calls[name], "count")
        out[name + ".self_s"] = (_median(r.delta.self_s[name] for r in traced), "s")
    for name, unit in (("rng.words", "count"), ("linalg.flops_computed", "flop"),
                       ("linalg.bytes_computed", "B"), ("serialize.dump.bytes", "B")):
        out[name] = (first.delta.counters[name], unit)
    out["suite.premise_hit_ratio"] = (
        first.premise_hits / first.premise_attempts if first.premise_attempts else 0.0, "ratio")

    totals = {}
    for r in traced:
        for key, value in r.delta.counters.items():
            totals[key] = totals.get(key, 0) + value
    per_trial = sorted(value / totals["case_trials:" + key.split(":", 1)[1]]
                       for key, value in totals.items() if key.startswith("case_s:"))
    out["suite.case_s.p50"] = (_median(per_trial), "s")
    out["suite.case_s.max"] = (per_trial[-1], "s")
    out["suite.pool.efficiency"] = (_median(
        r.delta.counters["suite.pool.busy_s"] / r.delta.counters["suite.pool.capacity_s"]
        for r in traced), "ratio")

    out["cli.import_numpy_s"] = (_median(p.numpy_s for p in probes), "s")
    out["cli.import_blocktrace_s"] = (_median(p.cli_s for p in probes), "s")

    traced_tps = _median(r.trials / r.wall_s for r in traced)
    untraced_tps = _median(r.trials / r.wall_s for r in untraced)
    self_total = sum(sum(r.delta.self_s.values()) for r in traced)
    out["bench.sweep_s"] = (_median(r.wall_s for r in traced), "s")
    # Self times are thread-seconds; the rounds had threads x wall of them.
    out["bench.accounted_frac"] = (
        self_total / (threads * sum(r.wall_s for r in traced)), "ratio")
    out["bench.trials_per_s.traced"] = (traced_tps, "trials/s")
    out["bench.trials_per_s.untraced"] = (untraced_tps, "trials/s")
    out["bench.trace_overhead"] = (untraced_tps / traced_tps - 1.0, "ratio")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    workload = WORKLOADS[args.workload]

    try:
        bt = _import_blocktrace()
        env = environment(bt)
        rounds, probes, peak_rss_mb, (warmup, check) = measure(
            bt, workload, args.seed, args.seconds, bool(args.trace))
    except (BenchError, ImportError, OSError, subprocess.SubprocessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    attempted = sum(r.trials for r in (*rounds, warmup, check))
    failed = sum(r.failed for r in (*rounds, warmup, check))
    problems = []
    if failed:
        problems.append(f"{failed} of {attempted} trials failed or raised")
    if check.sha256 != rounds[0].sha256:
        problems.append("serial untraced rerun of round 0 gave a different report")

    config = _config(bt, workload, args.seed, 0)
    print("env " + json.dumps(env, sort_keys=True))
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(config.cases)} cases x {config.trials} trials per round, "
          f"dims {','.join(f'{m}x{n}' for m, n in config.dims)}, threads {workload.threads}, "
          f"{len(rounds)} rounds, {len(probes)} set-up probes")
    print(f"report_sha256 {rounds[0].sha256} (round 0, seed {config.seed})")
    if args.trace:
        metrics = per_layer_metrics(rounds, probes, workload.threads)
        for name, (value, unit) in metrics.items():
            print(f"{name} {value:.6g} {unit}")
    else:
        e2e = end_to_end_metrics(rounds, probes, peak_rss_mb)
        print(f"machine speed: median scale {_median(r.scale for r in rounds):.4g} "
              f"reference s per s (calibration {REFERENCE_S} s at scale 1)")
        for name, (value, unit, samples, raw) in e2e.items():
            detail = ""
            if samples:
                q1, q3 = _quartiles(samples)
                detail = (f" (median of {len(samples)}; quartiles {q1:.6g} .. {q3:.6g}; "
                          f"unscaled median {_median(raw):.6g})")
            print(f"{name} {value:.6g} {unit}{detail}")
        metrics = {name: (value, unit) for name, (value, unit, _, _) in e2e.items()}
    print(f"failed_frac {failed / attempted:.6g} ratio ({failed} of {attempted} trials)")
    for problem in problems:
        print(f"FAIL: {problem}", file=sys.stderr)

    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
