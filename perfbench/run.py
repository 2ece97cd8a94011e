"""Closed-loop benchmark of the expanderlab command line, in process.

    python3 perfbench/run.py --workload real-chain --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all            # every workload, summary lines
    python3 perfbench/run.py --freeze                  # rewrite expected.json

Run from anywhere; the program is imported from `src/` next to this
directory.  One client sends operations back to back; one operation is one
`expanderlab.cli.main(argv)` call on one seeded instance (see
workloads.py).  Operations run from a temporary working directory inside
the checkout with relative set paths, so outputs and manifests hold no
absolute path.

With `--trace 0` the run makes whole passes over the workload's schedule,
starting another pass only while the last pass's duration still fits in
`--seconds`, and reports the end-to-end metrics.  With `--trace 1` it runs
each operation untraced and then traced until `--seconds` have passed,
checks that both give the same output bytes, and reports the per-layer
metrics (tracing.py); the spans are written to `.perfbench/`.

Reported times are calibrated to a reference machine speed (clock.py); the
raw wall-clock figures are printed alongside.  Every output is checked
(checks.py); on the default seed the exit code and output digest of every
operation must also match expected.json.  The last line of standard output
is one JSON object with the keys `correct`, `attempted`, `failed` and
`metrics`.
"""
from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import workloads  # noqa: E402
from clock import SpeedSampler  # noqa: E402
from tracing import PACKAGE, Tracer  # noqa: E402

DEFAULT_SEED = 1
HELD_OUT_SEED = 2
PASSES = 2          # distinct passes drawn per seed; later passes reuse them
SETUP_REPEATS = 3
TAIL_BEYOND = 10
EXPECTED = HERE / "expected.json"
SCRATCH = ROOT / ".perfbench"


class Run:
    """Outcome of one benchmark run: op spans and failures."""

    def __init__(self, expected):
        self.expected = expected or {}
        self.spans = []          # (start, end) of each timed op
        self.attempted = 0
        self.failures = []

    def call(self, cli, op):
        """One operation: returns (exit code, output digest, (start, end)),
        or None after recording a failure."""
        self.attempted += 1
        sink = io.StringIO()
        t0 = perf_counter()
        try:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                rc = cli.main(list(op.argv))
        except SystemExit as exc:           # argparse rejects the argv
            rc = exc.code
        except Exception as exc:            # noqa: BLE001 - the run goes on
            self.failures.append((op.ident, f"raised {type(exc).__name__}: {exc}"))
            return None
        span = (t0, perf_counter())
        problems = checks.check_output(op, rc)
        digest = checks.sha256_file(op.out) if os.path.exists(op.out) else None
        frozen = self.expected.get(op.ident)
        if frozen is not None and frozen != [rc, digest]:
            problems.append(f"(exit code, digest) {[rc, digest]}, frozen {frozen}")
        if problems:
            self.failures.append((op.ident, "; ".join(problems)))
            return None
        return rc, digest, span


@contextlib.contextmanager
def scratch_dir(prefix: str):
    """A fresh directory under SCRATCH, removed afterwards; the cwd is
    restored, since setup() moves into it."""
    SCRATCH.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=prefix, dir=SCRATCH))
    home = os.getcwd()
    try:
        yield work
    finally:
        os.chdir(home)
        shutil.rmtree(work, ignore_errors=True)


def fresh_import():
    """Import expanderlab from src/ anew, as a user's process would."""
    for name in [m for m in sys.modules if m == PACKAGE or m.startswith(PACKAGE + ".")]:
        del sys.modules[name]
    cli = importlib.import_module(f"{PACKAGE}.cli")
    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"{PACKAGE} imported from {cli.__file__}, not from {SRC}")
    return cli


def write_files(passes, where: Path) -> None:
    for ops in passes:
        for op in ops:
            for rel, text in op.files.items():
                path = where / rel
                path.parent.mkdir(parents=True, exist_ok=True)
                path.write_text(text, encoding="utf-8")


def setup(workload: str, seed: int, work: Path):
    """Import, generate the instances and write the set files, several
    times; returns the module, the passes and the set-up spans."""
    spans = []
    for k in range(SETUP_REPEATS):
        where = work / f"setup{k}"
        t0 = perf_counter()
        cli = fresh_import()
        passes = workloads.build(workload, seed, PASSES)
        where.mkdir()
        write_files(passes, where)
        spans.append((t0, perf_counter()))
    for k in range(SETUP_REPEATS - 1):
        shutil.rmtree(work / f"setup{k}")
    os.chdir(where)
    Path("out").mkdir()
    return cli, passes, spans


def measure(cli, passes, seconds: float, run: Run, clock: SpeedSampler) -> int:
    """Whole passes while the last pass's calibrated duration still fits, so
    that the number of passes does not follow the machine's speed."""
    start = perf_counter()
    done = 0
    while True:
        t0 = perf_counter()
        for op in passes[done % len(passes)]:
            res = run.call(cli, op)
            if res is not None:
                run.spans.append(res[2])
        done += 1
        now = perf_counter()
        if clock.calibrate(start, now) + clock.calibrate(t0, now) > seconds:
            return done


def measure_traced(cli, passes, seconds: float, run: Run, tracer: Tracer):
    """Each op untraced, then traced; returns their span pairs."""
    pairs = []
    start = perf_counter()
    ops = [op for ops in passes for op in ops]
    for index, op in enumerate(ops):
        if index and perf_counter() - start >= seconds:
            break
        first = run.call(cli, op)
        tracer.install()
        tracer.begin_op(index)
        try:
            second = run.call(cli, op)
        finally:
            tracer.end_op()
            tracer.uninstall()
        if first is None or second is None:
            continue
        if first[:2] != second[:2]:
            run.failures.append((op.ident, "traced output differs from the untraced one"))
            continue
        pairs.append((first[2], second[2]))
    return pairs


def quantile(samples, q: float) -> float:
    """Harrell-Davis estimate of the q-quantile: a mean of all order
    statistics weighted by a Beta(q(n+1), (1-q)(n+1)) density.  With a few
    dozen operations of mixed sizes it moves far less between runs than a
    single order statistic, whose neighbours can be far apart."""
    xs = sorted(samples)
    n = len(xs)
    a, b = q * (n + 1), (1 - q) * (n + 1)
    log_beta = math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)
    steps = 64
    weights = []
    for i in range(n):
        points = ((i + (j + 0.5) / steps) / n for j in range(steps))
        weights.append(sum(math.exp((a - 1) * math.log(x) + (b - 1) * math.log1p(-x) - log_beta)
                           for x in points))
    return sum(w * x for w, x in zip(weights, xs)) / sum(weights)


def tail_level(n: int) -> float:
    """The highest quantile level with TAIL_BEYOND samples above it (the
    median when there are too few samples for that)."""
    return max((n - TAIL_BEYOND) / n, 0.5)


def latency_metrics(times):
    return {
        "ops_per_s": (len(times) / sum(times), "1/s"),
        "op_ms.p50": (1000 * quantile(times, 0.5), "ms"),
        "op_ms.tail": (1000 * quantile(times, tail_level(len(times))), "ms"),
    }


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    expected = None
    if seed == DEFAULT_SEED and EXPECTED.exists():
        expected = json.loads(EXPECTED.read_text())["ops"].get(workload)
    run = Run(expected)
    tracer = Tracer()
    with scratch_dir(f"{workload}-{seed}-") as work, SpeedSampler() as clock:
        cli, passes, setup_spans = setup(workload, seed, work)
        if trace:
            pairs = measure_traced(cli, passes, seconds, run, tracer)
        else:
            done = measure(cli, passes, seconds, run, clock)
    if trace:
        metrics = tracer.metrics()
        plain = sum(clock.calibrate(*a) for a, _ in pairs)
        traced = sum(clock.calibrate(*b) for _, b in pairs)
        metrics["trace.overhead_frac"] = (traced / plain - 1 if plain else 0.0, "ratio")
        spans = SCRATCH / f"spans-{workload}-{seed}.tsv.gz"
        tracer.write_spans(str(spans))
        print(f"traced {tracer.ops} ops, {tracer.span_count()} spans written to "
              f"{os.path.relpath(spans, ROOT)}")
    elif run.spans:
        times = [clock.calibrate(*span) for span in run.spans]
        metrics = latency_metrics(times)
        metrics["setup_s"] = (statistics.median(clock.calibrate(*s) for s in setup_spans), "s")
        metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
        n = len(times)
        print(f"{workload} seed {seed}: {done} passes, {n} ops timed; op_ms.tail is "
              f"p{100 * tail_level(n):.1f} of {n} samples")
        raw = latency_metrics([b - a for a, b in run.spans])
        raw["setup_s"] = (statistics.median(b - a for a, b in setup_spans), "s")
        print("wall clock, uncalibrated: " + ", ".join(
            f"{k} {v:.6g} {u}" for k, (v, u) in raw.items()))
    else:
        metrics = {}
    for ident, reason in run.failures:
        print(f"failed {workload} op {ident}: {reason}", file=sys.stderr)
    failed = len(run.failures)
    print(f"failed_frac {failed / max(run.attempted, 1):.6g} ratio "
          f"({failed} of {run.attempted})")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    return {
        "correct": failed == 0,
        "attempted": run.attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def run_all(args) -> int:
    """Every workload in its own process, so peak RSS stays per workload."""
    rc = 0
    for workload in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False)
        print(f"== {workload}")
        print(proc.stdout.rstrip("\n"))
        rc = rc or proc.returncode
    return rc


def freeze() -> int:
    """Record (exit code, output digest) of every op of the default seed."""
    frozen = {}
    for workload in workloads.WORKLOADS:
        run = Run(None)
        ops = {}
        with scratch_dir(f"freeze-{workload}-") as work:
            cli, passes, _ = setup(workload, DEFAULT_SEED, work)
            for op in (op for ops in passes for op in ops):
                res = run.call(cli, op)
                if res is not None:
                    ops[op.ident] = list(res[:2])
        if run.failures:
            for ident, reason in run.failures:
                print(f"{workload} op {ident}: {reason}", file=sys.stderr)
            return 1
        frozen[workload] = ops
        print(f"{workload}: {len(ops)} ops frozen", file=sys.stderr)
    EXPECTED.write_text(json.dumps({"seed": DEFAULT_SEED, "passes": PASSES, "ops": frozen},
                                   indent=1, sort_keys=True) + "\n")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help=f"workload seed (default {DEFAULT_SEED}, held out {HELD_OUT_SEED})")
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--freeze", action="store_true",
                        help="rewrite expected.json from the default seed")
    args = parser.parse_args(argv)
    if not (SRC / PACKAGE / "__init__.py").is_file():
        print(f"error: no {PACKAGE} sources under {SRC}", file=sys.stderr)
        return 2
    os.environ.pop("EXPANDERLAB_PRECISION_CAP", None)
    sys.path.insert(0, str(SRC))
    if args.freeze:
        return freeze()
    if args.workload == "all":
        return run_all(args)
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    if not result["metrics"]:
        print("error: no operation completed", file=sys.stderr)
        return 1
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
