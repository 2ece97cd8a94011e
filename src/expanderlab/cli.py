"""Command-line entry point: verify | pipeline | search | energy | replay.

Every run writes a manifest next to its outputs recording the exact argv,
input digests, configuration and output paths; `replay <manifest>` re-runs
the recorded command, and regenerated outputs are byte-identical (nothing
time- or machine-dependent is ever written).  `search` runs its stochastic
restarts one after another, from restart seeds drawn up front from `--seed`.

Exit codes: 0 all verdicts hold, 2 a constant-free relation failed
(counterexample serialised), 3 an enclosure stayed inconclusive at the
precision cap, 64 a usage error, malformed input or violated side
condition, 65 budget exceeded.
"""
from __future__ import annotations

import argparse
import functools
import hashlib
import json
import sys
from fractions import Fraction
from pathlib import Path

from . import __version__
from .energy import energy, histogram, precision_cap
from .errors import (
    BudgetExceeded,
    ExpanderlabError,
    InvalidManifest,
    PrecisionCapExceeded,
    TooManySets,
)
from .field import FieldCtx
from .search import (
    MODES,
    SearchConfig,
    exhaustive_min,
    exponent_table,
    stochastic_search,
    write_csv,
)
from .sets import load_set
from .verify import (
    FAILS,
    INCONCLUSIVE,
    REGISTRY,
    Instance,
    check,
    finite_field_pipeline,
    real_pipeline,
)

EXIT_OK = 0
EXIT_FAILS = 2
EXIT_INCONCLUSIVE = 3
EXIT_USAGE = 64
EXIT_BUDGET = 65


def _sha256_file(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def _dump_json(doc, path: Path) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(doc, fh, sort_keys=True, indent=1)
        fh.write("\n")


def _write_manifest(out_stem: Path, argv, inputs, outputs, config) -> None:
    manifest = {
        "tool": "expanderlab",
        "version": __version__,
        "command": list(argv),
        "inputs": {str(p): _sha256_file(Path(p)) for p in inputs},
        "outputs": [str(p) for p in outputs],
        "config": config,
    }
    _dump_json(manifest, Path(str(out_stem) + ".manifest.json"))


def _parse_fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(
            f"{text!r} is not a fraction with a nonzero denominator") from None


# -- verify ---------------------------------------------------------------------

def _applicable(n_sets: int):
    order = ["A", "B", "C"]
    for name, spec in sorted(REGISTRY.items()):
        needed = [k for k in spec.inputs if k in order]
        if len(needed) == n_sets:
            yield name


def cmd_verify(args, argv) -> int:
    cap = precision_cap(args.precision_cap)
    if len(args.sets) > 3:
        raise TooManySets(f"verify takes at most three set files (A, B, C), "
                          f"got {len(args.sets)}")
    sets = [load_set(p) for p in args.sets]
    names = list(_applicable(len(sets))) if args.all else [args.relation]
    reports = []
    violations = []
    # one Instance of A serves every relation, so each quantity of A is built once
    labelled = dict(zip(("A", "B", "C"), [Instance(sets[0]), *sets[1:]]))
    for name in names:
        try:
            rep = check(name, **labelled, t=args.t, epsilon=args.epsilon, cap=cap)
        except ExpanderlabError as exc:
            violations.append({"name": name, "error": type(exc).__name__, "message": str(exc)})
            continue
        reports.append(rep)

    out = Path(args.out) if args.out else None
    doc = {
        "reports": [
            dict(r.to_json(), inputs_path=[str(p) for p in args.sets]) for r in reports
        ],
        "violations": violations,
    }
    if out:
        _dump_json(doc, out)
        _write_manifest(out.with_suffix(""), argv, args.sets, [out],
                        {"relation": args.relation, "all": args.all,
                         "t": args.t,
                         "epsilon": None if args.epsilon is None else str(args.epsilon),
                         "precision_cap": args.precision_cap})
    else:
        json.dump(doc, sys.stdout, sort_keys=True, indent=1)
        sys.stdout.write("\n")

    for rep in reports:
        print(f"[{rep.verdict:>12}] {rep.name}: {REGISTRY[rep.name].description}",
              file=sys.stderr)
    if violations:
        for v in violations:
            print(f"[   violated] {v['name']}: {v['message']}", file=sys.stderr)
        return EXIT_USAGE
    if any(r.verdict == FAILS for r in reports):
        counterexample = [r.to_json() for r in reports if r.verdict == FAILS]
        bad = Path(args.out).with_suffix(".counterexample.json") if args.out else Path(
            "counterexample.json")
        _dump_json({"failed": counterexample,
                    "inputs": [str(p) for p in args.sets]}, bad)
        print(f"counterexample serialised to {bad}", file=sys.stderr)
        return EXIT_FAILS
    if any(r.verdict == INCONCLUSIVE for r in reports):
        return EXIT_INCONCLUSIVE
    return EXIT_OK


# -- pipeline ---------------------------------------------------------------------

def cmd_pipeline(args, argv) -> int:
    cap = precision_cap(args.precision_cap)
    fset = load_set(args.set)
    if args.mode == "fp":
        eps = Fraction(1, 64) if args.epsilon is None else args.epsilon
        trace = finite_field_pipeline(fset, epsilon=eps)
    else:
        trace = real_pipeline(fset, cap=cap)
    out = Path(args.out) if args.out else Path(f"trace_{args.mode}.json")
    out.parent.mkdir(parents=True, exist_ok=True)
    with open(out, "wb") as fh:
        fh.write(trace.to_bytes())
    _write_manifest(out.with_suffix(""), argv, [args.set], [out],
                    {"mode": args.mode,
                     "epsilon": None if args.epsilon is None else str(args.epsilon),
                     "precision_cap": args.precision_cap})
    for step in trace.steps:
        print(f"[{step.report.verdict:>12}] {step.description}", file=sys.stderr)
    if trace.has_fails():
        return EXIT_FAILS
    if trace.has_inconclusive():
        return EXIT_INCONCLUSIVE
    return EXIT_OK


# -- search ---------------------------------------------------------------------

def cmd_search(args, argv) -> int:
    if args.p is not None:
        ctx = FieldCtx.prime(args.p)
    else:
        ctx = FieldCtx.rational()
    records = []
    for n in args.n:
        cfg = SearchConfig(
            ctx=ctx,
            set_size=n,
            mode=args.mode,
            seed=args.seed,
            iteration_cap=args.iterations,
            budget=args.budget,
            restarts=args.restarts,
            rational_range=tuple(args.rational_range),
            exclude_degenerate=not args.admit_degenerate,
        )
        if args.mode == "exhaustive":
            records.append(exhaustive_min(cfg))
        else:
            records.append(stochastic_search(cfg))
    rows = exponent_table(records)
    out = Path(args.out) if args.out else Path("search_results.csv")
    out.parent.mkdir(parents=True, exist_ok=True)
    write_csv(rows, out)
    _write_manifest(out.with_suffix(""), argv, [], [out],
                    {"p": args.p, "n": args.n, "mode": args.mode, "seed": args.seed,
                     "iterations": args.iterations, "budget": args.budget,
                     "restarts": args.restarts, "rational_range": list(args.rational_range)})
    for row in rows:
        print(",".join(str(row[c]) for c in
                       ("p", "n", "value", "certified", "witness")), file=sys.stderr)
    return EXIT_OK


# -- energy ---------------------------------------------------------------------

def cmd_energy(args, argv) -> int:
    cap = precision_cap(args.precision_cap)
    if len(args.sets) > 2:
        raise TooManySets(f"energy takes at most two set files (A, B), got {len(args.sets)}")
    a = load_set(args.sets[0])
    b = load_set(args.sets[1]) if len(args.sets) > 1 else a
    hist = histogram(a, b, args.kind)
    doc = {"histogram": hist.to_json(), "energies": {}}
    capped = False
    for alpha in args.alpha:
        try:
            value = energy(hist, alpha, cap=cap)
        except PrecisionCapExceeded as exc:  # reported as reached, at the cap
            value, capped = exc.achieved, True
        doc["energies"][str(alpha)] = value.to_json()
    if args.delta is not None:
        low, high = hist.split(args.delta)
        doc["split"] = {"delta": args.delta, "low": low.to_json(), "high": high.to_json()}
    out = Path(args.out) if args.out else None
    if out:
        _dump_json(doc, out)
        _write_manifest(out.with_suffix(""), argv, args.sets, [out],
                        {"kind": args.kind, "alpha": [str(a) for a in args.alpha],
                         "delta": args.delta,
                         "precision_cap": args.precision_cap})
    else:
        json.dump(doc, sys.stdout, sort_keys=True, indent=1)
        sys.stdout.write("\n")
    return EXIT_INCONCLUSIVE if capped else EXIT_OK


# -- replay ---------------------------------------------------------------------

def cmd_replay(args, argv) -> int:
    with open(args.manifest, "r", encoding="utf-8") as fh:
        try:
            manifest = json.load(fh)
        except ValueError as exc:  # not JSON, or not UTF-8
            raise InvalidManifest(f"{args.manifest}: {exc}") from exc
    command = manifest.get("command") if isinstance(manifest, dict) else None
    if not (isinstance(command, list) and all(isinstance(a, str) for a in command)):
        raise InvalidManifest(f"{args.manifest}: 'command' must be a list of strings")
    if command[:1] == ["replay"]:
        raise InvalidManifest(f"{args.manifest}: a manifest cannot replay another manifest")
    return main(command)


class _Parser(argparse.ArgumentParser):
    """Usage errors exit EXIT_USAGE: argparse's own 2 is EXIT_FAILS here.
    Subparsers are built from the same class."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parsing a command
    line leaves it unchanged, so every call of `main` can share it."""
    parser = _Parser(
        prog="expanderlab",
        description="Exact growth instrumentation for sets of the form A(A+1).",
    )
    parser.add_argument("--version", action="version", version=f"expanderlab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="certify registry relations on set files")
    p_verify.add_argument("sets", nargs="+", help="one to three set files (JSON): A, B, C")
    select = p_verify.add_mutually_exclusive_group(required=True)
    select.add_argument("--relation", default=None, help="registry key, e.g. R6")
    select.add_argument("--all", action="store_true",
                        help="run every relation matching the number of sets")
    p_verify.add_argument("--t", type=int, default=1)
    p_verify.add_argument("--epsilon", type=_parse_fraction, default=Fraction(1, 4))
    p_verify.add_argument("--precision-cap", type=int, default=None)
    p_verify.add_argument("--out", default=None)
    p_verify.set_defaults(fn=cmd_verify)

    p_pipe = sub.add_parser("pipeline", help="run a full proof-pipeline trace")
    p_pipe.add_argument("set", help="set file (JSON)")
    p_pipe.add_argument("--mode", choices=("fp", "real"), required=True)
    p_pipe.add_argument("--epsilon", type=_parse_fraction, default=None)
    p_pipe.add_argument("--precision-cap", type=int, default=None)
    p_pipe.add_argument("--out", default=None)
    p_pipe.set_defaults(fn=cmd_pipeline)

    p_search = sub.add_parser("search", help="extremal search for small |A(A+1)|")
    group = p_search.add_mutually_exclusive_group(required=True)
    group.add_argument("--p", type=int, default=None)
    group.add_argument("--rational-range", nargs=2, type=int, default=(-10, 10))
    p_search.add_argument("--n", type=int, nargs="+", required=True)
    p_search.add_argument("--mode", choices=MODES, default="exhaustive")
    p_search.add_argument("--seed", type=int, default=0)
    p_search.add_argument("--iterations", type=int, default=2000)
    p_search.add_argument("--budget", type=int, default=2_000_000)
    p_search.add_argument("--restarts", type=int, default=20)
    p_search.add_argument("--admit-degenerate", action="store_true",
                          help="keep 0 and -1 in the candidate pool")
    p_search.add_argument("--out", default=None)
    p_search.set_defaults(fn=cmd_search)

    p_energy = sub.add_parser("energy", help="dump a multiplicity histogram and energies")
    p_energy.add_argument("sets", nargs="+", help="one or two set files")
    p_energy.add_argument("--kind", choices=("product", "ratio", "additive"), default="ratio")
    p_energy.add_argument("--alpha", action="append", type=_parse_fraction, default=None,
                          help="exponent, e.g. 2 or 3/2 (repeatable)")
    p_energy.add_argument("--delta", type=int, default=None,
                          help="also emit the spectrum split at this multiplicity")
    p_energy.add_argument("--precision-cap", type=int, default=None)
    p_energy.add_argument("--out", default=None)
    p_energy.set_defaults(fn=cmd_energy)

    p_replay = sub.add_parser("replay", help="re-run the command recorded in a manifest")
    p_replay.add_argument("manifest")
    p_replay.set_defaults(fn=cmd_replay)

    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    args = build_parser().parse_args(argv)
    if getattr(args, "alpha", None) is None and args.command == "energy":
        args.alpha = [Fraction(2)]
    try:
        return args.fn(args, argv)
    except BudgetExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except ExpanderlabError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    raise SystemExit(main())
