"""Per-layer tracing from outside the program.

`Tracer.install()` wraps every public function of the traced expanderlab
modules and rebinds the wrapper in every expanderlab module namespace that
binds the same function object (several modules use `from .x import f`).
`uninstall()` puts the originals back.  Each call records a span (span
id, parent id, name, start, end) in memory, plus counters taken at the
same boundary.  At the end of each operation its spans are folded into
self and inclusive times and moved to compact arrays, which `write_spans`
writes out once the run is over.  A thread with no open span of its own (a
worker of the search thread pool) takes the innermost open span of the
thread running the operation as its parent, so self time stays correct
across threads.

`field` is not wrapped: its per-element methods run millions of times, so
a wrapper there would mostly measure itself.  Its cost stays in the self
time of its callers.
"""
from __future__ import annotations

import functools
import gzip
import inspect
import itertools
import math
import sys
import threading
from array import array
from collections import Counter, defaultdict
from time import perf_counter
from typing import Dict, List, Tuple

PACKAGE = "expanderlab"
LAYERS = ("cli", "sets", "energy", "intervals", "constructions", "incidence", "verify", "search")
# layers whose calls are keyed by their argument tuple, to count repeated work
MEMO_LAYERS = ("sets", "energy")
BITS_FUNCTIONS = ("root_interval", "pow_interval", "log_ratio_interval", "log2_interval")
RELATIONS = tuple(f"R{k}" for k in range(1, 15))
BRANCHES = ("degenerate", "RneqFp", "ReqFp")
VERDICTS = ("Holds", "Fails", "SlackOnly", "Inconclusive")


def _pairs(args) -> int:
    return len(args[0]) * len(args[1])


def _subsets(n: int) -> int:
    return sum(math.comb(n, r) for r in range(-(-n // 2), n + 1))


def _count_verdicts(counts: Counter, verdicts) -> None:
    for v in verdicts:
        counts[f"verify.verdict.{v}"] += 1


def _energy_hook(counts, maxima, args, kwargs, result, exc, dt):
    value = result if exc is None else getattr(exc, "achieved", None)
    if exc is not None and type(exc).__name__ == "PrecisionCapExceeded":
        counts["energy.energy.cap_hits"] += 1
    if value is not None:
        counts["energy.energy.enclosures"] += value.lo != value.hi
        maxima["energy.energy.max_bits"] = max(maxima["energy.energy.max_bits"],
                                               value.precision_bits)


def _check_hook(counts, maxima, args, kwargs, result, exc, dt):
    name = args[0] if args else kwargs["name"]
    counts[f"verify.check.{name}.s"] += dt
    if result is not None:
        _count_verdicts(counts, [result.verdict])


def _pipeline_hook(counts, maxima, args, kwargs, result, exc, dt):
    if result is None:
        return
    if result.selected is not None:
        counts[f"verify.branch.{result.selected['branch']}"] += 1
    _count_verdicts(counts, result.verdicts())


def _add(metric, size):
    def hook(counts, maxima, args, kwargs, result, exc, dt):
        if exc is None:
            counts[metric] += size(args, result)
    return hook


HOOKS = {
    "sets.combine": _add("sets.combine.pairs", lambda a, r: _pairs(a)),
    "sets.expander_set": _add("sets.expander_set.pairs", lambda a, r: _pairs(a)),
    "sets.partial_combine": _add("sets.partial_combine.edges", lambda a, r: len(a[0])),
    "energy.histogram": _add("energy.histogram.pairs", lambda a, r: _pairs(a)),
    "energy.multiplicative_energy": _add("energy.multiplicative_energy.pairs",
                                         lambda a, r: _pairs(a)),
    "energy.twisted_energy": _add("energy.twisted_energy.pairs", lambda a, r: len(a[0]) ** 2),
    "energy.energy": _energy_hook,
    "constructions.partial_ruzsa": _add("constructions.partial_ruzsa.edges",
                                        lambda a, r: len(a[0]) + len(a[1])),
    "constructions.popular_ratio_graph": _add("constructions.popular_ratio_graph.pairs",
                                              lambda a, r: _pairs(a)),
    "constructions.greedy_cover": _add("constructions.greedy_cover.iterations",
                                       lambda a, r: r.iterations),
    "constructions.plunnecke_witness": _add("constructions.plunnecke_witness.subsets",
                                            lambda a, r: _subsets(len(a[0]))),
    "incidence.st_lower_bound_check": _add("incidence.st_lower_bound_check.witnesses",
                                           lambda a, r: r.witness_count),
    "incidence.expander_line_family": _add("incidence.expander_line_family.lines",
                                           lambda a, r: len(r.lines)),
    "verify.check": _check_hook,
    "verify.finite_field_pipeline": _pipeline_hook,
    "verify.real_pipeline": _pipeline_hook,
}


def _bits_hook(fn):
    """Records the precision argument of an interval constructor."""
    params = list(inspect.signature(fn).parameters.values())
    index = [p.name for p in params].index("bits")
    default = params[index].default

    def hook(counts, maxima, args, kwargs, result, exc, dt):
        bits = args[index] if len(args) > index else kwargs.get("bits", default)
        maxima["intervals.max_bits"] = max(maxima["intervals.max_bits"], bits)
    return hook


class Tracer:
    """Spans and counters of traced operations; install around each op."""

    def __init__(self):
        self._lock = threading.Lock()
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._wrappers: Dict[int, object] = {}   # id(original) -> wrapper
        self._bound: List[Tuple[object, str, object]] = []
        self._root: List[int] = []                # open spans of the op's thread
        self._seen = {layer: set() for layer in MEMO_LAYERS}
        self.op = -1
        self.ops = 0
        self._spans: List[tuple] = []             # this op's (id, parent, name, t0, t1)
        self._names: Dict[str, int] = {}
        self.stored = {k: array(t) for k, t in (("op", "l"), ("span", "q"), ("parent", "q"),
                                                 ("name", "H"), ("t0", "d"), ("t1", "d"))}
        self.own: Counter = Counter()             # self seconds per function
        self.total: Counter = Counter()           # inclusive seconds per function
        self.counts: Counter = Counter()
        self.maxima: Counter = Counter()
        self.distinct: Counter = Counter()

    # -- installation -----------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, layer: str, name: str, fn):
        key = f"{layer}.{name}"
        hook = _bits_hook(fn) if name in BITS_FUNCTIONS else HOOKS.get(key)
        seen = self._seen.get(layer)
        tracer = self

        def record(sid, parent, t0, t1, args, kwargs, result, exc):
            with tracer._lock:
                tracer._spans.append((sid, parent, key, t0, t1))
                tracer.counts[key + ".calls"] += 1
                if seen is not None:
                    try:
                        seen.add((key, args, tuple(kwargs.items())))
                    except TypeError:       # an unhashable argument: count it distinct
                        seen.add(object())
                if hook is not None:
                    hook(tracer.counts, tracer.maxima, args, kwargs, result, exc, t1 - t0)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            if stack:
                parent = stack[-1]
            else:
                root = tracer._root
                parent = root[-1] if root else 0
            sid = next(tracer._ids)
            stack.append(sid)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                t1 = perf_counter()
                stack.pop()
                record(sid, parent, t0, t1, args, kwargs, None, exc)
                raise
            t1 = perf_counter()
            stack.pop()
            record(sid, parent, t0, t1, args, kwargs, result, None)
            return result

        return traced

    def install(self) -> None:
        """Rebind every public function of the traced layers to its wrapper."""
        if not self._wrappers:
            for layer in LAYERS:
                module = sys.modules[f"{PACKAGE}.{layer}"]
                for name, obj in vars(module).items():
                    if (inspect.isfunction(obj) and not name.startswith("_")
                            and obj.__module__ == module.__name__):
                        self._wrappers[id(obj)] = self._wrap(layer, name, obj)
        for mod_name, module in list(sys.modules.items()):
            if mod_name != PACKAGE and not mod_name.startswith(PACKAGE + "."):
                continue
            for name, obj in list(vars(module).items()):
                wrapper = self._wrappers.get(id(obj))
                if wrapper is not None:
                    self._bound.append((module, name, obj))
                    setattr(module, name, wrapper)

    def uninstall(self) -> None:
        for module, name, obj in self._bound:
            setattr(module, name, obj)
        self._bound.clear()

    # -- operations -------------------------------------------------------------

    def begin_op(self, index: int) -> None:
        self.op = index
        self._root = self._stack()

    def end_op(self) -> None:
        self.ops += 1
        for layer, seen in self._seen.items():
            self.distinct[layer] += len(seen)
            seen.clear()
        self._fold()

    def _fold(self) -> None:
        """Self and inclusive time of this op's spans.  Self time is a span's
        duration minus the union of its children's intervals, so overlapping
        children from pool threads are not counted twice."""
        children = defaultdict(list)
        for sid, parent, _, t0, t1 in self._spans:
            children[parent].append((t0, t1))
        stored = self.stored
        for sid, parent, name, t0, t1 in self._spans:
            covered, reach = 0.0, t0
            for c0, c1 in sorted(children.get(sid, ())):
                c0, c1 = max(c0, reach), min(c1, t1)
                if c1 > c0:
                    covered += c1 - c0
                    reach = c1
            self.own[name] += (t1 - t0) - covered
            self.total[name] += t1 - t0
            for key, value in (("op", self.op), ("span", sid), ("parent", parent),
                               ("name", self._names.setdefault(name, len(self._names))),
                               ("t0", t0), ("t1", t1)):
                stored[key].append(value)
        self._spans = []

    # -- results ----------------------------------------------------------------

    def metrics(self) -> Dict[str, Tuple[float, str]]:
        """Every per-layer metric, per traced operation."""
        n = max(self.ops, 1)
        own, total = self.own, self.total
        c = self.counts
        out: Dict[str, Tuple[float, str]] = {}

        def per_op(name, value, unit):
            out[name] = (value / n, unit)

        def rate(name, work, seconds):
            out[name] = (work / seconds if seconds > 0 else 0.0, "1/s")

        for layer in LAYERS:
            per_op(f"{layer}.self_s",
                   sum(v for k, v in own.items() if k.startswith(layer + ".")), "s/op")
        per_op("cli.main.calls", c["cli.main.calls"], "count/op")

        for fn in ("combine", "expander_set"):
            for m in ("calls", "pairs"):
                per_op(f"sets.{fn}.{m}", c[f"sets.{fn}.{m}"], "count/op")
            per_op(f"sets.{fn}.self_s", own[f"sets.{fn}"], "s/op")
        per_op("sets.partial_combine.edges", c["sets.partial_combine.edges"], "count/op")
        for fn in ("partial_combine", "kfold_sum", "load_set"):
            per_op(f"sets.{fn}.self_s", own[f"sets.{fn}"], "s/op")
        rate("sets.pairs_per_s", c["sets.combine.pairs"] + c["sets.expander_set.pairs"],
             own["sets.combine"] + own["sets.expander_set"])

        kernels = ("histogram", "multiplicative_energy", "twisted_energy")
        for fn in kernels:
            for m in ("calls", "pairs"):
                per_op(f"energy.{fn}.{m}", c[f"energy.{fn}.{m}"], "count/op")
            per_op(f"energy.{fn}.self_s", own[f"energy.{fn}"], "s/op")
        per_op("energy.rich_products.self_s", own["energy.rich_products"], "s/op")
        for m in ("calls", "enclosures", "cap_hits"):
            per_op(f"energy.energy.{m}", c[f"energy.energy.{m}"], "count/op")
        out["energy.energy.max_bits"] = (self.maxima["energy.energy.max_bits"], "bits")
        rate("energy.pairs_per_s", sum(c[f"energy.{fn}.pairs"] for fn in kernels),
             sum(own[f"energy.{fn}"] for fn in kernels))

        for fn in ("root_interval", "pow_interval", "log_ratio_interval"):
            per_op(f"intervals.{fn}.calls", c[f"intervals.{fn}.calls"], "count/op")
        out["intervals.max_bits"] = (self.maxima["intervals.max_bits"], "bits")

        for fn, work in (("partial_ruzsa", "edges"), ("popular_ratio_graph", "pairs"),
                         ("greedy_cover", "iterations"), ("plunnecke_witness", "subsets")):
            for m in ("calls", work):
                per_op(f"constructions.{fn}.{m}", c[f"constructions.{fn}.{m}"], "count/op")
            per_op(f"constructions.{fn}.self_s", own[f"constructions.{fn}"], "s/op")
        per_op("constructions.dense_degree_subset.self_s",
               own["constructions.dense_degree_subset"], "s/op")

        for fn, work in (("st_lower_bound_check", "calls"),
                         ("st_lower_bound_check", "witnesses"),
                         ("expander_line_family", "lines")):
            per_op(f"incidence.{fn}.{work}", c[f"incidence.{fn}.{work}"], "count/op")
        for fn in ("st_lower_bound_check", "expander_line_family"):
            per_op(f"incidence.{fn}.self_s", own[f"incidence.{fn}"], "s/op")

        for fn in ("real_pipeline", "finite_field_pipeline", "check"):
            per_op(f"verify.{fn}.self_s", own[f"verify.{fn}"], "s/op")
        for rel in RELATIONS:
            per_op(f"verify.check.{rel}.s", c[f"verify.check.{rel}.s"], "s/op")
        for branch in BRANCHES:
            per_op(f"verify.branch.{branch}", c[f"verify.branch.{branch}"], "count/op")
        for verdict in VERDICTS:
            per_op(f"verify.verdict.{verdict}", c[f"verify.verdict.{verdict}"], "count/op")

        per_op("search.expander_size.calls", c["search.expander_size.calls"], "count/op")
        for fn in ("expander_size", "exhaustive_min", "stochastic_search"):
            per_op(f"search.{fn}.self_s", own[f"search.{fn}"], "s/op")
        rate("search.candidates_per_s", c["search.expander_size.calls"],
             total["search.exhaustive_min"] + total["search.stochastic_search"])

        for layer in MEMO_LAYERS:
            calls = sum(v for k, v in c.items()
                        if k.startswith(layer + ".") and k.endswith(".calls"))
            out[f"{layer}.distinct_call_frac"] = (
                self.distinct[layer] / calls if calls else 0.0, "ratio")
        return out

    def span_count(self) -> int:
        return len(self.stored["span"])

    def write_spans(self, path: str) -> None:
        """Gzipped TSV, one span a line; times in microseconds from the
        first span's start."""
        names = sorted(self._names, key=self._names.get)
        s = self.stored
        base = min(s["t0"], default=0.0)
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("op\tspan\tparent\tname\tstart_us\tend_us\n")
            for row in zip(s["op"], s["span"], s["parent"], s["name"], s["t0"], s["t1"]):
                op, sid, parent, name, t0, t1 = row
                fh.write(f"{op}\t{sid}\t{parent}\t{names[name]}\t"
                         f"{round((t0 - base) * 1e6)}\t{round((t1 - base) * 1e6)}\n")
