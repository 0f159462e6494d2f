"""Per-layer spans and work counters for the traced benchmark run.

The tracer wraps public qtoda functions from outside the package.  Every
wrapped call records a span (name, start, end, parent) in memory; the spans
are written out once, after the call under test has finished.  A span's self
time is its duration minus the time its direct child spans cover, so nested
and recursive calls (``__pow__`` calling ``__mul__``, ``compose`` calling
``terms``, ``RatFunc.__add__`` calling ``rat_sum``) are never counted twice.
"""

from __future__ import annotations

import functools
import gzip
import sys
import time
from typing import Callable, Dict, List, Optional, Tuple

LAYERS = ("symbolic", "fixed_points", "characters", "operators", "whittaker",
          "toda", "cli")

# (span name, module, attribute path).  The span name is "<layer>.<fn>".
TARGETS: Tuple[Tuple[str, str, str], ...] = (
    ("symbolic.poly_mul", "qtoda.symbolic", "LaurentPoly.__mul__"),
    ("symbolic.ratfunc_mul", "qtoda.symbolic", "RatFunc.__mul__"),
    ("symbolic.rat_sum", "qtoda.symbolic", "rat_sum"),
    ("symbolic.poly_eval", "qtoda.symbolic", "LaurentPoly.eval"),
    ("symbolic.ratfunc_eval", "qtoda.symbolic", "RatFunc.eval"),
    ("symbolic.ratsum_eval", "qtoda.symbolic", "RatSum.eval"),
    ("symbolic.random_point", "qtoda.symbolic", "random_point"),
    ("symbolic.sum_is_zero", "qtoda.symbolic", "sum_is_zero"),
    ("symbolic.eq_exact", "qtoda.symbolic", "eq_exact"),
    ("symbolic.eq_random", "qtoda.symbolic", "eq_random"),
    ("fixed_points.enumerate_points", "qtoda.fixed_points", "enumerate_points"),
    ("fixed_points.raise_moves", "qtoda.fixed_points", "raise_moves"),
    ("fixed_points.lower_moves", "qtoda.fixed_points", "lower_moves"),
    ("characters.tangent_char", "qtoda.characters", "tangent_char"),
    ("characters.corr_tangent_char", "qtoda.characters", "corr_tangent_char"),
    ("characters.sym_inverse", "qtoda.characters", "sym_inverse"),
    ("characters.sym_factor", "qtoda.operators", "ModuleContext.sym_factor"),
    ("operators.terms", "qtoda.operators", "GradedOperator.terms"),
    ("operators.apply_op", "qtoda.operators", "apply_op"),
    ("operators.verify_relations", "qtoda.operators", "verify_relations"),
    ("operators.diagonality_check", "qtoda.operators", "diagonality_check"),
    ("operators.summation_identity_sides", "qtoda.operators",
     "summation_identity_sides"),
    ("operators.summation_identity_sides_generic", "qtoda.operators",
     "summation_identity_sides_generic"),
    ("whittaker.shapovalov_pair", "qtoda.whittaker", "shapovalov_pair"),
    ("whittaker.lowering_eigen_check", "qtoda.whittaker",
     "lowering_eigen_check"),
    ("whittaker.dual_eigen_check", "qtoda.whittaker", "dual_eigen_check"),
    ("whittaker.whittaker_pair_localized", "qtoda.whittaker",
     "whittaker_pair_localized"),
    ("whittaker.whittaker_pair_closed", "qtoda.whittaker",
     "whittaker_pair_closed"),
    ("toda.whittaker_pair_series", "qtoda.toda", "whittaker_pair_series"),
    ("toda.coefficient_sum_series", "qtoda.toda", "coefficient_sum_series"),
    ("toda.apply_sum_op", "qtoda.toda", "apply_sum_op"),
    ("toda.apply_difference_op", "qtoda.toda", "apply_difference_op"),
    ("toda.check_eigen", "qtoda.toda", "check_eigen"),
    ("toda.calibrate_sign", "qtoda.toda", "calibrate_sign"),
    ("cli.emit", "qtoda.cli", "Reporter.emit"),
    ("cli.suite_relations", "qtoda.cli", "_suite_relations"),
    ("cli.suite_summation", "qtoda.cli", "_suite_summation"),
    ("cli.suite_whittaker", "qtoda.cli", "_suite_whittaker"),
    ("cli.suite_toda", "qtoda.cli", "_suite_toda"),
)

# Work counters beside the spans.
COUNTERS: Tuple[str, ...] = (
    "symbolic.poly_mul.term_products",
    "symbolic.poly_mul.terms_out",
    "symbolic.rat_sum.parts_in",
    "symbolic.rat_sum.max_num_terms",
    "fixed_points.enumerate_points.points_out",
)

# Ratios of counted outcomes to the calls of a span: (metric name, span name).
# The outcomes are counted under the metric's name; metrics() divides.
RATIOS: Tuple[Tuple[str, str], ...] = (
    ("symbolic.sum_is_zero.prescreen_reject_ratio", "symbolic.sum_is_zero"),
    ("characters.sym_factor.hit_ratio", "characters.sym_factor"),
    ("operators.terms.cache_hit_ratio", "operators.terms"),
)

# Numbers of the traced run as a whole, filled in by run.py.
RUN_METRICS: Tuple[Tuple[str, str], ...] = (
    ("trace.overhead_ratio", "ratio"),
    ("trace.counter_drift", "count"),
    ("trace.spans", "count"),
)


def metric_units() -> Dict[str, str]:
    """Every per-layer metric the traced run reports, with its unit."""
    units: Dict[str, str] = {}
    for name, _, _ in TARGETS:
        units[name + ".calls"] = "count"
        units[name + ".self_s"] = "s"
    units.update(dict.fromkeys(COUNTERS, "count"))
    units.update((name, "ratio") for name, _ in RATIOS)
    for layer in LAYERS:
        units[layer + ".self_s"] = "s"
    units.update(RUN_METRICS)
    return units


Probe = Callable[[tuple], object]
Note = Callable[[tuple, object, object], None]


class Tracer:
    """Records spans around wrapped calls and keeps per-name totals."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: List[Optional[Tuple[str, float, float, int]]] = []
        self.calls: Dict[str, int] = {}
        self.self_s: Dict[str, float] = {}
        self.counts: Dict[str, float] = {}
        # one [span index, seconds covered by children] per running span
        self._open: List[list] = []

    def add(self, key: str, n: float = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    def peak(self, key: str, n: float) -> None:
        if n > self.counts.get(key, 0):
            self.counts[key] = n

    def wrap(self, name: str, fn: Callable, probe: Optional[Probe] = None,
             note: Optional[Note] = None) -> Callable:
        """Wrap fn so each call records a span called name.

        probe(args) runs before the call and note(args, result, probed)
        after it; both lie outside this span, in the caller's self time.
        """
        spans, open_, clock = self.spans, self._open, self.clock
        self.calls.setdefault(name, 0)
        self.self_s.setdefault(name, 0.0)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            probed = probe(args) if probe is not None else None
            index = len(spans)
            spans.append(None)
            frame = [index, 0.0]
            parent = open_[-1][0] if open_ else -1
            open_.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                open_.pop()
                spans[index] = (name, start, end, parent)
                duration = end - start
                self.calls[name] += 1
                self.self_s[name] += duration - frame[1]
                if open_:
                    open_[-1][1] += duration
            if note is not None:
                note(args, result, probed)
            return result

        return traced

    def metrics(self) -> Dict[str, float]:
        """Calls, self time and counters by metric name (no run metrics)."""
        out: Dict[str, float] = {}
        layer_self = dict.fromkeys(LAYERS, 0.0)
        for name, _, _ in TARGETS:
            out[name + ".calls"] = self.calls.get(name, 0)
            out[name + ".self_s"] = self.self_s.get(name, 0.0)
            layer_self[name.split(".")[0]] += out[name + ".self_s"]
        for name in COUNTERS:
            out[name] = self.counts.get(name, 0)
        for name, span in RATIOS:
            calls = self.calls.get(span, 0)
            out[name] = self.counts.get(name, 0) / calls if calls else 0.0
        for layer, seconds in layer_self.items():
            out[layer + ".self_s"] = seconds
        return out

    def write_spans(self, path: str) -> None:
        """Write the spans as gzipped tab-separated lines:
        index, name, start, end, parent index (-1 for a root span)."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            for i, span in enumerate(self.spans):
                if span is not None:
                    name, start, end, parent = span
                    fh.write(f"{i}\t{name}\t{start:.9f}\t{end:.9f}\t{parent}\n")


def _resolve(module, path: str) -> Tuple[object, str, Callable]:
    """(owner, attribute, function) for "fn" or "Class.method"."""
    owner = module
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, attr, getattr(owner, attr)


def _hooks(tracer: Tracer) -> Dict[str, Tuple[Optional[Probe], Optional[Note]]]:
    add, peak, calls = tracer.add, tracer.peak, tracer.calls

    def mul_note(args, result, _):
        add("symbolic.poly_mul.term_products",
            len(args[0].terms) * len(args[1].terms))
        add("symbolic.poly_mul.terms_out", len(result.terms))

    def rat_sum_note(args, result, _):
        add("symbolic.rat_sum.parts_in", len(args[1]))
        peak("symbolic.rat_sum.max_num_terms", len(result.unit.terms))

    # a prescreen reject is a False verdict reached without any rat_sum call
    def sum_probe(args):
        return calls.get("symbolic.rat_sum", 0)

    def sum_note(args, result, before):
        if not result and calls.get("symbolic.rat_sum", 0) == before:
            add("symbolic.sum_is_zero.prescreen_reject_ratio")

    def enum_note(args, result, _):
        add("fixed_points.enumerate_points.points_out", len(result))

    # a cache hit is a call whose key the owner's cache already held
    def sym_probe(args):
        return args[1].rows in getattr(args[0], "_sym", ())

    def sym_note(args, result, hit):
        if hit:
            add("characters.sym_factor.hit_ratio")

    def terms_probe(args):
        return args[1].rows in getattr(args[0], "_cache", ())

    def terms_note(args, result, hit):
        if hit:
            add("operators.terms.cache_hit_ratio")

    return {
        "symbolic.poly_mul": (None, mul_note),
        "symbolic.rat_sum": (None, rat_sum_note),
        "symbolic.sum_is_zero": (sum_probe, sum_note),
        "fixed_points.enumerate_points": (None, enum_note),
        "characters.sym_factor": (sym_probe, sym_note),
        "operators.terms": (terms_probe, terms_note),
    }


def install(tracer: Tracer) -> List[str]:
    """Wrap every target in every loaded qtoda module that refers to it.

    Modules that imported a function by name, and module-level dicts that
    hold it (such as the CLI's suite table), get the wrapper too.  Returns
    the span names whose target no longer exists.
    """
    modules = [m for k, m in sorted(sys.modules.items())
               if m is not None and (k == "qtoda" or k.startswith("qtoda."))]
    hooks = _hooks(tracer)
    missing = []
    for name, module_name, path in TARGETS:
        module = sys.modules.get(module_name)
        try:
            owner, attr, fn = _resolve(module, path)
        except AttributeError:
            missing.append(name)
            continue
        probe, note = hooks.get(name, (None, None))
        wrapped = tracer.wrap(name, fn, probe, note)
        if isinstance(owner, type):
            setattr(owner, attr, wrapped)
            continue
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is fn:
                    setattr(mod, key, wrapped)
                elif isinstance(value, dict):
                    for k, v in value.items():
                        if v is fn:
                            value[k] = wrapped
    return missing
