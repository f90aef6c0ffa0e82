"""Span recorder for the traced benchmark run.

The recorder wraps the public functions and methods of each ``weiersem``
module at the module or class attributes their callers look up, so the
program itself is unchanged.  Every call becomes a span (name, start, end,
parent index) kept in memory until the pass ends; a few wrappers also count
work (points scanned, rows evaluated, series terms built).
"""

import sys
import time
from collections import defaultdict

# Span names double as the prefixes of the per-layer metric names.
FUNCTIONS = [
    ("weiersem.parsing", "parse_field", "parsing"),
    ("weiersem.parsing", "parse_poly", "parsing"),
    ("weiersem.parsing", "parse_rational", "parsing"),
    ("weiersem.parsing", "parse_generators", "parsing"),
    ("weiersem.curves", "normalize_degree", "curves.normalize_degree"),
    ("weiersem.curves", "am_sequence", "curves.am_sequence"),
    ("weiersem.curves", "resultant_y", "polynomials.resultant_y"),
    ("weiersem.branch", "parametrize", "branch.parametrize"),
    ("weiersem.weierstrass", "triangulate", "weierstrass.triangulate"),
    ("weiersem.weierstrass", "l_basis", "weierstrass.l_basis"),
    ("weiersem.codes", "enumerate_points", "codes.enumerate_points"),
    ("weiersem.codes", "build_code", "codes.build_code"),
    ("weiersem.cli", "run", "cli.run"),
]

METHODS = [
    ("weiersem.fields", "FiniteField", "__init__", "fields.FiniteField"),
    ("weiersem.branch", "BranchParam", "valuation", "branch.valuation"),
    ("weiersem.weierstrass", "FunctionTable", "function_for",
     "weierstrass.function_for"),
    ("weiersem.semigroups", "NumericalSemigroup", "feng_rao",
     "semigroups.feng_rao"),
]

CALLS = ["branch.valuation", "polynomials.resultant_y",
         "weierstrass.function_for", "codes.build_code", "semigroups.feng_rao"]
COUNTS = ["branch.refine.calls", "branch.terms_computed",
          "codes.points_scanned", "codes.points_kept", "codes.rows_evaluated"]


class Recorder:
    """Spans and counters of one traced pass, single-threaded."""

    def __init__(self):
        self.spans = []          # [name, start, end, parent index or -1]
        self._stack = []
        self.counts = defaultdict(int)
        self.params = []         # BranchParam objects built in this pass
        self.useful = {}         # id(param) -> highest precision a valuation needed

    def open(self, name):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent])
        self._stack.append(idx)
        return idx

    def close(self, idx):
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def self_times(self):
        """Total duration minus the duration of direct children, by name.
        Calls are nested on one thread, so children never overlap."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = defaultdict(float)
        for (name, start, end, _), c in zip(self.spans, child):
            out[name] += end - start - c
        return out

    def top_level_time(self):
        """Time covered by the outermost layer spans: those directly under
        a job span."""
        return sum(end - start for name, start, end, parent in self.spans
                   if parent >= 0 and self.spans[parent][3] < 0)


def _span_wrapper(rec, name, fn, post=None):
    def wrapper(*args, **kwargs):
        idx = rec.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.close(idx)
        if post is not None:
            post(args, result)
        return result
    return wrapper


class Tracing:
    """Context manager: install the wrappers, restore the originals."""

    def __init__(self, rec):
        self.rec = rec
        self._undo = []

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _rebind(self, original, wrapper):
        """Replace every module-level binding of `original` in weiersem,
        since modules import each other's functions by name."""
        for mod_name, mod in list(sys.modules.items()):
            if mod_name == "weiersem" or mod_name.startswith("weiersem."):
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._set(mod, attr, wrapper)

    def __enter__(self):
        rec = self.rec
        posts = {
            "branch.parametrize": self._after_parametrize,
            "codes.enumerate_points": self._after_enumerate,
            "codes.build_code": self._after_build_code,
        }
        for mod_name, attr, name in FUNCTIONS:
            original = getattr(sys.modules[mod_name], attr)
            self._rebind(original,
                         _span_wrapper(rec, name, original, posts.get(name)))
        for mod_name, cls_name, attr, name in METHODS:
            cls = getattr(sys.modules[mod_name], cls_name)
            self._set(cls, attr, _span_wrapper(rec, name, cls.__dict__[attr]))
        branch_param = sys.modules["weiersem.branch"].BranchParam
        self._set(branch_param, "refine",
                  self._count_refine(branch_param.__dict__["refine"]))
        self._set(branch_param, "valuation_poly",
                  self._count_needed(branch_param.__dict__["valuation_poly"]))
        return rec

    def __exit__(self, *exc):
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo.clear()
        return False

    # -- counters read around calls -------------------------------------

    def _after_parametrize(self, args, param):
        self.rec.params.append(param)
        self.rec.counts["branch.terms_computed"] += param.precision

    def _after_enumerate(self, args, points):
        ext_field = args[1]
        self.rec.counts["codes.points_scanned"] += ext_field.order ** 2
        self.rec.counts["codes.points_kept"] += len(points.points)

    def _after_build_code(self, args, spec):
        self.rec.counts["codes.rows_evaluated"] += len(spec.row_values)

    def _count_refine(self, refine):
        counts = self.rec.counts

        def wrapper(param, precision):
            before = param.precision
            refine(param, precision)
            if param.precision > before:
                counts["branch.refine.calls"] += 1
                counts["branch.terms_computed"] += param.precision
        return wrapper

    def _count_needed(self, valuation_poly):
        useful = self.rec.useful

        def wrapper(param, g):
            d = int(g.total_degree) if not g.is_zero() else 0
            needed = d * param.pole_order + 4
            if needed > useful.get(id(param), 0):
                useful[id(param)] = needed
            return valuation_poly(param, g)
        return wrapper


def layer_metrics(rec, pass_s):
    """Per-layer numbers of one traced pass (names without units)."""
    self_s = rec.self_times()
    calls = defaultdict(int)
    for name, *_ in rec.spans:
        calls[name] += 1
    counts = rec.counts
    out = {f"{name}.self_s": self_s[name] for *_, name in FUNCTIONS + METHODS}
    out.update({f"{name}.calls": calls[name] for name in CALLS})
    out.update({name: counts[name] for name in COUNTS})
    terms = counts["branch.terms_computed"]
    useful = sum(min(rec.useful.get(id(p), 0), p.precision)
                 for p in rec.params)
    out["branch.precision_final"] = sum(p.precision for p in rec.params)
    out["branch.terms_useful_ratio"] = useful / terms if terms else 0.0
    out["trace.pass_s"] = pass_s
    out["trace.uncovered_frac"] = (pass_s - rec.top_level_time()) / pass_s
    for name, start, end, parent in rec.spans:
        if parent < 0:
            out[f"{name}.s"] = out.get(f"{name}.s", 0.0) + end - start
    return out
