"""Span recorder for the traced benchmark run.

Each traced pass installs wrappers around the public functions of every
bimac layer (listed in TARGETS), from the benchmark's own files: the
program itself is unchanged.  A wrapper records one span (name, start,
end, parent span) and feeds per-name call counts and self times, where
self time is the span's duration minus the time its child spans cover.
A handful of hooks add the layer counters that call counts cannot give
(cache growth, strips enumerated, records loaded).

A function imported by name into another module (``exact_div`` into
``hecke`` and ``macdonald``, say) is bound there too, so every
module-level binding of the original is replaced, not only the one in
its home module.
"""

from __future__ import annotations

import contextlib
import json
import os
import sys
import time
from collections import defaultdict

from workloads import VERIFY_SUITES

# (module, function) pairs whose calls and self time are reported
TARGETS = (
    ("qt", "poly_gcd"),
    ("xpoly", "exact_div"), ("xpoly", "divided_difference"),
    ("xpoly", "permute_vars"), ("xpoly", "specialize"),
    ("sparts", "enumerate_strips"),
    ("hecke", "apply_T"), ("hecke", "apply_T_inv"), ("hecke", "apply_omega"),
    ("hecke", "apply_Y"), ("hecke", "symmetrize"), ("hecke", "apply_e_of_Y"),
    ("macdonald", "nonsym_E"), ("macdonald", "bisym_P"),
    ("macdonald", "expand_in_P_basis"),
    ("evalsym", "eval_formula"), ("evalsym", "evaluate"),
    ("evalsym", "symmetry_check"),
    ("pieri", "pieri_expand"), ("pieri", "coeff_C"), ("pieri", "coeff_D"),
    ("pieri", "pieri_bruteforce"), ("pieri", "op_identity_check"),
    ("cache", "load"), ("cache", "dump_all"),
    ("render", "xpoly_to_json"), ("render", "xpoly_from_json"),
    ("render", "format_xpoly"),
    ("cli", "main"),
)

# counters that are not call counts or self times
EXTRA_COUNTERS = (
    "sparts.strips", "pieri.nonzero_term_ratio",
    "macdonald.ymatrix_s", "macdonald.E_hit_ratio", "macdonald.P_hit_ratio",
    "cache.records_loaded", "cache.records_appended", "cache.file_bytes_end",
    "qt.max_den_degree",
)

# at most this many spans are kept for the span file of one run
SPAN_LIMIT = 200_000


def metric_names():
    """Every per-layer metric a traced pass produces, in report order."""
    names = []
    for mod, fn in TARGETS:
        names += [f"{mod}.{fn}.calls", f"{mod}.{fn}.self_s"]
    names += [f"verify.run_suite.{s}.s" for s in VERIFY_SUITES]
    return names + list(EXTRA_COUNTERS)


class Tracer:
    """Spans and counters of one traced pass."""

    def __init__(self):
        self.spans = []          # (name, start, end, parent index or -1)
        self.dropped = 0
        self._stack = []         # [name, start, child seconds, span index]
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.total_s = defaultdict(float)
        self.counters = defaultdict(float)
        self._active = defaultdict(int)

    def enter(self, name):
        parent = self._stack[-1][3] if self._stack else -1
        if len(self.spans) < SPAN_LIMIT:
            index = len(self.spans)
            self.spans.append((name, 0.0, 0.0, parent))
        else:
            index = -1
            self.dropped += 1
        self._active[name] += 1
        self._stack.append([name, time.perf_counter(), 0.0, index])

    def active(self, name):
        return self._active[name] > 0

    def exit(self):
        end = time.perf_counter()
        name, start, child, index = self._stack.pop()
        duration = end - start
        self._active[name] -= 1
        self.calls[name] += 1
        self.self_s[name] += duration - child
        self.total_s[name] += duration
        if self._stack:
            self._stack[-1][2] += duration
        if index >= 0:
            self.spans[index] = (name, start, end, self.spans[index][3])
        if name == "hecke.apply_Y" and self._active["macdonald.nonsym_E"]:
            self.counters["macdonald.ymatrix_s"] += duration

    def metrics(self):
        out = {}
        for mod, fn in TARGETS:
            name = f"{mod}.{fn}"
            out[f"{name}.calls"] = self.calls[name]
            out[f"{name}.self_s"] = self.self_s[name]
        for suite in VERIFY_SUITES:
            out[f"verify.run_suite.{suite}.s"] = \
                self.total_s[f"verify.run_suite.{suite}"]
        c = self.counters
        out["sparts.strips"] = int(c["sparts.strips"])
        out["pieri.nonzero_term_ratio"] = _ratio(c["pieri.terms"],
                                                 c["pieri.strips"])
        out["macdonald.ymatrix_s"] = c["macdonald.ymatrix_s"]
        out["macdonald.E_hit_ratio"] = _ratio(c["macdonald.E_hits"],
                                              self.calls["macdonald.nonsym_E"])
        out["macdonald.P_hit_ratio"] = _ratio(c["macdonald.P_hits"],
                                              self.calls["macdonald.bisym_P"])
        out["cache.records_loaded"] = int(c["cache.records_loaded"])
        out["cache.records_appended"] = int(c["cache.records_appended"])
        out["cache.file_bytes_end"] = int(c["cache.file_bytes_end"])
        out["qt.max_den_degree"] = int(c["qt.max_den_degree"])
        return out

    def write(self, path):
        """Write the recorded spans, one JSON array per line."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"spans": len(self.spans),
                                 "dropped": self.dropped}) + "\n")
            for name, start, end, parent in self.spans:
                fh.write(json.dumps([name, start, end, parent]) + "\n")


def _ratio(num, den):
    return num / den if den else 0.0


def _hooks(modules):
    """name -> (before, after): before(args) takes a state, after(tracer,
    args, result, state) updates counters once the call has returned."""
    macdonald = modules["macdonald"]

    def hits(cache_name, counter):
        # a hit returns without growing the in-process cache
        def before(args):
            return len(getattr(macdonald, cache_name, ()))

        def after(tr, args, result, size):
            if len(getattr(macdonald, cache_name, ())) == size:
                tr.counters[counter] += 1
        return before, after

    def strips(tr, args, result, _):
        tr.counters["sparts.strips"] += len(result)
        if tr.active("pieri.pieri_expand"):
            tr.counters["pieri.strips"] += len(result)

    def add(counter, amount):
        def after(tr, args, result, _):
            tr.counters[counter] += amount(result)
        return None, after

    return {
        "macdonald.nonsym_E": hits("_E_CACHE", "macdonald.E_hits"),
        "macdonald.bisym_P": hits("_P_CACHE", "macdonald.P_hits"),
        "sparts.enumerate_strips": (None, strips),
        "pieri.pieri_expand": add("pieri.terms", len),
        "cache.load": add("cache.records_loaded", int),
        "cache.dump_all": add("cache.records_appended", int),
    }


def _wrap(tracer, name, fn, hook):
    before_fn, after_fn = hook if hook else (None, None)
    suite_spans = name == "verify.run_suite"

    def traced(*args, **kwargs):
        before = before_fn(args) if before_fn else None
        tracer.enter(f"{name}.{args[0]}" if suite_spans else name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.exit()
        if after_fn:
            after_fn(tracer, args, result, before)
        return result
    traced.__wrapped__ = fn
    return traced


@contextlib.contextmanager
def install(tracer):
    """The TARGETS (and verify.run_suite) wrapped for one tracer, every
    binding restored on exit."""
    modules = {name.split(".", 1)[1]: mod
               for name, mod in list(sys.modules.items())
               if name.startswith("bimac.") and mod is not None}
    holders = [sys.modules["bimac"], *modules.values()]
    hooks = _hooks(modules)
    undo = []
    try:
        for mod, fn in TARGETS + (("verify", "run_suite"),):
            original = getattr(modules[mod], fn)
            name = f"{mod}.{fn}"
            wrapper = _wrap(tracer, name, original, hooks.get(name))
            for holder in holders:
                for attr, value in list(vars(holder).items()):
                    if value is original:
                        setattr(holder, attr, wrapper)
                        undo.append((holder, attr, original))
        yield tracer
    finally:
        for holder, attr, original in reversed(undo):
            setattr(holder, attr, original)


def max_den_degree(obj):
    """Largest total degree of a denominator in a JSON-encoded output
    (QTScalar.to_json objects nested anywhere)."""
    best = 0
    if isinstance(obj, dict):
        if "num" in obj and "den" in obj:
            return max((int(a) + int(b) for _, a, b in obj["den"]), default=0)
        for value in obj.values():
            best = max(best, max_den_degree(value))
    elif isinstance(obj, list):
        for value in obj:
            best = max(best, max_den_degree(value))
    return best


def spans_path(root, workload, seed):
    out = os.path.join(root, ".perfbench")
    os.makedirs(out, exist_ok=True)
    return os.path.join(out, f"spans-{workload}-{seed}.jsonl")
