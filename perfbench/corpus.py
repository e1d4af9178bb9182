"""Q(q,t) operand corpus: operands recorded from real workload passes,
replayed to time scalar arithmetic and poly_gcd on their own.

Recording (once, offline) hooks QTScalar.__add__, __mul__, __truediv__
and qt.poly_gcd during one pass of construct_cold and one of
pieri_formula (seed 0) and keeps a uniform sample of SAMPLE operand
pairs per operation, stored in the public QTScalar.to_json form (a
QTPoly p is stored as the scalar p/1).  Run from the repository root:

    python3 perfbench/corpus.py
"""

from __future__ import annotations

import json
import random
import sys
import time

import workloads as wl

CORPUS = wl.HERE / "data" / "qt_corpus.json"
SAMPLE = 200
OPS = ("gcd", "add", "mul", "div")


def load(bimac):
    """The stored operand pairs, decoded: op -> [(a, b), ...]."""
    QTScalar = bimac.qt.QTScalar
    with open(CORPUS, encoding="utf-8") as fh:
        raw = json.load(fh)
    out = {}
    for op in OPS:
        pairs = [(QTScalar.from_json(a), QTScalar.from_json(b))
                 for a, b in raw[op]]
        if op == "gcd":
            pairs = [(a.num, b.num) for a, b in pairs]
        out[op] = pairs
    return out


def replay(bimac, pairs):
    """Mean microseconds per operation for each op, one pass over the
    pairs.  gcd runs first, so poly_gcd's memo has not seen its pairs."""
    gcd = bimac.qt.poly_gcd
    calls = {"gcd": gcd, "add": lambda a, b: a + b,
             "mul": lambda a, b: a * b, "div": lambda a, b: a / b}
    out = {}
    for op in OPS:
        fn = calls[op]
        t0 = time.perf_counter()
        for a, b in pairs[op]:
            fn(a, b)
        out[f"qt.corpus.{op}_us"] = \
            (time.perf_counter() - t0) / len(pairs[op]) * 1e6
    return out


class _Reservoir:
    def __init__(self, rng):
        self.rng = rng
        self.items = []
        self.seen = 0

    def offer(self, item):
        self.seen += 1
        if len(self.items) < SAMPLE:
            self.items.append(item)
        else:
            j = self.rng.randrange(self.seen)
            if j < SAMPLE:
                self.items[j] = item


def record():
    sys.path.insert(0, str(wl.ROOT / "src"))
    import bimac
    import bimac.cli  # noqa: F401  (the E and P ops go through the CLI)
    qt = bimac.qt
    rng = random.Random(0)
    samples = {op: _Reservoir(rng) for op in OPS}
    originals = {"add": qt.QTScalar.__add__, "mul": qt.QTScalar.__mul__,
                 "div": qt.QTScalar.__truediv__}
    gcd = qt.poly_gcd

    def hook(op, fn):
        def recorded(a, b):
            samples[op].offer((a, b))
            return fn(a, b)
        return recorded

    qt.QTScalar.__add__ = hook("add", originals["add"])
    qt.QTScalar.__mul__ = hook("mul", originals["mul"])
    qt.QTScalar.__truediv__ = hook("div", originals["div"])
    qt.poly_gcd = hook("gcd", gcd)
    try:
        refs = wl.load_refs()
        for workload in ("construct_cold", "pieri_formula"):
            session = wl.Session(workload, bimac)
            session.start_pass()
            for op in wl.make_pass(workload, refs, 0, 0, bimac):
                session.before_op()
                session.run(op)
    finally:
        qt.QTScalar.__add__ = originals["add"]
        qt.QTScalar.__mul__ = originals["mul"]
        qt.QTScalar.__truediv__ = originals["div"]
        qt.poly_gcd = gcd

    def enc(x):
        if isinstance(x, qt.QTPoly):
            x = qt.QTScalar(x)
        return x.to_json()
    out = {op: [[enc(a), enc(b)] for a, b in samples[op].items]
           for op in OPS}
    out["seen"] = {op: samples[op].seen for op in OPS}
    with open(CORPUS, "w", encoding="utf-8") as fh:
        json.dump(out, fh, sort_keys=True)
        fh.write("\n")
    print(f"wrote {CORPUS}: " + ", ".join(
        f"{op} {len(samples[op].items)} of {samples[op].seen}" for op in OPS))


if __name__ == "__main__":
    record()
