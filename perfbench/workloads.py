"""The benchmark workloads: seeded op lists, op execution and the
reference check of every op's output.

Every op goes through a public entry point of bimac, either
``cli.main(argv)`` or a public function of one module, in one process on
one thread (closed loop, one client).  A run is a fixed number of passes,
``passes(workload, seconds)``, sized from PASS_SECONDS so that at the
seed commit and reference speed they fill FILL of the requested seconds;
the rest is headroom for a slower host.  A fixed count keeps the op
sample, and so the tail percentile, the same from run to run.  Pass k
of a run with seed s is an op list drawn with
``random.Random(f"{s}:{k}")``, so the same seed gives the same ops.
Pools and references live in ``data/refs.json``, written by
``make_refs.py``.

Workloads:

construct_cold  CONSTRUCT_OPS ``bimac P`` (N = 5, |Lambda| = 3..4) and
                ``bimac E`` (N = 5, |eta| = 1..4) requests at evenly spaced
                quantiles of their cold cost at the seed (requests above
                COST_CAP seconds left out, so a pass fits a run), in seeded
                order, caches and the gcd memo cleared before every op
                (Session.forget) as in a fresh CLI invocation.  Time sits in macdonald, hecke, xpoly and qt.
                The requests are fixed because a seeded choice among
                requests of similar cost still moved the op median by 20 %
                between seeds.
pieri_formula   every ``pieri_expand`` (both variants, r = 0..width) and
                ``eval_formula`` (both signs) call of the pool, N = 5 and
                6, |Lambda*| <= 4, in seeded order per pass.  Only pieri,
                sparts, evalsym and scalar qt arithmetic run; hecke,
                macdonald and xpoly stay idle.  A seeded sample of 300
                calls per pass left the tail latency 8.5 % apart between
                seeds, through the few costly calls it drew.
verify_session  ``run_suite`` for the five identity suites in the order
                ``verify --suite all`` runs them, N = 3, deg = 2, with the
                E/P caches shared inside the pass and cleared, with the
                gcd memo, between passes.  The seed does not change this
                workload.  At deg = 3 a suite runs for up to 3.5 s, and
                the latency of such a long op, scaled by the calibrations
                at its two ends, spread by 25-40 % between repeats; at
                deg = 2 suites take 0.03-0.9 s and a run repeats the pass
                eight times.
cache_session   ``bimac --cache FILE P --N 5`` for the CACHE_SHAPES in
                CACHE_ROUNDS rounds, each round in its own seeded order, on
                a fresh FILE per pass; caches and the gcd memo are cleared
                before every op, so the first round's misses append, later
                hits reload the growing file.  The shapes are fixed because a seeded choice
                of shapes moved the pass time by up to 45 % between seeds.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFS = HERE / "data" / "refs.json"
WORK = ROOT / ".perfbench"

WORKLOADS = ("construct_cold", "pieri_formula", "verify_session",
             "cache_session")

# scaled pass times (wall_s) at the seed commit on a 2-vCPU VM; a run of
# 20 s makes 1, 1, 8 and 3 passes, 11-16 reference seconds, so a host up
# to 1.5 times slower than the reference still starts every pass within
# the 20 s
PASS_SECONDS = {"construct_cold": 10.8, "pieri_formula": 16.0,
                "verify_session": 1.4, "cache_session": 4.1}
FILL = 0.55
CONSTRUCT_OPS = 32
COST_CAP = 1.0
VERIFY_SUITES = ("hecke", "eigen", "symmetry", "evaluation", "pieri")
VERIFY_N, VERIFY_DEG = 3, 2
CACHE_SHAPES = (";2", "1;1", "0;1,1", "1,0;1",
                ";2,1", "1;2", "0;2,1", "2,0;1")
CACHE_ROUNDS = 3


@dataclass(frozen=True)
class Op:
    key: str        # reference key, e.g. "P 2,0;1 5" or "pieri 1;1 5 2 upper"
    kind: str
    args: tuple


def load_refs():
    with open(REFS, encoding="utf-8") as fh:
        return json.load(fh)


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# op lists
# ---------------------------------------------------------------------------

def construct_keys(pool):
    """CONSTRUCT_OPS requests at evenly spaced quantiles of cold cost."""
    keys = sorted((k for k in pool if pool[k] <= COST_CAP),
                  key=lambda k: (pool[k], k))
    return [keys[(2 * i + 1) * len(keys) // (2 * CONSTRUCT_OPS)]
            for i in range(CONSTRUCT_OPS)]


def passes(workload, seconds):
    """Passes that fill about FILL of `seconds` at the seed."""
    return max(1, round(FILL * seconds / PASS_SECONDS[workload]))


def pass_keys(workload, refs, seed, index):
    """The reference keys of pass `index` of a run with this seed."""
    rng = random.Random(f"{seed}:{index}")
    pools = refs["pools"]
    if workload == "construct_cold":
        keys = construct_keys(pools["construct_cold"])
        rng.shuffle(keys)
        return keys
    if workload == "pieri_formula":
        pool = pools["pieri_formula"]
        return rng.sample(pool, len(pool))
    if workload == "verify_session":
        return [f"verify {s} {VERIFY_N} {VERIFY_DEG}" for s in VERIFY_SUITES]
    if workload == "cache_session":
        return [f"P {s} 5" for _ in range(CACHE_ROUNDS)
                for s in rng.sample(CACHE_SHAPES, len(CACHE_SHAPES))]
    raise ValueError(f"unknown workload {workload!r}")


def make_op(key, bimac):
    """Parse a reference key into an op; superpartition text is parsed
    here, as input generation, not inside the timed call."""
    kind, *rest = key.split(" ")
    if kind == "E":
        return Op(key, kind, (rest[0],))
    if kind == "P":
        return Op(key, kind, (rest[0], rest[1]))
    if kind == "pieri":
        lam = bimac.sparts.parse_spart(rest[0], int(rest[1]))
        return Op(key, kind, (lam, int(rest[2]), rest[3]))
    if kind == "eval":
        lam = bimac.sparts.parse_spart(rest[0], int(rest[1]))
        return Op(key, kind, (lam, rest[2]))
    if kind == "verify":
        return Op(key, kind, (rest[0], int(rest[1]), int(rest[2])))
    raise ValueError(f"unknown op key {key!r}")


def make_pass(workload, refs, seed, index, bimac):
    return [make_op(k, bimac) for k in pass_keys(workload, refs, seed, index)]


# ---------------------------------------------------------------------------
# execution
# ---------------------------------------------------------------------------

class Session:
    """Per-run state: the imported package and, for cache_session, the
    JSONL file that each pass starts afresh."""

    def __init__(self, workload, bimac):
        self.workload = workload
        self.bimac = bimac
        self.cache_file = None
        if workload == "cache_session":
            WORK.mkdir(exist_ok=True)
            self.cache_file = str(WORK / f"cache-{os.getpid()}.jsonl")

    def forget(self):
        """Drop what a fresh process would not have: the E/P/Y caches and
        the Q(q,t) gcd memo (private, so cleared only where it exists).
        Left in place, the memo makes an op's cost depend on the ops run
        before it, and so on the seeded order."""
        self.bimac.macdonald.clear_caches()
        memo = getattr(self.bimac.qt, "_GCD_MEMO", None)
        if memo is not None:
            memo.clear()

    def start_pass(self):
        """Reset what a pass must not inherit from the one before."""
        if self.workload == "verify_session":
            self.forget()
        if self.cache_file:
            with open(self.cache_file, "w", encoding="utf-8"):
                pass

    def before_op(self):
        if self.workload in ("construct_cold", "cache_session"):
            self.forget()

    def close(self):
        if self.cache_file and os.path.exists(self.cache_file):
            os.remove(self.cache_file)

    def cache_bytes(self):
        return os.path.getsize(self.cache_file) if self.cache_file else 0

    def run(self, op):
        """Execute one op; E and P return the CLI's standard output, the
        others the function's result."""
        b = self.bimac
        if op.kind in ("E", "P"):
            argv = ["--cache", self.cache_file] if self.cache_file else []
            if op.kind == "E":
                argv += ["E", "--eta", op.args[0], "--format", "json"]
            else:
                argv += ["P", "--spart", op.args[0], "--N", op.args[1],
                         "--format", "json"]
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(err):
                code = b.cli.main(argv)
            if code != 0:
                raise RuntimeError(f"bimac {' '.join(argv)} exited {code}: "
                                   f"{err.getvalue().strip()}")
            return out.getvalue()
        if op.kind == "pieri":
            return b.pieri.pieri_expand(*op.args)
        if op.kind == "eval":
            return b.evalsym.eval_formula(*op.args)
        if op.kind == "verify":
            name, N, deg = op.args
            return b.verify.run_suite(name, N=N, deg=deg)
        raise ValueError(op.kind)


def render(op, result, bimac):
    """The canonical output text of an op, the text its reference
    digest is taken of.  Called outside the timed region."""
    if op.kind in ("E", "P"):
        return result
    if op.kind == "pieri":
        fmt = bimac.sparts.format_spart
        return json.dumps([[fmt(t.omega), t.coeff.to_json()] for t in result],
                          sort_keys=True)
    if op.kind == "eval":
        return json.dumps(result.to_json(), sort_keys=True)
    if op.kind == "verify":
        return "\n".join(result.lines()) + f"\nok={result.ok}"
    raise ValueError(op.kind)


def check(op, text, refs):
    """(passed, known_defect) for an op's canonical output."""
    ref = refs["refs"][op.key]
    passed = digest(text) == ref["sha256"]
    return passed, (not passed and "known_defect" in ref)
