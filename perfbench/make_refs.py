"""Write data/refs.json: the op pools of the workloads and a reference
digest for every op, each produced by a route independent of the call
the benchmark times.

Routes:
  eigen         E_eta: Y_i E = ebar_i E for every i (hecke.apply_Y) and
                coefficient 1 at x^eta.
  P-checks      P_Lambda: dominant coefficient 1, bisymmetry, and the
                closed evaluation formula equal to substitution at both
                signs.
  oracle        Pieri: the brute-force P-basis expansion, where affordable
                (|Lambda| + r <= ORACLE_DEGREE[N]); r = 0 gives [(Lambda, 1)]
                since e_0 = 1.
  golden        Pieri beyond that degree: the output of this commit.
  substitution  eval_formula: P_Lambda evaluated at the staircase point.
  suite         verify: every suite's own pass/fail lines, all passing.

A disagreement between a timed call and its independent route stops the
script, except for the documented r = 0 Pieri defect, which is stored as
a known defect so that the benchmark counts those ops as failed.

Run from the repository root (takes about ten minutes):
    python3 perfbench/make_refs.py
The costs are measured, so a new run picks slightly different
construct_cold requests; the baseline must then be measured again.
"""

from __future__ import annotations

import json
import sys
import time

import workloads as wl

sys.path.insert(0, str(wl.ROOT / "src"))

import bimac  # noqa: E402
from bimac import (evalsym, hecke, macdonald, pieri, sparts,  # noqa: E402
                   verify)

ORACLE_DEGREE = {5: 4, 6: 3}
R0_DEFECT = ("pieri_expand returns [] for r = 0, but e_0 = 1 makes the "
             "expansion [(Lambda, 1)]")


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def check_E(eta):
    E = macdonald.nonsym_E(eta)
    f = E.poly
    for i in range(1, len(eta) + 1):
        if hecke.apply_Y(i, f) != f.scale(sparts.eigenvalue(eta, i)):
            raise SystemExit(f"E_{eta}: eigen-equation Y_{i} fails")
    if not f.coefficient(eta).is_one():
        raise SystemExit(f"E_{eta}: coefficient at x^eta is not 1")


def check_P(lam):
    P = macdonald.bisym_P(lam).poly
    lead = macdonald.dominant_exponent(lam)
    if not P.coefficient(lead).is_one():
        raise SystemExit(f"P_{lam}: dominant coefficient is not 1")
    if not macdonald.is_bisymmetric(P, lam.m):
        raise SystemExit(f"P_{lam}: not bisymmetric")
    nought = sparts.lambda_naught(lam.m, lam.N)
    for sign in ("plus", "minus"):
        value = evalsym.evaluate(nought, sign, P)
        if evalsym.eval_formula(lam, sign) != value:
            raise SystemExit(f"P_{lam}: evaluation routes disagree ({sign})")


def run_text(op, session):
    return wl.render(op, session.run(op), bimac)


def construct_refs(refs):
    """Cold cost of every construct_cold candidate (the pool its requests
    are picked from by cost quantile) and the references of all of them."""
    session = wl.Session("construct_cold", bimac)
    pool = {}
    keys = [f"P {sparts.format_spart(s)} 5"
            for d in (3, 4) for m in range(4)
            for s in sparts.superpartitions(d, m, 5)]
    keys += ["E " + ",".join(map(str, eta))
             for d in range(1, 5) for eta in sparts.compositions_of(d, 5)]
    for key in keys:
        op = wl.make_op(key, bimac)
        session.before_op()
        t0 = time.perf_counter()
        text = run_text(op, session)
        pool[key] = round(time.perf_counter() - t0, 4)
        if op.kind == "E":
            check_E(tuple(int(x) for x in op.args[0].split(",")))
            route = "eigen"
        else:
            check_P(sparts.parse_spart(op.args[0], 5))
            route = "P-checks"
        refs[key] = {"sha256": wl.digest(text), "route": route}
        log(key, pool[key])
    return pool


def cache_refs(refs):
    """References for the cache_session shapes."""
    session = wl.Session("construct_cold", bimac)
    for s in wl.CACHE_SHAPES:
        key = f"P {s} 5"
        if key not in refs:
            session.before_op()
            text = run_text(wl.make_op(key, bimac), session)
            check_P(sparts.parse_spart(s, 5))
            refs[key] = {"sha256": wl.digest(text), "route": "P-checks"}


def pieri_refs(refs):
    macdonald.clear_caches()
    keys = []
    for N in (5, 6):
        for d in range(5):
            for m in range(N + 1):
                for lam in sparts.superpartitions(d, m, N):
                    s = sparts.format_spart(lam)
                    for variant, width in (("upper", N - m), ("lower", m)):
                        keys += [f"pieri {s} {N} {r} {variant}"
                                 for r in range(width + 1)]
                    keys += [f"eval {s} {N} {sign}"
                             for sign in ("plus", "minus")]
    session = wl.Session("pieri_formula", bimac)
    for key in keys:
        op = wl.make_op(key, bimac)
        got = run_text(op, session)
        if op.kind == "eval":
            lam, sign = op.args
            value = evalsym.evaluate(sparts.lambda_naught(lam.m, lam.N), sign,
                                     macdonald.bisym_P(lam).poly)
            want = wl.render(op, value, bimac)
            route = "substitution"
        else:
            lam, r, variant = op.args
            if r == 0 or lam.degree() + r <= ORACLE_DEGREE[lam.N]:
                want = wl.render(op, pieri.pieri_bruteforce(lam, r, variant),
                                 bimac)
                route = "oracle"
            else:
                want, route = got, "golden"
        ref = {"sha256": wl.digest(want), "route": route}
        if got != want:
            if op.kind != "pieri" or op.args[1] != 0:
                raise SystemExit(f"{key}: output disagrees with its {route}")
            ref["known_defect"] = R0_DEFECT
        refs[key] = ref
        log(key, route, "known defect" if got != want else "")
    return keys


def verify_refs(refs):
    macdonald.clear_caches()
    for s in wl.VERIFY_SUITES:
        key = f"verify {s} {wl.VERIFY_N} {wl.VERIFY_DEG}"
        rep = verify.run_suite(s, N=wl.VERIFY_N, deg=wl.VERIFY_DEG)
        if not rep.ok:
            raise SystemExit(f"{key}: suite fails:\n" + "\n".join(rep.lines()))
        refs[key] = {"sha256": wl.digest(wl.render(wl.make_op(key, bimac),
                                                   rep, bimac)),
                     "route": "suite"}


def main():
    refs = {}
    pools = {"construct_cold": construct_refs(refs)}
    cache_refs(refs)
    pools["pieri_formula"] = pieri_refs(refs)
    verify_refs(refs)
    wl.REFS.parent.mkdir(exist_ok=True)
    with open(wl.REFS, "w", encoding="utf-8") as fh:
        json.dump({"pools": pools, "refs": refs}, fh, indent=0, sort_keys=True)
        fh.write("\n")
    log(f"wrote {len(refs)} references to {wl.REFS}")


if __name__ == "__main__":
    main()
