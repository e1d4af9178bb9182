"""Verification suites driving the identities the library is built on.

Each suite returns a list of (check name, passed, detail) triples; the
detail carries the first counterexample when a check fails.  Bounds are
the maximum variable count and degree the sweeps run at.
"""

from __future__ import annotations

import random

from .evalsym import eval_formula, evaluate, symmetry_check
from .macdonald import (bisym_P, c_lambda_formula, dominant_exponent, nonsym_E,
                        _bruhat_less)
from .pieri import (op_identity_check, pieri_bruteforce, pieri_expand,
                    expansions_equal)
from .qt import QTScalar, qt_monomial, t_bracket_factorial
from .sparts import (compositions_of, eigenvalue, format_spart,
                     lambda_naught, superpartitions)
from .xpoly import XPolynomial, elementary_symmetric, EvalPoint
from . import hecke

_ONE = QTScalar.one()
_T = qt_monomial(0, 1)


class Report:
    def __init__(self):
        self.results = []

    def check(self, name, passed, detail=""):
        self.results.append((name, bool(passed), detail))

    @property
    def ok(self):
        return all(p for _, p, _ in self.results)

    def lines(self):
        out = []
        for name, passed, detail in self.results:
            mark = "pass" if passed else "FAIL"
            line = f"[{mark}] {name}"
            if detail and not passed:
                line += f": {detail}"
            out.append(line)
        return out


def _monomials_upto(N, deg):
    out = []
    for d in range(deg + 1):
        for e in compositions_of(d, N):
            out.append(XPolynomial.monomial(e))
    return out


def suite_hecke(N=4, deg=3) -> Report:
    rep = Report()
    monos = _monomials_upto(N, deg)
    bad = None
    for f in monos:
        for i in range(0, N):
            g = hecke.apply_T(i, f)
            if hecke.apply_T(i, g) - g.scale(_T - _ONE) - f.scale(_T) \
                    != XPolynomial.zero(N):
                bad = (i, f)
                break
        if bad:
            break
    rep.check(f"quadratic relation on monomials deg<={deg}, N={N}", bad is None,
              str(bad))
    bad = None
    for f in monos:
        for i in range(0, N):
            j = (i + 1) % N
            if hecke.apply_T(i, hecke.apply_T(j, hecke.apply_T(i, f))) != \
                    hecke.apply_T(j, hecke.apply_T(i, hecke.apply_T(j, f))):
                bad = (i, j, f)
                break
        if bad:
            break
    rep.check("braid relations (affine indices included)", bad is None, str(bad))
    bad = None
    for f in monos:
        for i in range(0, N):
            for j in range(0, N):
                if (i - j) % N in (1, N - 1) or i == j:
                    continue
                if hecke.apply_T(i, hecke.apply_T(j, f)) != \
                        hecke.apply_T(j, hecke.apply_T(i, f)):
                    bad = (i, j, f)
    rep.check("distant generators commute", bad is None, str(bad))
    bad = None
    for f in monos:
        for i in range(2, N):
            if hecke.apply_omega(hecke.apply_T(i, f)) != \
                    hecke.apply_T(i - 1, hecke.apply_omega(f)):
                bad = (i, f)
    rep.check("omega shifts the generator index", bad is None, str(bad))
    bad = None
    for f in monos:
        for i in range(1, N + 1):
            for j in range(i + 1, N + 1):
                if hecke.apply_Y(i, hecke.apply_Y(j, f)) != \
                        hecke.apply_Y(j, hecke.apply_Y(i, f)):
                    bad = (i, j, f)
    rep.check("Cherednik operators commute", bad is None, str(bad))
    bad = None
    for f in monos:
        for i in range(1, N):
            lhs = hecke.apply_T(i, hecke.apply_Y(i, f))
            rhs = hecke.apply_Y(i + 1, hecke.apply_T(i, f)) + \
                hecke.apply_Y(i, f).scale(_T - _ONE)
            lhs2 = hecke.apply_T(i, hecke.apply_Y(i + 1, f))
            rhs2 = hecke.apply_Y(i, hecke.apply_T(i, f)) - \
                hecke.apply_Y(i, f).scale(_T - _ONE)
            if lhs != rhs or lhs2 != rhs2:
                bad = (i, f)
    rep.check("exchange relations between T and Y", bad is None, str(bad))
    got = hecke.symmetrize("t_sym", (1, N), XPolynomial.one(N))
    rep.check("t-symmetrizer of 1 is the t-factorial",
              got == XPolynomial.one(N).scale(t_bracket_factorial(N, "t")))
    rep.check("shifted-product relation for the tail Y product",
              _check_rel_y(N, deg))
    rep.check("e_r(Y) from the t-symmetrizer on symmetric inputs",
              _check_lemma_eY(N))
    rep.check("symmetrized A-product evaluates to the bracket constant",
              _check_rel_u_plus(N))
    return rep


def _check_rel_y(N, deg):
    """Y_(N-r+1)..Y_N on bisymmetric f equals the shifted word."""
    for m in (1, 2):
        if m >= N:
            continue
        f = elementary_symmetric(1, (1, m), N) * \
            elementary_symmetric(1, (m + 1, N), N)
        for r in range(1, N - m + 1):
            lhs = f
            for i in range(N, N - r, -1):
                lhs = hecke.apply_Y(i, lhs)
            rhs = f
            for blk in range(1, r + 1):
                for i in range(m + blk - 1, blk - 1, -1):
                    rhs = hecke.apply_T_inv(i, rhs)
            for _ in range(r):
                rhs = hecke.apply_omega(rhs)
            rhs = rhs.scale(qt_monomial(0, (2 * m + r + 1 - 2 * N) * r // 2))
            if lhs != rhs:
                return False
    return True


def _check_lemma_eY(N):
    f = elementary_symmetric(1, (1, N), N) + \
        elementary_symmetric(N, (1, N), N)
    for r in range(1, N + 1):
        lhs = hecke.apply_e_of_Y(r, (1, N), f)
        rhs = f
        for i in range(N, N - r, -1):
            rhs = hecke.apply_Y(i, rhs)
        rhs = hecke.symmetrize("t_sym", (1, N), rhs)
        norm = (t_bracket_factorial(N - r, "t") *
                t_bracket_factorial(r, "t")).inverse()
        if lhs != rhs.scale(norm):
            return False
    return True


def _check_rel_u_plus(N):
    """The K-symmetrized product of (x_i - t x_j)/(x_i - x_j) over a
    fixed image constraint equals the bracket constant times the block
    A factor, verified at generic points."""
    from itertools import permutations
    rng = random.Random(99)
    for r in range(1, N):
        J = frozenset(rng.sample(range(1, N + 1), r))
        L = frozenset(range(1, N + 1)) - J
        for _ in range(2):
            coords = tuple((rng.randint(0, 30), rng.randint(0, 30))
                           for _ in range(N))
            if len({a for a, _ in coords}) < N or len({b for _, b in coords}) < N:
                continue
            point = EvalPoint(coords)

            def xval(i):
                return point.scalar(i)
            try:
                total = QTScalar.zero()
                target = set(range(N - r + 1, N + 1))
                for sigma in permutations(range(1, N + 1)):
                    if {sigma[i - 1] for i in target} != set(J):
                        continue
                    prod = _ONE
                    for i in range(1, N):
                        for j in range(i + 1, N + 1):
                            si, sj = sigma[i - 1], sigma[j - 1]
                            num = xval(si) - xval(sj).mul_monomial(0, 1)
                            den = xval(si) - xval(sj)
                            prod = prod * num / den
                    total = total + prod
                rhs = t_bracket_factorial(r, "t") * \
                    t_bracket_factorial(N - r, "t")
                for i in sorted(J):
                    for j in sorted(L):
                        rhs = rhs * (xval(i).mul_monomial(0, 1) - xval(j)) / \
                            (xval(i) - xval(j))
                if total != rhs:
                    return False
            except ZeroDivisionError:
                continue
    return True


def suite_eigen(N=4, deg=4) -> Report:
    rep = Report()
    bad = None
    count = 0
    for n in range(2, N + 1):
        for d in range(0, deg + 1):
            for eta in compositions_of(d, n):
                E = nonsym_E(eta)  # construction re-checks all equations
                count += 1
                for i in range(1, n + 1):
                    if hecke.apply_Y(i, E.poly) != \
                            E.poly.scale(eigenvalue(eta, i)):
                        bad = (eta, i)
                for nu in E.poly.terms:
                    if nu != eta and not _bruhat_less(nu, eta):
                        bad = (eta, nu, "triangularity")
    rep.check(f"eigenvalue property and triangularity for {count} E's",
              bad is None, str(bad))
    return rep


def suite_symmetry(N=4, deg=3) -> Report:
    rep = Report()
    bad = None
    pairs = 0
    for m in (1, 2):
        sps = [sp for d in range(deg + 1)
               for sp in superpartitions(d, m, N)]
        for lam in sps:
            for omg in sps:
                for sign in ("minus", "plus"):
                    pairs += 1
                    if not symmetry_check(lam, omg, sign):
                        bad = (format_spart(lam), format_spart(omg), sign)
    rep.check(f"evaluation symmetry on {pairs} pairs", bad is None, str(bad))
    return rep


def suite_evaluation(N=4, deg=3) -> Report:
    rep = Report()
    bad = None
    count = 0
    for m in range(0, N):
        for d in range(0, deg + 1):
            for sp in superpartitions(d, m, N):
                for sign in ("minus", "plus"):
                    count += 1
                    f = eval_formula(sp, sign)
                    s = evaluate(lambda_naught(m, N), sign, bisym_P(sp).poly)
                    if f != s:
                        bad = (format_spart(sp), sign)
    rep.check(f"formula and substitution agree on {count} evaluations",
              bad is None, str(bad))
    bad = None
    for m in (1, 2):
        for d in range(0, deg + 1):
            for sp in superpartitions(d, m, N):
                lhs = eval_formula(sp, "minus").invert_parameters()
                rhs = qt_monomial(m * (m - 1) // 2 - sum(sp.anti), 0) * \
                    eval_formula(sp, "plus")
                if lhs != rhs:
                    bad = format_spart(sp)
    rep.check("plus and minus formulas exchange under parameter inversion",
              bad is None, str(bad))
    return rep


def suite_pieri(N=4, deg=3) -> Report:
    rep = Report()
    bad = None
    count = 0
    for m in (1, 2):
        for d in range(0, deg + 1):
            for sp in superpartitions(d, m, N):
                for r in (1, 2):
                    for variant in ("upper", "lower"):
                        width = N - m if variant == "upper" else m
                        if r > width:
                            continue
                        count += 1
                        if not expansions_equal(
                                pieri_expand(sp, r, variant),
                                pieri_bruteforce(sp, r, variant)):
                            bad = (format_spart(sp), r, variant)
    rep.check(f"strip formula equals the oracle on {count} expansions",
              bad is None, str(bad))
    bad = None
    for m in (1, 2):
        for r in (1, 2):
            if r > min(m, N - m):
                continue
            f = elementary_symmetric(1, (1, m), N) * \
                elementary_symmetric(1, (m + 1, N), N)
            for variant in ("upper", "lower"):
                if not op_identity_check(m, r, f, variant, points=3):
                    bad = (m, r, variant)
    rep.check("two-sided operator identity at generic points",
              bad is None, str(bad))
    return rep


def suite_normalization(N=4, deg=3) -> Report:
    rep = Report()
    bad = None
    count = 0
    for m in (1, 2):
        for d in range(0, deg + 1):
            for sp in superpartitions(d, m, N):
                count += 1
                P = bisym_P(sp)
                if not P.poly.coefficient(dominant_exponent(sp)).is_one():
                    bad = (format_spart(sp), "leading coefficient")
    rep.check(f"dominant monomial coefficient is 1 on {count} P's",
              bad is None, str(bad))
    bad = None
    mism = []
    for m in (1, 2):
        for d in range(0, deg + 1):
            for sp in superpartitions(d, m, N):
                if bisym_P(sp).c_lam != c_lambda_formula(sp):
                    mism.append(format_spart(sp))
    rep.check("recorded constants equal the closed formula",
              not mism, f"{len(mism)} mismatches, first {mism[:3]}")
    return rep


SUITES = {
    "hecke": suite_hecke,
    "eigen": suite_eigen,
    "symmetry": suite_symmetry,
    "evaluation": suite_evaluation,
    "pieri": suite_pieri,
    "normalization": suite_normalization,
}

# what "all" runs, in this order
ALL_SUITES = ("hecke", "eigen", "symmetry", "evaluation", "pieri")


def run_suite(name, N=4, deg=3) -> Report:
    """Run one suite, or: "all" chains the five identity suites.

    The extra "normalization" suite is opt-in: its closed-formula
    clause documents a known discrepancy of the printed constant and
    fails by design, so it is not part of "all".
    """
    if name == "all":
        rep = Report()
        for key in ALL_SUITES:
            sub = SUITES[key](N=N, deg=deg)
            for item in sub.results:
                rep.results.append((f"{key}: {item[0]}", item[1], item[2]))
        return rep
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}")
    return SUITES[name](N=N, deg=deg)
