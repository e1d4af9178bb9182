"""Verification suites driving the identities the library is built on.

Each suite returns a list of (check name, passed, detail) triples.  A
check is a list of cases and a predicate; it fails at the first case,
in sweep order, where the predicate is false, and that case is the
detail.  Bounds are the maximum variable count and degree the sweeps
run at.

The hecke suite's operator relations and the eigen suite's equations
run on Z[q,t] term dicts {x-exponent: QTPoly}, through hecke's kernels
with QTPoly.mul_term, the ring and kernels of E's recursion.  Each
relation is checked in an integral form, both sides multiplied by the
same nonzero scalar: t^(N-1) for each Y (the t-cleared word _word), t
for each T_i^(-1) (t Tbar_i), [N-r]![r]! for the e_r(Y) lemma, and a
power of q on the input of words with T_0, whose s_0 can lower a
q-exponent.  Every operator is linear over Q(q,t), so the integral form
holds exactly when the relation does, and equal dicts are equal
polynomials: the checks do no Q(q,t) arithmetic and call no gcd.  The
eigen suite takes the checked K = c E_eta of ``macdonald._integral_E``,
already a Z[q,t] term dict, as it stands: it forms no monic E and
converts nothing, and this ring has no width bound, unlike the packed
check inside construction.

The hecke suite's A-product lemma holds both sides factored: each
symmetrized term and the block factor are ``pieri._a_into`` products,
the constant [r]! [N-r]! comes from ``qt._brackets``, and
``qt._vanishes``, the Pieri operator identity's zero test, adds the
terms minus the right side as integers over one common denominator,
the factors they all share dropped.  The lemma holds exactly when that
sum vanishes, so this check too does no Q(q,t) arithmetic and calls no
gcd.
"""

from __future__ import annotations

import random
from itertools import combinations, permutations, product

from .evalsym import _P_at, eval_formula, symmetry_check
from .macdonald import (bisym_P, c_lambda_corrected, c_lambda_formula,
                        dominant_exponent, _bruhat_below, _integral_E)
from .pieri import (_a_into, _generic_point, _product, op_identity_check,
                    pieri_bruteforce, pieri_expand, expansions_equal)
from .qt import (QTPoly, _brackets, _Factored, _vanishes,
                 t_bracket_factorial)
from .sparts import (SuperPartition, compositions_of, eigenvalue, eval_point,
                     format_spart, lambda_naught, superpartitions)
from .xpoly import XPolynomial, elementary_symmetric
from . import hecke

# the kernels' mul on Z[q,t] term dicts, and the factors 1, t - 1 and t
_MUL = QTPoly.mul_term
_ONE = QTPoly.one()
_T_1 = QTPoly({(0, 1): 1, (0, 0): -1})
_TP = QTPoly.monomial(0, 1)


class Report:
    def __init__(self):
        self.results = []

    def check(self, name, cases, holds):
        """Record `name`, failing at the first case where holds(*case)
        is false; later cases are not tried."""
        for case in cases:
            if not holds(*case):
                self.results.append((name, False, _show(case)))
                return
        self.results.append((name, True, ""))

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


def _show(case):
    """A failing case as detail text, superpartitions in CLI notation."""
    shown = tuple(format_spart(x) if isinstance(x, SuperPartition) else x
                  for x in case)
    return str(shown[0] if len(shown) == 1 else shown)


def _monomials_upto(N, deg):
    return [XPolynomial.monomial(e)
            for d in range(deg + 1) for e in compositions_of(d, N)]


def _sparts_upto(N, deg, ms=(1, 2)):
    """Superpartitions with m in ms and |Lambda*| <= deg, m first."""
    return [sp for m in ms for d in range(deg + 1)
            for sp in superpartitions(d, m, N)]


def _e1_blocks(m, N):
    """e_1 of the first m variables times e_1 of the rest: bisymmetric."""
    return elementary_symmetric(1, (1, m), N) * \
        elementary_symmetric(1, (m + 1, N), N)


def _integral(s):
    """The QTPoly equal to the QTScalar s; ValueError unless s lies in
    Z[q,t]."""
    if s.c.denominator != 1 or not s.den.is_one():
        raise ValueError(f"coefficient {s} is not in Z[q,t]")
    return s.num.mul_term(0, 0, s.c.numerator)


def _terms(f, a=0):
    """q^a f as a Z[q,t] term dict {x-exponent: QTPoly}; ValueError
    unless every coefficient of f lies in Z[q,t]."""
    return {e: _integral(s).mul_term(a, 0) for e, s in f.terms.items()}


def _comb(*pairs):
    """The sum of p f over pairs (f, p) of a Z[q,t] term dict and a
    QTPoly, zero terms dropped."""
    out = {}
    for f, p in pairs:
        for e, c in f.items():
            c = c * p
            prev = out.get(e)
            out[e] = c if prev is None else prev + c
    return {e: c for e, c in out.items() if c}


def _T(i, f):
    """T_i f on a Z[q,t] term dict, 0 <= i < N.  T_0 lowers the least
    q-exponent of a coefficient by at most the degree of its term (see
    hecke._t0), so f must carry that many powers of q per T_0 to come."""
    return hecke._step(i, f, 1, _MUL) if i else hecke._t0(f, _MUL)


def _W(i, f):
    """t^(N-1) Y_i f on a Z[q,t] term dict, 1 <= i <= N."""
    return hecke._word(i, f, _MUL)


def suite_hecke(N=4, deg=3) -> Report:
    rep = Report()
    monos = _monomials_upto(N, deg)
    # no word below applies T_0 more than twice, so on q^(2 deg) x^e
    # every q-exponent stays nonnegative
    lift = 2 * deg

    def quadratic(i, f):
        f = _terms(f, lift)
        g = _T(i, f)
        return _T(i, g) == _comb((g, _T_1), (f, _TP))

    def braid(i, j, f):
        f = _terms(f, lift)
        return _T(i, _T(j, _T(i, f))) == _T(j, _T(i, _T(j, f)))

    def commute(op):
        def holds(i, j, f):
            f = _terms(f, lift)
            return op(i, op(j, f)) == op(j, op(i, f))
        return holds

    def omega_shift(i, f):
        f = _terms(f, lift)
        return hecke._omega(_T(i, f), _MUL) == \
            _T((i - 1) % N, hecke._omega(f, _MUL))

    def exchange(i, f):
        # T_i Y_i = Y_(i+1) T_i + (t - 1) Y_i and T_i Y_(i+1) + (t - 1) Y_i
        # = Y_i T_i, times t^(N-1)
        f = _terms(f)
        yi, ti = _W(i, f), _T(i, f)
        return _T(i, yi) == _comb((_W(i + 1, ti), _ONE), (yi, _T_1)) and \
            _comb((_T(i, _W(i + 1, f)), _ONE), (yi, _T_1)) == _W(i, ti)

    rep.check(f"quadratic relation on monomials deg<={deg}, N={N}",
              [(i, f) for f in monos for i in range(N)], quadratic)
    # affine type A_1 has no braid relation between T_0 and T_1
    rep.check("braid relations (affine indices included)",
              [(i, (i + 1) % N, f) for f in monos for i in range(N) if N >= 3],
              braid)
    rep.check("distant generators commute",
              [(i, j, f) for f in monos for i in range(N) for j in range(N)
               if i != j and (i - j) % N not in (1, N - 1)], commute(_T))
    rep.check("omega shifts the generator index",
              [(i, f) for f in monos for i in range(N)], omega_shift)
    rep.check("Cherednik operators commute",
              [(i, j, f) for f in monos for i in range(1, N + 1)
               for j in range(i + 1, N + 1)], commute(_W))
    rep.check("exchange relations between T and Y",
              [(i, f) for f in monos for i in range(1, N)], exchange)
    rep.check("t-symmetrizer of 1 is the t-factorial",
              [(XPolynomial.one(N),)],
              lambda f: hecke._symmetrize("t_sym", (1, N), _terms(f), _MUL) ==
              _terms(f.scale(t_bracket_factorial(N, "t"))))
    rep.check("shifted-product relation for the tail Y product",
              [(m, r) for m in (1, 2) if m < N for r in range(1, N - m + 1)],
              lambda m, r: _rel_y(N, m, r))
    rep.check("e_r(Y) from the t-symmetrizer on symmetric inputs",
              [(r,) for r in range(1, N + 1)], lambda r: _lemma_eY(N, r))
    rep.check("symmetrized A-product evaluates to the bracket constant",
              _rel_u_plus_cases(N), lambda r, J, coords:
              _rel_u_plus(N, r, J, coords))
    return rep


def _rel_y(N, m, r):
    """Y_(N-r+1)..Y_N on the bisymmetric e_1 product equals the shifted
    word t^((2m + r + 1 - 2N) r/2) omega^r T^(-1)..T^(-1).  Times
    t^(r(N-1)), with T_i^(-1) = t^(-1) (t Tbar_i) for each of the m r
    inverses, both sides lie in Z[q,t]: the t-cleared words on the left,
    t^(r(r-1)/2) omega^r (t Tbar)..(t Tbar) on the right."""
    f = _terms(_e1_blocks(m, N))
    lhs = f
    for i in range(N, N - r, -1):
        lhs = _W(i, lhs)
    rhs = f
    for blk in range(1, r + 1):
        for i in range(m + blk - 1, blk - 1, -1):
            rhs = hecke._step(i, rhs, 0, _MUL)
    for _ in range(r):
        rhs = hecke._omega(rhs, _MUL)
    return lhs == _comb((rhs, QTPoly.monomial(0, r * (r - 1) // 2)))


def _lemma_eY(N, r):
    """e_r(Y) f is the t-symmetrized tail Y product over [N-r]![r]!;
    times t^(r(N-1)) [N-r]![r]!, both sides lie in Z[q,t]."""
    f = _terms(elementary_symmetric(1, (1, N), N) +
               elementary_symmetric(N, (1, N), N))
    rhs = f
    for i in range(N, N - r, -1):
        rhs = _W(i, rhs)
    rhs = hecke._symmetrize("t_sym", (1, N), rhs, _MUL)
    norm = t_bracket_factorial(N - r, "t") * t_bracket_factorial(r, "t")
    return _comb((hecke._e_of_Y(r, (1, N), f, _MUL),
                  _integral(norm))) == rhs


def _rel_u_plus_cases(N):
    """(r, J, coords): a random r-subset J of [N] and two generic points
    per r."""
    rng = random.Random(99)
    cases = []
    for r in range(1, N):
        J = tuple(sorted(rng.sample(range(1, N + 1), r)))
        cases += [(r, J, _generic_point(N, 2 * r + k)) for k in range(2)]
    return cases


def _rel_u_plus(N, r, J, point):
    """The K-symmetrized product of (x_i - t x_j)/(x_i - x_j) over the
    permutations sending the last r variables onto J equals the bracket
    constant times the block A factor, at a point whose coordinates are
    distinct monomials."""
    # (x_a - t x_b)/(x_a - x_b) is _a_into's (t X_b - X_a)/(X_b - X_a)
    terms = [_product(_a_into, point, [(sigma[j], sigma[i]) for i, j in
                                       combinations(range(N), 2)])
             for sigma in permutations(range(1, N + 1))
             if set(sigma[N - r:]) == set(J)]
    num, den = _brackets([*range(1, r + 1), *range(1, N - r + 1)], "t")
    rest = set(range(1, N + 1)) - set(J)
    rhs = _Factored.prod([*num, _product(_a_into, point, product(J, rest))],
                         den)
    return _vanishes([*terms, rhs],
                     [{(0, 0): 1}] * len(terms) + [{(0, 0): -1}])


def _eigen_and_triangular(eta):
    """The checked K = c E_eta of _integral_E (construction checks it
    too): every support monomial other than x^eta is Bruhat-below eta,
    and t^(N-1) Y_i K = t^(N-1) ebar_i K for every i, on K's Z[q,t] term
    dict, where the ring has no width bound."""
    N = len(eta)
    K = _integral_E(eta)
    below = _bruhat_below(eta)
    return all(nu == eta or below(nu) for nu in K) and \
        all(_W(i, K) == _comb((K, _integral(
            eigenvalue(eta, i).mul_monomial(0, N - 1))))
            for i in range(1, N + 1))


def suite_eigen(N=4, deg=4) -> Report:
    rep = Report()
    etas = [(eta,) for n in range(2, N + 1) for d in range(deg + 1)
            for eta in compositions_of(d, n)]
    rep.check(f"eigenvalue property and triangularity for {len(etas)} E's",
              etas, _eigen_and_triangular)
    return rep


def suite_symmetry(N=4, deg=3) -> Report:
    rep = Report()
    sps = _sparts_upto(N, deg)
    pairs = [(lam, omg, sign) for lam in sps for omg in sps
             if omg.m == lam.m for sign in ("minus", "plus")]
    rep.check(f"evaluation symmetry on {len(pairs)} pairs", pairs,
              symmetry_check)
    return rep


def suite_evaluation(N=4, deg=3) -> Report:
    rep = Report()
    cases = [(sp, sign) for sp in _sparts_upto(N, deg, range(N))
             for sign in ("minus", "plus")]
    rep.check(f"formula and substitution agree on {len(cases)} evaluations",
              cases, lambda sp, sign: eval_formula(sp, sign) == _P_at(
                  sp, eval_point(lambda_naught(sp.m, N), sign)))
    rep.check("plus and minus formulas exchange under parameter inversion",
              [(sp,) for sp in _sparts_upto(N, deg)],
              lambda sp: eval_formula(sp, "minus").invert_parameters() ==
              eval_formula(sp, "plus").mul_monomial(
                  sp.m * (sp.m - 1) // 2 - sum(sp.anti), 0))
    return rep


def suite_pieri(N=4, deg=3) -> Report:
    rep = Report()
    cases = [(sp, r, variant) for sp in _sparts_upto(N, deg) for r in (1, 2)
             for variant in ("upper", "lower")
             if r <= (N - sp.m if variant == "upper" else sp.m)]
    rep.check(f"strip formula equals the oracle on {len(cases)} expansions",
              cases, lambda sp, r, variant: expansions_equal(
                  pieri_expand(sp, r, variant),
                  pieri_bruteforce(sp, r, variant)))
    rep.check("two-sided operator identity at generic points",
              [(m, r, variant) for m in (1, 2) for r in (1, 2)
               if r <= min(m, N - m) for variant in ("upper", "lower")],
              lambda m, r, variant: op_identity_check(m, r, _e1_blocks(m, N),
                                                      variant))
    return rep


def suite_normalization(N=4, deg=3) -> Report:
    rep = Report()
    sps = _sparts_upto(N, deg)
    rep.check(f"dominant monomial coefficient is 1 on {len(sps)} P's",
              [(sp,) for sp in sps], lambda sp: bisym_P(sp).poly.coefficient(
                  dominant_exponent(sp)).is_one())
    rep.check("recorded constants equal c_lambda_corrected on "
              f"{len(sps)} P's", [(sp,) for sp in sps],
              lambda sp: bisym_P(sp).c_lam == c_lambda_corrected(sp))
    # a census rather than a first counterexample: this clause fails by
    # design, and the detail counts every shape it fails on
    mism = [format_spart(sp) for sp in sps
            if bisym_P(sp).c_lam != c_lambda_formula(sp)]
    rep.results.append(("recorded constants equal the closed formula",
                        not mism, f"{len(mism)} mismatches, first {mism[:3]}"))
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
