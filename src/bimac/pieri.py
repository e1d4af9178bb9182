"""Pieri expansions for the bisymmetric Macdonald polynomials: the
sign-and-Vandermonde factor Phi, the two coefficient families C and D
evaluated at positive evaluation points, the strip-indexed expansion
engines, a brute-force oracle, and the two-sided operator identity
check.

Every coefficient is assembled factor by factor at an evaluation
point, the tuple of the (a_i, b_i) of X_i = q^(a_i) t^(b_i); no
rational functions in x are ever formed symbolically.  Each
factor is a monomial or a q,t-binomial X_i - X_j, t X_i - X_j, so the
coefficients, the t-Vandermonde and the staircase evaluations are held
as factored binomial products (``qt._Factored``) and each Pieri
coefficient is expanded to a canonical QTScalar once, with no gcd.
Each helper (the A products, Phi, K_sigma(Delta_m)) appends its factors
and divisors to one pair of lists, checking each divisor as it goes, and
``pieri_expand`` adds the normalization and the divisor u_Omega^+(P_Omega)
to the same lists, so each Pieri coefficient is one ``_Factored.prod``.
A certificate shifts the point by q on J once (``_shifted``) and reads
each coordinate by index.  Its factors come from bounded memos, each
value shared and never changed in place:

* ``_ratio``: an A product's pair (t X_i - X_j)/(X_i - X_j) as one
  factored value, keyed by the four exponents;
* ``SigmaSets.from_sigma``: the sigma data, keyed by (sigma, m), with the
  increasing index tuples that Phi and K_sigma(Delta_m) walk;
* ``qt._Factored.binomial``: the Vandermonde and Phi binomials;
* ``evalsym._eval_factors``: the staircase evaluations u^+(P);
* ``qt._expand``: the expanded coefficient, which serves a value that
  another Lambda's expansion met.

The brute-force oracle ``pieri_bruteforce`` shares none of this: it
multiplies e_r into P_Lambda's integral form Q on integers, at the orbit
representatives of S_m x S_(N-m) only, and expands the product in the P
basis by macdonald's one peel over P_Lambda's factored c, with no gcd.

The operator identity is decided on f's integral form F, f = c F / den,
since both sides are linear over Q(q,t).  The left side is F times the
t-Vandermonde with e_r(Y) applied, on Z[q,t] term dicts through hecke's
kernel.  At each point the right side is its factored C/D coefficients
times F's integer values at the transformed points, and the left side
is one more term, G's value times -t^(-r(N-1)).  ``qt._vanishes``, which
verify's A-product lemma shares, decides whether that sum is zero as
integers over the coefficients' common denominator: no division, no gcd
on an integral f, and no Q(q,t) value.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from operator import add

from .errors import ConsistencyError, DegenerateEvaluationError
from .evalsym import _eval_factors
from .macdonald import _is_rep, _peel, bisym_P, is_bisymmetric
from .qt import (QTPoly, QTScalar, _Factored, _FACTORED_ZERO, _add_product,
                 _vanishes)
from .sparts import (StripCertificate, SuperPartition, enumerate_strips,
                     eval_point, perm_inverse)
from .xpoly import XPolynomial, _integral_form, _laurent_at
from . import hecke

_ONE = QTScalar.one()
_ONE_F = Fraction(1)
_UNIT = {(0, 0): 1}


@dataclass(frozen=True)
class SigmaSets:
    """The index sets attached to a permutation relative to the block
    decomposition [1,m] | [m+1,N], and the increasing tuples of
    a_comp, b_comp, a_set and sigma([m]) that the coefficient factors
    walk."""

    a_set: frozenset
    a_comp: frozenset
    b_set: frozenset
    b_comp: frozenset
    s: int
    z_sigma: int
    d_sigma: int
    a_comp_rows: tuple
    b_comp_rows: tuple
    a_set_rows: tuple
    img_rows: tuple

    @staticmethod
    @lru_cache(maxsize=1024)
    def from_sigma(sigma, m):
        """Memoized on (sigma, m): the value is shared, and frozen."""
        n = len(sigma)
        inv = perm_inverse(sigma)
        a_set = frozenset(i for i in range(1, m + 1) if inv[i - 1] <= m)
        b_set = frozenset(i for i in range(m + 1, n + 1) if inv[i - 1] > m)
        a_comp = frozenset(range(1, m + 1)) - a_set
        b_comp = frozenset(range(m + 1, n + 1)) - b_set
        s = len(a_comp)
        if s != len(b_comp):
            raise ConsistencyError("complement sets have unequal sizes")
        z = sum(1 for i in range(m) for j in range(i + 1, m)
                if sigma[i] > sigma[j])
        pairs_lt = sum(1 for i in a_comp for j in a_set if i < j)
        d = s * (s - 1) // 2 + pairs_lt + z
        return SigmaSets(a_set, a_comp, b_set, b_comp, s, z, d,
                         tuple(sorted(a_comp)), tuple(sorted(b_comp)),
                         tuple(sorted(a_set)), tuple(sorted(sigma[:m])))


@dataclass(frozen=True)
class PieriTerm:
    omega: SuperPartition
    certificate: StripCertificate
    coeff: QTScalar


def _shifted(point, shift):
    """The point with the coordinates X_i, i in shift, times q."""
    if not shift:
        return point
    return tuple((a + 1, b) if i in shift else (a, b)
                 for i, (a, b) in enumerate(point, 1))


@lru_cache(maxsize=4096)
def _ratio(ai, bi, aj, bj) -> _Factored:
    """(t X_i - X_j)/(X_i - X_j) for X_i != X_j, one factored value.
    Memoized: the value is shared, so no phi is ever changed in place."""
    return _Factored.prod((_Factored.binomial(ai, bi + 1, aj, bj),),
                          (_Factored.binomial(ai, bi, aj, bj),))


def _a_into(num, den, pt, pairs) -> bool:
    """Append the ratios (t X_i - X_j)/(X_i - X_j) of the pairs at the
    point pt to num (den gets none), diagonal pairs skipped, pair by
    pair: a vanishing divisor raises, and a vanishing factor stops the
    product and returns False."""
    for i, j in pairs:
        if i == j:
            continue
        xi, xj = pt[i - 1], pt[j - 1]
        if xi == xj:
            raise DegenerateEvaluationError(
                f"vanishing denominator X_{i} - X_{j}")
        f = _ratio(*xi, *xj)
        if f.is_zero():
            return False
        num.append(f)
    return True


def _product(into, *args) -> _Factored:
    """The one factored product of what into(num, den, *args) appends
    to num and den, or zero if it returns False."""
    num, den = [], []
    return _Factored.prod(num, den) if into(num, den, *args) \
        else _FACTORED_ZERO


def _vandermonde_into(num, pt, rows):
    """Append the factors X_i - X_j, i < j in the increasing rows, of the
    Vandermonde at the point pt to num."""
    num += [_Factored.binomial(*pt[i - 1], *pt[j - 1])
            for i, j in combinations(rows, 2)]


_SIGNS = (_Factored(1), _Factored(-1))


def _phi_into(num, den, ss, pt):
    """Append Phi's factors and divisors at the point pt to num and den;
    a vanishing divisor raises."""
    num.append(_SIGNS[ss.d_sigma % 2])
    # (t - 1) X_j = t X_j - X_j
    num += [_Factored.binomial(a, b + 1, a, b)
            for a, b in (pt[j - 1] for j in ss.b_comp_rows)]
    _vandermonde_into(num, pt, ss.a_comp_rows)
    _vandermonde_into(num, pt, ss.b_comp_rows)
    for i in ss.a_comp_rows:
        for j in ss.b_comp_rows:
            d = _Factored.binomial(*pt[i - 1], *pt[j - 1])
            if d.is_zero():
                raise DegenerateEvaluationError(
                    f"vanishing denominator X_{i} - X_{j} in Phi")
            den.append(d)


def _k_sigma_delta_into(num, ss, pt):
    """Append the factors of K_sigma(Delta_m) at the point pt, the signed
    Vandermonde over sigma([m]), to num."""
    num.append(_SIGNS[ss.z_sigma % 2])
    _vandermonde_into(num, pt, ss.img_rows)


def _t_power(r, N, sign=1) -> _Factored:
    return _Factored(sign, 0, r * (r + 1 - 2 * N) // 2)


def _C_into(num, den, m, r, J, L, sigma, point) -> bool:
    """Append the factors and divisors of the type-I coefficient
    C_(J,sigma) to num and den; False if an A product vanishes.

    The A product over J x sigma([m]) skips equal indices, as its tilde
    decoration requires.  Each part is checked in turn: the two outer A
    products, then the inner one, then Phi, whose divisors are checked
    even when the inner product has vanished.
    """
    Js = sorted(J)
    outer = (_a_into(num, den, point, combinations(range(1, m + 1), 2)),
             _a_into(num, den, point,
                     [(i, j) for i in Js for j in sorted(L)]))
    if not all(outer):
        return False
    ss = SigmaSets.from_sigma(sigma, m)
    pt = _shifted(point, J)
    inner = _a_into(num, den, pt,
                    [(i, j) for i in Js for j in ss.img_rows])
    num.append(_t_power(r, len(sigma)))
    _phi_into(num, den, ss, pt)
    _k_sigma_delta_into(num, ss, pt)
    return inner


def _D_into(num, den, m, r, J, sigma, point) -> bool:
    """Append the factors and divisors of the type-II coefficient
    D_(J,sigma) to num and den; False if an A product vanishes.

    Pairs of the two A products whose indices meet J a second time are
    excluded: (i,i) pairs in the block product, and (i,j) with j in J
    in the inner product.  The singular diagonal pairs force some such
    convention; this particular one is the reading confirmed by the
    brute-force expansion oracle over the full verification sweep.
    Each part is checked in turn: the two outer A products, then Phi,
    then the inner A product.
    """
    N = len(sigma)
    ss = SigmaSets.from_sigma(sigma, m)
    Js = sorted(J)
    outer = (_a_into(num, den, point, combinations(range(1, m + 1), 2)),
             _a_into(num, den, point, [(i, j) for i in Js
                                       for j in range(m + 1, N + 1)]))
    if not all(outer):
        return False
    _phi_into(num, den, ss, point)
    pt = _shifted(point, J)
    if not _a_into(num, den, pt, [(i, j) for i in Js for j in ss.a_set_rows
                                  if j not in J]):
        return False
    num.append(_t_power(r, N, -1 if len(ss.b_comp) % 2 else 1))
    _k_sigma_delta_into(num, ss, pt)
    return True


def _certificate_into(num, den, lam, cert, point) -> bool:
    """Append the factors of the certificate's coefficient at
    u_Lambda^+'s point to num and den; False if an A product vanishes."""
    if cert.strip_type == "I":
        return _C_into(num, den, lam.m, cert.r, cert.J, cert.L, cert.sigma,
                       point)
    return _D_into(num, den, lam.m, cert.r, cert.J, cert.sigma, point)


def coeff_C(lam: SuperPartition, cert: StripCertificate) -> QTScalar:
    """u_Lambda^+ of the type-I Pieri coefficient C_(J,sigma)."""
    if cert.strip_type != "I":
        raise ValueError("coeff_C needs a type-I certificate")
    return _product(_certificate_into, lam, cert,
                    eval_point(lam, "plus")).expand()


def coeff_D(lam: SuperPartition, cert: StripCertificate) -> QTScalar:
    """u_Lambda^+ of the type-II Pieri coefficient D_(J,sigma)."""
    if cert.strip_type != "II":
        raise ValueError("coeff_D needs a type-II certificate")
    return _product(_certificate_into, lam, cert,
                    eval_point(lam, "plus")).expand()


def _delta_t_factors(m, point) -> _Factored:
    """The t-Vandermonde at the point: the product of the t X_i - X_j,
    1 <= i < j <= m."""
    return _Factored.prod([_Factored.binomial(a, b + 1, *xj) for (a, b), xj
                           in combinations(point[:m], 2)])


def _interval(r, variant, m, N):
    """The variables e_r runs over, x_(m+1)..x_N (upper) or x_1..x_m
    (lower); an unknown variant or r < 0 raises ValueError."""
    if variant not in ("upper", "lower"):
        raise ValueError(f"unknown variant {variant!r}")
    if r < 0:
        raise ValueError(f"e_{r} is undefined: r must be nonnegative")
    return (m + 1, N) if variant == "upper" else (1, m)


def pieri_expand(lam: SuperPartition, r: int, variant: str):
    """The Pieri expansion of e_r(x_(m+1)..x_N) (upper) or
    e_r(x_1..x_m) (lower) times P_Lambda, via strip certificates and
    factor-wise evaluation.  Each coefficient is one factored product,
    of its own factors, the normalization and the evaluation of Omega,
    expanded once.  Terms with zero coefficient are dropped; the rest
    keep enumerate_strips' order, by Omega's (anti, sym).  At r = 0,
    e_0 = 1 and the expansion is P_Lambda itself, with no certificate.
    """
    _interval(r, variant, lam.m, lam.N)
    if r == 0:
        return [PieriTerm(omega=lam, certificate=None, coeff=_ONE)]
    strip_type = "I" if variant == "upper" else "II"
    certs = enumerate_strips(lam, r, strip_type)
    point = eval_point(lam, "plus")
    delta = _delta_t_factors(lam.m, point)
    if delta.is_zero():
        raise DegenerateEvaluationError(
            "u^+ of the t-Vandermonde vanished; the Pieri normalization "
            "breaks down")
    # the lower expansion carries an extra q^r
    q_r = _Factored.monomial(r if variant == "lower" else 0, 0)
    scale = _Factored.prod((_eval_factors(lam, "plus"), q_r), (delta,))
    out = []
    for cert in certs:
        # the coordinates of u_Lambda^+ have distinct t-exponents, so no
        # X_i - X_j vanishes, even q-shifted, and a coefficient vanishes
        # only where an A product does
        num, den = [scale], []
        if not _certificate_into(num, den, lam, cert, point):
            continue
        den.append(_eval_factors(cert.omg, "plus"))
        out.append(PieriTerm(omega=cert.omg, certificate=cert,
                             coeff=_Factored.prod(num, den).expand()))
    return out


def pieri_bruteforce(lam: SuperPartition, r: int, variant: str):
    """Oracle: multiply out e_r P_Lambda and expand in the P basis, at
    r = 0 too, where e_0 = 1 and the peel must give back P_Lambda.

    With P_Lambda = Q / c, e_r Q is formed on integers, and only at the
    orbit representatives the peel reads (macdonald._is_rep), then
    peeled over c by the one peel of expand_in_P_basis: no gcd."""
    m, N = lam.m, lam.N
    lo, hi = _interval(r, variant, m, N)
    if r > hi - lo + 1:
        return []
    P = bisym_P(lam)
    # the exponent of each monomial of e_r
    rows = [tuple(int(i in S) for i in range(N))
            for S in combinations(range(lo - 1, hi), r)]
    F = {}
    for e, v in P.Q.items():
        for s in rows:
            x = tuple(map(add, e, s))
            if _is_rep(x, m):
                _add_product(F.setdefault(x, {}), _UNIT, v.terms)
    return [PieriTerm(omega=sp, certificate=None, coeff=c)
            for sp, c in _peel(F, m, N, lam.degree() + r, P.c, _ONE_F)]


def expansions_equal(a, b) -> bool:
    return [(t.omega, t.coeff) for t in a] == [(t.omega, t.coeff) for t in b]


# ---------------------------------------------------------------------------
# two-sided operator identity of the e_r(Y) expansions
# ---------------------------------------------------------------------------

def _coset_reps(m, N, allowed):
    """Minimal-length representatives of S_N / (S_m x S_(m+1,N)) whose
    image of [m] avoids the complement constraint: sigma([m]) subset of
    allowed."""
    reps = []
    universe = sorted(allowed)
    for img in combinations(universe, m):
        rest = [i for i in range(1, N + 1) if i not in img]
        sigma = list(img) + rest
        reps.append(tuple(sigma))
    return reps


def _generic_point(N, seed):
    """A deterministic q,t-monomial point with well-separated exponents."""
    rng = random.Random(seed)
    while True:
        coords = tuple((rng.randint(0, 40), rng.randint(0, 40))
                       for _ in range(N))
        if len({a for a, _ in coords}) == N and \
                len({b for _, b in coords}) == N:
            return coords


# the operator identity is checked at this many generic points, drawn
# from seeds _OP_SEED + 1, _OP_SEED + 2, ...
_OP_POINTS = 3
_OP_SEED = 20250


def _left_side(m, r, interval, F):
    """t^(r(N-1)) e_r(Y_a, .., Y_b) Delta_m^t F for a Z[q,t] term dict
    F: F times each t x_i - x_j, 1 <= i < j <= m, then hecke's kernel."""
    for i, j in combinations(range(m), 2):
        out = {}
        for e, c in F.items():
            for k, v in ((i, c.mul_term(0, 1)), (j, -c)):
                x = e[:k] + (e[k] + 1,) + e[k + 1:]
                prev = out.get(x)
                out[x] = v if prev is None else prev + v
        F = {e: c for e, c in out.items() if c}
    return hecke._e_of_Y(r, interval, F, QTPoly.mul_term)


def op_identity_check(m: int, r: int, f: XPolynomial, variant: str) -> bool:
    """Check e_r(Y block) Delta_m^t f = sum C/D tau_J K_sigma f at
    _OP_POINTS generic evaluation points.

    Exact values at enough well-separated monomial points separate the
    two sides at the ambient degree; a degenerate point (vanishing
    denominator) is skipped and replaced.  Both sides are linear over
    Q(q,t), so each is taken on f's integral form F, f = c F / den,
    formed once: the left side as G = t^(r(N-1)) e_r(Y) Delta_m^t F on
    Z[q,t] term dicts (``_left_side``), and the right side at each
    point as its factored coefficients and F's values (``_rhs_at``).
    They agree when the right side minus t^(-r(N-1)) G(point) vanishes
    (``qt._vanishes``).
    """
    N = f.nvars
    if not is_bisymmetric(f, m):
        raise ValueError("the operator identity needs a bisymmetric input")
    F = _integral_form(f)[2]
    G = _left_side(m, r, _interval(r, variant, m, N), F)
    checked = 0
    for attempt in range(1, 20 * _OP_POINTS + 1):
        point = _generic_point(N, _OP_SEED + attempt)
        try:
            coeffs, values = _rhs_at(m, r, F, variant, point)
        except DegenerateEvaluationError:
            continue
        if not _vanishes([*coeffs, _Factored(-1, 0, -r * (N - 1))],
                         [*values, _laurent_at(G, point)]):
            return False
        checked += 1
        if checked == _OP_POINTS:
            return True
    raise ConsistencyError("could not find enough generic points")


def _rhs_at(m, r, F, variant, point):
    """(coeffs, values): the sum of C/D tau_J K_sigma F at the point, F
    a Z[q,t] term dict, is the sum of coeff * value over the nonzero
    factored coefficients and F's integer Laurent values at the points
    that tau_J K_sigma moves it to."""
    N = len(point)
    coeffs, values = [], []
    lo = m + 1 if variant == "upper" else 1
    for J in combinations(range(lo, N + 1), r):
        Jset = frozenset(J)
        pt = _shifted(point, Jset)
        L = frozenset(range(m + 1, N + 1)) - Jset
        allowed = frozenset(range(1, N + 1)) - L
        for sigma in _coset_reps(m, N, allowed):
            # the lower family keeps the cosets whose inverse maps J
            # into the first block, a condition invariant under the
            # coset; the image-set form is J inside sigma([m])
            if variant == "lower" and not Jset <= set(sigma[:m]):
                continue
            c = _product(_C_into, m, r, Jset, L, sigma, point) \
                if variant == "upper" \
                else _product(_D_into, m, r, Jset, sigma, point)
            if c.is_zero():
                continue
            coeffs.append(c)
            # (tau_J K_sigma F) at the point is F at this one
            values.append(_laurent_at(F, tuple(pt[s - 1] for s in sigma)))
    return coeffs, values
