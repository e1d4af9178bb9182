"""Non-symmetric Macdonald polynomials E_eta, bisymmetric Macdonald
polynomials P_Lambda, and expansion of bisymmetric polynomials in the P
basis by one peel down dominance (the brute-force oracle behind the
Pieri rules).

E_eta is built in Knop's integral form J_eta = d_eta E_eta, whose
coefficients lie in Z[q,t] (Knop 1997, Sahi 1996): the Knop-Sahi
recursion carries J as s K, a factored scalar s times K in Z[q,t][x].
Each T step's exchange term is -(t x_i - x_(i+1)) d_i K, d_i the
divided difference, and t x_i - x_(i+1) is primitive, so by Gauss's
lemma the Phi factors of the step's closed-form binomial that s does
not hold divide it exactly when they divide d_i K: only the integer
coefficients of d_i K are divided, through qt's _divide_out.
K stays one Z[q,t] term dict {x-exponent: QTPoly} through its checks
(the Bruhat triangularity, the eigenvalue equations at eta's nonzero
parts, which with it pin K, and d_eta), P's construction, whose
symmetrizers, Vandermonde divisions and plain-versus-t cross-check run
on K packed into integers (t -> 2^w, q -> 2^(w B)) with no gcd, and the
cache file.  Q(q,t) values are formed only for the outputs: E, P and
c_lambda.  c_lambda_formula and c_lambda_corrected are each one
factored product.  The eigen check and P's construction use hecke's
one kernel per operator with a shift, the multiplication by q^a t^b on
the packed integers; the recursion uses hecke's omega kernel with
QTPoly.mul_term and forms d_i K itself.
The factored scalars are qt's _Factored, whose factor/over pair
certifies a lead and divides by it: the monic E, formed only where E
itself is asked for and not kept (the process and the cache file hold
each checked K), is K over K(x^eta), a divisor of d_eta up to
+-q^a t^b, and P is kept as Q / c, Q its unpacked integral form and c =
Q(x^dominant) certified over d_eta and the divisors of
c_lambda_corrected.  The P-basis peel runs on integral numerators at
the orbit representatives of S_m x S_(N-m), over one factored
denominator.  None of it calls a gcd.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import factorial
from operator import ge

from .errors import CacheRecordError, ConsistencyError, DivisibilityError
from .qt import (QTPoly, QTScalar, _add_product, _brackets, _coprime,
                 _divide_out, _excess, _Factored, _poly)
from .render import terms_from_json
from .sparts import (SuperPartition, format_spart,
                     sorting_permutation, superpartitions)
from .xpoly import XPolynomial, _integral_form
from . import hecke

_P_CACHE: dict = {}
# eta -> checked K, a multiple of E_eta as a Z[q,t] term dict
_K_CACHE: dict = {}
# eta -> (JSON value of K, origin): cache records that _integral_E
# reads and checks before serving
_K_UNCHECKED: dict = {}


@dataclass(frozen=True)
class EBasisElement:
    eta: tuple
    poly: XPolynomial


@dataclass(frozen=True)
class PBasisElement:
    """P_Lambda, its constant c_lam, and P = Q / c: Q its integral form,
    a Z[q,t] term dict {x-exponent: QTPoly}, and c = Q[x^dominant],
    factored and certified."""
    lam: SuperPartition
    poly: XPolynomial
    c_lam: QTScalar
    Q: dict = field(compare=False)
    c: _Factored = field(compare=False)


def clear_caches():
    _P_CACHE.clear()
    _K_CACHE.clear()
    _K_UNCHECKED.clear()


# ---------------------------------------------------------------------------
# Bruhat order on compositions (internal: only what the triangularity
# check of E needs)
# ---------------------------------------------------------------------------

def _dominates(lam, mu):
    """lam >= mu in dominance order; equal-degree partitions."""
    s1 = s2 = 0
    for a, b in zip(lam, mu):
        s1 += a
        s2 += b
        if s1 < s2:
            return False
    return True


def _perm_bruhat_leq(u, v):
    """u <= v in Bruhat order on the symmetric group (Ehresmann)."""
    n = len(u)
    for i in range(1, n):
        a = sorted(u[:i])
        b = sorted(v[:i])
        if any(x > y for x, y in zip(a, b)):
            return False
    return True


def _bruhat_below(eta):
    """The predicate nu -> nu strictly below eta in the Bruhat order on
    compositions, False unless nu, like eta, is a composition of |eta|
    with N parts; eta's sorted parts and sorting permutation are
    computed once, for a loop over many nu."""
    N, size = len(eta), sum(eta)
    etap = tuple(sorted(eta, reverse=True))
    w_eta = sorting_permutation(eta)

    def below(nu):
        if nu == eta or len(nu) != N or min(nu) < 0 or sum(nu) != size:
            return False
        nup = tuple(sorted(nu, reverse=True))
        if nup != etap:
            return _dominates(etap, nup)
        return _perm_bruhat_leq(w_eta, sorting_permutation(nu))
    return below


# ---------------------------------------------------------------------------
# E construction
# ---------------------------------------------------------------------------

def _raise(eta):
    """(s, K) with s K = J_eta = d_eta E_eta, by the Knop-Sahi recursion
    in Knop's integral form, unchecked.

    s is a _Factored scalar and K a term dict {x-exponent: QTPoly}, so
    no step calls a gcd or does Q(q,t) arithmetic.  With ebar_i(nu) the
    Cherednik eigenvalue:

    * eta_N > 0, nu = (eta_N - 1, eta_1, .., eta_(N-1)):
      J_eta = q^(-nu_1) (1 - q t^N ebar_1(nu)) x_N omega J_nu.  K takes
      x_N omega and s the scalar, so no coefficient of K is multiplied.
    * otherwise, with i the last index where eta_i > 0 and nu = s_i eta,
      rho = ebar_(i+1)(nu)/ebar_i(nu) = q^A t^B with A, B >= 1 and
      J_eta = ((1 - rho) T_i J_nu + (1 - t) J_nu) / (t (1 - t rho)).
      The numerator is (1 - t rho) K + (1 - rho) X, X = -X_i K with
      X_i = t - T_i = (t x_i - x_(i+1)) d_i the exchange term, d_i the
      divided difference.  Each Phi_d factor of 1 - t rho that s holds
      cancels there.  The others, L, divide 1 - t rho and are coprime
      to 1 - rho (Phi factors in the directions (A, B + 1) and (A, B)),
      so L divides the numerator exactly when it divides X.  And t x_i
      - x_(i+1) is primitive over Z[q,t], so by Gauss's lemma L divides
      X exactly when it divides D = d_i K, whose coefficients are sums
      of +-K's.  So D is formed as integer term dicts, c x^e with p =
      e_i != s = e_(i+1) adding +-c at the |p - s| monomials between,
      only its nonzero coefficients are divided, with _divide_out, and
      a division that is not exact raises ConsistencyError.  The new K
      is u K + (1 - rho) X / L, u = (1 - t rho) / L, formed per
      x-exponent as one integer term sum: a term v q^a t^b of D / L at
      x^e adds -v at (a, b + 1) and v at (a + A, b + B + 1) of
      x^(e + e_i), and v at (a, b) and -v at (a + A, b + B) of
      x^(e + e_(i+1)).

    The chain of nu is walked down to 0, then raised back up in a loop.
    s is kept as running exponents, so a long chain costs linear time.
    """
    N = len(eta)
    steps = []  # (eta, nu, i) from eta down; i = 0 for the x_N omega step
    while any(eta):
        if eta[-1]:
            nu, i = (eta[-1] - 1,) + eta[:-1], 0
        else:
            i = max(k for k in range(1, N) if eta[k - 1])
            nu = eta[:i - 1] + (0, eta[i - 1]) + eta[i + 1:]
        steps.append((eta, nu, i))
        eta = nu
    sign, a, b, phi = 1, 0, 0, {}  # s = sign q^a t^b prod p^phi
    K = {(0,) * N: QTPoly.one()}  # x-exponent -> QTPoly
    mul = QTPoly.mul_term
    for eta, nu, i in reversed(steps):
        rows = sorting_permutation(nu)  # the row of each circle of nu
        if i:
            A = nu[i]
            B = rows[i - 1] - rows[i]
            # divide by t (1 - t rho): s by the factors it holds, the
            # others L out of the new K
            binom = _Factored.binomial(0, 1, A, B + 2)
            sign, a, b = sign * binom.sign, a - binom.a, b - binom.b
            held, left = {}, {}
            for k in binom.phi:
                if phi.get(k, 0) > 0:
                    phi[k] -= 1
                    held[k] = 1
                else:
                    left[k] = 1
            # u K + (1 - rho) X / L, u = (1 - t rho) / L, minus the held
            # factors' product (-1 when s holds none), X = -(t x_i -
            # x_(i+1)) D and D = d_i K: c x^e, p = e_i > s = e_(i+1), adds
            # c where (e_i, e_(i+1)) is (k, p + s - 1 - k), s <= k < p,
            # and p < s adds -c there, p <= k < s
            u = {k: -v for k, v in _excess(held, {}).items()}
            sums = {e: _add_product({}, c.terms, u) for e, c in K.items()}
            D = {}
            for e, c in K.items():
                p, s = e[i - 1], e[i]
                if p == s:
                    continue
                pre, suf = e[:i - 1], e[i + 1:]
                if p > s:
                    f, lo, hi = c.terms, s, p
                else:
                    f, lo, hi = {j: -v for j, v in c.terms.items()}, p, s
                for k in range(lo, hi):
                    key = pre + (k, p + s - 1 - k) + suf
                    out = D.get(key)
                    if out is None:
                        D[key] = dict(f)
                    else:
                        for j, v in f.items():
                            out[j] = out.get(j, 0) + v
            # a term v q^a t^b of D / L at x^e adds -v t (1 - rho) at
            # x^(e + e_i) and v (1 - rho) at x^(e + e_(i+1))
            for e, f in D.items():
                f = {j: v for j, v in f.items() if v}
                if not f:
                    continue
                if left:
                    f, taken = _divide_out(f, left)
                    if taken != left:
                        raise ConsistencyError(
                            f"the Knop-Sahi step to J_{eta} does not divide "
                            f"by {_poly(_excess(left, {}))}")
                pre, p, s, suf = e[:i - 1], e[i - 1], e[i], e[i + 1:]
                up = sums.setdefault(pre + (p + 1, s) + suf, {})
                for (x, y), v in f.items():
                    k = x, y + 1
                    up[k] = up.get(k, 0) - v
                    k = x + A, y + B + 1
                    up[k] = up.get(k, 0) + v
                up = sums.setdefault(pre + (p, s + 1) + suf, {})
                for k, v in f.items():
                    up[k] = up.get(k, 0) + v
                    k = k[0] + A, k[1] + B
                    up[k] = up.get(k, 0) - v
            K = {}
            for e, out in sums.items():
                out = {k: v for k, v in out.items() if v}
                if out:
                    K[e] = _poly(out)
        else:
            K = {e[:-1] + (e[-1] + 1,): c
                 for e, c in hecke._omega(K, mul).items()}
            # multiply by q^(-nu_1) (1 - q t^N ebar_1(nu))
            binom = _Factored.binomial(0, 0, nu[0] + 1, N + 1 - rows[0])
            sign, a, b = sign * binom.sign, a + binom.a - nu[0], b + binom.b
            for k in binom.phi:
                phi[k] = phi.get(k, 0) + 1
    return _Factored(sign, a, b, {k: e for k, e in phi.items() if e}), K


def _knop_d(eta) -> _Factored:
    """d_eta = prod over the cells s = (i, j) of eta of
    1 - q^(a(s)+1) t^(l(s)+1), with arm a(s) = eta_i - j and leg
    l(s) = #{k > i : j <= eta_k <= eta_i} + #{k < i : j - 1 <= eta_k < eta_i}
    (Knop 1997; Sahi 1996): J_eta = d_eta E_eta has coefficients in
    Z[q,t]."""
    factors = []
    for i, a in enumerate(eta):
        for j in range(1, a + 1):
            leg = sum(1 for b in eta[i + 1:] if j <= b <= a) + \
                sum(1 for b in eta[:i] if j - 1 <= b < a)
            factors.append(_Factored.binomial(0, 0, a - j + 1, leg + 1))
    return _Factored.prod(factors)


def _integral_E(eta):
    """A checked Z[q,t] term dict K with K = c E_eta for a nonzero c in
    Q(q,t): K from _raise, whose coefficient at x^eta, factored by
    _Factored.factor, must be d_eta/s factor for factor, or a cache record
    set aside unchecked as JSON and read here, whose coefficient at
    x^eta must factor (+-q^a t^b times a divisor of d_eta).  Both pass
    _check_E, the triangularity and the eigenvalue equations at eta's
    nonzero parts, which with that nonzero coefficient pin K to a
    nonzero multiple of E_eta; a record that fails raises
    CacheRecordError naming its file and line."""
    K = _K_CACHE.get(eta)
    if K is not None:
        return K
    value, origin = _K_UNCHECKED.pop(eta, (None, None))
    d = _knop_d(eta)
    try:
        if value is None:
            s, K = _raise(eta)
            got = _Factored.factor(K[eta].terms, d.phi) if eta in K \
                else None
            want = d / s
            if got is None or (got.sign, got.a, got.b, got.phi) != \
                    (want.sign, want.a, want.b, want.phi):
                raise ConsistencyError(f"J_{eta} is not d_eta at x^{eta}")
        else:
            K = terms_from_json(value)
            if _Factored.factor(K[eta].terms, d.phi) is None:
                raise ConsistencyError(
                    f"K's coefficient at x^{eta} is not +-q^a t^b times a "
                    "divisor of d_eta")
        _check_E(eta, K)
    except ConsistencyError as exc:
        if origin is None:
            raise
        raise CacheRecordError(f"{origin}: {exc}") from exc
    _K_CACHE[eta] = K
    return K


def nonsym_E(eta) -> EBasisElement:
    """The monic joint eigenfunction of the Cherednik operators.

    Built in Knop's integral form J_eta = s K = d_eta E_eta (see _raise),
    or taken from a cache record of K set aside unchecked, then checked
    exactly on K, which has every coefficient in Z[q,t]: every support
    monomial other than x^eta is Bruhat-below eta, K's coefficient at
    x^eta factors over d_eta (for a built K, s K has d_eta there:
    Knop's cell product, computed apart from the recursion), and
    Y_i K = ebar_i K for every i with eta_i > 0, which with the
    triangularity pins K to a multiple of E_eta (proof in _check_E).
    These eigenvalue equations run as t^(N-1) Y_i K = t_ebar K with t_ebar =
    t^(N-1) ebar_i, by hecke's word kernel _word, on
    Kronecker-packed integers: t -> 2^w, q -> 2^(w B) is a ring
    homomorphism Z[q,t] -> Z, and _eigen_pack takes the width w and B
    from bounds on the difference's coefficients and t-degree so that it
    is injective there.  Y_i is linear, so this is the same check on E,
    exact and with no gcd.  A failed check raises ConsistencyError, or
    CacheRecordError naming the record's file and line; only a checked K
    is cached.

    E itself is K divided by its coefficient at x^eta, formed here on
    each call; it is the same for every nonzero multiple K.  That
    coefficient is +-q^a t^b times Phi factors of d_eta
    (_Factored.factor), so each coefficient of K is divided by it with no
    gcd (_Factored.over, which P shares).  This runs once per distinct
    coefficient of K, keyed on its value, since neither the recursion nor
    a cache record shares equal coefficients; equal coefficients of E are
    one object.
    """
    given = tuple(eta)
    eta = tuple(map(Fraction, given))  # 2.0 and "1" pass, 1.5 does not
    if not eta or any(x < 0 or x.denominator != 1 for x in eta):
        raise ValueError(f"{given!r} is not a composition: entries must "
                         "be nonnegative integers, at least one")
    eta = tuple(map(int, eta))
    K = _integral_E(eta)
    lead = _Factored.factor(K[eta].terms, _knop_d(eta).phi)
    # each distinct coefficient of K, by value, to its coefficient of E
    values = {c: lead.over(*_divide_out(c.terms, lead.phi))
              for c in set(K.values())}
    return EBasisElement(eta=eta, poly=XPolynomial(
        len(eta), {x: values[c] for x, c in K.items()}))


def _eigen_pack(K):
    """hecke._pack of K for its eigenvalue equations.

    ||T_j g||_1 <= (1 + 2d) ||g||_1 for d the largest total degree, and
    omega keeps ||.||_1, so every coefficient of t^(N-1) Y_i K - t^b q^a K
    (b < N) is at most ((1 + 2d)^(N-1) + 1) ||K||_1 in absolute value,
    and its t-degree is at most tdeg(K) + N - 1.
    """
    N, d = len(next(iter(K))), max(map(sum, K))
    growth = (1 + 2 * d) ** (N - 1) + 1
    return hecke._pack(K, growth, N - 1)


def _check_E(eta, K):
    """Raise ConsistencyError unless the Z[q,t] term dict K is
    Bruhat-triangular at eta and passes the packed eigenvalue equations
    t^(N-1) Y_i K = t^(N-1) ebar_i(eta) K for the i with eta_i > 0.

    Those equations pin K to a multiple of E_eta, as all N would.  Each
    Y_i is triangular in the Bruhat order, with ebar_i(nu) =
    q^(nu_i) t^(1 - r_nu(i)) on the diagonal at x^nu.  Let D = K -
    K(x^eta) E_eta and suppose D != 0.  D passes the same equations, and
    its support is strictly Bruhat-below eta.  At a Bruhat-maximal mu of
    that support no other monomial of D reaches x^mu, so ebar_i(mu) =
    ebar_i(eta) for every i with eta_i > 0, and comparing q-exponents
    gives mu_i = eta_i there.  The triangularity check gives |mu| =
    |eta|, so mu_i = 0 = eta_i at every other i: mu = eta.  But D is
    zero at x^eta, so D = 0 and K = K(x^eta) E_eta.  verify's eigen
    suite, the independent route, runs all N equations.
    """
    N = len(eta)
    below = _bruhat_below(eta)
    for nu in K:
        if nu != eta and not below(nu):
            raise ConsistencyError(
                f"E_{eta} has support at {nu}, not Bruhat-below")
    w, B, f = _eigen_pack(K)
    mul = hecke._shifts(w, B)
    rows = sorting_permutation(eta)  # the row of each circle of eta
    for i, a in enumerate(eta, 1):
        if not a:
            continue
        b = N - rows[i - 1]
        if hecke._word(i, f, mul) != {e: mul(c, a, b) for e, c in f.items()}:
            raise ConsistencyError(
                f"eigenvalue equation Y_{i} E = ebar_{i} E failed for E_{eta}")


# ---------------------------------------------------------------------------
# P construction
# ---------------------------------------------------------------------------

def dominant_exponent(lam: SuperPartition):
    """Exponent of the unit-normalized monomial: (anti - staircase, sym)."""
    m = lam.m
    lead = tuple(lam.anti[i] - (m - 1 - i) for i in range(m)) + lam.sym
    return lead


def _P_pack(K, m):
    """hecke._pack of K for bisym_P at m anti variables.

    With d the largest total degree, w_s = N - m, w_a = m and
    l_s, l_a = w(w - 1)/2 for each: ||T_j g||_1 <= (1 + 2d) ||g||_1, so
    the t-symmetrizer gives ||S||_1 <= w_s! (1 + 2d)^l_s ||K||_1, and
    the t-antisymmetrizer times t^l_a gives ||A_t||_1 <=
    w_a! (1 + 2d)^l_a ||S||_1; the plain one gives ||A||_1 <=
    w_a! ||S||_1.  Dividing g by one linear factor leaves a quotient
    and a remainder of 1-norm at most d ||g||_1 (d >= 1 at m >= 2), so
    every quotient and remainder is within
    M = w_s! (1 + 2d)^l_s w_a! (1 + 2d)^l_a d^l_a ||K||_1; the factor
    d^l_a is what the l_a divisions add.  In t-degree, with tau =
    tdeg K: S is at most tau + l_s and A_t at most tau + l_s + l_a;
    each exact division by t x_a - x_b lowers it by one, so both
    quotients are at most tau + l_s, and a remainder g(x_b = t x_a) is
    at most g's t-degree plus d, so at most tau + l_s + l_a + d.  Balanced
    digits are unique, so two polynomials within these bounds with equal
    packings are equal.
    """
    N, d = len(next(iter(K))), max(map(sum, K))
    l_s, l_a = (N - m) * (N - m - 1) // 2, m * (m - 1) // 2
    growth = factorial(N - m) * (1 + 2 * d) ** l_s * \
        factorial(m) * (1 + 2 * d) ** l_a * d ** l_a
    return hecke._pack(K, growth, l_s + l_a + (d if m >= 2 else 0))


def _packed_quotient(lam, S, mul, times_t):
    """S antisymmetrized over the first m variables (t-deformed, times
    t^(m(m-1)/2), or plain) and divided exactly by the Vandermonde of
    the same kind, one linear factor at a time, on packed ints with the
    kernels' mul."""
    m = lam.m
    A = hecke._symmetrize("t_antisym" if times_t else "antisym", (1, m), S,
                          mul)
    try:
        for a, b in combinations(range(1, m + 1), 2):
            A = hecke._divide(A, a, b, 0, int(times_t), mul)
    except DivisibilityError as exc:
        name = "t-Vandermonde" if times_t else "plain Vandermonde"
        raise ConsistencyError(
            f"antisymmetrization of {format_spart(lam)} is not divisible "
            f"by the {name}") from exc
    return A


def bisym_P(lam: SuperPartition) -> PBasisElement:
    """The bisymmetric Macdonald polynomial, normalized so the dominant
    monomial has coefficient one.

    Computed as the t-antisymmetrization (first m variables) of the
    t-symmetrization (last N - m variables) of E over eta_Lambda,
    divided exactly by the t-deformed Vandermonde.  All of it runs on
    the checked integral multiple K of E (Knop's J_eta up to a factored
    scalar, or a cache record of K), packed once into integers by
    hecke._pack (t -> 2^w, q -> 2^(w B), w and B from the bounds in
    _P_pack), with no gcd: the t-symmetrizer, the t-antisymmetrizer
    times t^(m(m-1)/2), which keeps every coefficient in Z[q,t], and
    each division by a linear factor t x_a - x_b, proved exact by a
    zero packed remainder.  A parallel computation with the plain
    antisymmetrizer and plain Vandermonde must agree: on every
    polynomial, Sum (-1/t)^l(sigma) T_sigma equals
    t^(-m(m-1)/2) Delta_t / Delta Sum sgn(sigma) sigma, so the two
    packed quotients must be equal (and so proportional, with equal
    dominant coefficients); a mismatch raises rather than being
    silently resolved.  Q is unpacked once, to a Z[q,t] term dict, and
    P = Q / c, c = Q[x^dominant]: the scalar multiple of E that K
    carries and the power of t drop out of P.  c is factored over the
    Phi factors of d_eta and the divisors of c_lambda_corrected by
    _Factored.factor, whose +-q^a t^b cofactor certifies the factored
    form; one that does not factor raises ConsistencyError.  So each
    coefficient of P is formed by _Factored.over, as E's are, and c_lam =
    t^(m(m-1)/2) K(x^eta)/c is one factored product: no gcd.  P is
    symmetric in the first m and in the last N - m variables, so its
    coefficients repeat along the orbits of its monomials: the distinct
    packed ints of Q are indexed once, each is unpacked and divided by
    c's factors once (the dominant one by the certificate), and equal
    coefficients of P are one immutable QTScalar.  The element keeps Q
    and c, which the evaluation symmetry and the P-basis peel read, both
    divided by the Phi factors of c that divide every coefficient of Q.
    """
    key = (lam.anti, lam.sym, lam.N)
    cached = _P_CACHE.get(key)
    if cached is not None:
        return cached
    m, N = lam.m, lam.N
    eta = lam.eta()
    K = _integral_E(eta)
    w, B, S = _P_pack(K, m)
    mul = hecke._shifts(w, B)
    S = hecke._symmetrize("t_sym", (m + 1, N), S, mul)
    Q = _packed_quotient(lam, S, mul, True) if m >= 2 else S
    if not Q:
        raise ConsistencyError(f"P vanished for {format_spart(lam)}")
    lead = dominant_exponent(lam)
    if lead not in Q:
        raise ConsistencyError(
            f"dominant monomial of {format_spart(lam)} is absent")
    if m >= 2 and _packed_quotient(lam, S, mul, False) != Q:
        raise ConsistencyError(
            f"plain and t-deformed constructions disagree for "
            f"{format_spart(lam)}")
    # each monomial keeps the index of its distinct packed int
    index = {}
    at = {e: index.setdefault(v, len(index)) for e, v in Q.items()}
    Q = [hecke._unpack(v, w, B) for v in index]
    top = at[lead]
    d = _knop_d(eta)
    phi = dict(d.phi)
    for k, e in _corrected_factors(lam).phi.items():
        if e < 0:
            phi[k] = phi.get(k, 0) - e
    c = _Factored.factor(Q[top].terms, phi)
    if c is None:
        raise ConsistencyError(
            f"the dominant coefficient of {format_spart(lam)} is not "
            "+-q^a t^b times Phi factors of d_eta and c_lambda")
    c_lam = _Factored.prod((_Factored.monomial(0, m * (m - 1) // 2),
                            _Factored.factor(K[eta].terms, d.phi)), (c,))
    # each distinct coefficient divided by c's factors once: the dominant
    # one by the certificate's division
    divided = [({(c.a, c.b): c.sign}, c.phi) if k == top
               else _divide_out(v.terms, c.phi) for k, v in enumerate(Q)]
    values = [c.over(*pair) for pair in divided]
    poly = XPolynomial(N, {e: values[k] for e, k in at.items()})
    # Q's content over c's factors, divided out of Q and c: smaller
    # integers for the evaluation symmetry and the peel
    g = {k: n for k in c.phi if (n := min(t[k] for _, t in divided))}
    if g:
        c = c / _Factored(1, 0, 0, g)
        Q = [_poly(_add_product({}, f, _excess(taken, g)))
             for f, taken in divided]
    Q = {e: Q[k] for e, k in at.items()}
    elem = PBasisElement(lam=lam, poly=poly, c_lam=c_lam.expand(), Q=Q, c=c)
    _P_CACHE[key] = elem
    return elem


def _formula_factors(lam):
    """(factors, divisors) of c_lambda_formula's closed form:
    t^(-(N-m)(N-m-1)/2) times 1/[k]_(1/t)! for each multiplicity k in
    the symmetric part, padded zeros included."""
    n = lam.N - lam.m
    ks = [j for x in set(lam.sym) for j in range(1, lam.sym.count(x) + 1)]
    num, den = _brackets(ks, "t_inverse")
    return [_Factored.monomial(0, -(n * (n - 1) // 2))] + den, num


def c_lambda_formula(lam: SuperPartition) -> QTScalar:
    """The closed-form normalization constant, with the padded zeros of
    the symmetric part counted by its multiplicity statistic."""
    return _Factored.prod(*_formula_factors(lam)).expand()


def _corrected_factors(lam) -> _Factored:
    """c_lambda_corrected, factored."""
    a, m = lam.anti, lam.m
    num, den = _formula_factors(lam)
    num.append(_Factored.monomial(0, m * (m - 1) // 2))
    for i in range(m):
        for j in range(i + 1, m):
            g = a[i] - a[j]
            r = 1 + sum(1 for s in lam.sym if a[j] < s <= a[i]) + \
                sum(1 for k in a if a[j] < k < a[i])
            num.append(_Factored.binomial(0, 0, g, r))
            den.append(_Factored.binomial(0, 0, g, r - 1))
    return _Factored.prod(num, den)


def c_lambda_corrected(lam: SuperPartition) -> QTScalar:
    """The normalization constant that bisym_P produces: c_lambda_formula
    times t^(m(m-1)/2) and, over the pairs i < j <= m of anti parts, the
    ratio (1 - q^g t^r)/(1 - q^g t^(r-1)) with gap g = a_i - a_j and
    r = 1 + #{sym parts s : a_j < s <= a_i}
    + #{anti parts a_k : a_j < a_k < a_i}; one factored product."""
    return _corrected_factors(lam).expand()


# ---------------------------------------------------------------------------
# expansion in the P basis
# ---------------------------------------------------------------------------

def is_bisymmetric(f: XPolynomial, m: int) -> bool:
    """f is invariant under S_m x S_(N-m): each adjacent transposition
    inside a block sends every term to a term with the same coefficient."""
    if not 0 <= m <= f.nvars:
        raise ValueError(f"block split m = {m} is outside 0..N = {f.nvars}")
    return all(f.terms.get((*e[:i], e[i + 1], e[i], *e[i + 2:])) == c
               for e, c in f.terms.items()
               for i in (*range(m - 1), *range(m, f.nvars - 1)))


def _is_rep(e, m):
    """e is its orbit's representative under S_m x S_(N-m): weakly
    decreasing in its first m and in its last N - m parts."""
    return all(map(ge, e[:m], e[1:m])) and all(map(ge, e[m:], e[m + 1:]))


@lru_cache(maxsize=256)
def _peel_order(d, m, N):
    """The peel's candidates with their dominant exponents, descending
    in (Omega-circled, Omega-star): a linear extension of the dominance
    order, in which P is unitriangular."""
    return tuple((sp, dominant_exponent(sp)) for sp in sorted(
        superpartitions(d, m, N), key=lambda sp: (sp.circled(), sp.star()),
        reverse=True))


def _peel(F, m, N, d, lead, content):
    """[(Omega, c_Omega)], sorted by (anti, sym), with f = sum c_Omega
    P_Omega for the bisymmetric f = content F / lead of degree d as a
    superpartition: F holds f's integral numerators at its orbit
    representatives (_is_rep) as integer Laurent term dicts, lead is a
    _Factored with no divisor and content a Fraction.

    A bisymmetric polynomial, each residual included, is zero exactly
    when it is zero at the representatives, and every dominant monomial
    is one.  The residual is held as integer numerators R over one
    denominator prod p^D, p the polynomials of Phi factors.  At each
    candidate that R holds, its coefficient rho is reduced by
    _divide_out over D and made canonical by _coprime, then rho P_Omega
    = rho Q_Omega / c_Omega is subtracted over D raised to each factor's
    larger exponent.  No gcd is called.  The P's are a basis, so a zero
    final residual proves every coefficient; a nonzero one (f outside
    the span, or a P not triangular in this order) raises
    ConsistencyError.
    """
    R = {e: {(x - lead.a, y - lead.b): lead.sign * v
             for (x, y), v in t.items()} for e, t in F.items() if t}
    D = lead.phi
    out = []
    for sp, mu in _peel_order(d, m, N):
        n = R.get(mu)
        if not n:
            continue
        n, taken = _divide_out(n, D)
        # a copy: n may be R's own dict, which the loop below changes
        out.append((sp, _coprime(content, dict(n), _excess(D, taken))))
        P = bisym_P(sp)
        # rho P_Omega = n Q_Omega / c_Omega over what n left of D
        need = {k: D.get(k, 0) - taken.get(k, 0) + P.c.phi.get(k, 0)
                for k in {**D, **P.c.phi}}
        new = {k: max(e, D.get(k, 0)) for k, e in need.items()}
        new = {k: e for k, e in new.items() if e}
        if new != D:
            up = _excess(new, D)
            R = {e: _add_product({}, t, up) for e, t in R.items()}
        # -rho P_Omega over prod p^new, c_Omega's sign q^a t^b moved up
        scale = {(x - P.c.a, y - P.c.b): -P.c.sign * v for (x, y), v in
                 _add_product({}, n, _excess(new, need)).items()}
        for e, v in P.Q.items():
            if _is_rep(e, m):
                t = R.setdefault(e, {})
                _add_product(t, scale, v.terms)
                if not t:
                    del R[e]
        D = new
    if R:
        raise ConsistencyError(
            f"P-basis peel left a nonzero residual at degree {d}, m = {m}, "
            f"N = {N}: the input is not in the span of the P basis")
    out.sort(key=lambda kv: (kv[0].anti, kv[0].sym))
    return out


def expand_in_P_basis(f: XPolynomial, m: int):
    """Coefficients c_Omega with f = sum c_Omega P_Omega, sorted by
    (anti, sym).

    f must be bisymmetric and homogeneous; candidates are all
    superpartitions of matching degree.  The peel (_peel) runs on f's
    integral form c F / den (xpoly._integral_form) at the orbit
    representatives, with no gcd, and each coefficient is then scaled
    by 1/den: only an f whose coefficients have a denominator other
    than an integer pays a gcd.
    """
    if not f.is_homogeneous():
        raise ValueError("expansion needs a homogeneous input")
    if not is_bisymmetric(f, m):
        raise ValueError("input is not bisymmetric")
    c, den, F = _integral_form(f)
    out = _peel({e: v.terms for e, v in F.items() if _is_rep(e, m)}, m,
                f.nvars, f.total_degree() + m * (m - 1) // 2, _Factored(1), c)
    if den.is_one():
        return out
    inv = QTScalar(QTPoly.one(), den)
    return [(sp, v * inv) for sp, v in out]
