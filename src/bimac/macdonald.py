"""Non-symmetric Macdonald polynomials E_eta (built by the Knop-Sahi
recursion, then checked against every eigenvalue equation and the
Bruhat triangularity), bisymmetric Macdonald polynomials P_Lambda, and
expansion of bisymmetric polynomials in the P basis (the brute-force
oracle behind the Pieri rules).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

from .errors import CacheRecordError, ConsistencyError, DivisibilityError
from .qt import (QTScalar, clear_denominators, qt_monomial,
                 t_bracket_factorial)
from .sparts import (SuperPartition, eigenvalue, format_spart, row_of_circle,
                     sorting_permutation, superpartitions)
from .xpoly import XPolynomial, coefficient_of, exact_div, permute_vars, vandermonde
from . import hecke

_ONE = QTScalar.one()
_T = qt_monomial(0, 1)

_lock = threading.Lock()
_E_CACHE: dict = {}
_P_CACHE: dict = {}
# eta -> (E, origin): cache records that nonsym_E checks before serving
_E_UNCHECKED: dict = {}


@dataclass(frozen=True)
class EBasisElement:
    eta: tuple
    poly: XPolynomial


@dataclass(frozen=True)
class PBasisElement:
    lam: SuperPartition
    poly: XPolynomial
    c_lam: QTScalar


def clear_caches():
    with _lock:
        _E_CACHE.clear()
        _P_CACHE.clear()
        _E_UNCHECKED.clear()


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


def _bruhat_less(nu, eta):
    """nu strictly below eta in the Bruhat order on compositions; False
    unless nu, like eta, is a composition of |eta| with N parts."""
    if nu == eta or len(nu) != len(eta) or min(nu) < 0 or sum(nu) != sum(eta):
        return False
    nup = tuple(sorted(nu, reverse=True))
    etap = tuple(sorted(eta, reverse=True))
    if nup != etap:
        return _dominates(etap, nup)
    return _perm_bruhat_leq(sorting_permutation(eta), sorting_permutation(nu))


# ---------------------------------------------------------------------------
# E construction
# ---------------------------------------------------------------------------

def _raise(eta):
    """E_eta by the Knop-Sahi recursion, unchecked.

    E_eta is proportional to x_N omega E_nu with nu = (eta_N - 1, eta_1,
    .., eta_(N-1)) when eta_N > 0.  Otherwise, with i the last index
    where eta_i > 0 and nu = s_i eta, it is proportional to
    (T_i + (1 - t)/(1 - ebar_(i+1)(nu)/ebar_i(nu))) E_nu.  The chain of
    nu is walked down to 0, then raised back up in a loop, each step
    made monic at x^eta.
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
    E = XPolynomial.one(N)
    for eta, nu, i in reversed(steps):
        if i:
            c = (_ONE - _T) / (_ONE - eigenvalue(nu, i + 1) / eigenvalue(nu, i))
            f = hecke.apply_T(i, E) + E.scale(c)
        else:
            f = XPolynomial.variable(N, N) * hecke.apply_omega(E)
        lead = f.coefficient(eta)
        if lead.is_zero():
            raise ConsistencyError(f"E_{eta} lost its leading monomial x^{eta}")
        E = f.scale(lead.inverse())
    return E


def _cleared(E):
    """D E, for D the common denominator of E's coefficients, so every
    coefficient lies in Z[q,t]; D is D E's coefficient at x^eta when E
    is monic there."""
    return XPolynomial(E.nvars, dict(zip(
        E.terms, clear_denominators(list(E.terms.values())))))


def nonsym_E(eta) -> EBasisElement:
    """The monic joint eigenfunction of the Cherednik operators.

    Built by the Knop-Sahi recursion (raising by x_N omega, then adjacent
    intertwiners), or taken from a cache record set aside unchecked, then
    checked exactly: every support monomial other than x^eta is
    Bruhat-below eta, x^eta has coefficient 1, and Y_i E = ebar_i E for
    every i.  The N eigenvalue equations run on D E, D the common
    denominator of E's coefficients, as t^(N-1) Y_i (D E) = t_ebar D E
    with t_ebar = t^(N-1) ebar_i, in the word order of hecke._y_word, on
    Kronecker-packed integers: t -> 2^K, q -> 2^(K B) is a ring
    homomorphism Z[q,t] -> Z, and hecke._pack picks K and B from
    bounds on the difference's coefficients and t-degree so that it is
    injective there.  Y_i is linear and D != 0, so this is the same
    check, exact and with no gcd.  A failed check raises
    ConsistencyError, or CacheRecordError naming the record's file and
    line; only checked results are cached.
    """
    eta = tuple(int(x) for x in eta)
    if any(x < 0 for x in eta):
        raise ValueError("composition entries must be nonnegative")
    cached = _E_CACHE.get(eta)
    if cached is not None:
        return cached
    with _lock:
        E, origin = _E_UNCHECKED.pop(eta, (None, None))
    if E is None:
        E = _raise(eta)
    try:
        _check_E(eta, E)
    except ConsistencyError as exc:
        if origin is None:
            raise
        raise CacheRecordError(f"{origin}: {exc}") from exc
    elem = EBasisElement(eta=eta, poly=E)
    with _lock:
        _E_CACHE[eta] = elem
    return elem


def _check_E(eta, E):
    """Raise ConsistencyError unless E is Bruhat-triangular, monic at
    x^eta and passes all N packed eigenvalue equations."""
    N = len(eta)
    for nu in E.terms:
        if nu != eta and not _bruhat_less(nu, eta):
            raise ConsistencyError(
                f"E_{eta} has support at {nu}, not Bruhat-below")
    if not E.coefficient(eta).is_one():
        raise ConsistencyError(f"E_{eta} is not monic at x^{eta}")
    DE = dict(zip(E.terms, clear_denominators(list(E.terms.values()))))
    K, B, f = hecke._pack(DE)
    for i in range(1, N + 1):
        shift = K * (B * eta[i - 1] + N - row_of_circle(eta, i))
        if hecke._packed_y_word(i, f, K, B) != \
                {e: c << shift for e, c in f.items()}:
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


# Vandermonde kind -> (its antisymmetrizer, its name in errors)
_ANTISYM = {"t_deformed": ("t_antisym", "t-Vandermonde"),
            "plain": ("antisym", "plain Vandermonde")}


def _vandermonde_quotient(lam, S, kind):
    """S antisymmetrized over the first m variables, divided exactly by
    the Vandermonde of the same kind."""
    sym, name = _ANTISYM[kind]
    A = hecke.symmetrize(sym, (1, lam.m), S)
    try:
        return exact_div(A, vandermonde(kind, range(1, lam.m + 1), lam.N))
    except DivisibilityError as exc:
        raise ConsistencyError(
            f"antisymmetrization of {format_spart(lam)} is not divisible "
            f"by the {name}") from exc


def bisym_P(lam: SuperPartition) -> PBasisElement:
    """The bisymmetric Macdonald polynomial, normalized so the dominant
    monomial has coefficient one.

    Computed as the t-antisymmetrization (first m variables) of the
    t-symmetrization (last N - m variables) of E over eta_Lambda,
    divided exactly by the t-deformed Vandermonde.  The symmetrizers
    act on D E, D the common denominator of E's coefficients, and the
    normalization divides D back out of c_lam.  A parallel
    computation with the plain antisymmetrizer and plain Vandermonde
    must give a proportional result; a mismatch raises rather than
    being silently resolved.
    """
    key = (lam.anti, lam.sym, lam.N)
    cached = _P_CACHE.get(key)
    if cached is not None:
        return cached
    m, N = lam.m, lam.N
    eta = lam.eta()
    DE = _cleared(nonsym_E(eta).poly)
    if m + 1 <= N:
        S = hecke.symmetrize("t_sym", (m + 1, N), DE)
    else:
        S = DE
    if m >= 2:
        Q = _vandermonde_quotient(lam, S, "t_deformed")
    else:
        Q = S
    if Q.is_zero():
        raise ConsistencyError(f"P vanished for {format_spart(lam)}")
    lead = dominant_exponent(lam)
    c = coefficient_of(Q, lead)
    if c.is_zero():
        raise ConsistencyError(
            f"dominant monomial of {format_spart(lam)} is absent")
    P = Q.scale(c.inverse())
    if m >= 2:
        Q2 = _vandermonde_quotient(lam, S, "plain")
        c2 = coefficient_of(Q2, lead)
        if c2.is_zero() or Q2.scale(c2.inverse()) != P:
            raise ConsistencyError(
                f"plain and t-deformed constructions disagree for "
                f"{format_spart(lam)}")
    # c is D times the dominant coefficient taken from E itself
    elem = PBasisElement(lam=lam, poly=P, c_lam=DE.coefficient(eta) / c)
    with _lock:
        _P_CACHE[key] = elem
    return elem


def c_lambda_formula(lam: SuperPartition) -> QTScalar:
    """The closed-form normalization constant, with the padded zeros of
    the symmetric part counted by its multiplicity statistic."""
    m, N = lam.m, lam.N
    mult = {}
    for x in lam.sym:
        mult[x] = mult.get(x, 0) + 1
    prod = _ONE
    for k in mult.values():
        prod = prod * t_bracket_factorial(k, "t_inverse")
    prod = prod * qt_monomial(0, (N - m) * (N - m - 1) // 2)
    return prod.inverse()


# ---------------------------------------------------------------------------
# expansion in the P basis
# ---------------------------------------------------------------------------

def is_bisymmetric(f: XPolynomial, m: int) -> bool:
    for i in list(range(1, m)) + list(range(m + 1, f.nvars)):
        sigma = list(range(1, f.nvars + 1))
        sigma[i - 1], sigma[i] = i + 1, i
        if permute_vars(f, tuple(sigma)) != f:
            return False
    return True


def expand_in_P_basis(f: XPolynomial, m: int):
    """Coefficients c_Omega with f = sum c_Omega P_Omega.

    f must be bisymmetric and homogeneous; candidates are all
    superpartitions of matching degree.  The triangular peel takes a
    candidate whose dominant monomial no other open candidate carries,
    reads its coefficient off the residual and subtracts; the final
    residual must vanish, so an f outside the span raises.  Whether the
    peel stalls depends only on the candidates at (degree, m, N), not on
    f: each P_Omega is unitriangular at its dominant monomial, so a stall
    means an identity failed, and it raises ConsistencyError.
    """
    if f.is_zero():
        return []
    if not f.is_homogeneous():
        raise ValueError("expansion needs a homogeneous input")
    if not is_bisymmetric(f, m):
        raise ValueError("input is not bisymmetric")
    N = f.nvars
    d = f.total_degree() + m * (m - 1) // 2
    cands = [sp for sp in superpartitions(d, m, N)]
    polys = [bisym_P(sp) for sp in cands]
    order = sorted(range(len(cands)),
                   key=lambda k: tuple(sorted(dominant_exponent(cands[k]),
                                              reverse=True)))
    coeffs = [None] * len(cands)
    residual = f
    progressed = True
    while progressed:
        progressed = False
        for k in order:
            if coeffs[k] is not None:
                continue
            lead = dominant_exponent(cands[k])
            others = [j for j in range(len(cands))
                      if coeffs[j] is None and j != k and
                      not polys[j].poly.coefficient(lead).is_zero()]
            if others:
                continue
            c = residual.coefficient(lead)
            coeffs[k] = c
            if not c.is_zero():
                residual = residual - polys[k].poly.scale(c)
            progressed = True
    if any(c is None for c in coeffs):
        raise ConsistencyError(
            f"P-basis peel stalled at degree {d}, m = {m}, N = {N}: "
            f"every open candidate shares its dominant monomial")
    if not residual.is_zero():
        raise ConsistencyError("input is not in the span of the P basis")
    out = [(cands[k], coeffs[k]) for k in range(len(cands))
           if not coeffs[k].is_zero()]
    out.sort(key=lambda kv: (kv[0].anti, kv[0].sym))
    return out
