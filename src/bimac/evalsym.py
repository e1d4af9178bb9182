"""Evaluation maps, the closed-form evaluation formulas, and the
evaluation symmetry of the bisymmetric Macdonald polynomials.

The closed product of a staircase evaluation is memoized per
(Lambda, sign), at most 4096 entries, least recently used first out:
the Pieri expansions of nearby Lambda divide by the evaluations of
the same Omega, so a process that expands many of them (as
``verify --suite pieri`` does) evaluates each Omega once.  A single
expansion meets each Omega once and gains nothing.  A memoized value
is shared, so no caller changes it in place.

The evaluation symmetry cross-multiplies the integer values of the
two P's integral forms Q, which bisym_P keeps, so it forms no Q(q,t)
value, computes no common denominator and keeps no staircase norm.
P's value at a point by substitution (``_P_at``, for verify and the
CLI's substitution route) is Q's integer value there divided by the
factored c through qt's divide/over pair, with no gcd either.  Of
macdonald it uses only the public ``bisym_P``.
"""

from __future__ import annotations

from functools import lru_cache

from .errors import DegenerateEvaluationError
from .macdonald import bisym_P
from .qt import QTScalar, _add_product, _divide_out, _Factored
from .sparts import (SuperPartition, conjugate_partition, eval_point,
                     hook_data, lambda_naught)
from .xpoly import XPolynomial, _laurent_at, specialize


def evaluate(lam: SuperPartition, sign: str, f: XPolynomial) -> QTScalar:
    """f at the positive or negative evaluation point of Lambda."""
    return specialize(f, eval_point(lam, sign))


def _P_at(lam: SuperPartition, point) -> QTScalar:
    """P_Lambda at the point by substitution: the integer value there of
    its integral form Q, P = Q / c, divided by c (qt._Factored.over),
    with no gcd."""
    P = bisym_P(lam)
    value = _laurent_at(P.Q, point)
    if not value:
        return QTScalar.zero()
    return P.c.over(*_divide_out(value, P.c.phi))


@lru_cache(maxsize=4096)
def _eval_factors(lam: SuperPartition, sign: str) -> _Factored:
    """The closed product of ``eval_formula``, held factored and
    memoized.  The leg of cell (i,j) in Lambda* is star_c[j-1] - i, with
    star_c the conjugate partition."""
    m, N = lam.m, lam.N
    hd = hook_data(lam)
    star_c = conjugate_partition(lam.star())
    circ = lam.circled()

    # each binomial(0, 0, a, b) is 1 - q^a t^b
    if sign == "minus":
        num = [_Factored.binomial(0, 0, j - 1, N - (i - 1))
               for (i, j) in hd.s_cells]
        den = [_Factored.binomial(0, 0, circ[i - 1] - j,
                                  star_c[j - 1] - i + 1)
               for (i, j) in hd.b_cells]
        num.append(_Factored.monomial(
            -((m - 1) * hd.anti_skew_size - hd.n_anti_skew),
            hd.n_s + hd.n_conj_anti_skew))
    elif sign == "plus":
        num = [_Factored.binomial(0, 0, 1 - j, i - (N + 1))
               for (i, j) in hd.s_cells]
        den = [_Factored.binomial(0, 0, j - circ[i - 1],
                                  i - 1 - star_c[j - 1])
               for (i, j) in hd.b_cells]
        num.append(_Factored.monomial(m * hd.anti_skew_size - hd.n_anti_skew,
                                      -(hd.n_s + hd.n_conj_anti_skew)))
    else:
        raise ValueError(f"unknown sign {sign!r}")
    if any(d.is_zero() for d in den):
        raise DegenerateEvaluationError("hook product vanished")
    return _Factored.prod(num, den)


def eval_formula(lam: SuperPartition, sign: str) -> QTScalar:
    """Closed product formula for the staircase evaluation of P_Lambda.

    Computed purely combinatorially from the diagram of Lambda, with no
    polynomial construction: a monomial times a product of binomials
    1 - q^a t^b and their inverses, expanded once.
    """
    return _eval_factors(lam, sign).expand()


def symmetry_check(lam: SuperPartition, omg: SuperPartition, sign: str) -> bool:
    """u_Omega(P~_Lambda) = u_Lambda(P~_Omega) with the staircase-
    normalized polynomials, checked exactly.

    Each P is evaluated at the other's point and at the staircase on
    its integral form Q, P = Q / c, whose c cancels in the ratio: with
    a, a0 Q_Lambda's two integer values and b, b0 Q_Omega's, the
    identity a/a0 = b/b0 is a b0 = b a0 in integer Laurent
    polynomials."""
    if lam.m != omg.m or lam.N != omg.N:
        raise ValueError("superpartitions must share m and N")
    nought = eval_point(lambda_naught(lam.m, lam.N), sign)
    F, G = bisym_P(lam).Q, bisym_P(omg).Q
    a, a0 = _laurent_at(F, eval_point(omg, sign)), _laurent_at(F, nought)
    b, b0 = _laurent_at(G, eval_point(lam, sign)), _laurent_at(G, nought)
    if not a0 or not b0:
        raise DegenerateEvaluationError("staircase evaluation vanished")
    return _add_product({}, a, b0) == _add_product({}, b, a0)
