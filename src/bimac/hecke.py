"""The operator algebra acting on XPolynomial: exchange operators K,
Hecke generators T_i (and inverses), the affine generator T_0, the
shift operator omega, Cherednik operators Y_i, and interval
(anti)symmetrizers.

Operator words act right to left, so in Y_i the rightmost inverse
generator hits the polynomial first.
"""

from __future__ import annotations

from itertools import combinations

from .qt import QTScalar, qt_monomial
from .xpoly import (XPolynomial, _xpoly, divided_difference, exact_div,
                    permute_vars, q_shift, q_shift_inverse)

_T = qt_monomial(0, 1)
_TINV = qt_monomial(0, -1)
_Q = qt_monomial(1, 0)
_ONE = QTScalar.one()


def apply_K(i: int, j: int, f: XPolynomial) -> XPolynomial:
    """Exchange x_i and x_j."""
    sigma = list(range(1, f.nvars + 1))
    sigma[i - 1], sigma[j - 1] = j, i
    return permute_vars(f, tuple(sigma))


def apply_T(i: int, f: XPolynomial) -> XPolynomial:
    """T_i f = t f + (t x_i - x_(i+1)) (K_(i,i+1) f - f)/(x_i - x_(i+1)).

    The divided difference is computed term by term, so the division is
    exact by construction.  i = 0 delegates to the affine generator.
    """
    if i == 0:
        return apply_T0(f)
    return f.scale(_T) - _exchange_term(i, f)


def _exchange_term(i, f):
    """(t x_i - x_(i+1)) (f - K_(i,i+1) f)/(x_i - x_(i+1)), 1 <= i < N."""
    n = f.nvars
    if not 1 <= i <= n - 1:
        raise ValueError(f"T_{i} undefined for {n} variables")
    dd = divided_difference(f, i)
    if dd.is_zero():
        return dd
    xi = XPolynomial.variable(i, n)
    xi1 = XPolynomial.variable(i + 1, n)
    return (xi.scale(_T) - xi1) * dd


def apply_T_inv(i: int, f: XPolynomial) -> XPolynomial:
    """T_i^(-1) = t^(-1) - 1 + t^(-1) T_i, from the quadratic relation."""
    return f.scale(_TINV - _ONE) + apply_T(i, f).scale(_TINV)


def apply_T0(f: XPolynomial) -> XPolynomial:
    """The affine generator built from K_(1,N) and the q-shift pair."""
    n = f.nvars
    g = permute_vars(q_shift(q_shift_inverse(f, (n,)), (1,)),
                     tuple([n] + list(range(2, n)) + [1]))
    diff = g - f
    xn = XPolynomial.variable(n, n)
    x1 = XPolynomial.variable(1, n)
    if diff.is_zero():
        return f.scale(_T)
    quotient = exact_div(diff, xn.scale(_Q) - x1)
    return f.scale(_T) + (xn.scale(_Q * _T) - x1) * quotient


def apply_omega(f: XPolynomial) -> XPolynomial:
    """omega f (x_1,..,x_N) = f(q x_N, x_1, .., x_(N-1))."""
    n = f.nvars
    out = {}
    for e, c in f.terms.items():
        e2 = e[1:] + (e[0],)
        out[e2] = c.mul_monomial(e[0], 0) if e[0] else c
    return _xpoly(n, out)


def _y_word(i, f):
    """t^(N-1) Y_i = T_i..T_(N-1) omega (t Tbar_1)..(t Tbar_(i-1)).

    t Tbar_j = T_j - (t - 1) is 1 minus _exchange_term(j), so no step of
    the word divides by t, and coefficients in Z[q,t] stay in Z[q,t].
    """
    n = f.nvars
    if not 1 <= i <= n:
        raise ValueError(f"Y_{i} undefined for {n} variables")
    g = f
    for j in range(i - 1, 0, -1):
        g = g - _exchange_term(j, g)
    g = apply_omega(g)
    for j in range(n - 1, i - 1, -1):
        g = apply_T(j, g)
    return g


# ---------------------------------------------------------------------------
# _y_word on Kronecker-packed coefficients (private to E's eigen check)
# ---------------------------------------------------------------------------

def _pack(f):
    """(K, B, packed f): f, a map from x-exponent to QTScalar in Z[q,t],
    with each coefficient as one int under t -> 2^K, q -> 2^(K B), and K,
    B chosen so that this is injective on the eigen check of f.

    ||T_j g||_1 <= (1 + 2d) ||g||_1 for d the largest total degree, and
    omega keeps ||.||_1, so every coefficient of _y_word(i, f) - t^b q^a f
    (b < N) is at most M = ((1 + 2d)^(N-1) + 1) ||f||_1 in absolute value,
    and its t-degree is below tdeg(f) + N.  With 2^(K-1) > M and
    B >= tdeg(f) + N the balanced base-2^K digits of the packed difference
    are its coefficients, so a packed zero is a polynomial zero.
    """
    for s in f.values():
        if s.c.denominator != 1 or not s.den.is_one():
            raise ValueError(f"coefficient {s} is not in Z[q,t]")
    n = len(next(iter(f)))
    d = max(map(sum, f))
    norm = sum(abs(s.c.numerator) * sum(map(abs, s.num.terms.values()))
               for s in f.values())
    K = (((1 + 2 * d) ** (n - 1) + 1) * norm).bit_length() + 1
    B = max(b for s in f.values() for _, b in s.num.terms) + n
    return K, B, {e: s.c.numerator * sum(v << K * (B * a + b)
                                         for (a, b), v in s.num.terms.items())
                  for e, s in f.items()}


def _packed_step(i, f, K, times_t):
    """T_i = t - _exchange_term(i) when times_t, else t Tbar_i =
    1 - _exchange_term(i), on packed coefficients.  The exchange term
    of c x_i^p x_(i+1)^s, p > s, telescopes to t c at (p, s), -c at
    (s, p) and (t - 1) c in between."""
    out = {e: c << K for e, c in f.items()} if times_t else dict(f)
    for e, c in f.items():
        p, s = e[i - 1], e[i]
        if p == s or not c:
            continue
        if p < s:
            p, s, c = s, p, -c
        tc = c << K
        base = list(e)
        for k in range(s, p + 1):
            base[i - 1], base[i] = k, p + s - k
            key = tuple(base)
            out[key] = out.get(key, 0) - ((tc if k > s else 0)
                                          - (c if k < p else 0))
    return out


def _packed_y_word(i, f, K, B):
    """_y_word(i, .) on packed coefficients, in the same word order;
    terms that cancel are dropped."""
    n = len(next(iter(f)))
    for j in range(i - 1, 0, -1):
        f = _packed_step(j, f, K, False)
    f = {e[1:] + (e[0],): c << K * B * e[0] for e, c in f.items()}
    for j in range(n - 1, i - 1, -1):
        f = _packed_step(j, f, K, True)
    return {e: c for e, c in f.items() if c}


def apply_Y(i: int, f: XPolynomial) -> XPolynomial:
    """Cherednik operator Y_i = t^(i-N) T_i..T_(N-1) omega Tbar_1..Tbar_(i-1),
    applied as t^(1-N) times the t-cleared word of _y_word."""
    return _y_word(i, f).scale(qt_monomial(0, 1 - f.nvars))


def symmetrize(kind: str, interval, f: XPolynomial) -> XPolynomial:
    """Sum over the symmetric group of [a,b] of T_sigma, (-1)^l K_sigma
    or (-1/t)^l T_sigma, for kind t_sym, antisym, t_antisym.

    Uses the coset recursion over the factorial chain: the group on
    [a,b] is the union of c_j * S_[a,b-1] with c_j = s_j s_(j+1)..s_(b-1),
    whose lengths add, so each level costs b - a operator applications.
    """
    a, b = interval
    if not 1 <= a <= b <= f.nvars:
        raise ValueError(f"bad symmetrization interval {interval}")
    if kind == "t_sym":
        step, unit = apply_T, _ONE
    elif kind == "antisym":
        step, unit = (lambda i, g: apply_K(i, i + 1, g)), -_ONE
    elif kind == "t_antisym":
        step, unit = apply_T, -_TINV
    else:
        raise ValueError(f"unknown symmetrizer kind {kind!r}")
    out = f
    for top in range(a + 1, b + 1):
        base = out
        chain = base
        factor = _ONE
        for i in range(top - 1, a - 1, -1):
            chain = step(i, chain)
            factor = factor * unit
            out = out + chain.scale(factor)
    return out


def apply_e_of_Y(r: int, interval, f: XPolynomial) -> XPolynomial:
    """e_r(Y_a, .., Y_b) f, expanded into products of distinct Y's."""
    a, b = interval
    width = b - a + 1
    if r < 0 or r > width:
        raise ValueError(f"e_{r} undefined on an interval of {width} operators")
    if r == 0:
        return f
    total = XPolynomial.zero(f.nvars)
    for subset in combinations(range(a, b + 1), r):
        g = f
        for i in reversed(subset):
            g = apply_Y(i, g)
        total = total + g
    return total
