"""The operator algebra acting on XPolynomial: exchange operators K,
Hecke generators T_i (and inverses), the affine generator T_0, the
shift operator omega, Cherednik operators Y_i, and interval
(anti)symmetrizers.  Private versions on Kronecker-packed integers of
the Y word (E's eigen check), the three symmetrizers and division by a
linear factor (P's construction) work with no Q(q,t) arithmetic.

Operator words act right to left, so in Y_i the rightmost inverse
generator hits the polynomial first.
"""

from __future__ import annotations

from itertools import combinations

from .errors import DivisibilityError
from .qt import QTPoly, QTScalar, qt_monomial
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
# Kronecker-packed coefficients (private to E's eigen check and to P's
# construction): a map from x-exponent to one int, the image of its
# coefficient in Z[q,t] under t -> 2^w, q -> 2^(w B)
# ---------------------------------------------------------------------------

def _pack(f, coeff_bound, tdeg_bound):
    """(w, B, packed f) for f, a map from x-exponent to QTScalar in
    Z[q,t], with w and B taken from the caller's bounds.

    Packing is a ring homomorphism Z[q,t] -> Z, so every ring operation
    on packed ints is the image of the same operation on polynomials.
    The caller states that each polynomial it compares or unpacks has
    every coefficient at most coeff_bound(||f||_1) in absolute value
    (||.||_1 the sum of the absolute integer coefficients) and t-degree
    at most tdeg_bound(tdeg f).  With
    2^(w-1) above the one and B above the other, that polynomial's
    balanced base-2^w digits are its coefficients, so the packing is
    injective there and a packed zero is a polynomial zero.
    """
    for s in f.values():
        if s.c.denominator != 1 or not s.den.is_one():
            raise ValueError(f"coefficient {s} is not in Z[q,t]")
    norm = sum(abs(s.c.numerator) * sum(map(abs, s.num.terms.values()))
               for s in f.values())
    w = coeff_bound(norm).bit_length() + 1
    B = tdeg_bound(max(b for s in f.values() for _, b in s.num.terms)) + 1
    return w, B, {e: s.c.numerator * sum(v << w * (B * a + b)
                                         for (a, b), v in s.num.terms.items())
                  for e, s in f.items()}


def _unpack(f, w, B):
    """The terms {x-exponent: QTScalar} whose packing under (w, B) is f,
    read as balanced base-2^w digits, digit k the coefficient of
    q^(k // B) t^(k % B); runs of zero digits are skipped whole, and
    zero entries are dropped."""
    mask, half = (1 << w) - 1, 1 << (w - 1)
    out = {}
    for e, v in f.items():
        rows = {}
        k = 0
        while v:
            zeros = ((v & -v).bit_length() - 1) // w
            k += zeros
            v >>= w * zeros
            digit = v & mask
            if digit >= half:
                digit -= 1 << w
            rows[divmod(k, B)] = digit
            v = (v - digit) >> w
            k += 1
        if rows:
            out[e] = QTScalar(QTPoly(rows))
    return out


def _packed_step(i, f, w, times_t):
    """T_i = t - _exchange_term(i) when times_t, else t Tbar_i =
    1 - _exchange_term(i), on packed coefficients.  The exchange term
    of c x_i^p x_(i+1)^s, p > s, telescopes to t c at (p, s), -c at
    (s, p) and (t - 1) c in between."""
    out = {e: c << w for e, c in f.items()} if times_t else dict(f)
    for e, c in f.items():
        p, s = e[i - 1], e[i]
        if p == s or not c:
            continue
        if p < s:
            p, s, c = s, p, -c
        tc = c << w
        base = list(e)
        for k in range(s, p + 1):
            base[i - 1], base[i] = k, p + s - k
            key = tuple(base)
            out[key] = out.get(key, 0) - ((tc if k > s else 0)
                                          - (c if k < p else 0))
    return out


def _packed_y_word(i, f, w, B):
    """_y_word(i, .) on packed coefficients, in the same word order;
    terms that cancel are dropped."""
    n = len(next(iter(f)))
    for j in range(i - 1, 0, -1):
        f = _packed_step(j, f, w, False)
    f = {e[1:] + (e[0],): c << w * B * e[0] for e, c in f.items()}
    for j in range(n - 1, i - 1, -1):
        f = _packed_step(j, f, w, True)
    return {e: c for e, c in f.items() if c}


def _packed_symmetrize(kind, interval, f, w):
    """symmetrize(kind, interval, .) on packed coefficients, with
    t_antisym times t^l, l = (b - a)(b - a + 1)/2 for interval (a, b):
    Sum (-1)^l(sigma) t^(l - l(sigma)) T_sigma, which has no t^(-1).  The
    same coset loop: level top weights its j-th chain element by
    (-1)^j t^((top - a) - j) for t_antisym, by (-1)^j for antisym.  An
    interval with a >= b is the identity; terms that cancel are
    dropped."""
    a, b = interval
    out = f
    for top in range(a + 1, b + 1):
        chain = out
        if kind == "t_antisym":
            out = {e: c << w * (top - a) for e, c in out.items()}
        else:
            out = dict(out)
        for j, i in enumerate(range(top - 1, a - 1, -1), 1):
            if kind == "antisym":
                chain = {e[:i - 1] + (e[i], e[i - 1]) + e[i + 1:]: c
                         for e, c in chain.items()}
            else:
                chain = _packed_step(i, chain, w, True)
            shift = w * (top - a - j) if kind == "t_antisym" else 0
            sign = -1 if j % 2 and kind != "t_sym" else 1
            for e, c in chain.items():
                out[e] = out.get(e, 0) + sign * (c << shift)
    return {e: c for e, c in out.items() if c}


def _packed_divide(f, a, b, w, times_t):
    """f / (t x_a - x_b) when times_t, else f / (x_a - x_b), a < b, on
    packed coefficients.

    Synthetic division in x_b, whose coefficient in the divisor is -1:
    from the top x_b-degree down, each term c x^e leaves -c x^e/x_b in
    the quotient and r c x^e/x_b in the rest, r = t x_a or x_a, so only
    shifts, adds and negations run.  The rest left at x_b-degree 0 is
    the remainder f(x_b = r); a nonzero one raises DivisibilityError
    carrying it, packed.
    """
    shift = w if times_t else 0
    levels = {}  # x_b-degree -> {x-exponent: packed coefficient}
    for e, c in f.items():
        levels.setdefault(e[b - 1], {})[e] = c
    out = {}
    for k in range(max(levels, default=0), 0, -1):
        lower = levels.setdefault(k - 1, {})
        for e, c in levels.get(k, {}).items():
            if not c:
                continue
            e = e[:b - 1] + (k - 1,) + e[b:]
            out[e] = -c
            e = e[:a - 1] + (e[a - 1] + 1,) + e[a:]
            lower[e] = lower.get(e, 0) + (c << shift)
    rem = {e: c for e, c in levels.get(0, {}).items() if c}
    if rem:
        raise DivisibilityError("division is not exact", rem)
    return out


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
