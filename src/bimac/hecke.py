"""The operator algebra acting on XPolynomial: Hecke generators T_i
(and inverses), the affine generator T_0 (its s_0 f, x_1 -> q x_N and
x_N -> x_1/q, formed in one term map), the shift operator omega,
Cherednik operators Y_i, and interval (anti)symmetrizers.  Each is one
kernel on term dicts {x-exponent: coefficient} that only adds, negates
and calls mul(c, a, b) = c q^a t^b.
Three rings use them: Q(q,t), with QTScalar.mul_monomial, behind the
XPolynomial operators; Z[q,t], with QTPoly.mul_term, in the hecke and
eigen suites of verify, the left side of the Pieri operator identity
and, for omega alone, E's Knop-Sahi recursion, whose T steps form the
divided difference themselves; and the Kronecker-packed integers, with
a shift, in E's eigen check and P's construction, packed from Z[q,t]
term dicts by _pack and read back one coefficient at a time by
_unpack.  The T_i kernel _step has two modes, T_i and t Tbar_i.

Operator words act right to left, so in Y_i the rightmost inverse
generator hits the polynomial first.
"""

from __future__ import annotations

from itertools import combinations

from .errors import DivisibilityError
from .qt import QTScalar, _poly, qt_monomial
from .xpoly import XPolynomial, _xpoly

_TINV = qt_monomial(0, -1)
_ONE = QTScalar.one()
_QT = QTScalar.mul_monomial


# -- kernels: each drops the terms that cancel and leaves its input as it is

def _step(i, f, ident, mul):
    """t^ident f - (t x_i - x_(i+1)) d_i f, 1 <= i < N, d_i the divided
    difference (f - K_(i,i+1) f)/(x_i - x_(i+1)): T_i f for ident = 1
    and t Tbar_i f for ident = 0.  Of c x_i^p x_(i+1)^s, p > s, it
    telescopes to c at (s, p), d = c - t c strictly between, and
    (t^ident - t) c at (p, s) = e; of p < s, to t c at (s, p), d = t c -
    c strictly between, and (t^ident - 1) c at e.  So the keys that get
    d run from s + 1 to p - ident, or from p + 1 - ident to s - 1, and d
    is formed only where one does."""
    out = {}
    for e, c in f.items():
        p, s = e[i - 1], e[i]
        if p == s:
            v = mul(c, 0, 1) if ident else c
            prev = out.get(e)
            out[e] = v if prev is None else prev + v
            continue
        pre, suf = e[:i - 1], e[i + 1:]
        tc = mul(c, 0, 1)
        if p > s:
            v, ks = c, range(s + 1, p + 1 - ident)
        else:
            v, ks = tc, range(p + 1 - ident, s)
        key = pre + (s, p) + suf
        prev = out.get(key)
        out[key] = v if prev is None else prev + v
        if ks:
            d = c - tc if p > s else tc - c
            for k in ks:
                key = pre + (k, p + s - k) + suf
                prev = out.get(key)
                out[key] = d if prev is None else prev + d
    return {e: c for e, c in out.items() if c}


def _t0(f, mul):
    """T_0 f = t g + (t - 1) x_1 (g - f)/(q x_N - x_1), with g = s_0 f the
    image of c x^e under x_1 -> q x_N, x_N -> x_1/q: c q^(e_1 - e_N) times
    x^e with e_1 and e_N swapped (g = f at N = 1).  The division by q x_N
    - x_1, whose coefficient at x_1 is a unit, only adds and multiplies
    by q.  So over Z[q,t] a coefficient that q^k divides gives ones that
    q^(k - d) divides, d the total degree of its term: the caller first
    multiplies f by enough powers of q."""
    n = len(next(iter(f), ()))
    g = f if n < 2 else {e[-1:] + e[1:-1] + e[:1]:
                         mul(c, e[0] - e[-1], 0) if e[0] != e[-1] else c
                         for e, c in f.items()}
    diff = dict(g)
    for e, c in f.items():
        prev = diff.get(e)
        diff[e] = -c if prev is None else prev - c
    out = {e: mul(c, 0, 1) for e, c in g.items()}
    for e, c in _divide(diff, n, 1, 1, 0, mul).items():
        e = (e[0] + 1,) + e[1:]
        c = mul(c, 0, 1) - c
        prev = out.get(e)
        out[e] = c if prev is None else prev + c
    return {e: c for e, c in out.items() if c}


def _omega(f, mul):
    """omega f (x_1,..,x_N) = f(q x_N, x_1, .., x_(N-1))."""
    return {e[1:] + (e[0],): mul(c, e[0], 0) if e[0] else c
            for e, c in f.items()}


def _word(i, f, mul):
    """t^(N-1) Y_i = T_i..T_(N-1) omega (t Tbar_1)..(t Tbar_(i-1)),
    1 <= i <= N: no step divides by t, so Z[q,t] coefficients stay so."""
    n = len(next(iter(f), ()))
    for j in range(i - 1, 0, -1):
        f = _step(j, f, 0, mul)
    f = _omega(f, mul)
    for j in range(n - 1, i - 1, -1):
        f = _step(j, f, 1, mul)
    return f


def _e_of_Y(r, interval, f, mul):
    """t^(r(N-1)) e_r(Y_a, .., Y_b) f: the sum over the r-subsets of
    [a,b] of the products of their t-cleared words _word."""
    a, b = interval
    out = {}
    for subset in combinations(range(a, b + 1), r):
        g = f
        for i in reversed(subset):
            g = _word(i, g, mul)
        for e, c in g.items():
            prev = out.get(e)
            out[e] = c if prev is None else prev + c
    return {e: c for e, c in out.items() if c}


def _symmetrize(kind, interval, f, mul):
    """Sum over the symmetric group of [a,b] of T_sigma (t_sym),
    (-1)^l K_sigma (antisym), or t^L (-1/t)^l T_sigma (t_antisym), l =
    l(sigma) and L = (b - a)(b - a + 1)/2, so that no t^(-1) appears.

    The coset recursion over the factorial chain: the group on [a,b] is
    the union of c_j * S_[a,b-1] with c_j = s_j s_(j+1)..s_(b-1), whose
    lengths add, so level top costs top - a operator applications and
    weights its j-th chain element by (-1)^j t^((top - a) - j) for
    t_antisym, by (-1)^j for antisym.
    """
    a, b = interval
    for top in range(a + 1, b + 1):
        h = top - a
        chain = f
        f = {e: mul(c, 0, h) for e, c in f.items()} \
            if kind == "t_antisym" else dict(f)
        for j, i in enumerate(range(top - 1, a - 1, -1), 1):
            if kind == "antisym":
                chain = {e[:i - 1] + (e[i], e[i - 1]) + e[i + 1:]: c
                         for e, c in chain.items()}
            else:
                chain = _step(i, chain, 1, mul)
            for e, c in chain.items():
                if kind == "t_antisym" and h > j:
                    c = mul(c, 0, h - j)
                if j % 2 and kind != "t_sym":
                    c = -c
                prev = f.get(e)
                f[e] = c if prev is None else prev + c
        f = {e: c for e, c in f.items() if c}
    return f


def _divide(f, a, b, alpha, beta, mul):
    """f / (r - x_b), r = q^alpha t^beta x_a, a != b, by synthetic
    division in x_b: from the top x_b-degree down, each term c x^e leaves
    -c x^e/x_b in the quotient and r c x^e/x_b in the rest.  A nonzero
    remainder f(x_b = r) raises DivisibilityError carrying its terms."""
    levels = {}  # x_b-degree -> {x-exponent: coefficient}
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
            c = mul(c, alpha, beta)
            prev = lower.get(e)
            lower[e] = c if prev is None else prev + c
    rem = {e: c for e, c in levels.get(0, {}).items() if c}
    if rem:
        raise DivisibilityError("division is not exact", rem)
    return out


# -- Kronecker-packed coefficients: a map from x-exponent to one int, the
# image of its coefficient in Z[q,t] under t -> 2^w, q -> 2^(w B)

def _pack(f, growth, tdeg_extra):
    """(w, B, packed f) for f, a Z[q,t] term dict {x-exponent: QTPoly},
    with w and B taken from the caller's bounds.

    Packing is a ring homomorphism Z[q,t] -> Z, so every ring operation
    on packed ints is the image of the same operation on polynomials.
    The caller states that each polynomial it compares or unpacks has
    every coefficient at most growth * ||f||_1 in absolute value
    (||.||_1 the sum of the absolute integer coefficients) and t-degree
    at most tdeg f + tdeg_extra.  With 2^(w-1) above the one and B above
    the other, that polynomial's balanced base-2^w digits are its
    coefficients, so the packing is injective there and a packed zero is
    a polynomial zero.
    """
    norm = sum(sum(map(abs, c.terms.values())) for c in f.values())
    w = (growth * norm).bit_length() + 1
    B = max(b for c in f.values() for _, b in c.terms) + tdeg_extra + 1
    return w, B, {e: _packed(c.terms, w, B) for e, c in f.items()}


# a term dict of at most this many terms is packed as one sum: each
# addition copies the int built so far, a bounded number of times
_PACK_RUN = 32


def _packed(terms, w, B):
    """The int sum of v << w (B a + b) over the terms {(a, b): v} of a
    nonzero QTPoly, in time linear in its size: above _PACK_RUN terms,
    adjacent terms in shift order are summed in pairs, then adjacent
    pairs, so each level copies the int's bits once."""
    if len(terms) <= _PACK_RUN:
        return sum(v << w * (B * a + b) for (a, b), v in terms.items())
    items = sorted((B * a + b, v) for (a, b), v in terms.items())
    while len(items) > 1:
        pairs = [(k, v + (u << w * (j - k)))
                 for (k, v), (j, u) in zip(items[::2], items[1::2])]
        if len(items) % 2:
            pairs.append(items[-1])
        items = pairs
    k, v = items[0]
    return v << w * k


def _shifts(w, B):
    """The kernels' mul on ints packed under (w, B): c q^a t^b is
    c << w (B a + b), for a, b >= 0."""
    return lambda c, a, b: c << w * (B * a + b)


def _unpack(v, w, B):
    """The QTPoly whose packing under (w, B) is the int v: the inverse of
    _packed for one coefficient, read as balanced base-2^w digits, digit
    k the coefficient of q^(k // B) t^(k % B); runs of zero digits are
    skipped whole."""
    mask, half = (1 << w) - 1, 1 << (w - 1)
    rows, k = {}, 0
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
    return _poly(rows)


# -- the operators on XPolynomial over Q(q,t)

def apply_T(i: int, f: XPolynomial) -> XPolynomial:
    """T_i f = t f + (t x_i - x_(i+1)) (K_(i,i+1) f - f)/(x_i - x_(i+1)),
    telescoped term by term (see _step); i = 0 is the affine generator
    T_0 f = t f + (q t x_N - x_1) (g - f)/(q x_N - x_1), g = s_0 f, by
    _t0."""
    n = f.nvars
    if i == 0:
        return _xpoly(n, _t0(f.terms, _QT))
    if not 1 <= i <= n - 1:
        raise ValueError(f"T_{i} undefined for {n} variables")
    return _xpoly(n, _step(i, f.terms, 1, _QT))


def apply_T_inv(i: int, f: XPolynomial) -> XPolynomial:
    """T_i^(-1) = t^(-1) (t Tbar_i), 1 <= i < N, through _step; T_0^(-1)
    = t^(-1) - 1 + t^(-1) T_0, from the quadratic relation."""
    if i == 0:
        return f.scale(_TINV - _ONE) + apply_T(0, f).scale(_TINV)
    n = f.nvars
    if not 1 <= i <= n - 1:
        raise ValueError(f"T_{i} undefined for {n} variables")
    return _xpoly(n, _step(i, f.terms, 0, _QT)).scale(_TINV)


def apply_omega(f: XPolynomial) -> XPolynomial:
    """omega f (x_1,..,x_N) = f(q x_N, x_1, .., x_(N-1))."""
    return _xpoly(f.nvars, _omega(f.terms, _QT))


def apply_Y(i: int, f: XPolynomial) -> XPolynomial:
    """Cherednik operator Y_i = t^(i-N) T_i..T_(N-1) omega Tbar_1..Tbar_(i-1),
    applied as t^(1-N) times the t-cleared word of _word."""
    n = f.nvars
    if not 1 <= i <= n:
        raise ValueError(f"Y_{i} undefined for {n} variables")
    return _xpoly(n, _word(i, f.terms, _QT)).scale(qt_monomial(0, 1 - n))


def symmetrize(kind: str, interval, f: XPolynomial) -> XPolynomial:
    """Sum over the symmetric group of [a,b] of T_sigma, (-1)^l K_sigma
    or (-1/t)^l T_sigma, for kind t_sym, antisym, t_antisym: the coset
    loop of _symmetrize, whose t_antisym is scaled back by t^(-L)."""
    a, b = interval
    if not 1 <= a <= b <= f.nvars:
        raise ValueError(f"bad symmetrization interval {interval}")
    if kind not in ("t_sym", "antisym", "t_antisym"):
        raise ValueError(f"unknown symmetrizer kind {kind!r}")
    out = _xpoly(f.nvars, _symmetrize(kind, interval, f.terms, _QT))
    if kind == "t_antisym":
        out = out.scale(qt_monomial(0, -(b - a) * (b - a + 1) // 2))
    return out


def apply_e_of_Y(r: int, interval, f: XPolynomial) -> XPolynomial:
    """e_r(Y_a, .., Y_b) f, expanded into products of distinct Y's:
    t^(r(1-N)) times the t-cleared sum of _e_of_Y."""
    a, b = interval
    width = b - a + 1
    if r < 0 or r > width:
        raise ValueError(f"e_{r} undefined on an interval of {width} operators")
    n = f.nvars
    for subset in combinations(range(a, b + 1), r):
        bad = [i for i in reversed(subset) if not 1 <= i <= n]
        if bad:  # the first Y that _e_of_Y would apply out of range
            raise ValueError(f"Y_{bad[0]} undefined for {n} variables")
    return _xpoly(n, _e_of_Y(r, interval, f.terms, _QT)).scale(
        qt_monomial(0, r * (1 - n)))
