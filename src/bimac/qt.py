"""Exact arithmetic over the field Q(q,t).

``QTPoly`` is a sparse bivariate polynomial in the parameters q and t
with integer coefficients.  ``QTScalar`` is a rational multiple of a
fraction of two such polynomials, c*num/den, kept in canonical form:

* c is a Fraction, the whole rational content of the value,
* num and den have content 1 and positive leading coefficients in
  graded-lex order (total degree first, then q-degree),
* gcd(num, den) = 1,

so two mathematically equal scalars are structurally identical and
``==`` / ``hash`` are reliable.  Negative powers of q or t never appear
as stored exponents; they live in the denominator.

Sides known to be coprime up to a monomial become canonical through
``_coprime`` and ``_canonical``, which fold contents and lead signs
with no gcd: ``mul_monomial``, ``invert_parameters``,
``_Factored.expand``, ``_Factored.over`` and a ``_laurent_scalar`` over
a monomial.  ``poly_gcd``, the heuristic gcd of Char, Geddes and
Gonnet, is called only where coprimality is unknown: from ``_cancel``
(products, ``_reduce``, other ``_laurent_scalar``s), a sum's
denominator gcd and ``_poly_lcm`` (f's common denominator in xpoly's
``_integral_form``, none for an integral f).  No construction reaches
it, since E, P, the evaluations and the Pieri coefficients are formed
over ``_Factored`` denominators: it runs only for values a caller
supplies, and it keeps no memo.  It is one loop that evaluates q (then,
by recursion on the images, t) at an integer and grows that point until
a candidate passes trial division, which is its only exit.  The long
division ``_div_terms`` (``QTPoly.exact_div``) serves only this route
and ``_integral_form``'s cofactors for a non-integral f.

The private ``_Factored`` owns the factored denominators: Knop's
d_eta, P's dominant coefficient, the Pieri and evaluation products.  It
holds sign q^a t^b prod p^e, each p the polynomial q^sa t^sb
Phi_d(q^va t^vb) of ``_cyclotomic_at``, which no other module names.
``binomial`` is memoized, ``prod`` (``*``, ``/``) is an exponent sum
and ``expand`` is memoized on the value (``_expand``, at most 4096
entries), so no value's factors are changed in place and a sweep of
Pieri expansions expands each distinct coefficient once; [k] and [k]!
are each one product.  ``_phi_div`` divides a term dict exactly by one
p in linear time, each class of terms that differ by powers of
q^va t^vb synthetically by the monic Phi_d, and ``_divide_out`` by
each p of an exponent dict while that is exact, with no gcd.  Every
division by a Phi factor is one of these: ``factor`` certifying a term
dict as a value over given factors, ``over`` dividing one by a value,
E's recursion dividing by a step's binomial, and ``_cyclotomic_at``
building each Phi_d(q) from q^d - 1.  ``_phi_terms`` alone multiplies
p's out: for ``expand``, for ``_excess`` (the p's one exponent dict has
over another) and for ``_vanishes``, which decides whether a sum of
factored values times integer Laurent term dicts is zero, as integers
over one common denominator with no gcd: the one zero test of the Pieri
operator identity and verify's A-product lemma.
``_powers`` writes q^a t^b and render's x monomials as text or LaTeX.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd as _igcd, lcm as _ilcm

from .errors import DivisibilityError


def _grlex(e):
    return (e[0] + e[1], e[0])


# ---------------------------------------------------------------------------
# exact division and the heuristic gcd (Char, Geddes & Gonnet 1989,
# "GCDHEU") on integer term dicts {(q-degree, t-degree): int}
# ---------------------------------------------------------------------------

def _div_terms(f, g):
    """The quotient f/g of nonzero integer term dicts, or None if g does
    not divide f.  The remainder is keyed (a + b, a), so that graded-lex
    order is tuple order and a product of monomials is a sum of keys."""
    if len(g) == 1:
        ((ga, gb), gc), = g.items()
        out = {}
        for (a, b), c in f.items():
            if a < ga or b < gb or c % gc:
                return None
            out[(a - ga, b - gb)] = c // gc
        return out
    gk = {(a + b, a): c for (a, b), c in g.items()}
    gd, ga = max(gk)
    gc = gk[(gd, ga)]
    gb = gd - ga
    rem = {(a + b, a): c for (a, b), c in f.items()}
    out = {}
    while rem:
        d, a = e = max(rem)
        c = rem[e]
        if a < ga or d - a < gb or c % gc:
            return None
        qd, qa, qc = d - gd, a - ga, c // gc
        out[(qa, qd - qa)] = qc
        for (d2, a2), c2 in gk.items():
            k = (qd + d2, qa + a2)
            s = rem.get(k, 0) - qc * c2
            if s:
                rem[k] = s
            else:
                del rem[k]
    return out


def _digits(n, x):
    """Balanced base-x digits of the integer n, little-endian."""
    out = []
    half = x // 2
    while n:
        c = n % x
        if c > half:
            c -= x
        out.append(c)
        n = (n - c) // x
    return out


def _primitive_terms(terms):
    """(c, p) with terms = c*p for an int c and an integer term dict p of
    content 1 and positive grlex lead; p is terms itself when c = 1."""
    c = _igcd(*terms.values())
    if terms[max(terms, key=_grlex)] < 0:
        c = -c
    return c, (terms if c == 1 else {e: v // c for e, v in terms.items()})


def _eval_terms(terms, x, in_q):
    """Integer term dict with q evaluated at x, a term dict in t; or,
    with no q in it (in_q false), with t evaluated at x, an int."""
    if not in_q:
        return sum(c * x ** b for (_, b), c in terms.items())
    out = {}
    for (a, b), c in terms.items():
        out[(0, b)] = out.get((0, b), 0) + c * x ** a
    return {k: c for k, c in out.items() if c}


def _gcd_terms(f, g):
    """Gcd of two nonzero integer term dicts: the gcd of their contents
    times the gcd of their primitive parts, which has a positive lead.

    Past the monomial and divisibility fast paths: evaluate q at x, or t
    once neither input has q, take the gcd of the images (by recursion,
    or ``math.gcd`` once they are integers), rebuild each of its
    coefficients in the evaluated variable from balanced base-x digits
    and return the primitive part once it divides both primitive parts.
    x starts at 2*min(height) + 29 and only grows, so by the theorem of
    Char, Geddes and Gonnet a candidate that divides both is the gcd.
    The loop ends: for all but finitely many x, the gcd of the images is
    the image of the true gcd times an integer dividing a resultant of
    the cofactors or of their contents, so its bound does not depend on
    x.  Once x exceeds twice that bound times the gcd's height, the
    digits rebuild a multiple of the gcd, whose primitive part passes.
    """
    # monomial fast path
    if len(f) == 1 or len(g) == 1:
        amin = min(min(a for a, _ in f), min(a for a, _ in g))
        bmin = min(min(b for _, b in f), min(b for _, b in g))
        return {(amin, bmin): _igcd(*f.values(), *g.values())}
    c = _igcd(*f.values(), *g.values())
    f, g = _primitive_terms(f)[1], _primitive_terms(g)[1]
    small, large = (f, g) if len(f) <= len(g) else (g, f)
    if small == large or _div_terms(large, small) is not None:
        h = small
    else:
        in_q = any(a for a, _ in f) or any(a for a, _ in g)
        x = 2 * min(max(abs(v) for v in f.values()),
                    max(abs(v) for v in g.values())) + 29
        while True:
            u, v = _eval_terms(f, x, in_q), _eval_terms(g, x, in_q)
            if u and v:
                h = {}
                img = _gcd_terms(u, v) if in_q else {(0, 0): _igcd(u, v)}
                for (_, b), hc in img.items():
                    for k, d in enumerate(_digits(hc, x)):
                        if d:
                            h[(k, b) if in_q else (0, k)] = d
                h = _primitive_terms(h)[1]
                if _div_terms(f, h) is not None and \
                        _div_terms(g, h) is not None:
                    break
            x = x * 2 + 1
    return h if c == 1 else {e: c * v for e, v in h.items()}


# ---------------------------------------------------------------------------
# QTPoly
# ---------------------------------------------------------------------------

class QTPoly:
    """Sparse polynomial in q, t with integer coefficients.

    Exponent keys are pairs (q-degree, t-degree) of nonnegative ints;
    stored coefficients are nonzero ints.  Instances are immutable.
    """

    __slots__ = ("terms", "_key")

    def __init__(self, terms=None):
        t = {}
        if terms:
            for e, c in terms.items():
                if not isinstance(c, int):
                    raise TypeError(f"QTPoly coefficients are ints, got {c!r}")
                if c:
                    t[e] = c
        self.terms = t
        self._key = None

    # -- construction -------------------------------------------------
    @staticmethod
    def zero():
        return _P_ZERO

    @staticmethod
    def one():
        return _P_ONE

    @staticmethod
    def monomial(a, b, c=1):
        if a < 0 or b < 0:
            raise ValueError("QTPoly exponents must be nonnegative")
        return QTPoly({(a, b): c} if c else {})

    # -- structure ----------------------------------------------------
    def is_zero(self):
        return not self.terms

    def is_one(self):
        return self.terms == {(0, 0): 1}

    def __bool__(self):
        return bool(self.terms)

    def key(self):
        if self._key is None:
            self._key = tuple(sorted(self.terms.items()))
        return self._key

    def __eq__(self, other):
        if not isinstance(other, QTPoly):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(self.key())

    # -- arithmetic ---------------------------------------------------
    def __add__(self, other):
        if not other.terms:
            return self
        if not self.terms:
            return other
        return _lincomb(((1, self), (1, other)))

    def __sub__(self, other):
        if not other.terms:
            return self
        return _lincomb(((1, self), (-1, other)))

    def __neg__(self):
        return _poly({e: -c for e, c in self.terms.items()})

    def __mul__(self, other):
        if not self.terms or not other.terms:
            return _P_ZERO
        if len(other.terms) == 1:
            ((a, b), c), = other.terms.items()
            return self.mul_term(a, b, c)
        if len(self.terms) == 1:
            ((a, b), c), = self.terms.items()
            return other.mul_term(a, b, c)
        return _poly(_add_product({}, self.terms, other.terms))

    def mul_term(self, a, b, c=1):
        if not c:
            return _P_ZERO
        if not (a or b) and c == 1:
            return self
        return _poly({(a1 + a, b1 + b): c1 * c
                      for (a1, b1), c1 in self.terms.items()})

    def content_split(self):
        """Return (c, prim) with self = c*prim, c an int and prim with
        content 1 and a positive leading coefficient."""
        if not self.terms:
            return 0, _P_ZERO
        c, prim = _primitive_terms(self.terms)
        return c, self if c == 1 else _poly(prim)

    def exact_div(self, g):
        """Exact quotient self/g in Z[q,t]; DivisibilityError otherwise."""
        if g.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        if g.is_one():
            return self
        if not self.terms:
            return _P_ZERO
        out = _div_terms(self.terms, g.terms)
        if out is None:
            raise DivisibilityError("division in Z[q,t] is not exact")
        return _poly(out)

    # -- display ------------------------------------------------------
    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda kv: _grlex(kv[0]))

    def __str__(self):
        return format_poly(self)

    def __repr__(self):
        return f"QTPoly({format_poly(self)!r})"


def _poly(terms):
    """A QTPoly on a term dict that already holds only nonzero ints."""
    p = QTPoly.__new__(QTPoly)
    p.terms = terms
    p._key = None
    return p


def _lincomb(pairs):
    """The integer polynomial sum of k*p over (int k, QTPoly p) pairs."""
    out = {}
    for k, p in pairs:
        for e, v in p.terms.items():
            s = out.get(e, 0) + k * v
            if s:
                out[e] = s
            else:
                del out[e]
    return _poly(out)


_P_ZERO = _poly({})
_P_ONE = _poly({(0, 0): 1})


def poly_gcd(f: QTPoly, g: QTPoly) -> QTPoly:
    """Gcd over Q[q,t] (primitive parts only, since a QTScalar keeps the
    rational content apart), integer-primitive with a positive leading
    coefficient, from the one heuristic-gcd loop ``_gcd_terms``.  It runs
    only for values a caller supplies, never in construction, so it keeps
    no memo."""
    if f.is_zero():
        return g.content_split()[1] if g else _P_ZERO
    if g.is_zero():
        return f.content_split()[1]
    out = _gcd_terms(f.content_split()[1].terms, g.content_split()[1].terms)
    return _P_ONE if out == {(0, 0): 1} else _poly(out)


# ---------------------------------------------------------------------------
# QTScalar
# ---------------------------------------------------------------------------

class QTScalar:
    """Canonical fraction c*num/den in Q(q,t).  Immutable and hashable.

    c is a Fraction; num and den are integer polynomials with content 1
    and positive graded-lex leading coefficients, and gcd(num, den) = 1.
    Zero is (0, 0, 1).
    """

    __slots__ = ("c", "num", "den")

    def __init__(self, num, den=None):
        s = _reduce(_F_ONE, num, _P_ONE if den is None else den)
        self.c, self.num, self.den = s.c, s.num, s.den

    # -- construction -------------------------------------------------
    @staticmethod
    def zero():
        return _S_ZERO

    @staticmethod
    def one():
        return _S_ONE

    @staticmethod
    def from_fraction(f):
        if not f:
            return _S_ZERO
        if f == 1:
            return _S_ONE
        return _scalar(Fraction(f), _P_ONE, _P_ONE)

    from_int = from_fraction

    # -- structure ----------------------------------------------------
    def is_zero(self):
        return not self.num.terms

    def is_one(self):
        return self.c == 1 and self.num.is_one() and self.den.is_one()

    def __bool__(self):
        return bool(self.num.terms)

    def __eq__(self, other):
        if isinstance(other, int):
            other = QTScalar.from_int(other)
        elif not isinstance(other, QTScalar):
            return NotImplemented
        return (self.c == other.c and self.num == other.num
                and self.den == other.den)

    def __hash__(self):
        return hash((self.c, self.num, self.den))

    # -- arithmetic ---------------------------------------------------
    def __add__(self, other):
        if not other.num.terms:
            return self
        if not self.num.terms:
            return other
        d = poly_gcd(self.den, other.den)
        da, db = self.den.exact_div(d), other.den.exact_div(d)
        # the new numerator is prime to da*db, so only d can cancel
        parts = ((self.c, self.num * db), (other.c, other.num * da))
        s = _reduce(*_combine(parts), d)
        return s if not s.num.terms else _scalar(s.c, s.num, s.den * da * db)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return _scalar(-self.c, self.num, self.den)

    def __mul__(self, other):
        if not self.num.terms or not other.num.terms:
            return _S_ZERO
        n1, d2 = _cancel(self.num, other.den)
        n2, d1 = _cancel(other.num, self.den)
        return _scalar(self.c * other.c, n1 * n2, d1 * d2)

    def inverse(self):
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero in Q(q,t)")
        return _scalar(1 / self.c, self.den, self.num)

    def __truediv__(self, other):
        return self * other.inverse()

    def __pow__(self, n):
        base = self if n >= 0 else self.inverse()
        out = _S_ONE
        for _ in range(abs(n)):
            out = out * base
        return out

    def mul_monomial(self, a, b):
        """Multiply by q^a t^b (a, b may be negative) with no gcd.  For a,
        b >= 0 and a den with a constant term, neither q nor t divides
        den, so q^a t^b num is already canonical over it."""
        if not self.num.terms:
            return self
        if a >= 0 and b >= 0 and (0, 0) in self.den.terms:
            return _scalar(self.c, self.num.mul_term(a, b), self.den)
        return _coprime(self.c, self.num.terms, self.den.terms, a, b)

    # -- substitution --------------------------------------------------
    def invert_parameters(self):
        """The image under q -> 1/q, t -> 1/t, an automorphism of
        Z[q^±1, t^±1]: the sides stay coprime up to a monomial, no gcd."""
        if not self.num.terms:
            return self
        num, den = ({(-a, -b): c for (a, b), c in p.terms.items()}
                    for p in (self.num, self.den))
        return _coprime(self.c, num, den)

    # -- serialization & display ---------------------------------------
    def to_json(self):
        """{"num": rows, "den": rows}, a row [coefficient, q-deg, t-deg]
        per term in graded-lex order; the content sits in the num rows."""
        return {"num": _json_rows(self.num, self.c),
                "den": _json_rows(self.den, 1)}

    @staticmethod
    def from_json(obj):
        cn, num = _from_json_rows(obj["num"])
        cd, den = _from_json_rows(obj["den"])
        return _reduce(cn / cd, num, den)

    def __str__(self):
        return format_scalar(self)

    def __repr__(self):
        return f"QTScalar({format_scalar(self)!r})"


def _scalar(c, num, den):
    """A QTScalar on parts already in canonical form."""
    s = QTScalar.__new__(QTScalar)
    s.c = c
    s.num = num
    s.den = den
    return s


def _combine(pairs):
    """(c, p) with sum of c_i*p_i = c*p, for Fractions c_i and integer
    polynomials p_i."""
    lcd = _ilcm(*(ci.denominator for ci, _ in pairs))
    return (Fraction(1, lcd),
            _lincomb((ci.numerator * (lcd // ci.denominator), p)
                     for ci, p in pairs))


def _cancel(num, den):
    """num/g and den/g for any nonzero integer polynomials, g their gcd."""
    if den.is_one():
        return num, den
    g = poly_gcd(num, den)
    return num.exact_div(g), den.exact_div(g)


def _reduce(c, num, den):
    """The canonical scalar c*num/den of integer polynomials num, den."""
    if den.is_zero():
        raise ZeroDivisionError("zero denominator in Q(q,t)")
    if not num.terms:
        return _S_ZERO
    return _canonical(c, *_cancel(num, den))


def _canonical(c, num, den):
    """The canonical scalar c*num/den for a Fraction c and coprime nonzero
    integer polynomials num, den: their contents and lead signs go to c."""
    cn, num = num.content_split()
    cd, den = den.content_split()
    if cn != cd:
        c = c * Fraction(cn, cd)
    return _scalar(c, num, den)


def _poly_lcm(polys):
    """The lcm of nonzero primitive polynomials with positive leads, one
    ``poly_gcd`` per polynomial after the first; 1 for none."""
    polys = iter(polys)
    out = next(polys, _P_ONE)
    for p in polys:
        out = out * p.exact_div(poly_gcd(out, p))
    return out


def _add_product(out, f, g):
    """Add the product of the integer Laurent term dicts f and g, keyed
    (q-exponent, t-exponent), into the term dict out; return out."""
    for (a1, b1), c1 in f.items():
        for (a2, b2), c2 in g.items():
            k = (a1 + a2, b1 + b2)
            s = out.get(k, 0) + c1 * c2
            if s:
                out[k] = s
            else:
                del out[k]
    return out


def _shifted(terms):
    """(p, a, b): the term dict p of least exponents 0 with terms =
    q^a t^b p; p is terms itself when a = b = 0."""
    a, b = min(k for k, _ in terms), min(k for _, k in terms)
    if not (a or b):
        return terms, 0, 0
    return {(x - a, y - b): v for (x, y), v in terms.items()}, a, b


def _coprime(c, num, den, a=0, b=0):
    """The canonical scalar c*q^a t^b*num/den, for a Fraction c and
    nonzero integer Laurent term dicts num, den that share at most a
    monomial, with no gcd: shifted off q and t, with the net monomial
    on one side, they are coprime."""
    num, na, nb = _shifted(num)
    den, da, db = _shifted(den)
    a, b = a + na - da, b + nb - db
    return _canonical(c, _poly(num).mul_term(max(a, 0), max(b, 0)),
                      _poly(den).mul_term(max(-a, 0), max(-b, 0)))


def _laurent_scalar(c, num, den):
    """The canonical scalar c*num/den, for a Fraction c and integer
    Laurent term dicts num and den (den nonzero), with at most one gcd:
    none when den is a monomial, which is prime to the shifted num."""
    if not num:
        return _S_ZERO
    s = _coprime(c, num, den)
    if len(s.den.terms) > 1:
        s = _scalar(s.c, *_cancel(s.num, s.den))
    return s


def _json_rows(p, c):
    return [[str(v if c == 1 else c * v), a, b]
            for (a, b), v in p.sorted_terms()]


def _number(text):
    """A row's coefficient: an int for integer text such as "-12", else a
    Fraction, which also reads "3/2"."""
    if isinstance(text, str) and text.removeprefix("-").isdecimal():
        return int(text)
    return Fraction(text)


def _from_json_rows(rows):
    """(s, p): the rows' polynomial is s*p with p an integer QTPoly, each
    coefficient as _number reads it; a negative exponent raises
    ValueError."""
    coeffs = [(_number(c), int(a), int(b)) for c, a, b in rows]
    if any(a < 0 or b < 0 for _, a, b in coeffs):
        raise ValueError("QTScalar JSON row exponents must be nonnegative")
    lcd = _ilcm(*(f.denominator for f, _, _ in coeffs))
    terms = {(a, b): f.numerator * (lcd // f.denominator) for f, a, b in coeffs}
    return Fraction(1, lcd), QTPoly(terms)


_F_ONE = Fraction(1)
_S_ZERO = _scalar(Fraction(0), _P_ZERO, _P_ONE)
_S_ONE = _scalar(_F_ONE, _P_ONE, _P_ONE)


def qt_monomial(a: int, b: int) -> QTScalar:
    """q^a t^b as a canonical fraction; negative exponents allowed."""
    num = QTPoly.monomial(max(a, 0), max(b, 0))
    den = QTPoly.monomial(max(-a, 0), max(-b, 0))
    return _scalar(_F_ONE, num, den)


_BRACKET_EXP = {"q": (1, 0), "t": (0, 1), "t_inverse": (0, -1)}


def _brackets(ks, param):
    """(factors, divisors): the product of [k] = (1 - p^k)/(1 - p) over
    k in ks, p the chosen parameter, as _Factored.prod arguments."""
    if param not in _BRACKET_EXP:
        raise ValueError(f"unknown bracket parameter {param!r}")
    da, db = _BRACKET_EXP[param]
    return ([_Factored.binomial(0, 0, da * k, db * k) for k in ks],
            [_Factored.binomial(0, 0, da, db)] * len(ks))


def t_bracket_factorial(k: int, param: str = "t") -> QTScalar:
    """[k]! = [1][2]...[k]; the empty product for k = 0."""
    if k < 0:
        raise ValueError("bracket factorial of a negative integer")
    return _Factored.prod(*_brackets(range(1, k + 1), param)).expand()


# ---------------------------------------------------------------------------
# products of binomials, held factored
# ---------------------------------------------------------------------------

@lru_cache(maxsize=4096)
def _cyclotomic_at(d, va, vb):
    """(p, sa, sb, n, low): p = q^sa t^sb Phi_d(q^va t^vb) the integer
    polynomial of least nonnegative exponents, and for _phi_div (not the
    long division) the monic Phi_d's degree n and its terms (j, c), j < n.
    Phi_d(q) itself, the entry (d, 1, 0), is q^d - 1 divided by every
    Phi_e, e a proper divisor of d, by _phi_div and never _div_terms;
    every other direction reads its terms from that entry."""
    if (va, vb) == (1, 0):
        phi = {(d, 0): 1, (0, 0): -1}
        for e in range(1, d):
            if d % e == 0:
                phi = _phi_div(phi, e, 1, 0)
    else:
        phi = _cyclotomic_at(d, 1, 0)[0].terms
    n = max(j for j, _ in phi)
    sa, sb = max(-va * n, 0), max(-vb * n, 0)
    return (_poly({(sa + j * va, sb + j * vb): c
                   for (j, _), c in phi.items()}), sa, sb, n,
            tuple((j, c) for (j, _), c in phi.items() if j < n))


def _phi_div(f, d, va, vb):
    """The quotient of the nonzero integer term dict f by the polynomial
    p of _cyclotomic_at(d, va, vb), or None if p does not divide f.

    Multiplying by Phi_d(v), v = q^va t^vb, keeps each class of terms
    whose exponents differ by powers of v (key a vb - b va), so each
    class is a Laurent polynomial in v times a monomial and is divided
    on its own by the monic Phi_d, synthetically from its top power of
    v: time linear in the span of the classes, with no leading-term
    search.  p is q^sa t^sb Phi_d(v) and coprime to q and t, so an exact
    Laurent quotient shifted by (-sa, -sb) is the polynomial quotient.
    A monomial is no multiple of p.  Constructions divide by Phi factors
    only here; _div_terms serves the gcd route and _integral_form alone.
    """
    if len(f) < 2:
        return None
    _, sa, sb, n, low = _cyclotomic_at(d, va, vb)
    classes = {}
    for (a, b), c in f.items():
        k = a // va if va else b
        cls = classes.get(a * vb - b * va)
        if cls is None:
            classes[a * vb - b * va] = cls = (a - k * va - sa,
                                              b - k * vb - sb, {})
        cls[2][k] = c
    out = {}
    for a0, b0, g in classes.values():
        lo = min(g)
        span = max(g) - lo + 1
        if span <= n:
            return None
        r = [0] * span
        for k, c in g.items():
            r[k - lo] = c
        for i in range(span - 1, n - 1, -1):
            h = r[i]
            if h:
                k = lo + i - n
                out[(a0 + k * va, b0 + k * vb)] = h
                for j, c in low:
                    r[i - n + j] -= c * h
        if any(r[:n]):
            return None
    return out


def _divide_out(f, phi):
    """(g, taken): the integer Laurent term dict f divided, for each Phi
    factor k of the exponent dict phi, by the polynomial of
    _cyclotomic_at(*k) for as long as the division is exact and at most
    phi[k] times; taken[k] is how many times it divided."""
    taken = {}
    for k, e in phi.items():
        n = 0
        while n < e:
            g = _phi_div(f, *k)
            if g is None:
                break
            f, n = g, n + 1
        taken[k] = n
    return f, taken


def _excess(top, bottom):
    """The integer term dict of prod p^(top[k] - bottom[k]) over the Phi
    keys k where the exponent dict top exceeds bottom, p the polynomial
    of _cyclotomic_at.  Shared by every caller, so none changes it."""
    return _phi_product(frozenset((k, e - bottom.get(k, 0))
                                  for k, e in top.items()
                                  if e > bottom.get(k, 0)))


def _phi_terms(phi):
    """The integer term dict of prod p^e over the (key, e) pairs of phi
    with e > 0, p the polynomial of _cyclotomic_at(*key), multiplied by
    _add_product in the pairs' order: qt's one multiply-out of p's.  A
    lone p is its memo's own term dict, and no caller changes it."""
    out = None
    for k, e in phi:
        for _ in range(e):
            p = _cyclotomic_at(*k)[0].terms
            out = p if out is None else _add_product({}, out, p)
    return _P_ONE.terms if out is None else out


# _excess's product, keyed by the frozenset of (key, exponent) pairs
_phi_product = lru_cache(maxsize=4096)(_phi_terms)


class _Factored:
    """sign * q^a t^b * prod p^e in Q(q,t), each e a nonzero int and p
    the polynomial q^sa t^sb Phi_d(v) of _cyclotomic_at(d, va, vb).

    sign is 1 or -1, or 0 for the zero value, which has no factors; the
    content is always 1, since every Phi_d is monic.  The factors are
    keyed (d, va, vb) with v = q^va t^vb primitive and pointing up
    (va > 0, or va = 0 < vb).  The Phi_d(v) are irreducible and pairwise
    coprime in Z[q^±1, t^±1], so products and quotients are exponent
    sums and every cancellation is exact.  The monomial is held against
    the p's, so a value multiplies out with no shift.
    """

    __slots__ = ("sign", "a", "b", "phi")

    def __init__(self, sign, a=0, b=0, phi=None):
        self.sign, self.a, self.b = sign, a, b
        self.phi = phi or {}

    @staticmethod
    def monomial(a, b):
        return _Factored(1, a, b)

    @staticmethod
    @lru_cache(maxsize=4096)
    def binomial(a1, b1, a2, b2):
        """q^a1 t^b1 - q^a2 t^b2 = q^a1 t^b1 (1 - u) with u = q^a t^b.
        Memoized: the value is shared, so no phi is ever changed in
        place."""
        a, b = a2 - a1, b2 - b1
        if not (a or b):
            return _FACTORED_ZERO
        sign = -1
        if a < 0 or (a == 0 and b < 0):
            # 1 - u = -u (1 - 1/u)
            sign, a1, b1, a, b = 1, a2, b2, -a, -b
        # 1 - v^g = -prod_(d | g) Phi_d(v); with b < 0 the p's of the
        # Phi_d(v) carry t^(-vb deg Phi_d), and those degrees sum to g
        g = _igcd(a, b)
        va, vb = a // g, b // g
        return _Factored(sign, a1, b1 + min(b, 0),
                         {(d, va, vb): 1 for d in range(1, g + 1)
                          if g % d == 0})

    @staticmethod
    def factor(terms, phi):
        """The nonzero integer Laurent term dict terms as a value over the
        Phi factors of the exponent dict phi, each to at most its
        exponent there; None unless the cofactor is +-q^a t^b.  The one
        route by which a built K, a served K (over d_eta) and P's
        integral form (over d_eta and c_lambda's divisors) are factored,
        so each factored form is a certificate."""
        f, taken = _divide_out(terms, phi)
        if len(f) != 1:
            return None
        ((a, b), c), = f.items()
        if abs(c) != 1:
            return None
        return _Factored(c, a, b, {k: n for k, n in taken.items() if n})

    @staticmethod
    def prod(factors, divisors=()):
        """The product of the factors divided by the product of the
        divisors, in one pass; a vanishing divisor raises even when a
        factor vanishes."""
        sign, a, b, phi = 1, 0, 0, {}
        for f in divisors:
            if not f.sign:
                raise ZeroDivisionError("division by zero in Q(q,t)")
            sign, a, b = sign * f.sign, a - f.a, b - f.b
            for k, e in f.phi.items():
                phi[k] = phi.get(k, 0) - e
        for f in factors:
            if not f.sign:
                return _FACTORED_ZERO
            sign, a, b = sign * f.sign, a + f.a, b + f.b
            for k, e in f.phi.items():
                phi[k] = phi.get(k, 0) + e
        return _Factored(sign, a, b, {k: e for k, e in phi.items() if e})

    def is_zero(self):
        return not self.sign

    def __mul__(self, other):
        return _Factored.prod((self, other))

    def __truediv__(self, other):
        return _Factored.prod((self,), (other,))

    def over(self, f, taken):
        """v / self as a canonical QTScalar, with no gcd, for the pair
        (f, taken) = _divide_out(v, self.phi) of an integer Laurent term
        dict v and a self with no divisor.  The Phi factors are
        irreducible and pairwise coprime, and f is v divided by each for
        as long as that is exact, so what is left of the denominator is
        coprime to f up to a monomial: _coprime makes it canonical."""
        return _coprime(Fraction(self.sign), f, _excess(self.phi, taken),
                        -self.a, -self.b)

    def expand(self) -> QTScalar:
        """The canonical QTScalar, with no gcd, memoized on the value."""
        if not self.sign:
            return _S_ZERO
        return _expand(self.sign, self.a, self.b, frozenset(self.phi.items()))


_FACTORED_ZERO = _Factored(0)


@lru_cache(maxsize=4096)
def _expand(sign, a, b, phi):
    """The canonical QTScalar of the nonzero _Factored with these fields,
    phi as a frozenset of its items.  The sides are products of distinct
    p's, each prime to q and t, so they are coprime and need no gcd.
    Memoized, least recently used first out: the Pieri expansions of
    different Lambda meet the same coefficient values, and a QTScalar is
    immutable, so one value is shared by every caller."""
    num = _poly(_phi_terms(phi)).mul_term(max(a, 0), max(b, 0))
    den = _poly(_phi_terms((k, -e) for k, e in phi))
    return _canonical(Fraction(sign), num,
                      den.mul_term(max(-a, 0), max(-b, 0)))


def _vanishes(values, nums):
    """Whether sum value * num is zero over the _Factored values and the
    integer Laurent term dicts nums, decided as integers with no gcd: each
    term is multiplied by D, each Phi factor to minus its least exponent
    over the values, which clears every denominator and drops the factors
    that all the values share."""
    # keys first-seen, v's before D's: _phi_terms multiplies in that
    # order; w's sign and monomial go on the small num, not the product
    least = {k: min(v.phi.get(k, 0) for v in values)
             for k in dict.fromkeys(k for v in values for k in v.phi)}
    D = _Factored(1, 0, 0, {k: -e for k, e in least.items() if e})
    total = {}
    for v, num in zip(values, nums):
        w = v * D
        if w.sign:
            _add_product(total, _phi_terms(w.phi.items()),
                         {(a + w.a, b + w.b): w.sign * c
                          for (a, b), c in num.items()})
    return not total


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------

def _powers(pairs, latex):
    """The product of name^k over the (name, k) pairs with k nonzero, as
    text (q^2*t) or LaTeX (q^{2}t); "" for none."""
    if latex:
        return "".join([n if k == 1 else f"{n}^{{{k}}}" for n, k in pairs
                        if k])
    return "*".join([n if k == 1 else f"{n}^{k}" for n, k in pairs if k])


def _format_terms(p, c, latex):
    """The polynomial c*p, c an int or a Fraction, as text or LaTeX."""
    if p.is_zero():
        return "0"
    chunks = []
    for (a, b), v in p.sorted_terms():
        if c != 1:
            v = c * v
        mono = _powers((("q", a), ("t", b)), latex)
        neg = v < 0
        v = abs(v)
        if mono and v == 1:
            body = mono
        else:
            cs = "\\tfrac{%d}{%d}" % (v.numerator, v.denominator) \
                if latex and v.denominator != 1 else str(v)
            body = cs + (("" if latex else "*") + mono if mono else "")
        if not chunks:
            chunks.append(("-" if neg else "") + body)
        else:
            chunks.append(("- " if neg else "+ ") + body)
    return " ".join(chunks)


def format_poly(p: QTPoly, latex: bool = False) -> str:
    return _format_terms(p, 1, latex)


def format_scalar(s: QTScalar, latex: bool = False) -> str:
    if s.is_zero():
        return "0"
    c, npoly, dpoly = s.c, s.num, s.den
    if dpoly.is_one():
        return _format_terms(npoly, c, latex)
    # canonical form fixes the sign of the den's leading term; flipping
    # both signs when its trailing term is negative reads better
    # (1 - q*t rather than -1 + q*t) and changes nothing mathematically
    e = min(dpoly.terms, key=_grlex)
    if dpoly.terms[e] < 0:
        c, dpoly = -c, -dpoly
    num = _format_terms(npoly, c, latex)
    den = format_poly(dpoly, latex)
    if latex:
        return "\\frac{%s}{%s}" % (num, den)
    nstr = f"({num})" if len(npoly.terms) > 1 or num.startswith("-") else num
    dstr = f"({den})" if len(dpoly.terms) > 1 else den
    return f"{nstr}/{dstr}"
