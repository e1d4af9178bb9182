"""Sparse polynomials in x_1..x_N over Q(q,t), plus the variable
actions (permutation, exact division, specialization) the operator
algebra is built from.  T_0 forms its image of f in one term map
(hecke._t0).  divided_difference is the exact quotient it is defined
as; the operators telescope it term by term in their own kernel
(hecke._step).

A monomial point x_i -> q^(a_i) t^(b_i) is the tuple of its (a_i, b_i)
pairs.  Specialization at one sums no fractions: f's integral form
c F / den, den the lcm of f's few distinct coefficient denominators and
F over Z[q,t] (``_integral_form``), is added up at the point as
integers (``_laurent_at``) and reduced once.  The Pieri operator
identity shares both halves and forms no Q(q,t) value; the evaluation
symmetry and P's values in verify add up P's own integral form, which
bisym_P keeps, with ``_laurent_at``.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import lcm as _ilcm

from .errors import DivisibilityError
from .qt import QTScalar, _add_product, _laurent_scalar, _poly_lcm

_ZERO = QTScalar.zero()
_ONE = QTScalar.one()


def _grlex_x(e):
    return (sum(e), e)


def _check_var(i, nvars):
    """Raise ValueError unless x_i is one of x_1..x_nvars."""
    if not 1 <= i <= nvars:
        raise ValueError(f"x_{i} undefined for {nvars} variables")


def _xpoly(nvars, terms):
    """An XPolynomial on a term dict that already holds only nonzero
    coefficients."""
    p = XPolynomial.__new__(XPolynomial)
    p.nvars = nvars
    p.terms = terms
    return p


class XPolynomial:
    """Polynomial in x_1..x_N with QTScalar coefficients.

    Terms map exponent tuples (length N, nonnegative) to nonzero
    coefficients.  Instances are immutable.
    """

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars, terms=None):
        self.nvars = nvars
        t = {}
        if terms:
            for e, c in terms.items():
                if c:
                    t[e] = c
        self.terms = t

    # -- construction -------------------------------------------------
    @staticmethod
    def zero(nvars):
        return XPolynomial(nvars)

    @staticmethod
    def one(nvars):
        return XPolynomial(nvars, {(0,) * nvars: _ONE})

    @staticmethod
    def variable(i, nvars):
        """x_i, 1-based."""
        _check_var(i, nvars)
        e = [0] * nvars
        e[i - 1] = 1
        return XPolynomial(nvars, {tuple(e): _ONE})

    @staticmethod
    def monomial(exponents, coeff=_ONE):
        if any(n < 0 for n in exponents):
            raise ValueError("XPolynomial exponents must be nonnegative")
        return XPolynomial(len(exponents), {tuple(exponents): coeff})

    # -- structure ----------------------------------------------------
    def is_zero(self):
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if not isinstance(other, XPolynomial):
            return NotImplemented
        return self.nvars == other.nvars and self.terms == other.terms

    def __hash__(self):
        return hash((self.nvars, frozenset(self.terms.items())))

    def total_degree(self):
        return max((sum(e) for e in self.terms), default=0)

    def is_homogeneous(self):
        degs = {sum(e) for e in self.terms}
        return len(degs) <= 1

    def coefficient(self, exponents):
        if len(exponents) != self.nvars:
            raise ValueError("exponent vector length does not match nvars")
        return self.terms.get(tuple(exponents), _ZERO)

    def _check_shape(self, other):
        if self.nvars != other.nvars:
            raise ValueError(
                f"operand variable counts differ: {self.nvars} vs {other.nvars}")

    # -- ring operations ----------------------------------------------
    def __add__(self, other):
        self._check_shape(other)
        if not other.terms:
            return self
        if not self.terms:
            return other
        out = dict(self.terms)
        for e, c in other.terms.items():
            if e in out:
                s = out[e] + c
                if s.is_zero():
                    del out[e]
                else:
                    out[e] = s
            else:
                out[e] = c
        return _xpoly(self.nvars, out)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return _xpoly(self.nvars, {e: -c for e, c in self.terms.items()})

    def __mul__(self, other):
        self._check_shape(other)
        out = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                c = c1 * c2
                if e in out:
                    s = out[e] + c
                    if s.is_zero():
                        del out[e]
                    else:
                        out[e] = s
                elif not c.is_zero():
                    out[e] = c
        return _xpoly(self.nvars, out)

    def scale(self, c: QTScalar):
        if c.is_zero():
            return XPolynomial(self.nvars)
        if c.is_one():
            return self
        return _xpoly(self.nvars, {e: v * c for e, v in self.terms.items()})

    # -- display ------------------------------------------------------
    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda kv: _grlex_x(kv[0]))

    def __str__(self):
        from .render import format_xpoly
        return format_xpoly(self)

    def __repr__(self):
        return f"XPolynomial({self.nvars}, {str(self)!r})"


def permute_vars(f: XPolynomial, sigma) -> XPolynomial:
    """K_sigma f: substitute x_i -> x_sigma(i) (one-line, 1-based)."""
    n = f.nvars
    if sorted(sigma) != list(range(1, n + 1)):
        raise ValueError(f"{tuple(sigma)} is not a permutation of 1..{n}")
    out = {}
    for e, c in f.terms.items():
        e2 = [0] * n
        for i in range(n):
            e2[sigma[i] - 1] = e[i]
        out[tuple(e2)] = c
    return _xpoly(n, out)


def exact_div(f: XPolynomial, g: XPolynomial) -> XPolynomial:
    """Quotient f/g when the division is exact.

    Long division with respect to graded-lex term order; a nonzero
    remainder raises DivisibilityError carrying the remainder, since a
    failed division here falsifies a divisibility claim rather than
    merely signalling bad input.
    """
    f._check_shape(g)
    if g.is_zero():
        raise ZeroDivisionError("polynomial division by zero")
    if not f.terms:
        return XPolynomial(f.nvars)
    lead_g = max(g.terms, key=_grlex_x)
    cg = g.terms[lead_g]
    rem = dict(f.terms)
    out = {}
    while rem:
        e = max(rem, key=_grlex_x)
        qe = tuple(a - b for a, b in zip(e, lead_g))
        if any(a < 0 for a in qe):
            raise DivisibilityError("division is not exact",
                                    XPolynomial(f.nvars, rem))
        qc = rem[e] / cg
        out[qe] = qc
        for e2, c2 in g.terms.items():
            k = tuple(a + b for a, b in zip(qe, e2))
            s = rem.get(k, _ZERO) - qc * c2
            if s.is_zero():
                rem.pop(k, None)
            else:
                rem[k] = s
    return XPolynomial(f.nvars, out)


def divided_difference(f: XPolynomial, i: int) -> XPolynomial:
    """(f - K_(i,i+1) f) / (x_i - x_(i+1)), an exact quotient, for
    1 <= i < N."""
    if not 1 <= i <= f.nvars - 1:
        raise ValueError(f"divided difference {i} undefined for {f.nvars} "
                         "variables")
    sigma = list(range(1, f.nvars + 1))
    sigma[i - 1], sigma[i] = i + 1, i
    return exact_div(f - permute_vars(f, tuple(sigma)),
                     XPolynomial.variable(i, f.nvars)
                     - XPolynomial.variable(i + 1, f.nvars))


def _integral_form(f: XPolynomial):
    """(c, den, F): f = c F / den, with c 1 over the lcm of the rational
    contents of f's coefficients, den the lcm of their denominators (a
    QTPoly) and F a Z[q,t] term dict {x-exponent: QTPoly}.  The lcm
    costs one ``poly_gcd`` per distinct denominator after the first;
    every coefficient is brought over den once."""
    coeffs = f.terms.values()
    den = _poly_lcm(dict.fromkeys(s.den for s in coeffs))
    lcd = _ilcm(*(s.c.denominator for s in coeffs))
    cofactors = {}
    F = {}
    for e, s in f.terms.items():
        cof = cofactors.get(s.den)
        if cof is None:
            cof = cofactors[s.den] = den.exact_div(s.den)
        F[e] = (s.num * cof).mul_term(0, 0, s.c.numerator *
                                      (lcd // s.c.denominator))
    return Fraction(1, lcd), den, F


def _laurent_at(F, point):
    """The integer Laurent term dict {(q-exponent, t-exponent): int} of
    the Z[q,t] term dict F at the point, a tuple of coordinates (a_j,
    b_j) for x_j -> q^(a_j) t^(b_j)."""
    out = {}
    for e, p in F.items():
        da = db = 0
        for n, (a, b) in zip(e, point):
            if n:
                da += n * a
                db += n * b
        _add_product(out, {(da, db): 1}, p.terms)
    return out


def specialize(f: XPolynomial, point) -> QTScalar:
    """Substitute x_i -> q^(a_i) t^(b_i), point the tuple of the
    (a_i, b_i), and return the exact value, summed as integers over f's
    common denominator and reduced once."""
    if len(point) != f.nvars:
        raise ValueError("evaluation point length does not match nvars")
    c, den, F = _integral_form(f)
    return _laurent_scalar(c, _laurent_at(F, point), den.terms)


def elementary_symmetric(r: int, interval, nvars: int) -> XPolynomial:
    """e_r in x_a..x_b, the interval's variables (1-based; none if b < a)."""
    a, b = interval
    width = b - a + 1
    if r < 0 or r > width:
        raise ValueError(f"e_{r} undefined on an interval of {width} variables")
    if width:
        _check_var(a, nvars)
        _check_var(b, nvars)
    if r == 0:
        return XPolynomial.one(nvars)
    out = {}
    for subset in combinations(range(a - 1, b), r):
        e = [0] * nvars
        for i in subset:
            e[i] = 1
        out[tuple(e)] = _ONE
    return XPolynomial(nvars, out)
