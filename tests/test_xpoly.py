from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from bimac.errors import DivisibilityError
from bimac.macdonald import bisym_P
from bimac.qt import QTScalar, qt_monomial
from bimac.render import format_xpoly, xpoly_from_json, xpoly_to_json
from bimac.sparts import SuperPartition
from bimac.xpoly import (XPolynomial, divided_difference,
                         elementary_symmetric, exact_div, permute_vars,
                         specialize)
from reference import apply_K, q_shift, vandermonde

ONE = QTScalar.one()
Q = qt_monomial(1, 0)
T = qt_monomial(0, 1)


def x(i, n):
    return XPolynomial.variable(i, n)


@st.composite
def small_polys(draw, nvars=3):
    p = XPolynomial.zero(nvars)
    for _ in range(draw(st.integers(min_value=0, max_value=4))):
        e = tuple(draw(st.integers(min_value=0, max_value=2))
                  for _ in range(nvars))
        c = draw(st.integers(min_value=-4, max_value=4))
        p = p + XPolynomial.monomial(e, QTScalar.from_int(c))
    return p


@st.composite
def perms(draw, n=3):
    return tuple(draw(st.permutations(range(1, n + 1))))


def test_ring_arithmetic():
    n = 2
    prod = (x(1, n) - x(2, n)) * (x(1, n) + x(2, n))
    assert prod == XPolynomial.monomial((2, 0)) - XPolynomial.monomial((0, 2))
    assert (x(1, n) * XPolynomial.zero(n)).is_zero()
    assert XPolynomial.zero(n) * x(1, n) == XPolynomial.zero(n)


def test_shape_mismatch():
    with pytest.raises(ValueError):
        x(1, 2) + x(1, 3)


def test_permute_examples():
    assert permute_vars(x(1, 2), (2, 1)) == x(2, 2)
    f = XPolynomial.monomial((2, 0, 1))
    assert permute_vars(f, (3, 1, 2)) == XPolynomial.monomial((0, 1, 2))


@settings(max_examples=60, deadline=None)
@given(small_polys(), perms())
def test_permute_group_action(f, sigma)  :
    inv = [0] * 3
    for i, v in enumerate(sigma):
        inv[v - 1] = i + 1
    assert permute_vars(permute_vars(f, sigma), tuple(inv)) == f


def test_q_shift():
    n = 2
    assert q_shift(x(1, n), {1}) == x(1, n).scale(Q)
    f = XPolynomial.monomial((1, 2))
    assert q_shift(f, set()) == f
    assert q_shift(f, ()) == f
    assert q_shift(XPolynomial.zero(n), {1}) == XPolynomial.zero(n)
    assert q_shift(f, {1, 2}) == f.scale(Q ** 3)


@settings(max_examples=50, deadline=None)
@given(small_polys())
def test_q_shift_commutes_with_fixing_permutation(f):
    # sigma fixes variable 1, J = {1}
    sigma = (1, 3, 2)
    assert q_shift(permute_vars(f, sigma), {1}) == \
        permute_vars(q_shift(f, {1}), sigma)


def test_exact_div_examples():
    n = 2
    f = XPolynomial.monomial((2, 0)) - XPolynomial.monomial((0, 2))
    assert exact_div(f, x(1, n) - x(2, n)) == x(1, n) + x(2, n)
    assert exact_div(f, XPolynomial.one(n)) == f
    a = x(1, 3).scale(T) - x(2, 3)
    b = x(1, 3).scale(T) - x(3, 3)
    c = x(2, 3).scale(T) - x(3, 3)
    assert exact_div(a * b * c, a) == b * c


def test_exact_div_remainder_error():
    n = 2
    with pytest.raises(DivisibilityError) as err:
        exact_div(x(1, n) + XPolynomial.one(n), x(2, n))
    assert err.value.remainder is not None


@settings(max_examples=40, deadline=None)
@given(small_polys(), small_polys())
def test_exact_div_roundtrip(f, g):
    if g.is_zero():
        return
    assert exact_div(f * g, g) == f


def test_specialize_examples():
    n = 2
    f = x(1, n) + x(2, n)
    assert specialize(f, ((0, 0), (0, 1))) == ONE + T
    assert specialize(XPolynomial.one(n), ((3, 4), (1, 2))).is_one()
    assert specialize(x(1, n) * x(2, n), ((1, 0), (0, 1))) == Q * T


def test_specialize_checks_point_length():
    # a point is the tuple of (a_i, b_i); one pair per variable
    for point in ((), ((0, 0),), ((0, 0), (0, 1), (1, 1))):
        with pytest.raises(ValueError, match="point length does not match"):
            specialize(x(1, 2), point)


def test_monomial_rejects_negative_exponents():
    # x1*x2^-1 is a Laurent term, which no XPolynomial routine handles
    with pytest.raises(ValueError, match="must be nonnegative"):
        XPolynomial.monomial((1, -1, 0))
    assert XPolynomial.monomial((1, 0, 2)).total_degree() == 3


@settings(max_examples=40, deadline=None)
@given(small_polys(), small_polys())
def test_specialize_is_multiplicative(f, g):
    p = ((1, 0), (0, 1), (1, 1))
    assert specialize(f * g, p) == specialize(f, p) * specialize(g, p)


def _specialize_per_term(f, coords):
    """The reference route: each term's value added as a QTScalar."""
    total = QTScalar.zero()
    for e, c in f.terms.items():
        a = sum(k * da for k, (da, _) in zip(e, coords))
        b = sum(k * db for k, (_, db) in zip(e, coords))
        total = total + c.mul_monomial(a, b)
    return total


# 1 - q^a t^b: (1, 0) and (2, 0) share Phi_1(q), (1, 1) and (2, 2)
# share Phi_1(qt)
_BINOMIALS = ((1, 0), (2, 0), (3, 0), (1, 1), (2, 2), (0, 1))


@st.composite
def rational_coeffs(draw):
    """Nonzero scalars with rational contents and mixed denominators."""
    content = Fraction(draw(st.integers(-6, 6).filter(bool)),
                       draw(st.integers(1, 6)))
    c = QTScalar.from_fraction(content) * qt_monomial(
        draw(st.integers(-2, 2)), draw(st.integers(-2, 2)))
    if draw(st.booleans()):
        c = c * (Q + T.mul_monomial(0, 1))
    for a, b in draw(st.lists(st.sampled_from(_BINOMIALS), max_size=3)):
        c = c / (ONE - qt_monomial(a, b))
    return c


@st.composite
def rational_polys(draw, nvars=3):
    terms = draw(st.dictionaries(
        st.tuples(*[st.integers(0, 2)] * nvars), rational_coeffs(),
        max_size=5))
    return XPolynomial(nvars, terms)


@settings(max_examples=60, deadline=None)
@given(rational_polys(), st.tuples(*[st.tuples(st.integers(-3, 3),
                                               st.integers(-3, 3))] * 3),
       st.booleans())
def test_specialize_matches_per_term_sum(f, coords, cancel):
    if cancel:
        # the terms of f (x_1 - x_2) cancel in the sum at x_1 = x_2
        f = f * (x(1, 3) - x(2, 3))
        coords = (coords[0], coords[0], coords[2])
    value = specialize(f, coords)
    assert value == _specialize_per_term(f, coords)
    if cancel:
        assert value.is_zero()


def test_specialize_gcd_calls(monkeypatch):
    # one poly_gcd per distinct denominator of P_Lambda at most, plus
    # one for the reduction, at every point, however many terms P has
    from bimac import qt
    from bimac.macdonald import bisym_P
    from bimac.sparts import eval_point, superpartitions
    sps = [sp for m in (1, 2) for d in range(4)
           for sp in superpartitions(d, m, 4)]
    calls = []
    real = qt.poly_gcd
    monkeypatch.setattr(qt, "poly_gcd",
                        lambda f, g: calls.append(1) or real(f, g))
    checked = 0
    for lam in sps:
        P = bisym_P(lam).poly
        k = len({c.den for c in P.terms.values()})
        for omg in sps:
            if omg.m == lam.m:
                calls.clear()
                specialize(P, eval_point(omg, "plus"))
                assert len(calls) <= k + 1, (lam, omg)
                checked += 1
    assert checked == 260


def test_elementary_symmetric():
    assert elementary_symmetric(0, (1, 3), 3) == XPolynomial.one(3)
    assert elementary_symmetric(1, (2, 3), 3) == x(2, 3) + x(3, 3)
    assert elementary_symmetric(2, (1, 2), 4) == x(1, 4) * x(2, 4)
    # an empty interval names no variable, even past x_nvars
    assert elementary_symmetric(0, (4, 3), 3) == XPolynomial.one(3)
    with pytest.raises(ValueError):
        elementary_symmetric(3, (1, 2), 4)


def test_coefficient():
    f = XPolynomial.monomial((2, 0), QTScalar.from_int(3))
    assert f.coefficient((2, 0)) == QTScalar.from_int(3)
    assert (x(1, 2) + x(2, 2)).coefficient((0, 0)).is_zero()
    g = (x(1, 2) + x(2, 2)) * (x(1, 2) + x(2, 2))
    assert g.coefficient((1, 1)) == QTScalar.from_int(2)


def test_coefficient_checks_exponent_length():
    # a vector of the wrong length is an error, not a silent zero
    P = bisym_P(SuperPartition((2, 0), (1,), 4)).poly
    for exponents in ((1, 0, 1), (1, 0, 1, 0, 0), ()):
        with pytest.raises(ValueError, match="length does not match"):
            P.coefficient(exponents)


def test_vandermonde():
    assert vandermonde("plain", [1], 3) == XPolynomial.one(3)
    assert vandermonde("t_deformed", [1, 2], 2) == x(1, 2).scale(T) - x(2, 2)
    assert vandermonde("plain", [1, 3], 3) == x(1, 3) - x(3, 3)


def test_divided_difference_by_hand():
    # d_1(x1^3 x2) = (x1^3 x2 - x1 x2^3)/(x1 - x2) = x1^2 x2 + x1 x2^2
    assert divided_difference(XPolynomial.monomial((3, 1, 0)), 1) == \
        XPolynomial.monomial((2, 1, 0)) + XPolynomial.monomial((1, 2, 0))
    assert divided_difference(XPolynomial.monomial((0, 2, 2)), 2).is_zero()


@pytest.mark.parametrize("i", [0, 3, -1])
def test_divided_difference_index_out_of_range(i):
    # only 1 <= i < N name a pair of adjacent variables; i = 0 and
    # i = -1 would swap with the last variable, i = N would index past it
    with pytest.raises(ValueError, match="undefined for 3 variables"):
        divided_difference(XPolynomial.monomial((2, 0, 1)), i)


_F3 = XPolynomial.monomial((2, 1, 0))


def test_format_xpoly_groups_coefficients():
    # text groups a sum or a quotient; LaTeX groups only a sum beside a
    # monomial, since \frac groups itself; a unit coefficient is dropped
    f = XPolynomial(2, {
        (0, 0): ONE + Q, (1, 0): -ONE, (0, 1): ONE - T,
        (1, 1): ONE / (ONE - Q), (2, 0): -(Q / (ONE - T)),
        (0, 2): QTScalar.from_fraction(Fraction(2, 3)) * Q,
        (2, 1): ONE, (1, 2): QTScalar.from_int(3)})
    assert format_xpoly(f) == (
        "(1 + q) + (1 - t)*x2 - x1 + 2/3*q*x2^2 + (1/(1 - q))*x1*x2 "
        "+ ((-q)/(1 - t))*x1^2 + 3*x1*x2^2 + x1^2*x2")
    assert format_xpoly(f, latex=True) == (
        "1 + q + (1 - t) x_{2} - x_{1} + \\tfrac{2}{3}q x_{2}^{2} "
        "+ \\frac{1}{1 - q} x_{1}x_{2} + \\frac{-q}{1 - t} x_{1}^{2} "
        "+ 3 x_{1}x_{2}^{2} + x_{1}^{2}x_{2}")
    g = XPolynomial(1, {(0,): ONE / (ONE - Q)})
    assert format_xpoly(g) == "(1/(1 - q))"
    assert format_xpoly(g, latex=True) == "\\frac{1}{1 - q}"


def _format_per_term(f, latex):
    """format_xpoly of f put together from its terms, each formatted
    alone."""
    out = []
    for e, c in f.sorted_terms():
        s = format_xpoly(XPolynomial(f.nvars, {e: c}), latex=latex)
        out.append(s if not out else
                   "- " + s[1:] if s.startswith("-") else "+ " + s)
    return " ".join(out) or "0"


@settings(max_examples=40, deadline=None)
@given(st.lists(rational_coeffs(), min_size=1, max_size=3),
       st.lists(st.tuples(st.tuples(*[st.integers(0, 2)] * 3),
                          st.integers(0, 5)),
                max_size=8, unique_by=lambda pick: pick[0]))
def test_rendering_sees_values_not_objects(pool, picks):
    # P and E share one object among their equal coefficients, and the
    # renderers format each object once: the output must be the same
    # with separate equal objects, and unequal coefficients (a value and
    # its negative among them) must never merge
    pool = pool + [-c for c in pool]
    shared = XPolynomial(3, {e: pool[k % len(pool)] for e, k in picks})
    separate = XPolynomial(3, {e: QTScalar.from_json(c.to_json())
                               for e, c in shared.terms.items()})
    assert not any(a is b for a, b in zip(shared.terms.values(),
                                          separate.terms.values()))
    for latex in (False, True):
        assert format_xpoly(shared, latex=latex) == \
            format_xpoly(separate, latex=latex) == \
            _format_per_term(shared, latex)
    assert xpoly_to_json(shared) == xpoly_to_json(separate) == {
        "N": 3, "terms": [{"x": list(e), "coeff": c.to_json()}
                          for e, c in shared.sorted_terms()]}


def test_unknown_vandermonde_kind():
    # checked before the pair loop, so a set with no pair raises too
    for I in ({1}, {1, 2}):
        with pytest.raises(ValueError,
                           match="unknown Vandermonde kind 'bogus'"):
            vandermonde("bogus", I, 3)


@pytest.mark.parametrize("call, message", [
    (lambda: XPolynomial.variable(0, 3), "x_0 undefined for 3 variables"),
    (lambda: XPolynomial.variable(4, 3), "x_4 undefined for 3 variables"),
    (lambda: vandermonde("plain", {0, 1}, 3), "x_0 undefined for 3 variables"),
    (lambda: elementary_symmetric(1, (0, 2), 3),
     "x_0 undefined for 3 variables"),
    (lambda: elementary_symmetric(1, (2, 4), 3),
     "x_4 undefined for 3 variables"),
    (lambda: elementary_symmetric(0, (0, 99), 3),
     "x_0 undefined for 3 variables"),
    (lambda: apply_K(0, 1, _F3), "x_0 undefined for 3 variables"),
    (lambda: apply_K(1, 4, _F3), "x_4 undefined for 3 variables"),
    (lambda: q_shift(_F3, {0}), "x_0 undefined for 3 variables"),
    (lambda: q_shift(_F3, {4}), "x_4 undefined for 3 variables"),
    (lambda: permute_vars(_F3, (1, 2, 2)),
     r"\(1, 2, 2\) is not a permutation of 1..3"),
    (lambda: permute_vars(_F3, (1, 2, 4)),
     r"\(1, 2, 4\) is not a permutation of 1..3"),
], ids=["variable-0", "variable-N+1", "vandermonde", "e_r-0", "e_r-N+1",
        "e_0-0", "K-0", "K-N+1", "q_shift-0", "q_shift-N+1", "permute-repeat",
        "permute-N+1"])
def test_variable_index_out_of_range(call, message):
    # indices are 1-based: 0 would wrap to x_N and N + 1 would index past
    # the exponent vector
    with pytest.raises(ValueError, match=message):
        call()


@settings(max_examples=40, deadline=None)
@given(small_polys(), small_polys(), st.sampled_from([1, 2]))
def test_divided_difference_twisted_leibniz(f, g, i):
    # d_i(f g) = d_i(f) g + (s_i f) d_i(g)
    s_i = (2, 1, 3) if i == 1 else (1, 3, 2)
    assert divided_difference(f * g, i) == \
        divided_difference(f, i) * g + \
        permute_vars(f, s_i) * divided_difference(g, i)


@settings(max_examples=40, deadline=None)
@given(small_polys())
def test_json_roundtrip(f):
    assert xpoly_from_json(xpoly_to_json(f)) == f


@settings(max_examples=50, deadline=None)
@given(small_polys(), perms(), perms())
def test_permute_composition_rule(f, sigma, rho):
    # K_sigma K_rho = K_(sigma o rho) with values sigma(rho(i))
    comp = tuple(sigma[rho[i] - 1] for i in range(3))
    assert permute_vars(permute_vars(f, rho), sigma) == \
        permute_vars(f, comp)
