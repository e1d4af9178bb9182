import json
from fractions import Fraction
from math import gcd as igcd
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

from bimac import qt
from bimac.errors import DivisibilityError
from bimac.qt import (QTPoly, QTScalar, poly_gcd, qt_monomial,
                      t_bracket_factorial)
from reference import t_bracket


ONE = QTScalar.one()
Q = qt_monomial(1, 0)
T = qt_monomial(0, 1)


CORPUS = Path(__file__).resolve().parents[1] / "perfbench" / "data" / \
    "qt_corpus.json"


def is_canonical(s):
    if not isinstance(s.c, Fraction):
        return False
    if not s.num.terms:
        return s.c == 0 and s.den.is_one()
    for p in (s.num, s.den):
        if not all(type(c) is int for c in p.terms.values()):
            return False
        if igcd(*p.terms.values()) != 1 or p.sorted_terms()[-1][1] < 0:
            return False
    return s.c != 0 and poly_gcd(s.num, s.den).is_one()


coeffs = st.integers(min_value=-6, max_value=6)
exps = st.integers(min_value=0, max_value=4)
signed_exps = st.integers(min_value=-4, max_value=4)


@st.composite
def polys(draw, allow_zero=True):
    n = draw(st.integers(min_value=0 if allow_zero else 1, max_value=4))
    p = QTPoly.zero()
    for _ in range(n):
        p = p + QTPoly.monomial(draw(exps), draw(exps), draw(coeffs))
    if not allow_zero and p.is_zero():
        p = QTPoly.one()
    return p


@st.composite
def scalars(draw):
    return QTScalar(draw(polys()), draw(polys(allow_zero=False)))


def test_add_common_denominator():
    a = Q / (ONE - T)
    b = (Q * T) / (ONE - T)
    assert a + b == (Q * (ONE + T)) / (ONE - T)


def test_division_self_is_one():
    for s in (Q, ONE - T, (ONE + Q * T) / (ONE - Q)):
        assert (s / s).is_one()


def test_gcd_cancellation_forced():
    assert (ONE - Q * Q) / (ONE - Q) == ONE + Q


def _t_poly(*coeffs):
    """The polynomial sum of coeffs[k] * t^k."""
    return QTPoly({(0, k): c for k, c in enumerate(coeffs)})


def _q_poly(*coeffs):
    """The polynomial sum of coeffs[k] * q^k."""
    return QTPoly({(k, 0): c for k, c in enumerate(coeffs)})


@pytest.mark.parametrize("f, g, want", [
    # t^2 - 1 and (31t - 1)^2 are coprime, yet the integer gcd of their
    # values at t = x rebuilds a false candidate at each of the first
    # seven evaluation points
    (_t_poly(-1, 0, 1), _t_poly(1, -62, 961), _t_poly(1)),
    # the same pair with t + 2 planted: (t^2 - 1)(t + 2)^2 and
    # (31t - 1)^2 (t + 2); the search needs four points
    (_t_poly(-4, -4, 3, 4, 1), _t_poly(2, -123, 1860, 961), _t_poly(2, 1)),
    # the same two cases in q alone, where q is the variable evaluated:
    # eight points, then four
    (_q_poly(-1, 0, 1), _q_poly(1, -62, 961), _q_poly(1)),
    (_q_poly(-4, -4, 3, 4, 1), _q_poly(2, -123, 1860, 961), _q_poly(2, 1)),
], ids=["coprime", "planted", "coprime-q", "planted-q"])
def test_gcd_needs_many_evaluation_points(f, g, want):
    assert poly_gcd(f, g) == want
    try:
        import sympy
    except ImportError:
        return
    _check_gcd_against_sympy(sympy, f, g)


def test_exact_div():
    q, t = QTPoly.monomial(1, 0), QTPoly.monomial(0, 1)
    with pytest.raises(DivisibilityError):
        q.exact_div(t)
    with pytest.raises(DivisibilityError):
        (q * q + t).exact_div(q + QTPoly.one())
    with pytest.raises(ZeroDivisionError):
        q.exact_div(QTPoly.zero())
    assert QTPoly.monomial(2, 1, 4).exact_div(QTPoly.monomial(1, 0, 2)) == \
        QTPoly.monomial(1, 1, 2)
    assert (q * q * t - t).exact_div(q + QTPoly.one()) == q * t - t


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        ONE / QTScalar.zero()
    with pytest.raises(ZeroDivisionError):
        QTScalar(QTPoly.one(), QTPoly.zero())


def test_monomials():
    assert qt_monomial(0, 0).is_one()
    assert qt_monomial(3, 0) == Q ** 3
    assert qt_monomial(0, -5) == ONE / T ** 5
    assert qt_monomial(-2, 1) == T / (Q * Q)


def test_brackets():
    assert t_bracket(2, "q") == ONE + Q
    assert t_bracket_factorial(0, "t").is_one()
    assert t_bracket_factorial(3, "t") == (ONE + T) * (ONE + T + T * T)
    with pytest.raises(ValueError):
        t_bracket(-1, "t")
    with pytest.raises(ValueError):
        t_bracket_factorial(-2, "q")
    for call in (t_bracket, t_bracket_factorial):
        for k in (0, 3):
            with pytest.raises(ValueError,
                               match="unknown bracket parameter 'x'"):
                call(k, "x")


def test_bracket_inversion_identity():
    for k in range(7):
        lhs = t_bracket_factorial(k, "t")
        rhs = qt_monomial(0, k * (k - 1) // 2) * \
            t_bracket_factorial(k, "t_inverse")
        assert lhs == rhs


@settings(max_examples=150, deadline=None)
@given(scalars(), scalars(), scalars())
def test_field_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a * (b * c) == (a * b) * c
    assert (a + b) * c == a * c + b * c
    assert a + b == b + a
    assert a * b == b * a


@settings(max_examples=120, deadline=None)
@given(scalars(), scalars())
def test_inverse_and_canonical(a, b):
    assert is_canonical(a + b)
    assert is_canonical(a * b)
    if not b.is_zero():
        assert (a / b) * b == a
        assert is_canonical(a / b)


def _sympy_scalar(sympy, s):
    q, t = sympy.symbols("q t")

    def poly(p):
        return sum((sympy.Integer(c) * q ** a * t ** b
                    for (a, b), c in p.terms.items()), sympy.Integer(0))
    return sympy.Rational(s.c.numerator, s.c.denominator) * poly(s.num) \
        / poly(s.den)


def _check_against_sympy(sympy, a, b):
    """Sum, product and quotient equal sympy's cancelled result, and
    their denominators are sympy's up to a rational constant."""
    sa, sb = _sympy_scalar(sympy, a), _sympy_scalar(sympy, b)
    ops = [(a + b, sa + sb), (a * b, sa * sb)]
    if not b.is_zero():
        ops.append((a / b, sa / sb))
    for got, want in ops:
        assert is_canonical(got)
        want = sympy.cancel(want)
        assert sympy.cancel(_sympy_scalar(sympy, got) - want) == 0
        _, want_den = sympy.fraction(want)
        _, got_den = sympy.fraction(_sympy_scalar(sympy, got))
        ratio = sympy.cancel(got_den / want_den)
        assert ratio.is_Rational and ratio != 0


def _check_gcd_against_sympy(sympy, f, g):
    """poly_gcd equals sympy.gcd up to sign and content."""
    sf = _sympy_scalar(sympy, QTScalar(f))
    sg = _sympy_scalar(sympy, QTScalar(g))
    got = _sympy_scalar(sympy, QTScalar(poly_gcd(f, g)))
    want = sympy.gcd(sf, sg)
    if want == 0:
        assert got == 0
        return
    ratio = sympy.cancel(got / want)
    assert ratio.is_Rational and ratio != 0


@settings(max_examples=60, deadline=None)
@given(scalars(), scalars(), polys(allow_zero=False), polys(allow_zero=False),
       polys(allow_zero=False))
def test_differential_against_sympy(a, b, f, g, h):
    sympy = pytest.importorskip("sympy")
    for s in (a, b):
        assert all(type(c) is int for p in (s.num, s.den)
                   for c in p.terms.values())
    _check_against_sympy(sympy, a, b)
    _check_gcd_against_sympy(sympy, f * h, g * h)


@settings(max_examples=60, deadline=None)
@given(scalars(), polys(allow_zero=False))
def test_sum_over_an_equal_denominator_against_sympy(a, n):
    # equal canonical denominators: their gcd is the whole of each
    sympy = pytest.importorskip("sympy")
    b = QTScalar(n, a.den)
    assume(b.den == a.den)
    _check_against_sympy(sympy, a, b)


@settings(max_examples=60, deadline=None)
@given(scalars(), scalars())
def test_sum_of_equal_contents_against_sympy(a, b):
    # equal rational contents, over equal or different denominators
    sympy = pytest.importorskip("sympy")
    assume(a and b)
    b = b * QTScalar.from_fraction(a.c / b.c)
    assert b.c == a.c
    _check_against_sympy(sympy, a, b)


def test_corpus_against_sympy():
    sympy = pytest.importorskip("sympy")
    with open(CORPUS, encoding="utf-8") as fh:
        corpus = json.load(fh)
    for op in ("add", "mul", "div"):
        for a, b in corpus[op][:50]:
            _check_against_sympy(sympy, QTScalar.from_json(a),
                                 QTScalar.from_json(b))
    for a, b in corpus["gcd"][:50]:
        _check_gcd_against_sympy(sympy, QTScalar.from_json(a).num,
                                 QTScalar.from_json(b).num)


@settings(max_examples=120, deadline=None)
@given(scalars())
def test_normalization_idempotent(a):
    again = QTScalar(a.num, a.den)
    assert again.num == a.num and again.den == a.den


@settings(max_examples=100, deadline=None)
@given(scalars())
def test_json_roundtrip(a):
    assert QTScalar.from_json(a.to_json()) == a


def test_json_rows_parse_integers_as_int():
    # integer rows skip Fraction; a fraction row, and a hand-edited
    # non-canonical one, still come out canonical through _reduce
    assert qt._from_json_rows([["-6", 1, 0], ["4", 0, 2]]) == \
        (Fraction(1), QTPoly({(1, 0): -6, (0, 2): 4}))
    assert all(type(v) is int for v in
               qt._from_json_rows([["12", 0, 0]])[1].terms.values())
    s = QTScalar.from_json({"num": [["2", 0, 0], ["2/3", 1, 0]],
                            "den": [["4", 0, 0], ["-4", 0, 1]]})
    assert s == QTScalar(QTPoly({(0, 0): 6, (1, 0): 2}),
                         QTPoly({(0, 0): 12, (0, 1): -12}))
    assert is_canonical(s)


@pytest.mark.parametrize("side", ["num", "den"])
@pytest.mark.parametrize("row", [["1", -1, 0], ["1", 0, -1]], ids=["q", "t"])
def test_from_json_rejects_negative_exponents(side, row):
    # q^-1 read as a row would not be canonical and would compare != to
    # qt_monomial(-1, 0), so JSON input rejects it as QTPoly.monomial does
    obj = {"num": [["1", 0, 0]], "den": [["1", 0, 0]]}
    obj[side] = [row]
    with pytest.raises(ValueError, match="exponents must be nonnegative"):
        QTScalar.from_json(obj)


@settings(max_examples=150, deadline=None)
@given(scalars(), signed_exps, signed_exps)
def test_mul_monomial_fast_path_matches_reduce(a, i, j):
    # q^i t^j a takes no gcd, on the fast path (i, j >= 0, den with a
    # constant term) or off it; it must give the canonical scalar that
    # the product through a gcd gives
    got = a.mul_monomial(i, j)
    assert is_canonical(got)
    want = a * qt_monomial(i, j)
    assert (got.c, got.num, got.den) == (want.c, want.num, want.den)


def _without_gcd(route, *args):
    """route(*args) with qt.poly_gcd refusing every call."""
    def refuse(*_):
        raise AssertionError("poly_gcd called on a gcd-free route")

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(qt, "poly_gcd", refuse)
        return route(*args)


@settings(max_examples=150, deadline=None)
@given(scalars(), signed_exps, signed_exps)
def test_monomial_maps_make_no_gcd_call(a, i, j):
    # q -> 1/q, t -> 1/t and multiplication by q^i t^j keep the sides
    # coprime up to a monomial, so only contents and signs are refolded
    for got in (_without_gcd(a.invert_parameters),
                _without_gcd(a.mul_monomial, i, j)):
        assert is_canonical(got)


binomials = st.tuples(signed_exps, signed_exps, signed_exps,
                      signed_exps).filter(lambda e: e[:2] != e[2:])


@settings(max_examples=150, deadline=None)
@given(st.lists(binomials, max_size=4), st.lists(binomials, max_size=4))
def test_factored_expand_makes_no_gcd_call(tops, bottoms):
    # a product and quotient of q^a1 t^b1 - q^a2 t^b2 expands with no
    # gcd to what the same arithmetic on QTScalars gives
    def plain(e):
        return qt_monomial(*e[:2]) - qt_monomial(*e[2:])

    f = qt._Factored.prod([qt._Factored.binomial(*e) for e in tops],
                          [qt._Factored.binomial(*e) for e in bottoms])
    got = _without_gcd(f.expand)
    want = ONE
    for e in tops:
        want = want * plain(e)
    for e in bottoms:
        want = want / plain(e)
    assert is_canonical(got)
    assert (got.c, got.num, got.den) == (want.c, want.num, want.den)


@settings(max_examples=150, deadline=None)
@given(polys(), signed_exps, signed_exps, signed_exps, signed_exps,
       st.integers(min_value=-6, max_value=6).filter(bool))
def test_laurent_scalar_over_a_monomial_makes_no_gcd_call(p, i, j, a, b,
                                                          k):
    # q^i t^j p / (k q^a t^b): the shifted num is prime to a monomial
    num = {(x + i, y + j): v for (x, y), v in p.terms.items()}
    got = _without_gcd(qt._laurent_scalar, Fraction(1, 3), num,
                       {(a, b): k})
    want = QTScalar(p) * qt_monomial(i - a, j - b) / \
        QTScalar.from_fraction(3 * k)
    assert is_canonical(got)
    assert (got.c, got.num, got.den) == (want.c, want.num, want.den)


def test_json_term_order_is_graded_lex():
    s = (ONE + Q * T + T) / (ONE - Q)
    rows = s.to_json()["num"]
    keys = [(a + b, a) for _, a, b in rows]
    assert keys == sorted(keys)


@settings(max_examples=80, deadline=None)
@given(scalars())
def test_parameter_inversion_involution(a):
    assert a.invert_parameters().invert_parameters() == a


@settings(max_examples=80, deadline=None)
@given(scalars())
def test_parameter_inversion_against_sympy(a):
    sympy = pytest.importorskip("sympy")
    q, t = sympy.symbols("q t")
    want = _sympy_scalar(sympy, a).subs({q: 1 / q, t: 1 / t},
                                        simultaneous=True)
    got = a.invert_parameters()
    assert is_canonical(got)
    assert sympy.cancel(_sympy_scalar(sympy, got) - want) == 0


def test_brackets_against_sympy():
    # [k] = 1 + p + .. + p^(k-1) and [k]! = [1]..[k], p = q, t or 1/t
    sympy = pytest.importorskip("sympy")
    q, t = sympy.symbols("q t")
    for param, p in (("q", q), ("t", t), ("t_inverse", 1 / t)):
        factorial = sympy.Integer(1)
        for k in range(7):
            bracket = sum((p ** j for j in range(k)), sympy.Integer(0))
            if k:
                factorial *= bracket
            for got, want in ((t_bracket(k, param), bracket),
                              (t_bracket_factorial(k, param), factorial)):
                assert is_canonical(got)
                assert sympy.cancel(_sympy_scalar(sympy, got) - want) == 0


def test_negative_exponents_live_in_denominator():
    s = qt_monomial(2, -3)
    assert all(a >= 0 and b >= 0 for a, b in s.num.terms)
    assert all(a >= 0 and b >= 0 for a, b in s.den.terms)


@settings(max_examples=150, deadline=None)
@given(exps, exps, coeffs.filter(bool), polys(allow_zero=False))
def test_gcd_with_a_one_term_side(a, b, c, p):
    # poly_gcd against the monomial path of the heuristic-gcd loop run on
    # the raw sides, which reports the content gcd that poly_gcd leaves
    # out: on primitive parts the same least-exponent q^a t^b
    mono = QTPoly.monomial(a, b, c)
    want = QTPoly(qt._gcd_terms(mono.terms, p.terms)).content_split()[1]
    assert poly_gcd(mono, p) == poly_gcd(p, mono) == want


@settings(max_examples=60, deadline=None)
@given(polys(allow_zero=False), polys(allow_zero=False),
       polys(allow_zero=False))
def test_gcd_contains_planted_factor(f, g, h):
    # gcd(f*h, g*h) is divisible by the primitive part of h
    a, b = f * h, g * h
    d = poly_gcd(a, b)
    _, hp = h.content_split()
    d.exact_div(poly_gcd(d, hp))  # no exception
    # the planted factor divides the gcd
    assert poly_gcd(d, hp) == hp
