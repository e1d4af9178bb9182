"""The factored form of products of q,t-binomials, and the guarantee
that the Pieri and evaluation formulas expand it without any gcd."""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import assume, given, settings, strategies as st

import bimac.errors
import bimac.qt
from bimac import macdonald
from bimac.cli import main
from bimac.evalsym import eval_formula
from bimac.pieri import pieri_expand
from bimac.qt import (QTPoly, QTScalar, _add_product, _cyclotomic_at,
                     _divide_out, _excess, _Factored, _phi_div, _phi_terms,
                     _vanishes, qt_monomial)
from bimac.sparts import parse_spart
from bimac.verify import run_suite

ONE = QTScalar.one()
exps = st.integers(min_value=-6, max_value=6)
# (kind, a1, b1, a2, b2, divide): a monomial q^a1 t^b1, a binomial
# 1 - q^a1 t^b1, or q^a1 t^b1 - q^a2 t^b2, as a factor or a divisor
factors = st.tuples(st.sampled_from(("monomial", "one_minus", "binomial")),
                    exps, exps, exps, exps, st.booleans())


# (d, va, vb): Phi_d(q^va t^vb) with v primitive and pointing up
phis = st.tuples(st.integers(min_value=1, max_value=6),
                 st.integers(min_value=0, max_value=3),
                 st.integers(min_value=-3, max_value=3)).filter(
    lambda k: (k[1] > 0 and gcd(k[1], k[2]) == 1)
    or k[1:] == (0, 1))
term_dicts = st.dictionaries(
    st.tuples(st.integers(min_value=0, max_value=8),
              st.integers(min_value=0, max_value=8)),
    st.integers(min_value=-6, max_value=6).filter(bool), min_size=1,
    max_size=12)


def _by_exact_div(f, k):
    """f over the polynomial of _cyclotomic_at(*k) by long division, or
    None where it does not divide."""
    try:
        return QTPoly(f).exact_div(_cyclotomic_at(*k)[0]).terms
    except bimac.errors.DivisibilityError:
        return None


@settings(max_examples=300, deadline=None)
@given(term_dicts, phis, st.integers(min_value=1, max_value=2))
def test_phi_div_of_a_multiple(f, k, power):
    # f p^power divides by p exactly power times, each quotient the one
    # long division gives
    g = QTPoly(f)
    for _ in range(power):
        g = g * _cyclotomic_at(*k)[0]
    g = g.terms
    for _ in range(power):
        want = _by_exact_div(g, k)
        assert want is not None
        g = _phi_div(g, *k)
        assert g == want
    assert g == f


@settings(max_examples=500, deadline=None)
@given(term_dicts, phis)
def test_phi_div_matches_exact_div(f, k):
    assert _phi_div(f, *k) == _by_exact_div(f, k)


def test_cyclotomic_matches_sympy():
    # _cyclotomic_at(d, 1, 0) divides q^d - 1 by each Phi_e through
    # _phi_div; sympy's cyclotomic_poly is a route that shares none of it
    import sympy
    q = sympy.Symbol("q")
    for d in [*range(1, 301), 1980, 2310, 2520]:
        want = sympy.Poly(sympy.cyclotomic_poly(d, q), q)
        assert _cyclotomic_at(d, 1, 0)[0].terms == \
            {(j, 0): int(c) for (j,), c in want.terms()}, d


def test_phi_div_covers_every_d():
    # Phi_d(q t^-1) for d = 1..6 times 3 + q t^2 divides exactly, and
    # adding one term breaks it
    for d in range(1, 7):
        p = _cyclotomic_at(d, 1, -1)[0]
        f = (p * QTPoly({(0, 0): 3, (1, 2): 1})).terms
        assert _phi_div(f, d, 1, -1) == {(0, 0): 3, (1, 2): 1}
        assert _phi_div({**f, (9, 9): 1}, d, 1, -1) is None


def _both(kind, a1, b1, a2, b2):
    """The same factor in factored form and as a plain QTScalar."""
    if kind == "monomial":
        return _Factored.monomial(a1, b1), qt_monomial(a1, b1)
    if kind == "one_minus":
        return _Factored.binomial(0, 0, a1, b1), ONE - qt_monomial(a1, b1)
    return (_Factored.binomial(a1, b1, a2, b2),
            qt_monomial(a1, b1) - qt_monomial(a2, b2))


def _parts(s):
    return s.c, s.num, s.den


def _build(spec):
    """Both products; a vanishing divisor must be refused by both and
    is then left out."""
    f, s = _Factored.monomial(0, 0), ONE
    for kind, a1, b1, a2, b2, divide in spec:
        g, x = _both(kind, a1, b1, a2, b2)
        if not divide:
            f, s = f * g, s * x
        elif x.is_zero():
            with pytest.raises(ZeroDivisionError):
                f / g
            with pytest.raises(ZeroDivisionError):
                s / x
        else:
            f, s = f / g, s / x
    return f, s


@settings(max_examples=300, deadline=None)
@given(st.lists(factors, max_size=8))
def test_expand_matches_plain_arithmetic(spec):
    # cold, with the expansion memo cleared, and warm, from the memo
    f, s = _build(spec)
    bimac.qt._expand.cache_clear()
    got = f.expand()
    assert isinstance(got.c, Fraction)
    assert _parts(got) == _parts(s)
    warm = _Factored(f.sign, f.a, f.b, dict(f.phi)).expand()
    assert warm is got and _parts(warm) == _parts(s)
    assert f.is_zero() == s.is_zero()


@settings(max_examples=300, deadline=None)
@given(st.lists(factors, max_size=8))
def test_prod_matches_the_pairwise_chain(spec):
    pairs = [(_both(kind, a1, b1, a2, b2), divide)
             for kind, a1, b1, a2, b2, divide in spec]
    # a vanishing divisor is test_prod_zero_divisor_and_factor's case
    assume(not any(divide and x.is_zero() for (_, x), divide in pairs))
    tops = [f for (f, _), divide in pairs if not divide]
    bottoms = [f for (f, _), divide in pairs if divide]
    chain, plain = _Factored.monomial(0, 0), ONE
    for f in tops:
        chain = chain * f
    for f in bottoms:
        chain = chain / f
    for (_, x), divide in pairs:
        plain = plain / x if divide else plain * x
    got = _Factored.prod(tops, bottoms)
    assert (got.sign, got.a, got.b, got.phi) == \
        (chain.sign, chain.a, chain.b, chain.phi)
    assert _parts(got.expand()) == _parts(plain)


def test_prod_zero_divisor_and_factor():
    zero = _Factored.binomial(1, 2, 1, 2)
    one_minus_q = _Factored.binomial(0, 0, 1, 0)
    with pytest.raises(ZeroDivisionError):
        _Factored.prod([one_minus_q], [one_minus_q, zero])
    with pytest.raises(ZeroDivisionError):
        _Factored.prod([zero], [zero])
    got = _Factored.prod([one_minus_q, zero], [one_minus_q])
    assert got.is_zero() and got.expand().is_zero()


def test_memoized_binomial_is_never_changed():
    def state(f):
        return f.sign, f.a, f.b, dict(f.phi)

    # with v = q^3 t^2: 1 - v^2 = -Phi_1(v) Phi_2(v) and
    # q^2 - q^2 v = -q^2 Phi_1(v)
    first = _Factored.binomial(0, 0, 6, 4)
    second = _Factored.binomial(2, 0, 5, 2)
    before = state(first), state(second)
    _ = (_Factored.prod([first, second, first], [second]), first / second,
         second / first / first)
    assert _Factored.binomial(0, 0, 6, 4) is first
    assert (state(first), state(second)) == before


def test_division_by_zero_raises():
    zero = _Factored.binomial(0, 0, 0, 0)
    with pytest.raises(ZeroDivisionError):
        _Factored.monomial(1, 0) / zero
    with pytest.raises(ZeroDivisionError):
        zero / zero


@pytest.mark.parametrize("kind,a1,b1,a2,b2,want", [
    ("one_minus", 0, 0, 0, 0, QTScalar.zero()),
    ("binomial", 2, -1, 2, -1, QTScalar.zero()),
    ("one_minus", 2, -3, 0, 0, ONE - qt_monomial(2, -3)),
    ("one_minus", -4, 0, 0, 0, ONE - qt_monomial(-4, 0)),
    ("binomial", 1, 5, 3, 2, qt_monomial(1, 5) - qt_monomial(3, 2)),
])
def test_single_factors(kind, a1, b1, a2, b2, want):
    f = _both(kind, a1, b1, a2, b2)[0]
    assert _parts(f.expand()) == _parts(want)
    assert f.is_zero() == want.is_zero()


def test_composite_exponent_cancels():
    # with v = q^3 t^2, 1 - v^2 = -Phi_1(v) Phi_2(v) and 1 - v = -Phi_1(v),
    # so the quotient is Phi_2(v) = 1 + v; then 1 - 1/v points down
    f = _Factored.binomial(0, 0, 6, 4) / _Factored.binomial(0, 0, 3, 2)
    assert _parts(f.expand()) == _parts(ONE + qt_monomial(3, 2))
    g = f / _Factored.binomial(0, 0, -3, -2)
    want = (ONE + qt_monomial(3, 2)) / (ONE - qt_monomial(-3, -2))
    assert _parts(g.expand()) == _parts(want)


# a factor with no divisor: (kind, a1, b1, a2, b2) as in factors
tops = st.lists(st.tuples(st.sampled_from(("monomial", "one_minus",
                                           "binomial")),
                          exps, exps, exps, exps), max_size=6)
# 1 - q t^-1 and q^2 - t^3 (1 - q^2 t^-3 up to q^0 t^3) point down in
# t, where each p of _cyclotomic_at carries a power of t
DOWN = [("one_minus", 1, -1, 0, 0), ("binomial", 0, 3, 2, 0),
        ("one_minus", 4, -2, 0, 0)]


def laurent(f):
    """The integer Laurent term dict of a _Factored with no divisor, keyed
    (q-exponent, t-exponent): its p's multiplied out by _phi_terms."""
    assert all(e > 0 for e in f.phi.values())
    if not f.sign:
        return {}
    return {(x + f.a, y + f.b): f.sign * v
            for (x, y), v in _phi_terms(f.phi.items()).items()}


def _plain(terms):
    """The integer Laurent term dict as a QTScalar, term by term."""
    out = QTScalar.zero()
    for (a, b), c in terms.items():
        out = out + QTScalar.from_int(c) * qt_monomial(a, b)
    return out


def _product(spec):
    """The nonzero product of the spec's factors, factored and plain."""
    pairs = [_both(*f) for f in spec]
    assume(not any(x.is_zero() for _, x in pairs))
    plain = ONE
    for _, x in pairs:
        plain = plain * x
    return _Factored.prod([f for f, _ in pairs]), plain


@settings(max_examples=300, deadline=None)
@given(tops)
def test_monomial_is_held_against_the_p_polynomials(spec):
    # sign q^a t^b prod p^e, p the polynomial of _cyclotomic_at: laurent
    # is that product and the plain one
    f, plain = _product(spec + DOWN[:len(spec) % 4])
    p = QTPoly.monomial(0, 0, f.sign)
    for k, e in f.phi.items():
        for _ in range(e):
            p = p * _cyclotomic_at(*k)[0]
    want = {(x + f.a, y + f.b): v for (x, y), v in p.terms.items()}
    assert laurent(f) == want
    assert _parts(_plain(laurent(f))) == _parts(plain)


@settings(max_examples=300, deadline=None)
@given(tops, st.sampled_from([{(0, 0): 2}, {(0, 0): 3, (1, 2): 1},
                              {(-1, 0): 1, (0, -2): 1}]))
def test_factor_recovers_a_product(spec, cofactor):
    # a product's term dict factors back into its own fields over its
    # own factors or more; times a cofactor that is no +-q^a t^b and no
    # product of p's it does not factor
    f, plain = _product(spec + DOWN[:len(spec) % 4])
    terms = laurent(f)
    more = {**f.phi, (1, 1, 1): f.phi.get((1, 1, 1), 0) + 2}
    for phi in (f.phi, more):
        got = _Factored.factor(terms, phi)
        assert (got.sign, got.a, got.b, got.phi) == (f.sign, f.a, f.b, f.phi)
        assert _parts(got.expand()) == _parts(plain)
    assert _Factored.factor(_add_product({}, terms, cofactor), more) is None


@settings(max_examples=300, deadline=None)
@given(tops, tops, term_dicts, st.sampled_from([(0, 0), (2, -1), (-2, -3)]))
def test_over_matches_plain_division(lead_spec, part_spec, v, shift):
    # v times a product of factors, divided by a lead: the divide/over
    # pair gives the plain quotient
    lead, plain_lead = _product(lead_spec + DOWN[:len(lead_spec) % 4])
    part, plain_part = _product(part_spec + DOWN[:len(part_spec) % 4])
    a, b = shift
    v = {(x + a, y + b): c for (x, y), c in v.items()}
    num = _add_product({}, v, laurent(part))
    got = lead.over(*_divide_out(num, lead.phi))
    assert _parts(got) == _parts(_plain(v) * plain_part / plain_lead)


# up to three factors with no divisor, and a Laurent term dict with
# negative exponents
smalls = st.lists(st.tuples(st.sampled_from(("monomial", "one_minus",
                                             "binomial")),
                            exps, exps, exps, exps), max_size=3)
laurents = st.dictionaries(st.tuples(exps, exps),
                           st.integers(min_value=-6, max_value=6).filter(bool),
                           min_size=1, max_size=4)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(smalls, smalls, laurents), min_size=1,
                max_size=3), smalls, smalls, smalls,
       st.sampled_from(("as drawn", "cancel", "miss")))
def test_vanishes_matches_plain_sum(parts, top, bottom, w_spec, kind):
    # each value is its own top over its own bottom, times a top and over
    # a bottom that every value shares, so D both clears denominators and
    # drops shared factors.  "cancel" replaces each term v n by the pair
    # v w times n and v times -(w n), whose sum vanishes; "miss" then
    # multiplies the last n by 1 + t, which leaves -v (w n) t
    up, plain_up = _product(top)
    down, plain_down = _product(bottom)
    terms = []
    for top_i, bottom_i, n in parts:
        (f, x), (g, y) = _product(top_i), _product(bottom_i)
        terms.append((f / g * up / down, x / y * plain_up / plain_down, n))
    if kind != "as drawn":
        w, plain_w = _product(w_spec)
        terms = [(v * w, x * plain_w, n) for v, x, n in terms] + \
            [(v, x, {k: -c for k, c in _add_product({}, laurent(w),
                                                    n).items()})
             for v, x, n in terms]
    if kind == "miss":
        v, x, n = terms[-1]
        terms[-1] = (v, x, _add_product({}, n, {(0, 0): 1, (0, 1): 1}))
    want = QTScalar.zero()
    for _, x, n in terms:
        want = want + x * _plain(n)
    got = _vanishes([v for v, _, _ in terms], [n for _, _, n in terms])
    assert got == want.is_zero()
    if kind != "as drawn":
        assert got == (kind == "cancel")


def test_phi_terms_is_the_one_multiply_out(monkeypatch):
    # expand, _excess and _vanishes multiply Phi polynomials only through
    # _phi_terms, on term dicts: with QTPoly's product refused and the
    # memos cleared they give the same results
    b = _Factored.binomial
    square = _Factored.prod([b(0, 0, 6, 4), b(0, 0, 6, 4), b(1, 0, 0, 3)])
    values = [square / b(0, 0, 2, 0), square * b(0, 0, 4, -2),
              _Factored.prod([b(2, 1, 0, 3)], [b(0, 0, 3, 2), b(0, 0, 1, 0)])]
    w = b(0, 0, 2, 2) * b(0, 0, 1, -1)
    neg_w = {k: -c for k, c in laurent(w).items()}

    def results():
        bimac.qt._cyclotomic_at.cache_clear()
        bimac.qt._phi_product.cache_clear()
        bimac.qt._expand.cache_clear()
        return ([_parts(v.expand()) for v in values],
                [_excess(v.phi, {}) for v in values],
                _excess(square.phi, values[0].phi),
                [_vanishes(values + [v * w for v in values],
                           [neg_w] * 3 + [{(0, 0): 1}] * 3),
                 _vanishes(values + [v * w for v in values],
                           [neg_w] * 3 + [{(0, 0): 1}] * 2 + [{(0, 1): 1}])])

    before = results()
    assert before[3] == [True, False]

    def refuse(*args):
        raise AssertionError("Phi polynomials multiplied as QTPoly")

    monkeypatch.setattr(QTPoly, "__mul__", refuse)
    assert results() == before


SHAPES_N5 = ("2,0;1", "1;1,1", "3,1,0;2", "2,1;1", "1,0;2")


def _results():
    out = {}
    for text in SHAPES_N5:
        lam = parse_spart(text, 5)
        for variant in ("upper", "lower"):
            for r in range(4):
                out[(text, variant, r)] = [
                    (t.omega, t.coeff) for t in pieri_expand(lam, r, variant)]
        for sign in ("plus", "minus"):
            out[(text, sign)] = eval_formula(lam, sign)
    return out


def test_pieri_and_eval_formula_make_no_gcd_call(monkeypatch):
    before = _results()
    assert any(len(v) > 1 for v in before.values() if isinstance(v, list))

    def refuse(*args):
        raise AssertionError("poly_gcd called on the factored path")

    monkeypatch.setattr(bimac.qt, "poly_gcd", refuse)
    bimac.qt._cyclotomic_at.cache_clear()
    bimac.qt._expand.cache_clear()
    assert _results() == before


def test_construction_makes_no_general_division(monkeypatch, capsys):
    # every division by a Phi factor, in E's recursion and in building
    # the Phi_d themselves, is _phi_div's: the long division _div_terms
    # serves only the gcd route and a non-integral f's integral form
    def refuse(*args):
        raise AssertionError("_div_terms called in a construction")

    macdonald.clear_caches()
    bimac.qt._cyclotomic_at.cache_clear()
    monkeypatch.setattr(bimac.qt, "_div_terms", refuse)
    for argv in (["E", "--eta", "3,0,1,1"],
                 ["P", "--spart", "3,1;1", "--N", "5"],
                 ["eval", "--spart", "2,0;1", "--N", "4", "--route", "both"],
                 ["pieri", "--spart", "2,0;1", "--r", "2", "--variant",
                  "upper", "--N", "5", "--check"]):
        assert main(argv) == 0, argv
    assert "brute-force check passed" in capsys.readouterr().out
    assert run_suite("all", 4, 3).ok
