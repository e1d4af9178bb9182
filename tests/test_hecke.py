from math import factorial

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from bimac import hecke, macdonald
from bimac.errors import DivisibilityError
from bimac.qt import QTPoly, QTScalar, qt_monomial, t_bracket_factorial
from bimac.sparts import compositions_of, eigenvalue, row_of_circle
from bimac.xpoly import (XPolynomial, divided_difference,
                         elementary_symmetric, exact_div)
from reference import vandermonde

ONE = QTScalar.one()
Q = qt_monomial(1, 0)
T = qt_monomial(0, 1)


def x(i, n):
    return XPolynomial.variable(i, n)


def inversions(p):
    """The length of a permutation in one-line notation."""
    return sum(1 for i in range(len(p)) for j in range(i + 1, len(p))
               if p[i] > p[j])


def reduced_word(p):
    """A reduced word (i_1, .., i_l) of s_i's for the one-line
    permutation p, from bubble sort: each swap removes one inversion."""
    p, word = list(p), []
    while True:
        i = next((i for i in range(len(p) - 1) if p[i] > p[i + 1]), None)
        if i is None:
            return word
        p[i], p[i + 1] = p[i + 1], p[i]
        word.append(i + 1)


def monomials(N, deg):
    return [XPolynomial.monomial(e)
            for d in range(deg + 1) for e in compositions_of(d, N)]


class TestGenerators:
    def test_T_on_constant(self):
        f = XPolynomial.one(2)
        assert hecke.apply_T(1, f) == f.scale(T)

    def test_T_on_variables(self):
        assert hecke.apply_T(1, x(1, 2)) == x(2, 2)
        assert hecke.apply_T(1, x(2, 2)) == \
            x(1, 2).scale(T) + x(2, 2).scale(T - ONE)

    def test_index_bounds(self):
        with pytest.raises(ValueError):
            hecke.apply_T(3, XPolynomial.one(3))
        with pytest.raises(ValueError):
            hecke.apply_Y(0, XPolynomial.one(3))

    def test_quadratic_relation(self):
        for f in monomials(3, 3):
            for i in range(0, 3):
                g = hecke.apply_T(i, f)
                assert hecke.apply_T(i, g) == \
                    g.scale(T - ONE) + f.scale(T)

    def test_braid_relations(self):
        for f in monomials(3, 2):
            for i in range(0, 3):
                j = (i + 1) % 3
                lhs = hecke.apply_T(i, hecke.apply_T(j, hecke.apply_T(i, f)))
                rhs = hecke.apply_T(j, hecke.apply_T(i, hecke.apply_T(j, f)))
                assert lhs == rhs

    def test_inverse(self):
        for f in monomials(3, 2):
            for i in (1, 2):
                assert hecke.apply_T_inv(i, hecke.apply_T(i, f)) == f

    @pytest.mark.parametrize("i", [0, 1, 2, 3])
    def test_inverse_matches_quadratic_relation(self, i):
        # T_i^(-1) = t^(-1) - 1 + t^(-1) T_i, on Q(q,t) coefficients
        f = rational_poly(4, 2)
        assert hecke.apply_T_inv(i, f) == \
            f.scale(ONE / T - ONE) + hecke.apply_T(i, f).scale(ONE / T)

    @pytest.mark.parametrize("i", [-1, 4])
    def test_inverse_out_of_range(self, i):
        with pytest.raises(ValueError, match=f"T_{i} undefined"):
            hecke.apply_T_inv(i, XPolynomial.one(4))


def textbook_Y(i, f):
    """t^(i-N) T_i..T_(N-1) omega Tbar_1..Tbar_(i-1), written out."""
    n = f.nvars
    g = f
    for j in range(i - 1, 0, -1):
        g = hecke.apply_T_inv(j, g)
    g = hecke.apply_omega(g)
    for j in range(n - 1, i - 1, -1):
        g = hecke.apply_T(j, g)
    return g.scale(qt_monomial(0, i - n))


# q, t and integer denominators, so that no operator can lean on
# integrality
DENOMINATORS = [ONE, ONE - Q * T, T * QTScalar.from_int(3), ONE + Q * Q]


RATIONAL = [ONE / (ONE - Q * T), (Q + T) / (T * QTScalar.from_int(3)),
            QTScalar.from_fraction(-2) / (ONE + Q * Q)]


def rational_poly(N, deg):
    """Every monomial of degree <= deg in N variables, over Q(q,t) with
    coefficients that have q, t and integer denominators."""
    f = XPolynomial.zero(N)
    for k, g in enumerate(monomials(N, deg)):
        f = f + g.scale(RATIONAL[k % 3])
    return f


@st.composite
def rational_polys(draw):
    """Random polynomials in x_1..x_N, N = 2..4, over Q(q,t), with
    coefficients that have q, t and integer denominators."""
    n = draw(st.integers(min_value=2, max_value=4))
    terms = {tuple(draw(st.integers(0, 3)) for _ in range(n)):
             draw(st.sampled_from(RATIONAL)) * QTScalar.from_int(
                 draw(st.integers(-3, 3)))
             for _ in range(draw(st.integers(1, 4)))}
    f = XPolynomial(n, terms)
    assume(f.terms)
    return f


class TestRationalIdentities:
    @settings(max_examples=40, deadline=None)
    @given(rational_polys(), st.data())
    def test_T_is_t_minus_the_divided_difference_term(self, f, data):
        # T_i f = t f - (t x_i - x_(i+1)) d_i f, with d_i the exact
        # quotient (f - s_i f)/(x_i - x_(i+1)) of xpoly
        n = f.nvars
        i = data.draw(st.integers(1, n - 1))
        assert hecke.apply_T(i, f) == f.scale(T) - \
            (x(i, n).scale(T) - x(i + 1, n)) * divided_difference(f, i)

    @settings(max_examples=40, deadline=None)
    @given(rational_polys())
    def test_omega_intertwines_T1_and_T0(self, f):
        assert hecke.apply_omega(hecke.apply_T(1, f)) == \
            hecke.apply_T(0, hecke.apply_omega(f))

    def test_T0_at_one_variable_is_t(self):
        # at N = 1, s_0 f = f: T_0 is t and T_0^(-1) is 1/t
        for f in [x(1, 1) * x(1, 1), XPolynomial.one(1),
                  rational_poly(1, 3)]:
            assert hecke.apply_T(0, f) == f.scale(T)
            assert hecke.apply_T_inv(0, f) == f.scale(ONE / T)


class TestYWord:
    @pytest.mark.parametrize("N", [3, 4])
    def test_matches_the_textbook_form(self, N):
        f = rational_poly(N, 2)
        for i in range(1, N + 1):
            want = textbook_Y(i, f)
            assert hecke.apply_Y(i, f) == want


def as_terms(f):
    """f, whose coefficients lie in Z[q,t], as the Z[q,t] term dict
    {x-exponent: QTPoly} that hecke._pack takes."""
    assert all(s.c.denominator == 1 and s.den.is_one()
               for s in f.terms.values())
    return {e: s.num.mul_term(0, 0, s.c.numerator) for e, s in f.terms.items()}


def unpack(packed, w, B, n):
    """The XPolynomial over Z[q,t] whose packing is `packed`: balanced
    base-2^w digits, digit k the coefficient of q^(k // B) t^(k % B)."""
    assert w >= 2, "balanced base-2 digits cannot hold 1"
    terms = {}
    for e, v in packed.items():
        rows = {}
        k = 0
        while v:
            digit = v & ((1 << w) - 1)
            if digit >= 1 << (w - 1):
                digit -= 1 << w
            if digit:
                rows[divmod(k, B)] = digit
            v = (v - digit) >> w
            k += 1
        terms[e] = QTScalar(QTPoly(rows))
    return XPolynomial(n, terms)


@st.composite
def integral_polys(draw):
    """Random polynomials in x_1..x_N, N = 2..4, over Z[q,t]."""
    n = draw(st.integers(min_value=2, max_value=4))
    terms = {}
    for _ in range(draw(st.integers(min_value=1, max_value=5))):
        e = tuple(draw(st.integers(min_value=0, max_value=3))
                  for _ in range(n))
        rows = {(draw(st.integers(0, 2)), draw(st.integers(0, 3))):
                draw(st.integers(-9, 9)) for _ in range(draw(st.integers(1, 3)))}
        terms[e] = QTScalar(QTPoly(rows))
    f = XPolynomial(n, terms)
    assume(f.terms)
    return f


def _coefficient_ints(f):
    """(largest |integer coefficient|, largest t-degree) of f over Z[q,t]."""
    pairs = [(abs(int(s.c) * v), b) for s in f.terms.values()
             for (_, b), v in s.num.terms.items()]
    return max(p[0] for p in pairs), max(p[1] for p in pairs)


class TestStepKernel:
    @settings(max_examples=60, deadline=None)
    @given(integral_polys(), st.data())
    def test_step_is_t_power_minus_the_divided_difference_term(self, f, data):
        # hecke._step(i, f, ident, mul) = t^ident f - (t x_i - x_(i+1))
        # d_i f for ident 0 and 1, d_i xpoly's exact quotient over
        # Q(q,t), on Z[q,t] term dicts and on their packed images: one
        # step grows ||.||_1 at most 1 + 2d times and t-degrees by one
        n = f.nvars
        i = data.draw(st.integers(1, n - 1))
        F = as_terms(f)
        w, B, packed = hecke._pack(F, 1 + 2 * max(map(sum, F)), 1)
        X = (x(i, n).scale(T) - x(i + 1, n)) * divided_difference(f, i)
        for ident in (0, 1):
            want = f.scale(qt_monomial(0, ident)) - X
            assert hecke._step(i, F, ident, QTPoly.mul_term) == \
                as_terms(want)
            assert unpack(hecke._step(i, packed, ident, hecke._shifts(w, B)),
                          w, B, n) == want


class TestPackedYWord:
    @settings(max_examples=60, deadline=None)
    @given(integral_polys())
    def test_unpacks_to_y_word(self, f):
        w, B, packed = macdonald._eigen_pack(as_terms(f))
        for i in range(1, f.nvars + 1):
            got = unpack(hecke._word(i, packed, hecke._shifts(w, B)),
                         w, B, f.nvars)
            assert got == hecke.apply_Y(i, f).scale(
                qt_monomial(0, f.nvars - 1))

    @pytest.mark.parametrize("etas", [
        [e for N in range(1, 5) for d in range(5)
         for e in compositions_of(d, N)],
        [e for d in range(4) for e in compositions_of(d, 5)],
        [(3, 2, 0, 1, 0)],
    ], ids=["N<=4,deg<=4", "N=5,deg<=3", "3,2,0,1,0"])
    def test_bounds_cover_both_sides(self, etas):
        # w and B must cover the true largest coefficient and t-degree of
        # both sides, t^(N-1) Y_i J and t^(N-1) ebar_i J, for integral
        # multiples J of E that the eigen check packs: the K of the
        # recursion, and K (1 + q), a multiple no recursion step makes,
        # as a cache record may hold
        for eta in etas:
            N = len(eta)
            K = XPolynomial(N, {e: QTScalar(c) for e, c in
                                macdonald._raise(eta)[1].items()})
            for J in (K, K.scale(ONE + Q)):
                w, B, _ = macdonald._eigen_pack(as_terms(J))
                for i in range(1, N + 1):
                    lhs = hecke.apply_Y(i, J).scale(qt_monomial(0, N - 1))
                    rhs = J.scale(qt_monomial(eta[i - 1],
                                              N - row_of_circle(eta, i)))
                    assert lhs == rhs
                    for side in (lhs, rhs):
                        big, tdeg = _coefficient_ints(side)
                        assert big < 1 << (w - 1) and tdeg < B, (eta, i)


@st.composite
def intervals(draw, n):
    a = draw(st.integers(1, n))
    return a, draw(st.integers(a, n))


@st.composite
def packed_terms(draw):
    """(terms, w, B): a QTPoly's terms with every coefficient a balanced
    base-2^w digit, negative top digits included, and keys far enough
    apart to leave long runs of zero digits between them."""
    w, B = draw(st.integers(2, 64)), draw(st.integers(1, 16))
    half = 1 << (w - 1)
    terms = draw(st.dictionaries(
        st.tuples(st.integers(0, 60), st.integers(0, B - 1)),
        st.integers(1 - half, half - 1).filter(bool), min_size=1, max_size=8))
    return terms, w, B


class TestPackedSymmetrizers:
    @settings(max_examples=40, deadline=None)
    @given(integral_polys())
    def test_unpack_inverts_pack(self, f):
        K = as_terms(f)
        w, B, packed = hecke._pack(K, 1, 0)
        got = {e: hecke._unpack(v, w, B) for e, v in packed.items()}
        assert got == K
        assert all(type(c) is QTPoly for c in got.values())

    @settings(max_examples=100, deadline=None)
    @given(packed_terms())
    @example(({(0, 0): 1, (40, 1): -1}, 2, 2))
    def test_unpack_reads_one_packed_int(self, case):
        # the digit reader against the packing of one coefficient
        terms, w, B = case
        assert hecke._unpack(hecke._packed(terms, w, B), w, B).terms == terms

    @settings(max_examples=80, deadline=None)
    @given(st.dictionaries(st.tuples(st.integers(0, 12), st.integers(0, 12)),
                           st.integers(-2 ** 40, 2 ** 40).filter(bool),
                           min_size=1, max_size=3 * hecke._PACK_RUN),
           st.integers(1, 48))
    @example(terms={(a, b): a - b or 7 for a in range(10) for b in range(10)},
             w=5)
    def test_packed_matches_the_sum_of_shifts(self, terms, w):
        # the packing by halves against the one sum it replaces, below
        # and above the run that is summed directly
        B = max(b for _, b in terms) + 1
        assert hecke._packed(terms, w, B) == sum(
            v << w * (B * a + b) for (a, b), v in terms.items())

    @settings(max_examples=40, deadline=None)
    @given(integral_polys(),
           st.sampled_from(["t_sym", "antisym", "t_antisym"]), st.data())
    def test_matches_symmetrize(self, f, kind, data):
        # t_antisym comes out times t^l, l the longest length, so that
        # every coefficient stays in Z[q,t]
        a, b = data.draw(intervals(f.nvars))
        width, d = b - a + 1, f.total_degree()
        ell = width * (width - 1) // 2
        w, B, packed = hecke._pack(
            as_terms(f), factorial(width) * (1 + 2 * d) ** ell, ell)
        got = unpack(hecke._symmetrize(kind, (a, b), packed,
                                       hecke._shifts(w, B)), w, B, f.nvars)
        want = hecke.symmetrize(kind, (a, b), f)
        if kind == "t_antisym":
            want = want.scale(qt_monomial(0, ell))
        assert got == want

    @settings(max_examples=80, deadline=None)
    @given(integral_polys(), st.sampled_from(["t", "plain", "T0"]),
           st.sampled_from(["packed", "qt"]), st.booleans(), st.data())
    def test_division_matches_exact_div(self, f, shape, ring, multiply, data):
        # a multiple of the factor divides to exact_div's quotient; any
        # other input raises exactly when exact_div does.  The factors are
        # t x_a - x_b and x_a - x_b, a < b, as bisym_P divides by, and
        # apply_T0's q x_N - x_1, with a > b; the rings are packed ints
        # and Q(q,t) with q, t and integer denominators
        n = f.nvars
        if shape == "T0":
            a, b, alpha, beta = n, 1, 1, 0
        else:
            a = data.draw(st.integers(1, n - 1))
            b = data.draw(st.integers(a + 1, n))
            alpha, beta = 0, int(shape == "t")
        g = x(a, n).scale(qt_monomial(alpha, beta)) - x(b, n)
        if ring == "qt":
            f = XPolynomial(n, {e: c / data.draw(st.sampled_from(DENOMINATORS))
                                for e, c in f.terms.items()})
        F = f * g if multiply else f
        if ring == "qt":
            def divide():
                return XPolynomial(n, hecke._divide(
                    F.terms, a, b, alpha, beta, QTScalar.mul_monomial))
        else:
            d = F.total_degree()
            # a quotient is within d ||F||_1, a remainder F(x_b = r)
            # within ||F||_1, and up to d above F in t-degree
            w, B, packed = hecke._pack(as_terms(F), max(d, 1), d)

            def divide():
                return unpack(hecke._divide(packed, a, b, alpha, beta,
                                            hecke._shifts(w, B)), w, B, n)
        try:
            want = exact_div(F, g)
        except DivisibilityError:
            assert not multiply
            with pytest.raises(DivisibilityError):
                divide()
        else:
            assert divide() == want

    @settings(max_examples=25, deadline=None)
    @given(integral_polys(), st.data())
    def test_t_and_plain_quotients_are_equal(self, f, data):
        # the identity behind bisym_P's plain-versus-t cross-check, in
        # Q(q,t): t^l times the t-antisymmetrization over the first m
        # variables, over the t-Vandermonde, is the plain
        # antisymmetrization over the plain Vandermonde, l = m(m - 1)/2
        m = data.draw(st.integers(2, f.nvars))
        anti = range(1, m + 1)
        t_side = exact_div(hecke.symmetrize("t_antisym", (1, m), f).scale(
            qt_monomial(0, m * (m - 1) // 2)),
            vandermonde("t_deformed", anti, f.nvars))
        assert t_side == exact_div(hecke.symmetrize("antisym", (1, m), f),
                                   vandermonde("plain", anti, f.nvars))

    def test_division_not_exact_raises(self):
        # x_2^2 - t^2 x_1^2 = (x_2 - t x_1)(x_2 + t x_1): the t-deformed
        # factor divides it, the plain one leaves (1 - t^2) x_1^2
        F = x(2, 2) * x(2, 2) - (x(1, 2) * x(1, 2)).scale(T * T)
        w, B, packed = hecke._pack(as_terms(F), 2, 2)
        mul = hecke._shifts(w, B)
        got = hecke._divide(packed, 1, 2, 0, 1, mul)
        assert unpack(got, w, B, 2) == x(1, 2).scale(-T) - x(2, 2)
        with pytest.raises(DivisibilityError) as err:
            hecke._divide(packed, 1, 2, 0, 0, mul)
        assert unpack(err.value.remainder, w, B, 2) == \
            (x(1, 2) * x(1, 2)).scale(ONE - T * T)


class TestOmega:
    def test_values(self):
        n = 4
        assert hecke.apply_omega(XPolynomial.one(n)) == XPolynomial.one(n)
        assert hecke.apply_omega(x(1, n)) == x(n, n).scale(Q)
        for j in range(2, n + 1):
            assert hecke.apply_omega(x(j, n)) == x(j - 1, n)

    def test_matches_atom_composition(self):
        from bimac.xpoly import permute_vars
        from reference import q_shift
        n = 3
        for f in monomials(n, 2):
            g = q_shift(f, {1})
            for i in range(1, n):
                sigma = list(range(1, n + 1))
                sigma[i - 1], sigma[i] = sigma[i], sigma[i - 1]
                g = permute_vars(g, tuple(sigma))
            assert g == hecke.apply_omega(f)

    def test_intertwines_generators(self):
        # i = 1 and i = 0 tie the affine T_0 to omega: omega T_1 = T_0
        # omega and omega T_0 = T_(N-1) omega
        for N in (2, 3, 4):
            for f in monomials(N, 2):
                for i in range(N):
                    assert hecke.apply_omega(hecke.apply_T(i, f)) == \
                        hecke.apply_T((i - 1) % N, hecke.apply_omega(f))


class TestCherednik:
    def test_on_constants(self):
        for N in (2, 3, 4):
            one = XPolynomial.one(N)
            for i in range(1, N + 1):
                assert hecke.apply_Y(i, one) == one.scale(qt_monomial(0, 1 - i))

    def test_commute(self):
        for f in monomials(3, 2):
            for i in range(1, 4):
                for j in range(i + 1, 4):
                    assert hecke.apply_Y(i, hecke.apply_Y(j, f)) == \
                        hecke.apply_Y(j, hecke.apply_Y(i, f))

    def test_exchange_relations(self):
        for f in monomials(3, 2):
            for i in (1, 2):
                yi = hecke.apply_Y(i, f)
                assert hecke.apply_T(i, yi) == \
                    hecke.apply_Y(i + 1, hecke.apply_T(i, f)) + \
                    yi.scale(T - ONE)
                assert hecke.apply_T(i, hecke.apply_Y(i + 1, f)) == \
                    hecke.apply_Y(i, hecke.apply_T(i, f)) - yi.scale(T - ONE)

    def test_triangular_leading_coefficient(self):
        N = 3
        for d in range(4):
            for eta in compositions_of(d, N):
                mono = XPolynomial.monomial(eta)
                for i in range(1, N + 1):
                    g = hecke.apply_Y(i, mono)
                    assert g.terms.get(eta) == eigenvalue(eta, i)


class TestSymmetrizers:
    def test_t_symmetrizer_of_one(self):
        for N in (2, 3, 4):
            got = hecke.symmetrize("t_sym", (1, N), XPolynomial.one(N))
            assert got == XPolynomial.one(N).scale(t_bracket_factorial(N, "t"))

    def test_antisymmetrizer(self):
        assert hecke.symmetrize("antisym", (1, 2), x(1, 3)) == \
            x(1, 3) - x(2, 3)

    def test_t_antisymmetrizer_eigenproperty(self):
        f = x(1, 3) * x(1, 3) * x(2, 3)
        a = hecke.symmetrize("t_antisym", (1, 3), f)
        for i in (1, 2):
            assert hecke.apply_T(i, a) == -a

    def test_symmetrizer_matches_full_expansion(self):
        # the coset recursion agrees with summing over all permutations
        from itertools import permutations
        from bimac.xpoly import permute_vars
        f = x(1, 3) * x(1, 3) + x(2, 3)
        expect = XPolynomial.zero(3)
        for sigma in permutations((1, 2, 3)):
            sign = (-1) ** inversions(sigma)
            term = permute_vars(f, sigma)
            expect = expect + (term if sign > 0 else -term)
        assert hecke.symmetrize("antisym", (1, 3), f) == expect

    @pytest.mark.parametrize("kind", ["t_sym", "t_antisym"])
    @pytest.mark.parametrize("N, interval", [(3, (1, 3)), (4, (2, 4)),
                                             (4, (1, 4))])
    def test_t_symmetrizers_match_full_group_sum(self, kind, N, interval):
        # the coset loop agrees with the sum over the whole group of [a,b]
        # of T_sigma, each built from a reduced word, weighted by 1 or
        # (-1/t)^l(sigma)
        from itertools import permutations
        a, b = interval
        f = rational_poly(N, 2 if N == 3 else 1)
        expect = XPolynomial.zero(N)
        for sigma in permutations(range(b - a + 1)):
            word = reduced_word(sigma)
            g = f
            for i in word:
                g = hecke.apply_T(a - 1 + i, g)
            if kind == "t_antisym":
                g = g.scale(qt_monomial(0, -len(word)) *
                            QTScalar.from_int((-1) ** len(word)))
            expect = expect + g
        assert hecke.symmetrize(kind, interval, f) == expect

    @pytest.mark.parametrize("kind, interval, message", [
        ("sym", (1, 3), "unknown symmetrizer kind 'sym'"),
        ("t_sym", (2, 1), r"bad symmetrization interval \(2, 1\)"),
        ("t_sym", (1, 4), r"bad symmetrization interval \(1, 4\)"),
    ])
    def test_bad_arguments_raise(self, kind, interval, message):
        with pytest.raises(ValueError, match=message):
            hecke.symmetrize(kind, interval, XPolynomial.one(3))


class TestEOfY:
    def test_power_sum_on_one(self):
        N = 3
        e1 = hecke.apply_e_of_Y(1, (1, N), XPolynomial.one(N))
        expect = sum((qt_monomial(0, 1 - i) for i in range(1, N + 1)),
                     QTScalar.zero())
        assert e1 == XPolynomial.one(N).scale(expect)

    def test_e0_is_identity(self):
        f = x(1, 3) + x(2, 3)
        assert hecke.apply_e_of_Y(0, (1, 3), f) == f

    def test_range_check(self):
        with pytest.raises(ValueError):
            hecke.apply_e_of_Y(3, (2, 3), XPolynomial.one(3))


class TestTailProductShortcut:
    def test_bisymmetric_shortcut(self):
        # the product of the last r Cherednik operators on a bisymmetric
        # input equals the shifted inverse-generator word
        for (m, N) in ((1, 3), (2, 4)):
            f = elementary_symmetric(1, (1, m), N) * \
                elementary_symmetric(1, (m + 1, N), N)
            for r in range(1, N - m + 1):
                lhs = f
                for i in range(N, N - r, -1):
                    lhs = hecke.apply_Y(i, lhs)
                rhs = f
                for blk in range(1, r + 1):
                    for i in range(m + blk - 1, blk - 1, -1):
                        rhs = hecke.apply_T_inv(i, rhs)
                for _ in range(r):
                    rhs = hecke.apply_omega(rhs)
                rhs = rhs.scale(
                    qt_monomial(0, (2 * m + r + 1 - 2 * N) * r // 2))
                assert lhs == rhs

    def test_e_r_from_symmetrizer(self):
        N = 3
        f = elementary_symmetric(1, (1, N), N) + \
            elementary_symmetric(2, (1, N), N)
        for r in (1, 2, 3):
            lhs = hecke.apply_e_of_Y(r, (1, N), f)
            rhs = f
            for i in range(N, N - r, -1):
                rhs = hecke.apply_Y(i, rhs)
            rhs = hecke.symmetrize("t_sym", (1, N), rhs)
            norm = (t_bracket_factorial(N - r, "t") *
                    t_bracket_factorial(r, "t")).inverse()
            assert lhs == rhs.scale(norm)


class TestSymmetrizedAProduct:
    def test_bracket_constant_identity(self):
        # summing K_sigma over a fixed-image constraint against the
        # barred A product collapses to bracket factorials times the
        # block A factor, checked at generic points
        from itertools import permutations
        import random
        from bimac.qt import QTScalar, qt_monomial
        rng = random.Random(31)
        N = 3
        for r in (1, 2):
            J = frozenset(rng.sample(range(1, N + 1), r))
            L = frozenset(range(1, N + 1)) - J
            checked = 0
            while checked < 2:
                coords = tuple((rng.randint(0, 20), rng.randint(0, 20))
                               for _ in range(N))
                if len({a for a, _ in coords}) < N or \
                        len({b for _, b in coords}) < N:
                    continue
                def xv(i):
                    return qt_monomial(*coords[i - 1])
                try:
                    total = QTScalar.zero()
                    target = set(range(N - r + 1, N + 1))
                    for sigma in permutations(range(1, N + 1)):
                        if {sigma[i - 1] for i in target} != set(J):
                            continue
                        prod = ONE
                        for i in range(1, N):
                            for j in range(i + 1, N + 1):
                                si, sj = sigma[i - 1], sigma[j - 1]
                                prod = prod * \
                                    (xv(si) - xv(sj).mul_monomial(0, 1)) / \
                                    (xv(si) - xv(sj))
                        total = total + prod
                    rhs = t_bracket_factorial(r, "t") * \
                        t_bracket_factorial(N - r, "t")
                    for i in sorted(J):
                        for j in sorted(L):
                            rhs = rhs * \
                                (xv(i).mul_monomial(0, 1) - xv(j)) / \
                                (xv(i) - xv(j))
                except ZeroDivisionError:
                    continue
                assert total == rhs
                checked += 1


class TestEigenOperatorOnP:
    def test_block_action_gives_plus_evaluation(self):
        # e_r over the tail block acts on the deformed-Vandermonde
        # multiple of P by the plus evaluation of e_r; over the head
        # block an extra q power of the degree appears
        from bimac.evalsym import evaluate
        from bimac.macdonald import bisym_P
        from bimac.sparts import SuperPartition
        from reference import vandermonde
        lam = SuperPartition((2, 0), (1,), 4)
        m, N = lam.m, lam.N
        base = vandermonde("t_deformed", range(1, m + 1), N) * \
            bisym_P(lam).poly
        for r in (1, 2):
            e_tail = elementary_symmetric(r, (m + 1, N), N)
            got = hecke.apply_e_of_Y(r, (m + 1, N), base)
            assert got == base.scale(evaluate(lam, "plus", e_tail))
        for r in (1, 2):
            e_head = elementary_symmetric(r, (1, m), N)
            got = hecke.apply_e_of_Y(r, (1, m), base)
            scale = evaluate(lam, "plus", e_head).mul_monomial(-r, 0)
            assert got == base.scale(scale)
