import hashlib
import itertools
import json
import re
from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, settings, strategies as st

from bimac import hecke, macdonald, pieri, qt
from bimac.cli import main
from bimac.errors import ConsistencyError
from bimac.macdonald import (bisym_P, c_lambda_corrected, c_lambda_formula,
                             dominant_exponent, expand_in_P_basis,
                             is_bisymmetric, nonsym_E)
from bimac.qt import QTPoly, QTScalar, qt_monomial
from bimac.render import terms_to_json, xpoly_to_json
from bimac.sparts import (SuperPartition, compositions_of, eigenvalue,
                          format_spart, sorting_permutation, superpartitions)
from bimac.xpoly import (XPolynomial, divided_difference,
                         elementary_symmetric, exact_div)
from reference import apply_K, map_coeffs, vandermonde

ONE = QTScalar.one()
Q = qt_monomial(1, 0)
T = qt_monomial(0, 1)


# every shape with N = 3 (d <= 6), N = 4 (d <= 4) and N = 5 (d <= 3),
# m <= 3, and at m = 4 with N = 4 (d <= 8), N = 5 (d <= 7) and N = 6
# (d <= 6)
C_SHAPES = [sp for N, top in ((3, 6), (4, 4), (5, 3))
            for m in range(min(N, 3) + 1) for d in range(top + 1)
            for sp in superpartitions(d, m, N)] + \
    [sp for N, top in ((4, 8), (5, 7), (6, 6))
     for d in range(top + 1) for sp in superpartitions(d, 4, N)]


def xpoly(K):
    """The XPolynomial over Q(q,t) of a Z[q,t] term dict."""
    return XPolynomial(len(next(iter(K))), {e: QTScalar(c)
                                            for e, c in K.items()})


# denominators of the round-trip's coefficients: Phi factors of d_eta
# and c_lambda, and polynomials with none
DENOMINATORS = [QTPoly.one(), QTPoly({(0, 0): 1, (1, 0): 2}),
                QTPoly({(0, 0): 1, (1, 1): -1}),
                QTPoly({(0, 0): 3, (0, 2): -1}),
                QTPoly({(0, 0): 1, (0, 1): 1, (2, 0): 1}),
                QTPoly({(1, 0): 1})]


@st.composite
def scalars(draw):
    """A nonzero QTScalar: rational content, a numerator of up to three
    terms and a product of up to two of DENOMINATORS."""
    terms = draw(st.dictionaries(
        st.tuples(st.integers(0, 2), st.integers(0, 2)),
        st.integers(-3, 3).filter(bool), min_size=1, max_size=3))
    den = QTPoly.one()
    for p in draw(st.lists(st.sampled_from(DENOMINATORS), max_size=2)):
        den = den * p
    content = Fraction(draw(st.integers(1, 5)), draw(st.integers(1, 5)))
    return QTScalar(QTPoly(terms), den) * QTScalar.from_fraction(content)


def refuse_gcd(*args):
    raise AssertionError("poly_gcd was called")


def times(K, p):
    """The Z[q,t] term dict K times the QTPoly p."""
    return {e: c * p for e, c in K.items()}


def plus(K, nu, p):
    """The Z[q,t] term dict K plus p x^nu, a zero sum dropped."""
    K = {**K, nu: K.get(nu, QTPoly.zero()) + p}
    return {e: c for e, c in K.items() if c}


def norm_1(J):
    """The sum of the absolute integer coefficients of a Z[q,t] term
    dict."""
    return sum(abs(v) for c in J.values() for v in c.terms.values())


def least_w(J):
    """The least pack width w with 2^(w-1) > ((1 + 2d)^(N-1) + 1) ||J||_1,
    d the degree, for a Z[q,t] term dict J: the bound on the eigen
    check's coefficients, restated here so that a change to hecke._pack
    cannot move it."""
    N, d = len(next(iter(J))), max(map(sum, J))
    return (((1 + 2 * d) ** (N - 1) + 1) * norm_1(J)).bit_length() + 1


def least_P_w(J, m):
    """The least pack width w with 2^(w-1) >
    (N - m)! (1 + 2d)^l_s m! (1 + 2d)^l_a d^l_a ||J||_1, l_s and l_a
    the longest lengths of S_(N-m) and S_m, for a Z[q,t] term dict J:
    bisym_P's bound on its symmetrizations, quotients and remainders,
    restated here so that a change to macdonald._P_pack cannot move
    it."""
    N, d = len(next(iter(J))), max(map(sum, J))
    l_s, l_a = (N - m) * (N - m - 1) // 2, m * (m - 1) // 2
    growth = factorial(N - m) * (1 + 2 * d) ** l_s * \
        factorial(m) * (1 + 2 * d) ** l_a * d ** l_a
    return (growth * norm_1(J)).bit_length() + 1


def aliased_at_half_K(nu):
    """A perturbation J -> J + (t - 2^s) x^nu of the recursion's integral
    multiple J of E, with s = w // 2 for the least pack width w of the
    perturbed J.  Under t -> 2^(w // 2) the perturbation packs to zero,
    so an eigen check that halved w would pass it."""
    def perturb(J):
        for s in itertools.count(1):
            bad = plus(J, nu, QTPoly({(0, 1): 1, (0, 0): -2 ** s}))
            if least_w(bad) // 2 == s:
                return bad
    return perturb


def coefficient_ints(f):
    """(largest |integer coefficient|, largest t-degree) of f over Z[q,t]."""
    pairs = [(abs(int(s.c) * v), b) for s in f.terms.values()
             for (_, b), v in s.num.terms.items()]
    return max(p[0] for p in pairs), max(p[1] for p in pairs)


def knop_steps(eta):
    """The (eta, nu, i) of the recursion from eta down to 0; i = 0 for
    the x_N omega step."""
    N, out = len(eta), []
    while any(eta):
        if eta[-1]:
            nu, i = (eta[-1] - 1,) + eta[:-1], 0
        else:
            i = max(k for k in range(1, N) if eta[k - 1])
            nu = eta[:i - 1] + (0, eta[i - 1]) + eta[i + 1:]
        out.append((eta, nu, i))
        eta = nu
    return out


def raise_whole_numerator(eta, steps=None):
    """(s, K) of macdonald._raise by the route that forms each T step's
    whole numerator (1 - t rho) K + (1 - rho) X, X = -X_i K = t Tbar_i K
    - K, and divides every nonzero coefficient of it by the Phi factors
    of t (1 - t rho) that s does not hold.  steps, a list, gets each T
    step's (held, left, i, K, X): the number of factors s holds, the
    exponent dict of the others, and the step's i, K and nonzero X
    before the division."""
    N = len(eta)
    sign, a, b, phi = 1, 0, 0, {}
    K = {(0,) * N: QTPoly.one()}
    for eta, nu, i in reversed(knop_steps(eta)):
        rows = sorting_permutation(nu)
        if i:
            A, B = nu[i], rows[i - 1] - rows[i]
            X = dict(hecke._step(i, K, 0, QTPoly.mul_term))
            for e, c in K.items():
                X[e] = X[e] - c if e in X else -c
            X = {e: c for e, c in X.items() if c}
            sums = {}
            for f, shift in ((K, B + 1), (X, B)):
                for e, c in f.items():
                    out = sums.setdefault(e, {})
                    for k, v in c.terms.items():
                        out[k] = out.get(k, 0) + v
                        k = (k[0] + A, k[1] + shift)
                        out[k] = out.get(k, 0) - v
            binom = qt._Factored.binomial(0, 1, A, B + 2)
            sign, a, b = sign * binom.sign, a - binom.a, b - binom.b
            left = {k: 1 for k in binom.phi if not phi.get(k)}
            for k in binom.phi.keys() - left.keys():
                phi[k] -= 1
            if steps is not None:
                steps.append((len(binom.phi) - len(left), left, i, K, X))
            K = {}
            for e, out in sums.items():
                out = {k: v for k, v in out.items() if v}
                if out:
                    f, taken = qt._divide_out(out, left)
                    assert taken == left, (eta, e)
                    K[e] = QTPoly(f)
        else:
            K = {e[:-1] + (e[-1] + 1,): c
                 for e, c in hecke._omega(K, QTPoly.mul_term).items()}
            binom = qt._Factored.binomial(0, 0, nu[0] + 1, N + 1 - rows[0])
            sign, a, b = sign * binom.sign, a + binom.a - nu[0], b + binom.b
            for k in binom.phi:
                phi[k] = phi.get(k, 0) + 1
    return qt._Factored(sign, a, b, {k: e for k, e in phi.items() if e}), K


def divided_difference_terms(i, K):
    """d_i K = (K - K_(i,i+1) K)/(x_i - x_(i+1)) as integer term dicts,
    by the closed form: c x^e with p = e_i > s = e_(i+1) gives c at the
    exponents of e with (k, p + s - 1 - k) at (i, i + 1), s <= k < p, and
    with p < s gives -c there, p <= k < s."""
    D = {}
    for e, c in K.items():
        p, s = e[i - 1], e[i]
        for k in range(min(p, s), max(p, s)):
            out = D.setdefault(e[:i - 1] + (k, p + s - 1 - k) + e[i + 1:], {})
            for m, v in c.terms.items():
                out[m] = out.get(m, 0) + (v if p > s else -v)
    return {e: f for e, out in D.items()
            if (f := {m: v for m, v in out.items() if v})}


# every composition with N <= 4 and |eta| <= 5, and with N = 5 and
# |eta| <= 3
RAISE_SWEEP = [eta for N, top in ((1, 5), (2, 5), (3, 5), (4, 5), (5, 3))
               for n in range(top + 1) for eta in compositions_of(n, N)]

# the shapes superpartitions(d, m, 5), d = 3, 4 and m = 0..3
P_SWEEP = [sp for d in (3, 4) for m in range(4)
           for sp in superpartitions(d, m, 5)]

# the compositions eta of superpartitions(d, m, N) for N = 4, 5,
# d = 3, 4 and m = 0..3, with E_(3,2,0,1,0)
SWEEP = sorted({sp.eta() for N in (4, 5) for d in (3, 4) for m in range(4)
                for sp in superpartitions(d, m, N)} | {(3, 2, 0, 1, 0)})


class TestNonsymE:
    def test_constant(self):
        assert nonsym_E((0, 0)).poly == XPolynomial.one(2)
        assert nonsym_E((0, 0, 0)).poly == XPolynomial.one(3)

    def test_degree_one_table(self):
        # the joint eigenfunction attached to (0,1) is the bare monomial;
        # the (1,0) one picks up the Bruhat-lower x2 term
        e01 = nonsym_E((0, 1))
        assert e01.poly == XPolynomial.variable(2, 2)
        e10 = nonsym_E((1, 0))
        coeff = Q * (ONE - T) / (ONE - Q * T)
        assert e10.poly == XPolynomial.variable(1, 2) + \
            XPolynomial.variable(2, 2).scale(coeff)

    def test_eigen_property_direct(self):
        for eta in [(1, 0), (0, 1), (2, 0, 1), (0, 1, 1)]:
            E = nonsym_E(eta)
            for i in range(1, len(eta) + 1):
                assert hecke.apply_Y(i, E.poly) == \
                    E.poly.scale(eigenvalue(eta, i))

    def test_monic(self):
        for eta in [(2, 1, 0), (0, 0, 3), (1, 2, 0)]:
            assert nonsym_E(eta).poly.coefficient(eta).is_one()

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            nonsym_E((1, -1))

    @pytest.mark.parametrize("eta", [(1.5, 0), ()], ids=["part-1.5", "empty"])
    def test_rejects_non_compositions(self, eta):
        # a part is not truncated, and no composition is empty
        with pytest.raises(ValueError,
                           match=rf"^{re.escape(repr(eta))} is not a "
                                 "composition"):
            nonsym_E(eta)

    def test_accepts_integral_values(self):
        E = nonsym_E((2.0, "1"))
        assert E.eta == (2, 1) and all(type(x) is int for x in E.eta)
        assert E.poly == nonsym_E((2, 1)).poly

    @pytest.mark.parametrize("eta, perturb, message", [
        # a wrong coefficient at a Bruhat-below monomial
        ((1, 0, 0), lambda K: plus(K, (0, 1, 0), QTPoly.one()),
         r"^eigenvalue equation Y_\d E = ebar_\d E failed for E_\(1, 0, 0\)$"),
        # a monomial that is not Bruhat-below eta
        ((0, 1, 0), lambda K: plus(K, (1, 0, 0), QTPoly.one()),
         r"^E_\(0, 1, 0\) has support at \(1, 0, 0\), not Bruhat-below$"),
        # the right polynomial times t, so s K is not d_eta at x^eta
        ((0, 1, 1), lambda K: times(K, QTPoly.monomial(0, 1)),
         r"^J_\(0, 1, 1\) is not d_eta at x\^\(0, 1, 1\)$"),
        # one coefficient times 1 + q, the factor a wrong denominator
        # would leave behind
        ((1, 0, 0), lambda K: plus(K, (0, 1, 0),
                                   K[(0, 1, 0)].mul_term(1, 0)),
         r"^eigenvalue equation Y_\d E = ebar_\d E failed for E_\(1, 0, 0\)$"),
        # K plus (t - 2^(w//2)) x^nu at a Bruhat-below nu: caught only if
        # the packing keeps all w bits of t
        ((2, 0, 1), aliased_at_half_K((1, 1, 1)),
         r"^eigenvalue equation Y_\d E = ebar_\d E failed for E_\(2, 0, 1\)$"),
    ], ids=["wrong-coefficient", "not-bruhat-below", "not-monic",
            "wrong-denominator", "aliased-at-half-K"])
    def test_fails_closed(self, monkeypatch, eta, perturb, message):
        s, K = macdonald._raise(eta)
        monkeypatch.setattr(macdonald, "_raise", lambda e: (s, perturb(K)))
        monkeypatch.setattr(macdonald, "_K_CACHE", {})
        with pytest.raises(ConsistencyError, match=message):
            nonsym_E(eta)
        assert macdonald._K_CACHE == {}

    def test_failed_step_division_fails_closed(self, monkeypatch):
        # a T step whose binomial does not divide raises, naming the step
        # and the factor left over
        monkeypatch.setattr(macdonald, "_K_CACHE", {})
        monkeypatch.setattr(macdonald, "_divide_out",
                            lambda f, phi: (f, dict.fromkeys(phi, 0)))
        with pytest.raises(ConsistencyError,
                           match=r"^the Knop-Sahi step to J_\(1, 0, 0\) does "
                                 r"not divide by -1 \+ q\*t\^2$"):
            macdonald._integral_E((1, 0, 0))

    def test_raise_is_the_whole_numerator_route(self):
        # dividing only X by the factors s does not hold gives the (s, K)
        # of dividing the whole numerator, at steps where s holds every
        # factor of 1 - t rho and at steps where it holds none (no step
        # of the sweep holds only some)
        assert len(RAISE_SWEEP) == 265
        kinds, holding = set(), set()
        for eta in RAISE_SWEEP:
            steps = []
            want_s, want_K = raise_whole_numerator(eta, steps)
            s, K = macdonald._raise(eta)
            assert (s.sign, s.a, s.b, s.phi) == \
                (want_s.sign, want_s.a, want_s.b, want_s.phi), eta
            assert K == want_K, eta
            kinds |= {(held > 0, bool(left)) for held, left, *_ in steps}
            if any(held for held, *_ in steps):
                holding.add(eta)
        assert {(True, False), (False, True)} <= kinds
        assert {(1, 0), (2, 0), (0, 3), (1, 4)} <= holding

    def test_raise_divides_the_divided_difference(self, monkeypatch):
        # one _divide_out call per nonzero coefficient of D = d_i K, by
        # the factors of 1 - t rho that s does not hold, at the steps
        # with such a factor; none where D is zero or at the omega steps.
        # Dividing each nonzero coefficient of X = -(t x_i - x_(i+1)) D
        # instead would take 4,165 calls
        etas = [eta for n in range(5) for eta in compositions_of(n, 5)]
        want, exchanged = [], 0
        for eta in etas:
            steps = []
            raise_whole_numerator(eta, steps)
            want.append([(f, left) for _, left, i, K, _ in steps if left
                         for f in divided_difference_terms(i, K).values()])
            exchanged += sum(len(X) for _, left, _, _, X in steps if left)
        calls = []
        real_divide = macdonald._divide_out
        monkeypatch.setattr(macdonald, "_divide_out", lambda f, phi: (
            calls.append((f, phi)) or real_divide(f, phi)))
        for eta, step_want in zip(etas, want):
            calls.clear()
            macdonald._raise(eta)
            assert calls == step_want, eta
        assert sum(map(len, want)) == 2374 and exchanged == 4165

    def test_divided_difference_terms(self):
        # the closed form is xpoly's exact quotient over Q(q,t), on the K
        # of every T step with N <= 5 and |eta| <= 3
        etas = [eta for N in range(2, 6) for n in range(4)
                for eta in compositions_of(n, N)]
        seen = 0
        for eta in etas:
            steps = []
            raise_whole_numerator(eta, steps)
            for _, _, i, K, _ in steps:
                D = divided_difference_terms(i, K)
                assert XPolynomial(len(eta), {e: QTScalar(QTPoly(f)) for
                                              e, f in D.items()}) == \
                    divided_difference(xpoly(K), i), (eta, i)
                seen += 1
        assert seen > 100

    def test_raise_and_check_make_no_gcd_call(self, monkeypatch):
        # the recursion divides only by closed-form binomials and the
        # check runs on K in Z[q,t][x]; the monic E divides K over the
        # factors of its coefficient at x^eta, with no gcd either
        monkeypatch.setattr(macdonald, "_K_CACHE", {})
        calls = []
        real = qt.poly_gcd
        monkeypatch.setattr(qt, "poly_gcd",
                            lambda f, g: calls.append(1) or real(f, g))
        for eta in [(2, 0, 1, 1), (3, 2, 0, 1, 0)]:
            macdonald._integral_E(eta)
        assert calls == []
        nonsym_E((2, 0, 1, 1))
        assert calls == []

    def test_raise_does_no_qt_arithmetic(self, monkeypatch):
        # K is one Z[q,t] term dict from the recursion through E's check
        # and P's packing: _raise, _check_E, hecke._pack and hecke._unpack
        # return with every way to build a Q(q,t) value, Q(q,t)
        # arithmetic and gcds all failing, and K and P's unpacked
        # quotient hold QTPoly's
        def fail(*args, **kwargs):
            raise AssertionError("a Q(q,t) value built on K")
        for name in ("__init__", "__add__", "__mul__", "mul_monomial"):
            monkeypatch.setattr(QTScalar, name, fail)
        monkeypatch.setattr(qt, "_scalar", fail)
        monkeypatch.setattr(qt, "poly_gcd", fail)
        for eta in SWEEP:
            _, K = macdonald._raise(eta)
            assert all(type(c) is QTPoly for c in K.values()), eta
            macdonald._check_E(eta, K)
            for m in range(len(eta) + 1):
                w, B, packed = macdonald._P_pack(K, m)
                assert {e: hecke._unpack(v, w, B)
                        for e, v in packed.items()} == K, (eta, m)

    def test_step_divisors_and_d_eta(self):
        # each step of the recursion, run on J_nu = d_nu E_nu with Q(q,t)
        # arithmetic, gives d_eta E_eta through the closed-form scalar:
        # q^(-nu_1) (1 - q t^N ebar_1(nu)) at an omega step and
        # 1 / (t (1 - t rho)) at a T step; and s K has d_eta at x^eta
        d = {}

        def d_of(eta):
            if eta not in d:
                d[eta] = macdonald._knop_d(eta).expand()
            return d[eta]
        steps = {step for eta in SWEEP for step in knop_steps(eta)}
        for eta, nu, i in sorted(steps):
            N = len(eta)
            J_nu = nonsym_E(nu).poly.scale(d_of(nu))
            if i:
                rho = eigenvalue(nu, i + 1) / eigenvalue(nu, i)
                f = hecke.apply_T(i, J_nu).scale(ONE - rho) + \
                    J_nu.scale(ONE - T)
                scalar = ONE / (T * (ONE - T * rho))
            else:
                f = XPolynomial.variable(N, N) * hecke.apply_omega(J_nu)
                scalar = qt_monomial(-nu[0], 0) * \
                    (ONE - qt_monomial(1, N) * eigenvalue(nu, 1))
            assert f.coefficient(eta) * scalar == d_of(eta), (eta, nu, i)
        for eta in SWEEP:
            s, K = macdonald._raise(eta)
            assert s.expand() * QTScalar(K[eta]) == d_of(eta), eta
            assert xpoly(K).scale(QTScalar(K[eta]).inverse()) == \
                nonsym_E(eta).poly

    @pytest.mark.parametrize("eta", [
        eta for N in range(1, 5) for eta in itertools.product(range(5),
                                                              repeat=N)
        if sum(eta) <= 4] + [(15, 0), (3, 2, 0, 1, 0), (4, 0, 2, 1, 0)])
    def test_factored_route_is_the_gcd_route(self, eta):
        # each coefficient of E, K's over the factors of K(x^eta), is
        # structurally the canonical fraction the gcd route gives
        K = macdonald._integral_E(eta)
        E = nonsym_E(eta).poly.terms
        assert E.keys() == K.keys()
        for e, c in K.items():
            want = QTScalar(c, K[eta])
            assert (E[e].c, E[e].num.terms, E[e].den.terms) == \
                (want.c, want.num.terms, want.den.terms), (eta, e)

    def test_caches_only_the_result(self, monkeypatch):
        # the recursion's intermediate K_nu are unchecked and stay out
        monkeypatch.setattr(macdonald, "_K_CACHE", {})
        nonsym_E((2, 0, 1))
        assert list(macdonald._K_CACHE) == [(2, 0, 1)]

    @pytest.mark.parametrize("eta", [(1, 0, 0), (2, 1, 0), (1, 0, 1, 0)])
    def test_equal_coefficients_are_one_object(self, monkeypatch, eta):
        # K built by the recursion and K read from a cache record both
        # hold equal coefficients as separate objects; E's equal
        # coefficients are one object either way
        K = macdonald._integral_E(eta)
        monkeypatch.setattr(macdonald, "_K_CACHE", {})
        monkeypatch.setattr(macdonald, "_K_UNCHECKED", {
            eta: (terms_to_json(len(eta), K), "record")})
        for _ in ("record", "cached"):
            E = nonsym_E(eta).poly.terms.values()
            assert len({id(c) for c in E}) == len(set(E)) < len(E)


def below(eta):
    """Every composition strictly Bruhat-below eta."""
    return [nu for nu in compositions_of(sum(eta), len(eta))
            if macdonald._bruhat_below(eta)(nu)]


def eigen_failure(eta):
    """The message of a failed eigenvalue equation of _check_E at eta."""
    return re.compile(r"^eigenvalue equation Y_\d E = ebar_\d E failed for "
                      f"E_{re.escape(str(eta))}$")


class TestReducedEigenCheck:
    """_check_E runs Y_i K = ebar_i K only for the i with eta_i > 0; these
    show that those equations, with the triangularity check, still pin K
    to a multiple of E_eta, and that a check on fewer indices does not."""

    def test_support_eigenvalues_separate_every_lower_composition(self):
        # the lemma of _check_E's proof: q^(nu_i) = q^(eta_i) on eta's
        # support and |nu| = |eta| would give nu = eta
        for N in range(1, 6):
            for d in range(5):
                for eta in compositions_of(d, N):
                    supp = [i for i in range(1, N + 1) if eta[i - 1]]
                    want = [eigenvalue(eta, i) for i in supp]
                    for nu in below(eta):
                        assert [eigenvalue(nu, i) for i in supp] != want, \
                            (eta, nu)

    def test_rejects_every_sum_with_a_lower_E(self):
        # K_eta + K_nu, nu strictly Bruhat-below eta, N <= 4, |eta| <= 3:
        # triangular at eta, and a joint eigenfunction for no eta
        cases = 0
        for N in range(1, 5):
            for d in range(4):
                for eta in compositions_of(d, N):
                    K = macdonald._integral_E(eta)
                    for nu in below(eta):
                        bad = dict(K)
                        for e, c in macdonald._integral_E(nu).items():
                            bad = plus(bad, e, c)
                        with pytest.raises(ConsistencyError,
                                           match=eigen_failure(eta)):
                            macdonald._check_E(eta, bad)
                        cases += 1
        assert cases == 298

    def test_rejects_every_monomial_perturbation(self):
        # K plus 1, -1 or q t at each x^nu strictly Bruhat-below eta, for
        # N <= 4 with |eta| <= 4 and N = 5 with |eta| <= 3
        cases = 0
        for N, top in ((1, 4), (2, 4), (3, 4), (4, 4), (5, 3)):
            for d in range(top + 1):
                for eta in compositions_of(d, N):
                    K = macdonald._integral_E(eta)
                    for nu in below(eta):
                        for p in (QTPoly.one(), -QTPoly.one(),
                                  QTPoly.monomial(1, 1)):
                            with pytest.raises(ConsistencyError,
                                               match=eigen_failure(eta)):
                                macdonald._check_E(eta, plus(K, nu, p))
                            cases += 1
        assert cases == 4899

    def test_verify_still_checks_every_index(self, monkeypatch, capsys):
        # a t^(N-1) Y_2 wrong on K_(1,0,1) alone: construction, which
        # skips the zero part, passes it; the eigen suite fails it
        eta = (1, 0, 1)
        support = set(macdonald._integral_E(eta))
        real = hecke._word

        def word(i, f, mul):
            out = real(i, f, mul)
            if i == 2 and set(f) == support:
                return {e: c + c for e, c in out.items()}
            return out
        monkeypatch.setattr(hecke, "_word", word)
        monkeypatch.setattr(macdonald, "_K_CACHE", {})
        macdonald._integral_E(eta)
        assert main(["verify", "--suite", "eigen", "--N", "3",
                     "--deg", "2"]) == 1
        assert capsys.readouterr().out == \
            "[FAIL] eigenvalue property and triangularity for 16 E's: " \
            "(1, 0, 1)\n"


class TestBisymP:
    def test_trivial(self):
        P = bisym_P(SuperPartition((0,), (), 3))
        assert P.poly == XPolynomial.one(3)

    def test_dominant_coefficient(self):
        lam = SuperPartition((2, 0), (1,), 4)
        P = bisym_P(lam)
        assert P.poly.coefficient((1, 0, 1, 0)).is_one()

    def test_bisymmetric(self):
        lam = SuperPartition((2, 0), (1,), 4)
        assert is_bisymmetric(bisym_P(lam).poly, 2)

    def test_classical_limit(self):
        # fermionic degree zero reduces to the symmetric Macdonald P
        P = bisym_P(SuperPartition((), (1,), 2))
        assert P.poly == XPolynomial.variable(1, 2) + \
            XPolynomial.variable(2, 2)

    def test_c_constant_fermionic_one(self):
        lam = SuperPartition((0,), (), 3)
        P = bisym_P(lam)
        assert P.c_lam == c_lambda_formula(lam) == ONE / (ONE + T)

    def test_c_lambda_corrected_sweep(self):
        # the closed form of the constant bisym_P produces; without the
        # count of anti parts strictly between a_j and a_i it fails at
        # m = 3
        assert [sum(1 for sp in C_SHAPES if sp.m == m)
                for m in range(5)] == [42, 89, 58, 11, 8]
        for sp in C_SHAPES:
            assert bisym_P(sp).c_lam == c_lambda_corrected(sp), sp

    def test_constants_make_no_gcd_call(self, monkeypatch):
        # each constant, and [k]_(1/t)!, is one factored product expanded
        # once, which needs no gcd
        calls = []
        real = qt.poly_gcd
        monkeypatch.setattr(qt, "poly_gcd",
                            lambda f, g: calls.append(1) or real(f, g))
        for sp in C_SHAPES:
            c_lambda_formula(sp)
            c_lambda_corrected(sp)
        for k in range(7):
            qt.t_bracket_factorial(k, "t_inverse")
        assert calls == []

    def test_cold_P_makes_no_gcd_call(self, monkeypatch):
        # each coefficient of P and c_lam divide by c, factored and
        # certified: a cold P, E's K included, calls no gcd
        monkeypatch.setattr(qt, "poly_gcd", refuse_gcd)
        monkeypatch.setattr(macdonald, "_K_CACHE", {})
        monkeypatch.setattr(macdonald, "_P_CACHE", {})
        for sp in C_SHAPES:
            bisym_P(sp)

    def test_c_formula_values(self):
        lam = SuperPartition((), (1,), 2)
        assert c_lambda_formula(lam) == ONE / T
        lam = SuperPartition((1,), (2, 1), 4)
        # distinct sym entries contribute trivial factorials beyond the
        # padded zero block
        assert c_lambda_formula(lam) == qt_monomial(0, -3)

    def test_pack_bounds_cover_every_unpacked_polynomial(self):
        # w and B from _P_pack must cover the true largest coefficient and
        # t-degree of what bisym_P unpacks, found here in Q(q,t) by
        # hecke.symmetrize and exact_div: S at m < 2, else both quotients
        for sp in P_SWEEP:
            m, N = sp.m, sp.N
            K = macdonald._integral_E(sp.eta())
            w, B, _ = macdonald._P_pack(K, m)
            S = hecke.symmetrize("t_sym", (m + 1, N), xpoly(K))
            if m < 2:
                polys = [S]
            else:
                anti = range(1, m + 1)
                polys = [
                    exact_div(hecke.symmetrize("t_antisym", (1, m), S).scale(
                        qt_monomial(0, m * (m - 1) // 2)),
                        vandermonde("t_deformed", anti, N)),
                    exact_div(hecke.symmetrize("antisym", (1, m), S),
                              vandermonde("plain", anti, N))]
            for f in polys:
                big, tdeg = coefficient_ints(f)
                assert big < 1 << (w - 1) and tdeg < B, sp

    def test_pack_widths_are_the_stated_bounds(self):
        # each packing is exactly as wide as its proof needs: w is the
        # least width over the bound restated here, and B is one past
        # tdeg K plus the stated growth of the t-degree
        for eta in SWEEP:
            K = macdonald._integral_E(eta)
            N, d = len(eta), max(map(sum, K))
            tdeg = max(b for c in K.values() for _, b in c.terms)
            w, B, _ = macdonald._eigen_pack(K)
            assert (w, B) == (least_w(K), tdeg + N - 1 + 1), eta
            for m in range(N + 1):
                extra = (N - m) * (N - m - 1) // 2 + m * (m - 1) // 2 + \
                    (d if m >= 2 else 0)
                w, B, _ = macdonald._P_pack(K, m)
                assert (w, B) == (least_P_w(K, m), tdeg + extra + 1), \
                    (eta, m)

    def test_plain_and_t_disagreement_fails_closed(self, monkeypatch):
        # the two quotients are equal for every input (see
        # test_hecke's test_t_and_plain_quotients_are_equal), so the
        # cross-check guards the code: a unit planted in the packed plain
        # quotient must raise
        lam = SuperPartition((2, 0), (1,), 4)
        lead = dominant_exponent(lam)
        quotient = macdonald._packed_quotient

        def plant(lam, S, w, times_t):
            A = quotient(lam, S, w, times_t)
            if not times_t:
                e = next(e for e in A if e != lead)
                A = {**A, e: A[e] + 1}
            return A
        monkeypatch.setattr(macdonald, "_packed_quotient", plant)
        monkeypatch.setattr(macdonald, "_P_CACHE", {})
        with pytest.raises(ConsistencyError, match="^plain and t-deformed "
                           "constructions disagree for 2,0;1$"):
            bisym_P(lam)

    @pytest.mark.parametrize("lam", [SuperPartition((2, 0), (1,), 4),
                                     SuperPartition((1,), (1, 1), 4),
                                     SuperPartition((), (1, 1), 4),
                                     SuperPartition((3, 1), (1,), 5)],
                             ids=format_spart)
    def test_one_reduction_per_distinct_coefficient(self, monkeypatch, lam):
        # a cold P, E's K included, divides each distinct coefficient of
        # its integral form by the factored c once (one qt._coprime call
        # each in qt._Factored.over), with no gcd, and equal coefficients
        # are one object
        calls = []
        real = qt._coprime
        monkeypatch.setattr(qt, "_coprime",
                            lambda *args: calls.append(1) or real(*args))
        monkeypatch.setattr(qt, "poly_gcd", refuse_gcd)
        monkeypatch.setattr(macdonald, "_K_CACHE", {})
        monkeypatch.setattr(macdonald, "_P_CACHE", {})
        P = bisym_P(lam).poly.terms.values()
        distinct = set(P)
        assert len(calls) == len(distinct)
        assert len({id(c) for c in P}) == len(distinct) < len(P)

    @pytest.mark.parametrize("lam", [SuperPartition((2,), (1,), 3),
                                     SuperPartition((2, 0), (1,), 4)],
                             ids=["m=1", "m=2"])
    def test_halved_width_fails(self, monkeypatch, lam):
        # K q^2 t^3 is a multiple of E whose dominant coefficient still
        # factors, so bisym_P gives the same P and c_lam from it.  K (t -
        # 2^s) is one too, but t - 2^s is no Phi factor, so bisym_P
        # refuses it when it certifies c.  With s = w // 2 for the least
        # width w of _P_pack's bound it packs to zero under t -> 2^(w //
        # 2), so a construction that halved w would find that P vanished
        # before it reached c
        want = bisym_P(lam)
        K = macdonald._integral_E(lam.eta())
        for s in itertools.count(1):
            bad = times(K, QTPoly({(0, 1): 1, (0, 0): -2 ** s}))
            if least_P_w(bad, lam.m) // 2 == s:
                break
        multiple = times(K, QTPoly.monomial(2, 3))
        monkeypatch.setattr(macdonald, "_integral_E", lambda eta: multiple)
        monkeypatch.setattr(macdonald, "_P_CACHE", {})
        got = bisym_P(lam)
        assert (got.poly, got.c_lam) == (want.poly, want.c_lam)
        monkeypatch.setattr(macdonald, "_integral_E", lambda eta: bad)
        monkeypatch.setattr(macdonald, "_P_CACHE", {})
        with pytest.raises(ConsistencyError, match=(
                f"^the dominant coefficient of {re.escape(format_spart(lam))}"
                r" is not \+-q\^a t\^b times Phi factors of d_eta and "
                "c_lambda$")):
            bisym_P(lam)


def test_p_n6_digest():
    # P and c_lam of every superpartition of N = 6 with |Lambda| <= 4, in
    # order, as xpoly_to_json and to_json write them: pins each
    # coefficient's canonical rows past the N = 5 golden set
    h = hashlib.sha256()
    shapes = [lam for m in range(7) for d in range(5)
              for lam in superpartitions(d, m, 6)]
    assert len(shapes) == 58
    for lam in shapes:
        P = bisym_P(lam)
        h.update(json.dumps([lam.anti, lam.sym, lam.N, xpoly_to_json(P.poly),
                             P.c_lam.to_json()], sort_keys=True).encode())
        h.update(b"\n")
    assert h.hexdigest() == P_N6_SHA256


# sha256 of test_p_n6_digest's records as they stood while each
# coefficient of P was unpacked and reduced once per monomial
P_N6_SHA256 = (
    "89a45de733a2c7527adaaee5375171816bb70a3eced678e66f545e2469c90b04")


# every composition with N <= 5 parts and |eta| <= 4, with three larger
# ones: (15, 0), whose chain is long, and two at N = 5
E_DIGEST_ETAS = [eta for N in range(1, 6)
                 for eta in itertools.product(range(5), repeat=N)
                 if sum(eta) <= 4] + [(15, 0), (3, 2, 0, 1, 0), (4, 0, 2, 1, 0)]


def test_e_digest():
    # E_eta as xpoly_to_json writes it, for every eta of E_DIGEST_ETAS in
    # order: pins the recursion and E's canonical coefficients row by row
    h = hashlib.sha256()
    assert len(E_DIGEST_ETAS) == 254
    for eta in E_DIGEST_ETAS:
        h.update(json.dumps([eta, xpoly_to_json(nonsym_E(eta).poly)],
                            sort_keys=True).encode())
        h.update(b"\n")
    assert h.hexdigest() == E_SHA256


# sha256 of test_e_digest's records as they stood while E's check ran
# all N eigenvalue equations and the recursion's steps multiplied K by
# QTPoly binomials
E_SHA256 = (
    "5e903f4517eda9b4adbafc30f13990fe936da9e775e74a92586360724e03eee3")


# every (degree, m, N) class with N = 2..4 and |Lambda*| at most 3 past
# the staircase
PEEL_CLASSES = [(d, m, N) for N in (2, 3, 4) for m in range(N + 1)
                for d in range(m * (m - 1) // 2, m * (m - 1) // 2 + 4)
                if superpartitions(d, m, N)]


class TestExpansion:
    def test_peel_class_count(self):
        assert len(PEEL_CLASSES) == 48

    @pytest.mark.parametrize("d, m, N", PEEL_CLASSES)
    def test_peel_order_is_triangular(self, d, m, N):
        # expand_in_P_basis's order: no later candidate's P is nonzero
        # at an earlier candidate's dominant monomial
        cands = sorted(superpartitions(d, m, N),
                       key=lambda sp: (sp.circled(), sp.star()), reverse=True)
        for j, sp in enumerate(cands):
            poly = bisym_P(sp).poly
            for earlier in cands[:j]:
                assert poly.coefficient(dominant_exponent(earlier)).is_zero(), \
                    (str(earlier), str(sp))

    def test_basis_property(self):
        lam = SuperPartition((2, 0), (1,), 4)
        P = bisym_P(lam)
        res = expand_in_P_basis(P.poly, 2)
        assert res == [(lam, ONE)]

    def test_zero(self):
        assert expand_in_P_basis(XPolynomial.zero(4), 1) == []

    def test_linear_combination_roundtrip(self):
        a = SuperPartition((1,), (1,), 3)
        b = SuperPartition((2,), (), 3)
        c = SuperPartition((0,), (2,), 3)
        f = bisym_P(a).poly.scale(Q) + bisym_P(b).poly.scale(T) - \
            bisym_P(c).poly
        res = dict((sp, coeff) for sp, coeff in expand_in_P_basis(f, 1))
        assert res[a] == Q and res[b] == T and res[c] == -ONE

    def test_rejects_non_bisymmetric(self):
        f = XPolynomial.variable(1, 3)
        with pytest.raises(ValueError):
            expand_in_P_basis(f, 2)

    def test_rejects_inhomogeneous(self):
        f = XPolynomial.one(3) + elementary_symmetric(1, (2, 3), 3)
        with pytest.raises(ValueError):
            expand_in_P_basis(f, 1)

    def test_stalled_peel_fails_closed(self, monkeypatch):
        # two candidates that each carry the other's dominant monomial
        # break triangularity; the one-pass peel then cannot clear the
        # residual, and fails closed rather than return a wrong expansion
        a = SuperPartition((1,), (1,), 3)
        b = SuperPartition((2,), (), 3)
        f = bisym_P(a).poly
        real = macdonald.bisym_P

        def crossed(lam):
            elem = real(lam)
            other = {a: b, b: a}.get(lam)
            if other is None:
                return elem
            # P = Q / c, so P + x^e is Q + c x^e over the same c
            e = dominant_exponent(other)
            poly = elem.poly + XPolynomial.monomial(e)
            c = elem.Q[dominant_exponent(lam)]
            Q = {**elem.Q, e: elem.Q.get(e, QTPoly.zero()) + c}
            return macdonald.PBasisElement(lam=lam, poly=poly,
                                           c_lam=elem.c_lam, Q=Q, c=elem.c)
        monkeypatch.setattr(macdonald, "bisym_P", crossed)
        with pytest.raises(ConsistencyError,
                           match=r"^P-basis peel left a nonzero residual "
                                 r"at degree 2, m = 1, N = 3: "):
            expand_in_P_basis(f, 1)

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(PEEL_CLASSES), st.data())
    def test_random_combinations_round_trip(self, cls, data):
        # sum c_Omega P_Omega with random c_Omega in Q(q,t), rational
        # contents and denominators with no Phi factor, such as 1 + 2q,
        # among them, expands back to its own coefficients
        d, m, N = cls
        shapes = data.draw(st.lists(st.sampled_from(superpartitions(d, m, N)),
                                    min_size=1, max_size=4, unique=True))
        want = sorted(((sp, data.draw(scalars())) for sp in shapes),
                      key=lambda kv: (kv[0].anti, kv[0].sym))
        f = XPolynomial.zero(N)
        for sp, c in want:
            f = f + bisym_P(sp).poly.scale(c)
        assert expand_in_P_basis(f, m) == want

    def test_known_product_expansion(self):
        lam = SuperPartition((2, 0), (1,), 5)
        f = elementary_symmetric(2, (3, 5), 5) * bisym_P(lam).poly
        res = expand_in_P_basis(f, 2)
        keys = {(sp.anti, sp.sym[:3]) for sp, _ in res}
        assert keys == {((1, 0), (3, 1, 0)), ((2, 0), (2, 1, 0)),
                        ((2, 1), (1, 1, 0)), ((2, 0), (1, 1, 1))}
        coeffs = {sp.anti + tuple(v for v in sp.sym if v): c
                  for sp, c in res}
        assert coeffs[(1, 0, 3, 1)] == Q * (ONE - T) / (ONE - Q * T)


class TestInvariantSweeps:
    def test_eigen_and_triangularity_small(self):
        # exhaustive at N = 3 up to degree 3; construction re-verifies
        # every eigenvalue equation and the support ordering internally
        for d in range(4):
            for eta in compositions_of(d, 3):
                nonsym_E(eta)

    def test_bisymmetry_sweep(self):
        from bimac.sparts import superpartitions
        for m in (1, 2):
            for d in range(3):
                for sp in superpartitions(d, m, 4):
                    assert is_bisymmetric(bisym_P(sp).poly, m)

    def test_scaling_relation(self):
        # q-dilating the first block matches inverting both parameters
        from bimac.sparts import superpartitions
        from reference import q_shift
        for m in (1, 2):
            for d in range(3):
                for sp in superpartitions(d, m, 4):
                    P = bisym_P(sp).poly
                    lhs = q_shift(P, set(range(1, m + 1))).scale(
                        qt_monomial(m * (m - 1) // 2 - sum(sp.anti), 0))
                    rhs = map_coeffs(P, lambda c: c.invert_parameters())
                    assert lhs == rhs

    def test_dominant_exponent(self):
        lam = SuperPartition((3, 1), (2,), 4)
        assert dominant_exponent(lam) == (2, 1, 2, 0)


def _last_variable_zero(f):
    """f(x_1, .., x_N, 0) as a polynomial in N variables."""
    return XPolynomial(f.nvars - 1, {e[:-1]: c for e, c in f.terms.items()
                                     if not e[-1]})


class TestStabilityInN:
    """Stability in the number of variables, a metamorphic check: the
    construction never uses it, so building the same object in N and in
    N + 1 variables and setting x_(N+1) = 0 in the larger one must give
    the smaller one.  Both sides run the same code, so this is no
    independent oracle; it catches an error that changes with N."""

    def test_E_with_a_trailing_zero(self):
        # E_(eta,0)(x_1, .., x_N, 0) = E_eta(x_1, .., x_N)
        etas = [eta for N in range(2, 5) for d in range(5)
                for eta in compositions_of(d, N)]
        assert len(etas) == 120
        bad = [eta for eta in etas
               if _last_variable_zero(nonsym_E(eta + (0,)).poly)
               != nonsym_E(eta).poly]
        assert bad == []

    def test_P_with_one_more_zero_part(self):
        # P_Lambda in N + 1 variables, its symmetric part padded with one
        # more zero, at x_(N+1) = 0 is P_Lambda in N variables
        shapes = [sp for N in range(2, 5) for d in range(4)
                  for m in range(N + 1) for sp in superpartitions(d, m, N)]
        assert len(shapes) == 78
        bad = [format_spart(sp) for sp in shapes
               if _last_variable_zero(bisym_P(SuperPartition(
                   sp.anti, sp.sym, sp.N + 1)).poly) != bisym_P(sp).poly]
        assert bad == []


def bisymmetric_by_K(f, m):
    """is_bisymmetric's reference route: f is fixed by the exchange
    K_(i,i+1) of each adjacent pair of variables inside a block."""
    return all(apply_K(i, i + 1, f) == f
               for i in (*range(1, m), *range(m + 1, f.nvars)))


class TestIsBisymmetric:
    # P's at every m from 0 to N, each checked at every block split
    SHAPES = [sp for N in (1, 3, 4) for m in range(N + 1) for d in range(4)
              for sp in superpartitions(d, m, N)]

    def test_agrees_with_the_K_route_on_P(self):
        for sp in self.SHAPES:
            P = bisym_P(sp).poly
            assert is_bisymmetric(P, sp.m)
            for m in range(sp.N + 1):
                assert is_bisymmetric(P, m) == bisymmetric_by_K(P, m)

    def test_agrees_with_the_K_route_on_perturbed_P(self):
        # one coefficient bumped by 1: bisymmetry breaks exactly when the
        # term's orbit under the blocks has another term in it
        broken = 0
        for sp in self.SHAPES:
            P = bisym_P(sp).poly
            for e, c in P.terms.items():
                f = XPolynomial(sp.N, {**P.terms, e: c + ONE})
                for m in range(sp.N + 1):
                    got = is_bisymmetric(f, m)
                    assert got == bisymmetric_by_K(f, m), (sp, e, m)
                broken += not is_bisymmetric(f, sp.m)
        assert broken

    @pytest.mark.parametrize("N", [1, 2, 3])
    def test_edge_cases(self, N):
        # m = 0, 1 and N, on the zero polynomial, 1 and x_1
        for f in (XPolynomial.zero(N), XPolynomial.one(N),
                  XPolynomial.variable(1, N)):
            for m in {0, 1, N}:
                assert is_bisymmetric(f, m) == bisymmetric_by_K(f, m)
        x1 = XPolynomial.variable(1, N)
        assert is_bisymmetric(x1, 1) and is_bisymmetric(x1, N) == (N == 1)
        assert is_bisymmetric(x1, 0) == (N == 1)

    @pytest.mark.parametrize("m", [-1, 4, 5])
    def test_block_split_outside_0_to_N_is_named(self, m):
        # at N = 3, m past N once indexed past the exponent tuple, and
        # m < 0 read as "not bisymmetric"; both callers pass the error on
        f = bisym_P(SuperPartition((1,), (1,), 3)).poly
        named = re.escape(f"m = {m} is outside 0..N = 3")
        for call in (lambda: is_bisymmetric(f, m),
                     lambda: macdonald.expand_in_P_basis(f, m),
                     lambda: pieri.op_identity_check(m, 1, f, "upper")):
            with pytest.raises(ValueError, match=named):
                call()


class TestClassicalCrossChecks:
    def test_row_shape_against_textbook(self):
        # P_(2) = m_(2) + (1+q)(1-t)/(1-qt) m_(1,1), a standard table
        # value independent of this construction
        P = bisym_P(SuperPartition((), (2,), 3)).poly
        c = (ONE + Q) * (ONE - T) / (ONE - Q * T)
        m2 = XPolynomial.monomial((2, 0, 0)) + XPolynomial.monomial((0, 2, 0)) \
            + XPolynomial.monomial((0, 0, 2))
        m11 = elementary_symmetric(2, (1, 3), 3)
        assert P == m2 + m11.scale(c)

    def test_column_shape_is_elementary(self):
        # P_(1^k) = e_k for any q, t
        for N in (3, 4):
            for k in (1, 2, min(3, N)):
                P = bisym_P(SuperPartition((), (1,) * k, N)).poly
                assert P == elementary_symmetric(k, (1, N), N)


def test_concurrent_cache_reads_and_writes():
    from concurrent.futures import ThreadPoolExecutor
    from bimac.sparts import superpartitions
    jobs = [sp for d in range(3) for sp in superpartitions(d, 1, 3)] * 3
    with ThreadPoolExecutor(max_workers=6) as pool:
        results = list(pool.map(lambda sp: bisym_P(sp), jobs))
    for sp, res in zip(jobs, results):
        assert res.poly == bisym_P(sp).poly
