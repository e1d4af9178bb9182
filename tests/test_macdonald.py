import itertools

import pytest

from bimac import hecke, macdonald, qt
from bimac.errors import ConsistencyError
from bimac.macdonald import (bisym_P, c_lambda_formula, dominant_exponent,
                             expand_in_P_basis, is_bisymmetric, nonsym_E)
from bimac.qt import QTScalar, qt_monomial
from bimac.sparts import SuperPartition, compositions_of, eigenvalue
from bimac.xpoly import XPolynomial, elementary_symmetric

ONE = QTScalar.one()
Q = qt_monomial(1, 0)
T = qt_monomial(0, 1)


def least_K(DE):
    """The least K with 2^(K-1) > ((1 + 2d)^(N-1) + 1) ||D E||_1, d the
    degree: the bound on the eigen check's coefficients, restated here so
    that a change to hecke._pack cannot move it."""
    d = max(map(sum, DE.terms))
    norm = sum(abs(int(s.c) * v) for s in DE.terms.values()
               for v in s.num.terms.values())
    return (((1 + 2 * d) ** (DE.nvars - 1) + 1) * norm).bit_length() + 1


def aliased_at_half_K(eta, nu):
    """A perturbation E -> E + (t - 2^s) x^nu / D, D the common
    denominator of E, with s = K // 2 for the least K of the perturbed
    D E.  Under t -> 2^(K // 2) the perturbation of D E packs to zero,
    so an eigen check that halved K would pass it."""
    def perturb(E):
        DE = macdonald._cleared(E)
        D = DE.coefficient(eta)
        for s in itertools.count(1):
            delta = XPolynomial.monomial(nu, T - QTScalar.from_int(2 ** s))
            bad = E + delta.scale(ONE / D)
            bad_DE = macdonald._cleared(bad)
            assert bad_DE == DE + delta
            if least_K(bad_DE) // 2 == s:
                return bad
    return perturb


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

    @pytest.mark.parametrize("eta, perturb, message", [
        # a wrong coefficient at a Bruhat-below monomial
        ((1, 0, 0), lambda E: E + XPolynomial.monomial((0, 1, 0)),
         r"^eigenvalue equation Y_\d E = ebar_\d E failed for E_\(1, 0, 0\)$"),
        # a monomial that is not Bruhat-below eta
        ((0, 1, 0), lambda E: E + XPolynomial.monomial((1, 0, 0)),
         r"^E_\(0, 1, 0\) has support at \(1, 0, 0\), not Bruhat-below$"),
        # the right polynomial times t
        ((0, 1, 1), lambda E: E.scale(T),
         r"^E_\(0, 1, 1\) is not monic at x\^\(0, 1, 1\)$"),
        # one coefficient's denominator times 1 + q, so the common
        # denominator D is taken from the wrong E
        ((1, 0, 0), lambda E: E + XPolynomial.monomial(
            (0, 1, 0), E.coefficient((0, 1, 0)) * (ONE / (ONE + Q) - ONE)),
         r"^eigenvalue equation Y_\d E = ebar_\d E failed for E_\(1, 0, 0\)$"),
        # D E plus (t - 2^(K//2)) x^nu at a Bruhat-below nu: caught only
        # if the packing keeps all K bits of t
        ((2, 0, 1), aliased_at_half_K((2, 0, 1), (1, 1, 1)),
         r"^eigenvalue equation Y_\d E = ebar_\d E failed for E_\(2, 0, 1\)$"),
    ], ids=["wrong-coefficient", "not-bruhat-below", "not-monic",
            "wrong-denominator", "aliased-at-half-K"])
    def test_fails_closed(self, monkeypatch, eta, perturb, message):
        good = macdonald._raise(eta)
        monkeypatch.setattr(macdonald, "_raise", lambda e: perturb(good))
        monkeypatch.setattr(macdonald, "_E_CACHE", {})
        with pytest.raises(ConsistencyError, match=message):
            nonsym_E(eta)
        assert macdonald._E_CACHE == {}

    def test_eigen_check_gcds_only_for_the_common_denominator(
            self, monkeypatch):
        # the N equations run on D E in Z[q,t][x]: the lcm that forms D
        # makes one gcd call per distinct denominator, the Y words none
        eta = (2, 0, 1, 1)
        good = macdonald._raise(eta)
        monkeypatch.setattr(macdonald, "_raise", lambda e: good)
        monkeypatch.setattr(macdonald, "_E_CACHE", {})
        calls = []
        real = qt.poly_gcd
        monkeypatch.setattr(qt, "poly_gcd",
                            lambda f, g: calls.append(1) or real(f, g))
        nonsym_E(eta)
        dens = {c.den for c in good.terms.values()}
        assert len(dens) > 1
        assert len(calls) == len(dens)

    def test_caches_only_the_result(self, monkeypatch):
        # the recursion's intermediate E_nu are unchecked and stay out
        monkeypatch.setattr(macdonald, "_E_CACHE", {})
        nonsym_E((2, 0, 1))
        assert list(macdonald._E_CACHE) == [(2, 0, 1)]


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

    def test_c_formula_values(self):
        lam = SuperPartition((), (1,), 2)
        assert c_lambda_formula(lam) == ONE / T
        lam = SuperPartition((1,), (2, 1), 4)
        # distinct sym entries contribute trivial factorials beyond the
        # padded zero block
        assert c_lambda_formula(lam) == qt_monomial(0, -3)


class TestExpansion:
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
        # leave the triangular peel nothing to take
        a = SuperPartition((1,), (1,), 3)
        b = SuperPartition((2,), (), 3)
        f = bisym_P(a).poly
        real = macdonald.bisym_P

        def crossed(lam):
            elem = real(lam)
            other = {a: b, b: a}.get(lam)
            if other is None:
                return elem
            poly = elem.poly + XPolynomial.monomial(dominant_exponent(other))
            return macdonald.PBasisElement(lam=lam, poly=poly,
                                           c_lam=elem.c_lam)
        monkeypatch.setattr(macdonald, "bisym_P", crossed)
        with pytest.raises(ConsistencyError,
                           match=r"^P-basis peel stalled at degree 2, "
                                 r"m = 1, N = 3: "):
            expand_in_P_basis(f, 1)

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
        from bimac.xpoly import q_shift
        for m in (1, 2):
            for d in range(3):
                for sp in superpartitions(d, m, 4):
                    P = bisym_P(sp).poly
                    lhs = q_shift(P, set(range(1, m + 1))).scale(
                        qt_monomial(m * (m - 1) // 2 - sum(sp.anti), 0))
                    rhs = P.map_coeffs(lambda c: c.invert_parameters())
                    assert lhs == rhs

    def test_dominant_exponent(self):
        lam = SuperPartition((3, 1), (2,), 4)
        assert dominant_exponent(lam) == (2, 1, 2, 0)


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
