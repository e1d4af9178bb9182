import pytest

from bimac import evalsym
from bimac.errors import DegenerateEvaluationError
from bimac.evalsym import eval_formula, evaluate, symmetry_check
from bimac.macdonald import PBasisElement, bisym_P, dominant_exponent
from bimac.qt import QTPoly, QTScalar, qt_monomial
from bimac.sparts import (SuperPartition, eval_point, lambda_naught,
                          superpartitions)
from bimac.xpoly import XPolynomial, _laurent_at
from reference import vandermonde

ONE = QTScalar.one()
Q = qt_monomial(1, 0)
T = qt_monomial(0, 1)


class TestEvaluate:
    def test_product_of_variables(self):
        N = 4
        f = XPolynomial.one(N)
        for i in range(1, N + 1):
            f = f * XPolynomial.variable(i, N)
        empty = SuperPartition((), (), N)
        assert evaluate(empty, "minus", f) == qt_monomial(0, N * (N - 1) // 2)

    def test_constant(self):
        lam = SuperPartition((2, 0), (1,), 4)
        for sign in ("plus", "minus"):
            assert evaluate(lam, sign, XPolynomial.one(4)).is_one()

    def test_deformed_vandermonde_at_plus(self):
        lam = SuperPartition((2, 0), (1,), 3)
        val = evaluate(lam, "plus", vandermonde("t_deformed", (1, 2), 3))
        assert val == T * Q ** 3 - Q * qt_monomial(0, -2)


class TestEvalFormula:
    def test_trivial(self):
        lam = SuperPartition((0,), (), 3)
        assert eval_formula(lam, "minus").is_one()
        assert eval_formula(lam, "plus").is_one()

    def test_route_agreement_example(self):
        lam = SuperPartition((2, 0), (1,), 4)
        for sign in ("plus", "minus"):
            f = eval_formula(lam, sign)
            s = evaluate(lambda_naught(2, 4), sign, bisym_P(lam).poly)
            assert f == s

    def test_hand_value(self):
        # one-row superpartition at N = 2, computed from the diagram
        lam = SuperPartition((1,), (), 2)
        got = eval_formula(lam, "minus")
        assert got == (ONE - Q * T * T) / (ONE - Q * T)

    def test_inversion_consistency(self):
        for sp in superpartitions(2, 1, 3) + superpartitions(3, 2, 4):
            lhs = eval_formula(sp, "minus").invert_parameters()
            rhs = qt_monomial(sp.m * (sp.m - 1) // 2 - sum(sp.anti), 0) * \
                eval_formula(sp, "plus")
            assert lhs == rhs

    def test_route_agreement_staircase(self):
        # Lambda is the staircase itself: P evaluated at its own point
        lam = lambda_naught(2, 3)
        by_subst = evaluate(lam, "minus", bisym_P(lam).poly)
        assert eval_formula(lam, "minus") == by_subst

    def test_unknown_sign_raises(self):
        with pytest.raises(ValueError, match="unknown sign 'bogus'"):
            eval_formula(SuperPartition((1,), (), 2), "bogus")


class TestSymmetry:
    def test_reflexive(self):
        lam = SuperPartition((2, 0), (1,), 4)
        assert symmetry_check(lam, lam, "minus")
        assert symmetry_check(lam, lam, "plus")

    def test_small_pairs(self):
        a = SuperPartition((1, 0), (), 4)
        b = SuperPartition((2, 0), (), 4)
        assert symmetry_check(a, b, "minus")
        c = SuperPartition((2, 0), (1,), 4)
        d = SuperPartition((1, 0), (2,), 4)
        assert symmetry_check(c, d, "plus")

    @staticmethod
    def _patch_P(monkeypatch, lam, edit):
        """evalsym.bisym_P with P_Lambda = Q / c replaced by
        edit(Q, Q[x^dominant]) / c: edit maps Z[q,t] term dicts."""
        real = evalsym.bisym_P

        def patched(sp):
            elem = real(sp)
            if sp != lam:
                return elem
            lead = elem.Q[dominant_exponent(sp)]
            Q = edit(elem.Q, lead)
            poly = XPolynomial(sp.N, {e: QTScalar(v, lead)
                                      for e, v in Q.items()})
            return PBasisElement(lam=sp, poly=poly, c_lam=elem.c_lam, Q=Q,
                                 c=elem.c)
        monkeypatch.setattr(evalsym, "bisym_P", patched)

    @pytest.mark.parametrize("sign", ["minus", "plus"])
    def test_extra_monomial_fails(self, monkeypatch, sign):
        c = SuperPartition((2, 0), (1,), 4)
        d = SuperPartition((1, 0), (2,), 4)
        assert symmetry_check(c, d, sign)
        # P + x^(1,0,2,0) is Q + lead x^(1,0,2,0) over the same c
        e = (1, 0, 2, 0)
        self._patch_P(monkeypatch, c, lambda Q, lead: {
            **Q, e: Q.get(e, QTPoly.zero()) + lead})
        assert not symmetry_check(c, d, sign)
        assert not symmetry_check(d, c, sign)

    @pytest.mark.parametrize("sign", ["minus", "plus"])
    def test_vanishing_staircase_norm_raises(self, monkeypatch, sign):
        # P_Lambda minus its own staircase value vanishes there: on Q,
        # q^a t^b (Q - Q(staircase)), the shift clearing the value's
        # negative exponents
        c = SuperPartition((2, 0), (1,), 4)
        d = SuperPartition((1, 0), (2,), 4)
        nought = eval_point(lambda_naught(2, 4), sign)

        def minus_own_value(Q, lead):
            value = _laurent_at(Q, nought)
            a = max(0, -min(x for x, _ in value))
            b = max(0, -min(y for _, y in value))
            out = {e: v.mul_term(a, b) for e, v in Q.items()}
            one = (0,) * 4
            out[one] = out.get(one, QTPoly.zero()) - QTPoly(
                {(x + a, y + b): v for (x, y), v in value.items()})
            return {e: v for e, v in out.items() if v}
        self._patch_P(monkeypatch, c, minus_own_value)
        for pair in ((c, d), (d, c)):
            with pytest.raises(DegenerateEvaluationError,
                               match="staircase evaluation vanished"):
                symmetry_check(*pair, sign)

    def test_mismatched_inputs(self):
        with pytest.raises(ValueError):
            symmetry_check(SuperPartition((1,), (), 3),
                           SuperPartition((1, 0), (), 3), "minus")

    def test_permutation_freedom(self):
        # any superevaluation permutation gives the same evaluation of a
        # bisymmetric input
        from reference import is_superevaluation
        from bimac.xpoly import specialize
        from itertools import permutations
        lam = SuperPartition((2, 0), (1, 1), 4)
        f = bisym_P(lam).poly
        base = evaluate(lam, "plus", f)
        count = 0
        for sigma in permutations(range(1, 5)):
            if not is_superevaluation(lam, sigma):
                continue
            count += 1
            circ = lam.circled()
            coords = tuple((circ[sigma[i] - 1], 1 - sigma[i])
                           for i in range(4))
            assert specialize(f, coords) == base
        assert count >= 2
