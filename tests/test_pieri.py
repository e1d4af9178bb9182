import hashlib
import json
from fractions import Fraction
from itertools import combinations

import pytest

from bimac import hecke, macdonald, verify
from bimac import pieri as pierimod
from bimac import qt as qtmod
from bimac.errors import ConsistencyError, DegenerateEvaluationError
from bimac.evalsym import _eval_factors, eval_formula
from bimac.pieri import (_OP_SEED, SigmaSets, _C_into, _D_into,
                         _coset_reps, _delta_t_factors, _generic_point,
                         _interval, _left_side, _product, _rhs_at, coeff_C,
                         coeff_D, expansions_equal, op_identity_check,
                         pieri_bruteforce, pieri_expand)
from bimac.qt import (QTPoly, QTScalar, _Factored, _add_product,
                      _laurent_scalar, qt_monomial)
from bimac.sparts import (SuperPartition, enumerate_strips, eval_point,
                          format_spart, parse_spart, perm_inverse,
                          superpartitions)
from bimac.xpoly import (XPolynomial, _integral_form, _laurent_at,
                         elementary_symmetric, specialize)
from reference import phi_at, vandermonde

ONE = QTScalar.one()
ONE_F = Fraction(1)
UNIT = {(0, 0): 1}
Q = qt_monomial(1, 0)
T = qt_monomial(0, 1)


def qt(a, b):
    return qt_monomial(a, b)


def terms_by_spart(terms):
    return {format_spart(t.omega): t.coeff for t in terms}


class TestSigmaSets:
    def test_identity_like(self):
        ss = SigmaSets.from_sigma((1, 2, 3, 4), 2)
        assert ss.a_comp == frozenset() and ss.b_comp == frozenset()
        assert ss.s == 0 and ss.z_sigma == 0 and ss.d_sigma == 0

    def test_full_swap(self):
        ss = SigmaSets.from_sigma((3, 4, 1, 2), 2)
        assert ss.a_comp == frozenset({1, 2})
        assert ss.b_comp == frozenset({3, 4})
        assert ss.s == 2 and ss.d_sigma == 1


class TestPhi:
    def test_block_permutation_is_one(self):
        point = eval_point(SuperPartition((2, 0), (1,), 4), "plus")
        assert phi_at((1, 2, 4, 3), 2, point).is_one()

    def test_full_block_swap_sign(self):
        # the worked four-variable coefficient has Phi with a leading sign
        lam = SuperPartition((2, 0), (1,), 5)
        point = eval_point(lam, "plus")
        sigma = (3, 4, 1, 2, 5)
        ss = SigmaSets.from_sigma(sigma, 2)
        assert ss.d_sigma % 2 == 1

    def test_coset_sign_rule(self):
        lam = SuperPartition((2, 0), (1,), 5)
        point = eval_point(lam, "plus")
        sigma = (3, 4, 1, 2, 5)
        swapped = (4, 3, 1, 2, 5)   # right factor transposing the block
        assert phi_at(swapped, 2, point) == -phi_at(sigma, 2, point)

    def test_alternative_form(self):
        # the quotient-of-Vandermondes form agrees factor by factor
        import random
        rng = random.Random(11)
        m, N = 2, 4
        for sigma in [(3, 4, 1, 2), (1, 3, 2, 4), (3, 1, 4, 2), (2, 4, 1, 3)]:
            ss = SigmaSets.from_sigma(sigma, m)
            for _ in range(3):
                coords = tuple((rng.randint(0, 25), rng.randint(0, 25))
                               for _ in range(N))
                if len({b for _, b in coords}) < N or \
                        len({a for a, _ in coords}) < N:
                    continue
                def xv(i):
                    return qt_monomial(*coords[i - 1])
                lhs = phi_at(sigma, m, coords)
                rhs = ONE
                for j in sorted(ss.b_comp):
                    rhs = rhs * (T - ONE) * xv(j)
                img = sorted(sigma[i] for i in range(m))
                num = ONE
                for i in sorted(ss.b_comp):
                    for j in img:
                        if i != j:
                            num = num * (xv(i) - xv(j))
                den = ONE
                for i in sorted(ss.a_comp):
                    for j in img:
                        den = den * (xv(i) - xv(j))
                delta = ONE
                for a, b in combinations(range(1, m + 1), 2):
                    delta = delta * (xv(a) - xv(b))
                kdelta = ONE
                for a, b in combinations(img, 2):
                    kdelta = kdelta * (xv(a) - xv(b))
                z = ss.z_sigma
                rhs = rhs * num / den * delta / \
                    (kdelta if z % 2 == 0 else -kdelta)
                assert lhs == rhs


class TestCoefficients:
    def test_coeff_C_requires_type(self):
        lam = SuperPartition((2, 0), (1,), 5)
        cert = enumerate_strips(lam, 2, "II")[0]
        with pytest.raises(ValueError):
            coeff_C(lam, cert)

    def test_coset_invariance(self):
        lam = SuperPartition((2, 0), (1,), 5)
        point = eval_point(lam, "plus")
        for cert in enumerate_strips(lam, 2, "I"):
            base = coeff_C(lam, cert)
            sigma = cert.sigma
            # right-multiply by the transposition of the first block
            swapped = (sigma[1], sigma[0]) + sigma[2:]
            again = _product(_C_into, lam.m, cert.r, cert.J, cert.L,
                             swapped, point).expand()
            assert base == again
            # and by a transposition inside the second block
            swapped2 = sigma[:2] + (sigma[3], sigma[2]) + sigma[4:]
            assert base == _product(_C_into, lam.m, cert.r, cert.J, cert.L,
                                    swapped2, point).expand()

    def test_coeff_D(self):
        # pieri_expand's lower coefficient is coeff_D times the
        # normalization u^+(P_Lambda) q^r / (Delta_t(u^+) u^+(P_Omega))
        lam = SuperPartition((2, 0), (1,), 5)
        with pytest.raises(ValueError, match="type-II"):
            coeff_D(lam, enumerate_strips(lam, 1, "I")[0])
        delta = _delta_t_factors(lam.m, eval_point(lam, "plus")).expand()
        expanded = nonzero = 0
        for r in (1, 2):
            got = {t.certificate: t.coeff
                   for t in pieri_expand(lam, r, "lower")}
            expanded += len(got)
            for cert in enumerate_strips(lam, r, "II"):
                want = coeff_D(lam, cert) * eval_formula(lam, "plus") * \
                    qt(r, 0) / delta / eval_formula(cert.omg, "plus")
                assert got.get(cert, QTScalar.zero()) == want, (r, cert.omg)
                nonzero += not want.is_zero()
        assert nonzero == expanded
        assert nonzero

    def test_delta_t_nonvanishing(self):
        for m in (1, 2):
            for d in range(3):
                for sp in superpartitions(d, m, 4):
                    assert not _delta_t_factors(
                        sp.m, eval_point(sp, "plus")).is_zero()


class TestKnownTables:
    def test_upper_table(self):
        lam = SuperPartition((2, 0), (1,), 5)
        got = terms_by_spart(pieri_expand(lam, 2, "upper"))
        expected = {
            "1,0;3,1": Q * (ONE - T) / (ONE - Q * T),
            "2,0;2,1": (ONE - Q) * (ONE - qt(1, 2)) /
                       ((ONE - Q * T) * (ONE - Q * T)),
            "2,1;1,1": -(T + ONE) * (ONE - T) * (ONE - Q) * (ONE - qt(2, 4)) /
                       ((ONE - qt(2, 3)) * (ONE - Q * T) * (ONE - qt(1, 2))),
            "2,0;1,1,1": (ONE - Q * T) * (ONE - qt(0, 3)) /
                         ((ONE - T) * (ONE - qt(1, 3))),
        }
        assert got == expected

    def test_lower_table(self):
        lam = SuperPartition((2, 0), (1,), 5)
        got = terms_by_spart(pieri_expand(lam, 2, "lower"))
        expected = {
            "3,1;1": ONE,
            "3,0;1,1": -Q * (ONE + T) * (ONE - T) / (ONE - qt(1, 2)),
            "1,0;3,1": qt(3, 0) * (ONE - T) * (ONE - qt(2, 3)) * (ONE - Q * T) /
                       ((ONE - Q * T) * (ONE - qt(3, 3)) * (ONE - qt(2, 1))),
        }
        assert got == expected

    def test_tables_stable_at_N6(self):
        lam5 = SuperPartition((2, 0), (1,), 5)
        lam6 = SuperPartition((2, 0), (1,), 6)
        for variant in ("upper", "lower"):
            five = terms_by_spart(pieri_expand(lam5, 2, variant))
            six = terms_by_spart(pieri_expand(lam6, 2, variant))
            assert five == six

    def test_brute_force_agrees_at_N5(self):
        lam = SuperPartition((2, 0), (1,), 5)
        for variant in ("upper", "lower"):
            assert expansions_equal(pieri_expand(lam, 2, variant),
                                    pieri_bruteforce(lam, 2, variant))


class TestExpansionEngine:
    def test_out_of_range(self):
        lam = SuperPartition((2, 0), (1,), 5)
        assert pieri_expand(lam, 9, "upper") == []
        assert pieri_expand(lam, 3, "lower") == []

    def test_e0_convention(self):
        # e_0 = 1: the engine returns P_Lambda by convention, the oracle
        # by peeling e_0 P_Lambda
        shapes = [lam for m in range(4) for d in range(4)
                  for lam in superpartitions(d, m, 4)]
        for lam in shapes:
            for variant in ("upper", "lower"):
                for engine in (pieri_bruteforce, pieri_expand):
                    res = engine(lam, 0, variant)
                    assert len(res) == 1 and res[0].omega == lam \
                        and res[0].coeff.is_one(), \
                        (engine.__name__, format_spart(lam), variant)

    def test_small_sweep(self):
        for m in (1, 2):
            for d in range(0, 3):
                for sp in superpartitions(d, m, 4):
                    for r in (1, 2):
                        for variant in ("upper", "lower"):
                            width = 4 - m if variant == "upper" else m
                            if r > width:
                                continue
                            assert expansions_equal(
                                pieri_expand(sp, r, variant),
                                pieri_bruteforce(sp, r, variant)), \
                                (format_spart(sp), r, variant)


# each entry point of a Pieri expansion, called with the variant given
E1_BLOCKS = elementary_symmetric(1, (1, 2), 4) * \
    elementary_symmetric(1, (3, 4), 4)
ONE_PLUS_Q = QTPoly({(0, 0): 1, (1, 0): 1})
ENTRY_POINTS = {
    "pieri_expand": lambda variant: pieri_expand(
        SuperPartition((1, 0), (), 4), 1, variant),
    "pieri_bruteforce": lambda variant: pieri_bruteforce(
        SuperPartition((1, 0), (), 4), 1, variant),
    "op_identity_check": lambda variant: op_identity_check(
        2, 1, E1_BLOCKS, variant),
}


class TestArguments:
    @pytest.mark.parametrize("entry", ENTRY_POINTS.values(),
                             ids=ENTRY_POINTS)
    def test_unknown_variant_raises(self, entry):
        with pytest.raises(ValueError, match="unknown variant 'bogus'"):
            entry("bogus")

    @pytest.mark.parametrize("variant", ["upper", "lower"])
    @pytest.mark.parametrize("spart", ["1,0;", "2,0;1", "1;1", "0;2,1", ";1"])
    def test_formula_and_oracle_agree_on_every_r(self, spart, variant):
        # e_r is undefined below r = 0 for both; above the interval's
        # width both give the empty expansion
        lam = parse_spart(spart, 4)
        width = lam.N - lam.m if variant == "upper" else lam.m
        for r in range(-1, width + 2):
            if r < 0:
                for engine in (pieri_expand, pieri_bruteforce):
                    with pytest.raises(ValueError, match="nonnegative"):
                        engine(lam, r, variant)
            else:
                assert expansions_equal(pieri_expand(lam, r, variant),
                                        pieri_bruteforce(lam, r, variant)), r


class TestVanishing:
    def test_vanishing_outside_superevaluations(self):
        # u+ of the type-I coefficient vanishes whenever the reordered
        # target fails to generate a superevaluation
        from bimac.sparts import minimal_sorting_permutation
        from reference import is_superevaluation, perm_act, perm_compose
        lam = SuperPartition((2, 0), (1,), 4)
        m, N = lam.m, lam.N
        w = minimal_sorting_permutation(lam)
        point = eval_point(lam, "plus")
        comp_plus = tuple(x + 1 for x in lam.anti) + lam.sym
        seen = {}
        for r in (1, 2):
            for J in combinations(range(m + 1, N + 1), r):
                Jset = frozenset(J)
                L = frozenset(range(m + 1, N + 1)) - Jset
                for img in combinations(sorted(set(range(1, N + 1)) - L), m):
                    sigma = tuple(list(img) +
                                  [i for i in range(1, N + 1)
                                   if i not in img])
                    target = tuple(v + (1 if i + 1 in Jset else 0)
                                   for i, v in enumerate(comp_plus))
                    raw = perm_act(perm_inverse(sigma), target)
                    # biorder within blocks via a coset member
                    order = sorted(range(m), key=lambda p: (-raw[p], p))
                    order += sorted(range(m, N), key=lambda p: (-raw[p], p))
                    s = tuple(p + 1 for p in order)
                    sigma_adj = perm_compose(sigma, s)
                    biordered = perm_act(perm_inverse(s), raw)
                    anti = tuple(v - 1 for v in biordered[:m])
                    try:
                        omg = SuperPartition(anti, biordered[m:], N)
                        ok = is_superevaluation(omg, perm_compose(w, sigma_adj))
                    except ValueError:
                        omg = None
                        ok = False
                    val = _product(_C_into, m, r, Jset, L, sigma_adj,
                                   point).expand()
                    if not ok:
                        assert val.is_zero(), (J, sigma)
                    elif not val.is_zero():
                        key = (omg.anti, omg.sym)
                        # each surviving shape arises from one (J, coset)
                        assert key not in seen or seen[key] == (Jset, img), \
                            (key, seen[key], (Jset, img))
                        seen[key] = (Jset, img)
        assert seen  # some terms survive


class TestDegenerateEvaluation:
    """At a point with two equal coordinates the C/D assembly raises at
    its vanishing denominator X_i - X_j, unless a numerator t X_i - X_j
    checked before it vanishes first; then the coefficient is zero."""

    C_ARGS = (2, 1, frozenset({3}), frozenset({4}), (1, 3, 2, 4))
    D_ARGS = (2, 1, frozenset({1}), (1, 2, 3, 4))

    @pytest.mark.parametrize("coords, where", [
        # J x L outer product: X_3 = X_4
        (((0, 0), (3, 7), (5, 0), (5, 0)), "X_3 - X_4"),
        # inner product, shifted by J: q X_3 = X_1
        (((6, 0), (6, 2), (5, 0), (9, 9)), "X_3 - X_1"),
        # Phi, after an inner numerator t q X_3 - X_1 vanished
        (((6, 1), (6, 0), (5, 0), (9, 9)), "X_2 - X_3 in Phi"),
    ])
    def test_C_raises(self, coords, where):
        with pytest.raises(DegenerateEvaluationError, match=where):
            _product(_C_into, *self.C_ARGS, coords).expand()

    @pytest.mark.parametrize("coords, where", [
        # J x [m+1, N] outer product: X_1 = X_4
        (((0, 0), (3, 7), (5, 0), (0, 0)), "X_1 - X_4"),
        # inner product, shifted by J: q X_1 = X_2
        (((0, 0), (1, 0), (0, 2), (9, 9)), "X_1 - X_2"),
    ])
    def test_D_raises(self, coords, where):
        with pytest.raises(DegenerateEvaluationError, match=where):
            _product(_D_into, *self.D_ARGS, coords).expand()

    def test_C_vanishing_block_factor_comes_first(self):
        # t X_1 = X_2 empties the block product, so the inner pair with
        # q X_3 = X_1 is never divided by
        point = ((6, 0), (6, 1), (5, 0), (9, 9))
        assert _product(_C_into, *self.C_ARGS, point).expand().is_zero()

    @pytest.mark.parametrize("into, args, coords, where", [
        # t X_1 = X_2 empties the block product; J x L still checks
        # X_3 = X_4
        ("_C_into", C_ARGS, ((6, 0), (6, 1), (5, 0), (5, 0)),
         "X_3 - X_4"),
        # t X_1 = X_2 empties the block product; J x [m+1, N] still
        # checks X_1 = X_3
        ("_D_into", D_ARGS, ((0, 0), (0, 1), (0, 0), (9, 9)),
         "X_1 - X_3"),
        # D checks Phi before its inner product, whose numerator
        # t q X_3 - X_1 vanishes here
        ("_D_into", (2, 1, frozenset({3}), (1, 3, 2, 4)),
         ((6, 1), (5, 0), (5, 0), (9, 9)), "X_2 - X_3 in Phi"),
    ], ids=["C-outer", "D-outer", "D-Phi-before-inner"])
    def test_checked_after_a_vanishing_product(self, into, args, coords,
                                               where):
        with pytest.raises(DegenerateEvaluationError, match=where):
            _product(getattr(pierimod, into), *args, coords)

    @pytest.mark.parametrize("x4", [(9, 9), (0, 0)])
    def test_D_vanishing_outer_factor_comes_first(self, x4):
        # t X_1 = X_3 empties the outer product before its pair (1, 4)
        # (X_1 = X_4 when x4 = (0, 0)) and the inner pair q X_1 = X_2
        point = ((0, 0), (1, 0), (0, 1), x4)
        assert _product(_D_into, *self.D_ARGS, point).expand().is_zero()


def pieri_sweep(N=5, max_deg=4):
    """{(Lambda, r, variant): pieri_expand} over |Lambda*| <= max_deg,
    every m, both variants and every r, and the (Omega, "plus") keys of
    every strip it met, Lambda's own included."""
    expansions, keys = {}, set()
    for m in range(N + 1):
        for d in range(max_deg + 1):
            for sp in superpartitions(d, m, N):
                keys.add((sp, "plus"))
                for variant, strip_type in (("upper", "I"), ("lower", "II")):
                    width = N - m if variant == "upper" else m
                    for r in range(width + 1):
                        expansions[sp, r, variant] = \
                            pieri_expand(sp, r, variant)
                        keys.update((c.omg, "plus") for c in
                                    enumerate_strips(sp, r, strip_type))
    return expansions, keys


class TestEvalMemo:
    """The staircase evaluations, the expansions of factored values, the
    pair ratios (t X_i - X_j)/(X_i - X_j) and the sigma data are
    memoized; a memoized value is shared by every caller, so none may
    change it in place."""

    MEMOS = (_eval_factors, qtmod._expand, pierimod._ratio,
             SigmaSets.from_sigma)

    def test_memo_is_bounded(self):
        for memo in self.MEMOS:
            assert isinstance(memo.cache_info().maxsize, int)

    def test_memoized_values_equal_fresh_ones(self):
        _eval_factors.cache_clear()
        _, keys = pieri_sweep()
        size = _eval_factors.cache_info().currsize
        assert 0 < size < _eval_factors.cache_info().maxsize  # none evicted
        checked = 0
        for key in keys:
            hits = _eval_factors.cache_info().hits
            held = _eval_factors(*key)
            if _eval_factors.cache_info().hits == hits:
                continue
            fresh = _eval_factors.__wrapped__(*key)
            assert (held.sign, held.a, held.b, held.phi) == \
                (fresh.sign, fresh.a, fresh.b, fresh.phi), key
            checked += 1
        assert checked == size

    def test_memoized_ratios_and_sigma_sets_equal_fresh_ones(self,
                                                            monkeypatch):
        # every key the sweep met is held, and each held value equals
        # the one computed afresh: the ratio the two binomials' quotient
        ratio, sigma_sets = pierimod._ratio, SigmaSets.from_sigma
        ratio.cache_clear()
        sigma_sets.cache_clear()
        met = {ratio: set(), sigma_sets: set()}
        monkeypatch.setattr(pierimod, "_ratio",
                            lambda *k: met[ratio].add(k) or ratio(*k))
        monkeypatch.setattr(SigmaSets, "from_sigma", staticmethod(
            lambda *k: met[sigma_sets].add(k) or sigma_sets(*k)))
        pieri_sweep()
        for memo, keys in met.items():
            info = memo.cache_info()
            assert 0 < info.currsize == len(keys) < info.maxsize
            for key in keys:
                held = memo(*key)
                assert memo.cache_info().hits == info.hits + 1, key
                info = memo.cache_info()
                fresh = memo.__wrapped__(*key)
                if memo is sigma_sets:
                    assert held == fresh, key
                else:
                    assert (held.sign, held.a, held.b, held.phi) == \
                        (fresh.sign, fresh.a, fresh.b, fresh.phi), key
        for ai, bi, aj, bj in met[ratio]:
            assert ratio(ai, bi, aj, bj).expand() == \
                (qt(ai, bi + 1) - qt(aj, bj)) / (qt(ai, bi) - qt(aj, bj))

    def test_cold_and_warm_expansions_agree(self):
        for memo in self.MEMOS:
            memo.cache_clear()
        cold, _ = pieri_sweep()
        misses = [memo.cache_info().misses for memo in self.MEMOS]
        warm, _ = pieri_sweep()
        # the warm sweep is served from every memo, none evicted
        assert [memo.cache_info().misses for memo in self.MEMOS] == misses
        assert all(memo.cache_info().hits for memo in self.MEMOS)
        assert cold.keys() == warm.keys()
        for key, terms in cold.items():
            assert [(t.omega, t.certificate, t.coeff) for t in terms] == \
                [(t.omega, t.certificate, t.coeff) for t in warm[key]], key


def test_coefficients_n56_digest():
    # every term of every pieri_sweep expansion at N = 5 (|Lambda*| <= 4)
    # and N = 6 (|Lambda*| <= 3), in order: pins each coefficient's
    # canonical num and den rows, which the golden sets see only on
    # their own shapes
    h = hashlib.sha256()
    for N, max_deg in ((5, 4), (6, 3)):
        expansions, _ = pieri_sweep(N, max_deg)
        for (lam, r, variant), terms in expansions.items():
            for t in terms:
                h.update(json.dumps([lam.anti, lam.sym, lam.N, r, variant,
                                     t.omega.anti, t.omega.sym,
                                     t.coeff.to_json()]).encode())
                h.update(b"\n")
    assert h.hexdigest() == COEFFICIENTS_N56_SHA256


# sha256 of test_coefficients_n56_digest's records as the coefficients
# stood before each was built from one factor list
COEFFICIENTS_N56_SHA256 = (
    "fdf0cf037613ba1873444c2e72b9063163e92fa93c46179f32e5a946e566533e")


class TestOperatorIdentity:
    def test_upper(self):
        f = elementary_symmetric(1, (2, 3), 3)
        assert op_identity_check(1, 1, f, "upper")
        g = elementary_symmetric(1, (1, 2), 4) * \
            elementary_symmetric(1, (3, 4), 4)
        assert op_identity_check(2, 1, g, "upper")
        assert op_identity_check(2, 2, g, "upper")
        # both sides vanish: the right side sums to zero at every point
        assert op_identity_check(1, 1, XPolynomial.zero(3), "upper")

    def test_lower(self):
        assert op_identity_check(1, 1, XPolynomial.one(3), "lower")
        g = elementary_symmetric(1, (1, 2), 4) * \
            elementary_symmetric(1, (3, 4), 4)
        assert op_identity_check(2, 1, g, "lower")
        assert op_identity_check(2, 2, g, "lower")
        assert op_identity_check(1, 1, XPolynomial.zero(3), "lower")

    @pytest.mark.parametrize("variant", ["upper", "lower"])
    def test_above_the_width_both_sides_vanish(self, variant):
        # e_3 of two operators is 0, as the expansion engines read e_r
        # above the interval's width
        assert op_identity_check(2, 3, E1_BLOCKS, variant) is True

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            op_identity_check(1, 1, XPolynomial.variable(2, 3), "upper")

    @pytest.mark.parametrize("variant, name", [("upper", "_C_into"),
                                               ("lower", "_D_into")])
    def test_wrong_coefficients_fail(self, monkeypatch, variant, name):
        # every coefficient times t: the right side no longer matches
        real = getattr(pierimod, name)

        def into(num, den, *args):
            num.append(_Factored.monomial(0, 1))
            return real(num, den, *args)
        monkeypatch.setattr(pierimod, name, into)
        assert op_identity_check(2, 1, E1_BLOCKS, variant) is False

    @pytest.mark.parametrize("variant, name", [("upper", "_C_into"),
                                               ("lower", "_D_into")])
    def test_right_side_off_the_laurent_ring_fails(self, monkeypatch,
                                                   variant, name):
        # every coefficient over 1 - q t: D carries that factor once
        # more than the sum needs, and the check drawing only this
        # point fails
        real = getattr(pierimod, name)

        def into(num, den, *args):
            den.append(_Factored.binomial(0, 0, 1, 1))
            return real(num, den, *args)
        monkeypatch.setattr(pierimod, name, into)
        point = _generic_point(4, _OP_SEED + 1)
        monkeypatch.setattr(pierimod, "_generic_point", lambda N, seed: point)
        assert op_identity_check(2, 1, E1_BLOCKS, variant) is False

    @pytest.mark.parametrize("variant", ["upper", "lower"])
    def test_wrong_left_side_fails(self, monkeypatch, variant):
        # e_r(Y) times 1 + q: the left side no longer matches
        real = hecke._e_of_Y
        monkeypatch.setattr(hecke, "_e_of_Y", lambda *args: {
            e: c * ONE_PLUS_Q for e, c in real(*args).items()})
        assert op_identity_check(2, 1, E1_BLOCKS, variant) is False

    @pytest.mark.parametrize("variant", ["upper", "lower"])
    def test_left_side_off_by_t_fails(self, monkeypatch, variant):
        # e_r(Y) times t: the left side enters the sum times
        # t^(-r(N-1)), and a power of t off by one no longer matches
        real = hecke._e_of_Y
        monkeypatch.setattr(hecke, "_e_of_Y", lambda *args: {
            e: c.mul_term(0, 1) for e, c in real(*args).items()})
        assert op_identity_check(2, 1, E1_BLOCKS, variant) is False

    @pytest.mark.parametrize("variant", ["upper", "lower"])
    @pytest.mark.parametrize("f_by", [1, Fraction(1, 3)])
    def test_left_side_off_by_a_constant_fails(self, monkeypatch, variant,
                                               f_by):
        # e_r(Y) times 3, on f and on f / 3, whose integral form is the
        # same: the two sides are compared as they stand, not up to a
        # constant
        real = hecke._e_of_Y
        monkeypatch.setattr(hecke, "_e_of_Y", lambda *args: {
            e: c.mul_term(0, 0, 3) for e, c in real(*args).items()})
        f = E1_BLOCKS.scale(QTScalar.from_fraction(Fraction(f_by)))
        assert op_identity_check(2, 1, f, variant) is False

    def test_degenerate_point_is_skipped(self, monkeypatch):
        # a first point with X_1 = X_2 is replaced by the next seed
        seeds = []

        def point(N, seed):
            seeds.append(seed)
            coords = _generic_point(N, seed)
            return coords if len(seeds) > 1 else \
                (coords[0], coords[0]) + coords[2:]
        monkeypatch.setattr(pierimod, "_generic_point", point)
        for variant in ("upper", "lower"):
            seeds.clear()
            assert op_identity_check(2, 1, E1_BLOCKS, variant) is True
            assert seeds == [_OP_SEED + k for k in range(1, 5)]

    def test_no_generic_point_raises(self, monkeypatch):
        seeds = []
        monkeypatch.setattr(pierimod, "_generic_point",
                            lambda N, seed: seeds.append(seed) or
                            ((0, 0),) * N)
        with pytest.raises(ConsistencyError, match="enough generic points"):
            op_identity_check(2, 1, E1_BLOCKS, "upper")
        assert len(seeds) == 20 * pierimod._OP_POINTS


def _rhs_per_coefficient(m, r, f, variant, point):
    """The reference route for ``_rhs_at``: each coefficient expanded to
    a QTScalar, times f's value summed term by term, and the products
    added one QTScalar at a time."""
    N = f.nvars
    lo = m + 1 if variant == "upper" else 1
    total = QTScalar.zero()
    for J in combinations(range(lo, N + 1), r):
        Jset = frozenset(J)
        L = frozenset(range(m + 1, N + 1)) - Jset
        for sigma in _coset_reps(m, N, frozenset(range(1, N + 1)) - L):
            if variant == "upper":
                c = _product(_C_into, m, r, Jset, L, sigma, point).expand()
            elif Jset <= set(sigma[:m]):
                c = _product(_D_into, m, r, Jset, sigma, point).expand()
            else:
                continue
            coords = [(point[s - 1][0] + (s in Jset), point[s - 1][1])
                      for s in sigma]
            value = QTScalar.zero()
            for e, v in f.terms.items():
                a = sum(k * da for k, (da, _) in zip(e, coords))
                b = sum(k * db for k, (_, db) in zip(e, coords))
                value = value + v.mul_monomial(a, b)
            total = total + c * value
    return total


# every (N, m, r, variant) of the operator identity at N = 3, 4
RHS_CASES = [(N, m, r, variant) for N in (3, 4) for m in range(1, N)
             for variant in ("upper", "lower")
             for r in range(1, (N - m if variant == "upper" else m) + 1)]


def _rhs_value(m, r, f, variant, point):
    """The sum of ``_rhs_at``'s terms on f's integral form c F / den, each
    coefficient expanded and times its value, added one QTScalar at a
    time, and times c / den."""
    c, den, F = _integral_form(f)
    total = QTScalar.zero()
    for coeff, value in zip(*_rhs_at(m, r, F, variant, point)):
        total = total + coeff.expand() * _laurent_scalar(ONE_F, value, UNIT)
    return total * _laurent_scalar(c, UNIT, den.terms)


def _raise(*args):
    raise AssertionError("poly_gcd was called")


def test_oracle_makes_no_gcd_call(monkeypatch):
    # e_r Q_Lambda is formed and peeled on integers over factored
    # denominators, and each P the oracle builds divides by its certified
    # c: over suite_pieri(4, 3)'s cases, cold, no gcd is called
    cases = [(sp, r, variant) for sp in verify._sparts_upto(4, 3)
             for r in (1, 2) for variant in ("upper", "lower")
             if r <= (4 - sp.m if variant == "upper" else sp.m)]
    assert len(cases) == 74
    monkeypatch.setattr(macdonald, "_K_CACHE", {})
    monkeypatch.setattr(macdonald, "_P_CACHE", {})
    monkeypatch.setattr(qtmod, "poly_gcd", _raise)
    for case in cases:
        assert pierimod.pieri_bruteforce(*case), case


class TestRhsCommonDenominator:
    """``_rhs_at`` sums over one common denominator; the reference adds
    the expanded coefficients one QTScalar at a time."""

    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("N, m, r, variant", RHS_CASES)
    def test_matches_per_coefficient_sum(self, N, m, r, variant, k):
        f = elementary_symmetric(1, (1, m), N) * \
            elementary_symmetric(1, (m + 1, N), N)
        point = _generic_point(N, _OP_SEED + k)
        assert _rhs_value(m, r, f, variant, point) == \
            _rhs_per_coefficient(m, r, f, variant, point)

    def test_case_count(self):
        assert len(RHS_CASES) * 3 == 54

    @staticmethod
    def _rational_inputs(N, m):
        """A bisymmetric f with three distinct denominators, whose sum
        over D is a Laurent polynomial, and a non-bisymmetric one with
        two, whose sum is not, so that the identity fails."""
        return [(3, elementary_symmetric(1, (1, m), N).scale(
                    QTScalar.from_fraction(Fraction(1, 3)) / (ONE - Q * T)) +
                 elementary_symmetric(1, (m + 1, N), N).scale(
                     T / (ONE - Q * Q)) +
                 XPolynomial.one(N).scale(ONE / (ONE - Q))),
                (2, XPolynomial.monomial((1,) + (0,) * (N - 2) + (2,),
                                         ONE / (ONE - Q)) +
                 XPolynomial.variable(2, N).scale(T))]

    def test_gcd_calls_do_not_grow_with_terms(self, monkeypatch):
        # the right side makes no poly_gcd call on f's integral form
        # however many (J, sigma) terms its sum has, and the whole check
        # at most one per distinct denominator of f after the first, the
        # lcm, formed once, though its first point is degenerate and
        # replaced; both certificates are checked against the reference
        # at N = 3, where that route is quick
        real = qtmod.poly_gcd
        for N, m, r, variant in RHS_CASES:
            point = _generic_point(N, _OP_SEED + 1)
            for k, f in self._rational_inputs(N, m):
                F = _integral_form(f)[2]
                monkeypatch.setattr(qtmod, "poly_gcd", _raise)
                _rhs_at(m, r, F, variant, point)
                monkeypatch.setattr(qtmod, "poly_gcd", real)
                if N == 3:
                    assert _rhs_value(m, r, f, variant, point) == \
                        _rhs_per_coefficient(m, r, f, variant, point)
            (k, f), _ = self._rational_inputs(N, m)
            calls, seeds = [], []

            def degenerate_first(N, seed):
                seeds.append(seed)
                coords = _generic_point(N, seed)
                return coords if len(seeds) > 1 else (coords[0],) * N
            monkeypatch.setattr(qtmod, "poly_gcd",
                                lambda f, g: calls.append(1) or real(f, g))
            monkeypatch.setattr(pierimod, "_generic_point", degenerate_first)
            assert op_identity_check(m, r, f, variant) is True
            monkeypatch.undo()
            assert len(seeds) == pierimod._OP_POINTS + 1
            assert len(calls) <= k - 1, (N, m, r, variant, k)

    @pytest.mark.parametrize("N, m, r, variant", RHS_CASES)
    def test_identity_holds_on_rational_input(self, N, m, r, variant):
        # f has rational content 1/3 and denominators that are no
        # monomial; both sides are taken on its integral form, and the
        # content and common denominator cancel
        (_, f), _ = self._rational_inputs(N, m)
        assert op_identity_check(m, r, f, variant) is True

    def test_integral_input_makes_no_gcd_call(self, monkeypatch):
        monkeypatch.setattr(qtmod, "poly_gcd", _raise)
        for N, m, r, variant in RHS_CASES:
            f = elementary_symmetric(1, (1, m), N) * \
                elementary_symmetric(1, (m + 1, N), N)
            assert op_identity_check(m, r, f, variant) is True

    @pytest.mark.parametrize("N, m, r, variant", RHS_CASES)
    def test_left_side_matches_the_rational_route(self, N, m, r, variant):
        # G = t^(r(N-1)) e_r(Y) Delta_m^t F on Z[q,t], F f's integral form
        # c F / den, against apply_e_of_Y on the Q(q,t) product, both at
        # each drawn point
        interval = _interval(r, variant, m, N)
        delta_t = vandermonde("t_deformed", range(1, m + 1), N)
        for _, f in self._rational_inputs(N, m):
            for g in (f, f.scale(ONE + Q)):
                c, den, F = _integral_form(g)
                G = _left_side(m, r, interval, F)
                # g = c F / den, and G carries t^(r(N-1))
                den_t = _add_product({}, den.terms, {(0, r * (N - 1)): 1})
                want = hecke.apply_e_of_Y(r, interval, delta_t * g)
                for k in range(1, pierimod._OP_POINTS + 1):
                    point = _generic_point(N, _OP_SEED + k)
                    assert _laurent_scalar(c, _laurent_at(G, point),
                                           den_t) == specialize(want, point)


class TestClassicalLimit:
    def test_fermionic_degree_zero_pieri(self):
        # with no fermionic rows the machinery degenerates to the
        # classical elementary-symmetric Pieri rule, strips and all
        for d in range(0, 3):
            for sp in superpartitions(d, 0, 3):
                for r in (1, 2, 3):
                    assert expansions_equal(
                        pieri_expand(sp, r, "upper"),
                        pieri_bruteforce(sp, r, "upper"))


class TestVanishingLower:
    def test_vanishing_outside_superevaluations_lower(self):
        # the type-II coefficient vanishes in the same circumstances
        from bimac.sparts import minimal_sorting_permutation
        from reference import is_superevaluation, perm_act, perm_compose
        lam = SuperPartition((2, 0), (1,), 4)
        m, N = lam.m, lam.N
        w = minimal_sorting_permutation(lam)
        point = eval_point(lam, "plus")
        comp_plus = tuple(x + 1 for x in lam.anti) + lam.sym
        survivors = {}
        for r in (1, 2):
            for J in combinations(range(1, N + 1), r):
                Jset = frozenset(J)
                L = frozenset(range(m + 1, N + 1)) - Jset
                for img in combinations(sorted(set(range(1, N + 1)) - L), m):
                    if not Jset <= set(img):
                        continue
                    sigma = tuple(list(img) +
                                  [i for i in range(1, N + 1)
                                   if i not in img])
                    target = tuple(v + (1 if i + 1 in Jset else 0)
                                   for i, v in enumerate(comp_plus))
                    raw = perm_act(perm_inverse(sigma), target)
                    order = sorted(range(m), key=lambda p: (-raw[p], p))
                    order += sorted(range(m, N), key=lambda p: (-raw[p], p))
                    s = tuple(p + 1 for p in order)
                    sigma_adj = perm_compose(sigma, s)
                    biordered = perm_act(perm_inverse(s), raw)
                    try:
                        omg = SuperPartition(
                            tuple(v - 1 for v in biordered[:m]),
                            biordered[m:], N)
                        ok = is_superevaluation(
                            omg, perm_compose(w, sigma_adj))
                    except ValueError:
                        omg, ok = None, False
                    val = _product(_D_into, m, r, Jset, sigma_adj,
                                   point).expand()
                    if not ok:
                        assert val.is_zero(), (J, sigma)
                    elif not val.is_zero():
                        key = (r, omg.anti, omg.sym)
                        assert key not in survivors, key
                        survivors[key] = (Jset, img)
        assert survivors
