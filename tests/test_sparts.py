import hashlib
import json
from fractions import Fraction
from itertools import (combinations, combinations_with_replacement,
                       permutations, product)

import pytest

from bimac import sparts
from bimac.errors import ConsistencyError
from bimac.qt import qt_monomial
from bimac.sparts import (SuperPartition, compositions_of, enumerate_strips,
                          eval_point, eigenvalue, format_spart, hook_data,
                          lambda_naught, minimal_sorting_permutation,
                          n_statistic, parse_spart, perm_inverse,
                          row_of_circle, superpartitions)
from reference import is_superevaluation, perm_act, perm_compose


def inversions(p):
    """The length of a permutation in one-line notation."""
    return sum(1 for i in range(len(p)) for j in range(i + 1, len(p))
               if p[i] > p[j])


def comp_plus(lam):
    return tuple(v + 1 for v in lam.anti) + lam.sym


def tau(J, v):
    return tuple(x + (1 if i + 1 in J else 0) for i, x in enumerate(v))


class TestShapes:
    def test_shift_adds_one_per_fermionic_row(self):
        lam = SuperPartition((3, 1, 0), (2, 1), 5)
        assert lam.circled() == (4, 2, 2, 1, 1)
        assert lam.star() == (3, 2, 1, 1, 0)

    def test_zero_anti(self):
        lam = SuperPartition((0,), (), 3)
        assert lam.star() == (0, 0, 0)
        assert lam.circled() == (1, 0, 0)

    def test_eta(self):
        lam = SuperPartition((2, 0), (1,), 5)
        assert lam.eta() == (2, 0, 0, 0, 1)

    def test_invalid(self):
        # each message on its own input; m > N is checked before the anti
        # part, and the anti part before the sym part
        for anti, sym, N, message in [
            ((2, 1, 0), (), 2, "fermionic degree exceeds variable count"),
            ((1, 1, 1), (), 2, "fermionic degree exceeds variable count"),
            ((1, 1), (), 4, r"anti part \(1, 1\) is not strictly decreasing"),
            ((0, 1), (), 4, r"anti part \(0, 1\) is not strictly decreasing"),
            ((1, -1), (), 4,
             r"anti part \(1, -1\) is not strictly decreasing"),
            ((1, 1), (1, 2), 4, r"anti part \(1, 1\) is not strictly"),
            ((0,), (1, 2), 4, r"sym part \(1, 2\) is not a partition"),
            ((0,), (0, 1), 4, r"sym part \(0, 1\) is not a partition"),
            ((), (1, -1), 4, r"sym part \(1, -1\) is not a partition"),
            ((1,), (2, 1), 2, "sym part is longer than N - m"),
            ((1,), (2, 1, 0), 2, "sym part is longer than N - m"),
        ]:
            with pytest.raises(ValueError, match=f"^{message}"):
                SuperPartition(anti, sym, N)

    def test_zeros_stripped_and_padded(self):
        assert SuperPartition((1,), (2, 0, 0), 5).sym == (2, 0, 0, 0)
        assert SuperPartition((1,), (2, 0, 0, 0, 0), 3).sym == (2, 0)
        assert SuperPartition((), (0,), 2).sym == (0, 0)
        lam = SuperPartition(("1",), [2.0], 3)
        assert lam.anti == (1,) and lam.sym == (2, 0)
        assert all(type(x) is int for x in lam.anti + lam.sym)
        lam = SuperPartition((Fraction(2), 0.0), (Fraction(4, 2),), 3)
        assert lam.anti == (2, 0) and lam.sym == (2,)
        assert all(type(x) is int for x in lam.anti + lam.sym)

    def test_non_integral_part_is_refused(self):
        # int would truncate 1.5 to 1 and 2.7 to 2: 1;2 with no error
        for anti, sym, message in [
            ((1.5,), (2.7,), r"anti part \(1\.5,\) has a part that is not"),
            ((1,), (2.7,), r"sym part \(2\.7,\) has a part that is not"),
            ((2, Fraction(1, 2)), (), r"anti part \(2, Fraction\(1, 2\)\)"),
            ((), ["1.5"], r"sym part \['1\.5'\] has a part"),
            ((), (float("inf"),), r"sym part \(inf,\) has a part"),
            ((None,), (), r"anti part \(None,\) has a part"),
        ]:
            with pytest.raises(ValueError, match=f"^{message}"):
                SuperPartition(anti, sym, 3)


class TestEnumerationOrder:
    # verify sweeps shapes in this order and its FAIL lines name the
    # first counterexample, so the order is part of the output

    def test_superpartitions_by_brute_force(self):
        # ascending |anti|, then anti, then sym, each descending
        # lexicographically
        for N in range(7):
            for m in range(N + 1):
                for d in range(8):
                    want = [
                        (anti[::-1], sym[::-1])
                        for anti in combinations(range(d + 1), m)
                        for sym in combinations_with_replacement(
                            range(d + 1), N - m)
                        if sum(anti) + sum(sym) == d]
                    want.sort(key=lambda s: (sum(s[0]), [-x for x in s[0]],
                                             [-x for x in s[1]]))
                    got = [(sp.anti, sp.sym)
                           for sp in superpartitions(d, m, N)]
                    assert got == want, (d, m, N)

    def test_compositions_by_brute_force(self):
        for d in range(6):
            for n in range(6):
                want = sorted((c for c in product(range(d + 1), repeat=n)
                               if sum(c) == d), reverse=True)
                assert list(compositions_of(d, n)) == want, (d, n)


class TestCircleRows:
    def test_nine_row_diagram(self):
        eta = (0, 2, 1, 3, 2, 0, 2, 0, 0)
        expected = {4: 1, 2: 2, 5: 3, 7: 4, 3: 5, 1: 6, 6: 7, 8: 8, 9: 9}
        for i, r in expected.items():
            assert row_of_circle(eta, i) == r

    def test_empty_rows(self):
        eta = (0, 0, 0, 0)
        for i in range(1, 5):
            assert row_of_circle(eta, i) == i
            assert eigenvalue(eta, i) == qt_monomial(0, 1 - i)

    def test_eigenvalue_examples(self):
        assert eigenvalue((1, 0), 1) == qt_monomial(1, 0)
        eta = (0, 2, 1, 3, 2, 0, 2, 0, 0)
        assert eigenvalue(eta, 1) == qt_monomial(0, 1 - 6)


class TestSortingPermutation:
    def test_identity_when_sorted(self):
        lam = SuperPartition((3, 1), (1,), 4)
        assert minimal_sorting_permutation(lam) == (1, 2, 3, 4)

    def test_small(self):
        lam = SuperPartition((2, 0), (1,), 3)
        assert minimal_sorting_permutation(lam) == (1, 3, 2)

    def test_sorts_both_shapes(self):
        lam = SuperPartition((3, 1), (5, 4, 3), 5)
        w = minimal_sorting_permutation(lam)
        assert perm_act(w, lam.as_composition()) == lam.star()
        assert perm_act(w, comp_plus(lam)) == lam.circled()

    def test_minimal_length_exhaustive(self):
        for lam in [SuperPartition((3, 1), (5, 4, 3), 5),
                    SuperPartition((2, 0), (2, 1), 5),
                    SuperPartition((1, 0), (1, 1), 4)]:
            w = minimal_sorting_permutation(lam)
            comp = lam.as_composition()
            best = min(inversions(p) for p in permutations(range(1, lam.N + 1))
                       if perm_act(p, comp) == lam.star())
            assert inversions(w) == best


class TestEvalPoints:
    def test_plus_example(self):
        p = eval_point(SuperPartition((2, 0), (1,), 3), "plus")
        assert p == ((3, 0), (1, -2), (1, -1))

    def test_staircase_minus(self):
        p = eval_point(lambda_naught(2, 5), "minus")
        assert p == ((-1, 0), (0, 1), (0, 2), (0, 3), (0, 4))

    def test_empty_minus(self):
        p = eval_point(SuperPartition((), (), 3), "minus")
        assert p == ((0, 0), (0, 1), (0, 2))

    def test_distinct_t_exponents(self):
        for lam in superpartitions(3, 1, 4):
            for sign in ("plus", "minus"):
                bs = [b for _, b in eval_point(lam, sign)]
                assert len(set(bs)) == lam.N


class TestSuperevaluation:
    def test_minimal_w_always_works(self):
        for d in range(4):
            for m in (0, 1, 2):
                for lam in superpartitions(d, m, 4):
                    assert is_superevaluation(
                        lam, minimal_sorting_permutation(lam))

    def test_stabilizer_members_work(self):
        lam = SuperPartition((2, 0), (1,), 5)
        w = minimal_sorting_permutation(lam)
        # block transposition swapping the two equal sym entries
        s = (1, 2, 3, 5, 4)
        assert perm_act(s, lam.as_composition()) == lam.as_composition()
        assert is_superevaluation(lam, perm_compose(w, s))

    def test_unequal_swap_fails(self):
        lam = SuperPartition((1, 0), (), 3)
        assert not is_superevaluation(lam, (2, 1, 3))


class TestHookData:
    def test_trivial(self):
        hd = hook_data(SuperPartition((0,), (), 3))
        assert hd.s_cells == () and hd.b_cells == ()
        assert hd.n_s == 0 and hd.anti_skew_size == 0

    def test_n_statistic(self):
        assert n_statistic((2, 1)) == 1

    def test_anti_skew_size(self):
        hd = hook_data(SuperPartition((3, 1, 0), (2, 1), 5))
        assert hd.anti_skew_size == 4 - 3


class TestStrips:
    def test_type_I_strip_set(self):
        lam = SuperPartition((2, 0), (1,), 5)
        got = sorted(format_spart(c.omg) for c in enumerate_strips(lam, 2, "I"))
        assert got == sorted(["1,0;3,1", "2,0;2,1", "2,1;1,1", "2,0;1,1,1"])

    def test_type_II_strip_set(self):
        lam = SuperPartition((2, 0), (1,), 5)
        got = sorted(format_spart(c.omg)
                     for c in enumerate_strips(lam, 2, "II"))
        assert got == sorted(["3,1;1", "3,0;1,1", "1,0;3,1"])

    def test_certificate_reproduction(self):
        # permutation algebra of the worked certificate
        w = (3, 5, 1, 2, 4, 6)
        st = (1, 3, 2, 4, 6, 5)
        w_inv = perm_inverse(w)
        sigma = perm_compose(w_inv, perm_compose(st, w))
        J = frozenset(w_inv[st[j - 1] - 1] for j in (1, 3, 5))
        assert sigma == (4, 6, 3, 1, 5, 2)
        assert J == frozenset({3, 4, 6})

    def test_out_of_range_r(self):
        lam = SuperPartition((2, 0), (1,), 5)
        assert enumerate_strips(lam, 9, "I") == []
        assert enumerate_strips(lam, 3, "II") == []
        assert enumerate_strips(lam, 0, "I") == []

    def test_theorem_conditions_hold(self):
        for lam in [SuperPartition((2, 0), (1,), 5),
                    SuperPartition((1, 0), (1, 1), 4),
                    SuperPartition((2,), (1,), 4)]:
            m, N = lam.m, lam.N
            for typ, rmax in (("I", N - m), ("II", m)):
                for r in range(1, rmax + 1):
                    for c in enumerate_strips(lam, r, typ):
                        target = tau(c.J, comp_plus(lam))
                        assert perm_act(c.sigma, comp_plus(c.omg)) == target
                        assert not (set(c.sigma[:m]) & c.L)
                        assert is_superevaluation(
                            c.omg, perm_compose(c.w, c.sigma))
                        if typ == "I":
                            assert c.J <= set(range(m + 1, N + 1))
                        else:
                            inv = perm_inverse(c.sigma)
                            assert all(inv[j - 1] <= m for j in c.J)
                        assert len(c.rows_circled_square - c.rows_new_circle) \
                            == len(c.rows_new_circle - c.rows_circled_square)

    def test_sigma_in_expected_coset(self):
        lam = SuperPartition((2, 0), (1,), 5)
        m = lam.m
        for c in enumerate_strips(lam, 2, "I"):
            base = perm_compose(perm_inverse(c.w),
                                perm_compose(c.sigma_tilde, c.w))
            rel = perm_compose(perm_inverse(base), c.sigma)
            assert set(rel[:m]) == set(range(1, m + 1))

    def test_sorts_lambda_once_per_call(self, monkeypatch):
        calls = []

        def counted(lam):
            calls.append(lam)
            return minimal_sorting_permutation(lam)
        monkeypatch.setattr(sparts, "minimal_sorting_permutation", counted)
        lam = SuperPartition((2, 0), (1,), 5)
        assert len(enumerate_strips(lam, 2, "I")) == 4
        assert calls == [lam]

    def test_brute_force_characterization(self):
        # every Omega of the right degree appears iff the strip test holds
        lam = SuperPartition((1, 0), (1,), 4)
        for r in (1, 2):
            for typ in ("I", "II"):
                listed = {(c.omg.anti, c.omg.sym)
                          for c in enumerate_strips(lam, r, typ)}
                degree = lam.degree() + r
                for omg in superpartitions(degree, lam.m, lam.N):
                    is_strip = _is_vertical_strip_pair(lam, omg, r, typ)
                    assert ((omg.anti, omg.sym) in listed) == is_strip

    def test_brute_force_characterization_n56(self):
        # the same check for every |Lambda| <= 4 at N = 5, 6, every r
        # and both types: the shapes of the pieri_formula workload.  The
        # list comes sorted by (anti, sym), each Omega once, the order
        # pieri_expand keeps
        cases = 0
        for lam, r, typ, by_degree in _n56_cases():
            listed = [(c.omg.anti, c.omg.sym)
                      for c in enumerate_strips(lam, r, typ)]
            want = [(o.anti, o.sym) for o in by_degree[lam.degree() + r]
                    if _is_vertical_strip_pair(lam, o, r, typ)]
            assert listed == sorted(want)
            cases += 1
        assert cases == 638

    def test_certificates_n56_digest(self):
        # every field of every certificate of the 638 cases above, in
        # enumeration order, sets sorted: pins sigma, J and L, which the
        # golden sets see only through the coefficients they feed
        h = hashlib.sha256()
        for lam, r, typ, _ in _n56_cases():
            for c in enumerate_strips(lam, r, typ):
                h.update(json.dumps([
                    c.lam.anti, c.lam.sym, c.lam.N, c.omg.anti, c.omg.sym,
                    sorted(c.rows_circled_square), sorted(c.rows_new_circle),
                    c.w, c.sigma_tilde, c.sigma, sorted(c.J_tilde),
                    sorted(c.J), sorted(c.L), c.strip_type, c.r]).encode())
                h.update(b"\n")
        assert h.hexdigest() == CERTIFICATES_N56_SHA256


# sha256 of test_certificates_n56_digest's records as the certificates
# stood before the strip search was pruned
CERTIFICATES_N56_SHA256 = (
    "e20d113d9adac2f565430b547237cfa95ddb2f2ea597fc462166740f99ab2382")


def _n56_cases():
    """(Lambda, r, type, superpartitions of degree d with Lambda's m, by
    d) for every |Lambda| <= 4 at N = 5, 6, every r and both types."""
    for N in (5, 6):
        for m in range(N + 1):
            by_degree = [superpartitions(d, m, N) for d in range(5 + N)]
            for lam in (lam for d in range(5) for lam in by_degree[d]):
                for typ, rmax in (("I", N - m), ("II", m)):
                    for r in range(1, rmax + 1):
                        yield lam, r, typ, by_degree


class TestCertificateChecks:
    # each ConsistencyError of a strip certificate, on a move list and an
    # Omega that do not go together; Lambda = (1,0; 1), N = 4.  moved is
    # (filled, circled square only, new circle only, both)
    @pytest.mark.parametrize("r, moved, omg_sym, message", [
        (1, ([], [1], [], []), (2,), "unbalanced circle movement in strip"),
        (2, ([2], [], [], []), (3,), "certificate J has the wrong size"),
        (1, ([1], [], [], []), (2,),
         "could not align certificate permutation"),
        (1, ([], [2], [3], []), (2,), r"sigma\(\[m\]\) meets L"),
        (1, ([2], [], [], []), (2,),
         "certificate fails the superevaluation check"),
    ], ids=["balance", "J_size", "alignment", "sigma_meets_L",
            "superevaluation"])
    def test_each_check_fires(self, r, moved, omg_sym, message):
        lam = SuperPartition((1, 0), (1,), 4)
        omg = SuperPartition((1, 0), omg_sym, 4)
        w = minimal_sorting_permutation(lam)
        with pytest.raises(ConsistencyError, match=f"^{message}$"):
            sparts._certificate(lam, omg, moved, (omg.star(), omg.circled()),
                                "I", r, w, perm_inverse(w))

    def test_superevaluation_read_on_the_given_diagrams(self):
        lam = SuperPartition((2, 0), (1,), 5)
        c = enumerate_strips(lam, 2, "I")[0]
        moved = (sorted(c.J_tilde - c.rows_circled_square),
                 sorted(c.rows_circled_square - c.rows_new_circle),
                 sorted(c.rows_new_circle - c.rows_circled_square), [])
        star, circ = c.omg.star(), c.omg.circled()
        args = (c.strip_type, c.r, c.w, perm_inverse(c.w))
        assert sparts._certificate(lam, c.omg, moved, (star, circ),
                                   *args) == c
        with pytest.raises(ConsistencyError, match="superevaluation"):
            sparts._certificate(lam, c.omg, moved, (star, star), *args)

    def test_rows_round_trip(self, monkeypatch):
        # each Omega is built through sparts.SuperPartition; Lambda's own
        # diagrams stay right
        class Uncircled(SuperPartition):
            def circled(self):
                return self.star()
        monkeypatch.setattr(sparts, "SuperPartition", Uncircled)
        with pytest.raises(ConsistencyError,
                           match="^grown strip rows do not round-trip$"):
            enumerate_strips(SuperPartition((2, 0), (1,), 5), 2, "I")


def _is_vertical_strip_pair(lam, omg, r, typ):
    ls, lc = lam.star(), lam.circled()
    os_, oc = omg.star(), omg.circled()
    a = [os_[i] - ls[i] for i in range(lam.N)]
    b = [oc[i] - lc[i] for i in range(lam.N)]
    if any(v not in (0, 1) for v in a + b) or sum(a) != r or sum(b) != r:
        return False
    for i in range(lam.N):
        filled = a[i] == 1 and lc[i] == ls[i]
        both = a[i] == 1 and b[i] == 1 and lc[i] == ls[i] + 1
        if typ == "I" and both:
            return False
        if typ == "II" and filled:
            return False
    return True


class TestTextFormat:
    def test_roundtrip(self):
        for text, N in [("2,0;1", 5), ("3,1,0;2,1", 5), (";1,1", 4),
                        ("0;", 3)]:
            lam = parse_spart(text, N)
            assert parse_spart(format_spart(lam), N) == lam

    def test_empty_marker(self):
        assert parse_spart("2,0;", 4) == parse_spart("2,0;∅", 4)

    def test_missing_semicolon(self):
        with pytest.raises(ValueError):
            parse_spart("2,0", 4)

