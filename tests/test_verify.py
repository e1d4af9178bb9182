from itertools import combinations, permutations, product

import pytest

from bimac import qt
from bimac.pieri import _a_factor
from bimac.qt import (QTScalar, _brackets, _Factored, _lcd_sum, qt_monomial,
                      t_bracket_factorial)
from bimac.verify import Report, _rel_u_plus, _rel_u_plus_cases, run_suite


def test_check_stops_at_the_first_failing_case():
    seen = []

    def holds(k, label):
        seen.append(k)
        return k not in (2, 3)
    rep = Report()
    rep.check("planted", [(k, f"case {k}") for k in range(1, 5)], holds)
    assert rep.results == [("planted", False, "(2, 'case 2')")]
    assert seen == [1, 2]
    assert rep.lines() == ["[FAIL] planted: (2, 'case 2')"]
    assert not rep.ok


def test_unknown_suite_raises():
    with pytest.raises(ValueError, match="unknown suite 'nonsense'"):
        run_suite("nonsense")


def test_check_passes_on_no_cases():
    rep = Report()
    rep.check("empty", [], lambda: False)
    assert rep.ok and rep.lines() == ["[pass] empty"]


@pytest.mark.parametrize("N", [2, 4])
@pytest.mark.parametrize("deg", [0, 1])
def test_all_suites_pass(N, deg):
    rep = run_suite("all", N, deg)
    assert rep.ok, rep.lines()


# -- the A-product lemma of the hecke suite ----------------------------------

def _rel_u_plus_reference(N, r, J, point):
    """The lemma checked by Q(q,t) arithmetic, one canonical scalar per
    factor and a gcd per step: the independent route."""
    def x(i):
        return qt_monomial(*point[i - 1])
    total = QTScalar.zero()
    for sigma in permutations(range(1, N + 1)):
        if set(sigma[N - r:]) != set(J):
            continue
        prod = QTScalar.one()
        for i in range(N - 1):
            for j in range(i + 1, N):
                si, sj = x(sigma[i]), x(sigma[j])
                prod = prod * (si - sj.mul_monomial(0, 1)) / (si - sj)
        total = total + prod
    rhs = t_bracket_factorial(r, "t") * t_bracket_factorial(N - r, "t")
    for i in J:
        for j in range(1, N + 1):
            if j not in J:
                rhs = rhs * (x(i).mul_monomial(0, 1) - x(j)) / (x(i) - x(j))
    return total == rhs


def _other_subset(N, r, J):
    return next(K for K in combinations(range(1, N + 1), r) if K != tuple(J))


@pytest.mark.parametrize("N", [2, 3, 4])
def test_rel_u_plus_agrees_with_the_scalar_route(N):
    cases = _rel_u_plus_cases(N)
    assert cases
    for r, J, point in cases:
        assert _rel_u_plus(N, r, J, point)
        assert _rel_u_plus_reference(N, r, J, point)
        # the lemma holds for every r-subset: both routes take another
        K = _other_subset(N, r, J)
        assert _rel_u_plus(N, r, K, point)
        assert _rel_u_plus_reference(N, r, K, point)


def _lemma_sum(N, r, J, point, brackets=True, rhs_J=None, flip=False):
    """Sum of the terms minus the right side over one common denominator,
    built as ``_rel_u_plus`` builds it, with one part mutated."""
    terms = []
    for sigma in permutations(range(1, N + 1)):
        if set(sigma[N - r:]) == set(J):
            pairs = [(sigma[i], sigma[j]) if flip else (sigma[j], sigma[i])
                     for i, j in combinations(range(N), 2)]
            terms.append(_a_factor(point, pairs, ()))
    K = J if rhs_J is None else rhs_J
    num, den = _brackets([*range(1, r + 1), *range(1, N - r + 1)], "t") \
        if brackets else ([], [])
    rest = set(range(1, N + 1)) - set(K)
    rhs = _Factored.prod([*num, _a_factor(point, product(K, rest), ())], den)
    total, _ = _lcd_sum([*terms, -rhs], [{(0, 0): 1}] * (len(terms) + 1))
    return total


@pytest.mark.parametrize("N", [2, 3, 4, 5])
def test_rel_u_plus_mutations_leave_a_nonzero_sum(N):
    for r, J, point in _rel_u_plus_cases(N):
        assert not _lemma_sum(N, r, J, point)
        # [r]! [N-r]! is 1 at N = 2, so dropping it changes nothing there
        assert N == 2 or _lemma_sum(N, r, J, point, brackets=False)
        assert _lemma_sum(N, r, J, point, rhs_J=_other_subset(N, r, J))
        assert _lemma_sum(N, r, J, point, flip=True)


def test_rel_u_plus_makes_no_gcd_call(monkeypatch):
    monkeypatch.setattr(qt, "poly_gcd", None)
    for r, J, coords in _rel_u_plus_cases(5):
        assert _rel_u_plus(5, r, J, coords)
