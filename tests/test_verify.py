from itertools import combinations, permutations, product

import pytest

from bimac import hecke, macdonald, qt, verify
from bimac.macdonald import _bruhat_below
from bimac.pieri import _a_into, _product
from bimac.qt import (QTPoly, QTScalar, _brackets, _Factored, _vanishes,
                      qt_monomial, t_bracket_factorial)
from bimac.sparts import compositions_of
from bimac.verify import (Report, _MUL, _T, _W, _terms, _rel_u_plus,
                          _rel_u_plus_cases, run_suite)
from bimac.xpoly import XPolynomial
from reference import apply_T0


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
    """Whether the terms minus the right side leave a nonzero sum, built
    as ``_rel_u_plus`` builds it, with one part mutated."""
    terms = []
    for sigma in permutations(range(1, N + 1)):
        if set(sigma[N - r:]) == set(J):
            pairs = [(sigma[i], sigma[j]) if flip else (sigma[j], sigma[i])
                     for i, j in combinations(range(N), 2)]
            terms.append(_product(_a_into, point, pairs))
    K = J if rhs_J is None else rhs_J
    num, den = _brackets([*range(1, r + 1), *range(1, N - r + 1)], "t") \
        if brackets else ([], [])
    rest = set(range(1, N + 1)) - set(K)
    rhs = _Factored.prod([*num, _product(_a_into, point, product(K, rest))],
                         den)
    return not _vanishes([*terms, rhs],
                         [{(0, 0): 1}] * len(terms) + [{(0, 0): -1}])


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


def test_rel_u_plus_at_six_variables():
    cases = _rel_u_plus_cases(6)
    assert len(cases) == 10
    for r, J, coords in cases:
        assert _rel_u_plus(6, r, J, coords)


# -- the hecke and eigen suites on Z[q,t] term dicts --------------------------

ONE = QTScalar.one()
Q = qt_monomial(1, 0)
T = qt_monomial(0, 1)
# coefficients with q, t and integer denominators, and their common
# denominator, so that f.scale(DEN) has every coefficient in Z[q,t]
RATIONAL = [ONE / (ONE - Q * T), (Q + T) / (T * QTScalar.from_int(3)),
            QTScalar.from_fraction(-2) / (ONE + Q * Q)]
DEN = (ONE - Q * T) * T * QTScalar.from_int(3) * (ONE + Q * Q)
DEG = 2


def _samples(N):
    """The monomials of degree <= DEG, and their sum over Q(q,t)."""
    monos = [XPolynomial.monomial(e)
             for d in range(DEG + 1) for e in compositions_of(d, N)]
    rational = XPolynomial.zero(N)
    for k, f in enumerate(monos):
        rational = rational + f.scale(RATIONAL[k % 3])
    return monos + [rational]


def _integral_side(public, a=0, b=0):
    """The Z[q,t] term dict of q^a t^b DEN times the Q(q,t) value."""
    return _terms(public.scale(DEN * qt_monomial(a, b)))


@pytest.mark.parametrize("N", [3, 4])
def test_integral_forms_agree_with_the_public_operators(N):
    for f in _samples(N):
        F = _terms(f.scale(DEN))
        for i in range(1, N):
            assert _T(i, F) == _integral_side(hecke.apply_T(i, f))
            # T_i^(-1) = t^(-1) (t Tbar_i)
            assert hecke._step(i, F, 0, _MUL) == \
                _integral_side(hecke.apply_T_inv(i, f), 0, 1)
        # T_0 on the input times q^DEG
        assert _T(0, _terms(f.scale(DEN), DEG)) == \
            _integral_side(apply_T0(f), DEG)
        assert hecke._omega(F, _MUL) == \
            _integral_side(hecke.apply_omega(f))
        for i in range(1, N + 1):
            assert _W(i, F) == _integral_side(hecke.apply_Y(i, f), 0, N - 1)
        for interval in ((1, N), (2, N)):
            assert hecke._symmetrize("t_sym", interval, F, _MUL) == \
                _integral_side(hecke.symmetrize("t_sym", interval, f))
            width = interval[1] - interval[0] + 1
            for r in range(width + 1):
                assert hecke._e_of_Y(r, interval, F, _MUL) == \
                    _integral_side(hecke.apply_e_of_Y(r, interval, f), 0,
                                   r * (N - 1))


def test_terms_rejects_a_rational_coefficient():
    with pytest.raises(ValueError, match="not in Z\\[q,t\\]"):
        _terms(XPolynomial.one(2).scale(RATIONAL[0]))


_REAL_STEP, _REAL_OMEGA = hecke._step, hecke._omega
# one wrong kernel each: (module, name, replacement)
KERNEL_MUTANTS = {
    # t -> t^2 in every kernel, while each relation's own t - 1, t,
    # brackets and eigenvalues keep t
    "t squared": (verify, "_MUL", lambda c, a, b: c.mul_term(a, 2 * b)),
    "T_0 is t": (hecke, "_t0",
                 lambda f, mul: {e: mul(c, 0, 1) for e, c in f.items()}),
    "T_0 is T_1": (hecke, "_t0", lambda f, mul: _REAL_STEP(1, f, 1, mul)),
    "omega without q": (hecke, "_omega", lambda f, mul: _REAL_OMEGA(
        f, lambda c, a, b: mul(c, 0, b))),
    "t Tbar is T": (hecke, "_step", lambda i, f, ident, mul: _REAL_STEP(
        i, f, 1 if ident == 0 else ident, mul)),
}


@pytest.mark.parametrize("suite, check, mutant", [
    ("hecke", "quadratic relation", "t squared"),
    ("hecke", "braid relations", "T_0 is t"),
    ("hecke", "distant generators commute", "T_0 is T_1"),
    ("hecke", "omega shifts the generator index", "omega without q"),
    ("hecke", "Cherednik operators commute", "t Tbar is T"),
    ("hecke", "exchange relations", "t squared"),
    ("hecke", "t-symmetrizer of 1", "t squared"),
    ("hecke", "shifted-product relation", "t squared"),
    ("hecke", "e_r(Y) from the t-symmetrizer", "t squared"),
    ("eigen", "eigenvalue property", "t squared"),
])
def test_a_mutated_kernel_fails_its_check(monkeypatch, suite, check, mutant):
    assert run_suite(suite, 4, DEG).ok
    module, name, fn = KERNEL_MUTANTS[mutant]
    monkeypatch.setattr(module, name, fn)
    lines = run_suite(suite, 4, DEG).lines()
    assert any(line.startswith(f"[FAIL] {check}") for line in lines), lines


ETA = (1, 0, 1)


def _eigen_with_K(monkeypatch, mutate):
    """The eigen suite at N = 3, DEG, on a K for ETA changed by mutate."""
    real = verify._integral_E

    def patched(eta):
        K = real(eta)
        return mutate(K) if eta == ETA else K
    monkeypatch.setattr(verify, "_integral_E", patched)
    return run_suite("eigen", 3, DEG).lines()


def test_eigen_suite_fails_on_a_changed_coefficient(monkeypatch):
    def mutate(K):
        # K is a Z[q,t] term dict: the coefficient at nu times 1 + q
        nu = next(nu for nu in K if nu != ETA)
        return {**K, nu: K[nu] + K[nu].mul_term(1, 0)}
    assert _eigen_with_K(monkeypatch, mutate) == [
        f"[FAIL] eigenvalue property and triangularity for 16 E's: {ETA}"]


def test_eigen_suite_fails_on_a_term_not_bruhat_below(monkeypatch):
    nu = next(nu for nu in compositions_of(sum(ETA), len(ETA))
              if nu != ETA and not _bruhat_below(ETA)(nu))

    def mutate(K):
        assert nu not in K
        return {**K, nu: QTPoly.one()}
    assert _eigen_with_K(monkeypatch, mutate) == [
        f"[FAIL] eigenvalue property and triangularity for 16 E's: {ETA}"]


@pytest.mark.parametrize("suite", ["hecke", "eigen", "symmetry", "evaluation",
                                   "pieri"])
def test_suite_makes_no_gcd_call(monkeypatch, suite):
    # the symmetry and evaluation suites read each P's integral form Q
    # and its factored c, and the pieri suite's oracle peels integers
    macdonald.clear_caches()

    def refuse(f, g):
        raise AssertionError("poly_gcd was called")
    monkeypatch.setattr(qt, "poly_gcd", refuse)
    assert run_suite(suite, 4, 3).ok
