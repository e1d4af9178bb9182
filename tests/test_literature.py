"""References transcribed from formulas in print, checked against the
routes they cover.  Each builds its values from the diagram alone, with
qt's scalars or plain integer term dicts, and runs no code from hecke,
macdonald or pieri beyond reading the P it checks.

* The principal specialization of the symmetric Macdonald polynomial
  (Macdonald, Symmetric Functions and Hall Polynomials, 2nd ed., VI
  (6.11')): P_lambda(1, t, .., t^(N-1)) = t^(n(lambda)) prod over the
  cells s of lambda of (1 - q^(a'(s)) t^(N - l'(s))) /
  (1 - q^(a(s)) t^(l(s) + 1)), with arm a, leg l, coarm a' and coleg
  l'.  At m = 0, P_Lambda is P_lambda and (1, t, .., t^(N-1)) is the
  negative evaluation point of the empty staircase.
* Macdonald's operator (Macdonald, op. cit., VI §3-4): D_N^1 =
  sum_i prod_(j != i) (t x_i - x_j)/(x_i - x_j) T_(q,x_i), with
  T_(q,x_i) the q-shift of x_i, has P_lambda as an eigenfunction with
  eigenvalue sum_i q^(lambda_i) t^(N-i).  Its coefficients are
  a_delta^(-1) sum_(w in S_N) eps(w) x^(w delta) t^((w delta)_i), with
  delta = (N-1, .., 0) and a_delta = sum_w eps(w) x^(w delta), so the
  identity cleared of a_delta is linear and checked on P's integral
  form Q (P = Q/c), on Z[q,t][x] term dicts with no evaluation point.
"""

from itertools import combinations, permutations

import pytest

from bimac.evalsym import _P_at, eval_formula
from bimac.macdonald import bisym_P
from bimac.qt import _Factored
from bimac.sparts import superpartitions


def conjugate(lam):
    return tuple(sum(1 for p in lam if p > j) for j in range(lam[0])) \
        if lam else ()


def principal_specialization(lam, N):
    """Macdonald VI (6.11') for the partition lam in N variables, cells
    (i, j) 0-based: a = lam_i - j - 1, l = lam'_j - i - 1, a' = j,
    l' = i, and n(lam) = sum of l' over the cells."""
    lam_c = conjugate(lam)
    cells = [(i, j) for i, p in enumerate(lam) for j in range(p)]
    top = [_Factored.binomial(0, 0, j, N - i) for i, j in cells]
    bottom = [_Factored.binomial(0, 0, lam[i] - j - 1, lam_c[j] - i)
              for i, j in cells]
    top.append(_Factored.monomial(0, sum(i for i, _ in cells)))
    return _Factored.prod(top, bottom).expand()


# every partition of at most 4 in at most N parts, N = 1..6
SHAPES = [sp for N in range(1, 7) for d in range(5)
          for sp in superpartitions(d, 0, N)]


def test_shape_count():
    assert len(SHAPES) == 61


@pytest.mark.parametrize("sp", SHAPES, ids=lambda sp: f"{sp}-N{sp.N}")
def test_principal_specialization(sp):
    lam = tuple(p for p in sp.sym if p)
    want = principal_specialization(lam, sp.N)
    assert eval_formula(sp, "minus") == want
    assert _P_at(sp, tuple((0, i) for i in range(sp.N))) == want


def macdonald_operator_residual(sp):
    """sum_w eps(w) x^(w delta) sum_i (t^((w delta)_i) T_(q,x_i) -
    q^(lambda_i) t^(N-i)) Q for P's integral form Q at m = 0, as a term
    dict {(x-exponent, q-degree, t-degree): integer} with the zeros
    dropped; empty exactly when the eigen-equation holds."""
    N, lam = sp.N, sp.sym
    out = {}
    for wd in permutations(range(N - 1, -1, -1)):
        sign = (-1) ** sum(1 for i, j in combinations(range(N), 2)
                           if wd[i] < wd[j])
        for e, c in bisym_P(sp).Q.items():
            # the operator's factor at x^e, {(q-degree, t-degree): integer}
            op = {}
            for i in range(N):
                for k, u in (((e[i], wd[i]), sign),
                             ((lam[i], N - 1 - i), -sign)):
                    op[k] = op.get(k, 0) + u
            x = tuple(a + b for a, b in zip(e, wd))
            for (a, b), v in c.terms.items():
                for (da, db), u in op.items():
                    key = (x, a + da, b + db)
                    out[key] = out.get(key, 0) + u * v
    return {k: v for k, v in out.items() if v}


# every partition of at most 4 in at most N parts, N = 1..5
OPERATOR_SHAPES = [sp for sp in SHAPES if sp.N <= 5]


def test_operator_shape_count():
    assert len(OPERATOR_SHAPES) == 49


@pytest.mark.parametrize("sp", OPERATOR_SHAPES,
                         ids=lambda sp: f"{sp}-N{sp.N}")
def test_macdonald_operator_eigenvalue(sp):
    assert macdonald_operator_residual(sp) == {}
