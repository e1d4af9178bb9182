"""References transcribed from formulas in print, checked against the
routes they cover.  Each builds its values from the diagram alone, with
qt's scalars and no code from hecke or macdonald.

* The principal specialization of the symmetric Macdonald polynomial
  (Macdonald, Symmetric Functions and Hall Polynomials, 2nd ed., VI
  (6.11')): P_lambda(1, t, .., t^(N-1)) = t^(n(lambda)) prod over the
  cells s of lambda of (1 - q^(a'(s)) t^(N - l'(s))) /
  (1 - q^(a(s)) t^(l(s) + 1)), with arm a, leg l, coarm a' and coleg
  l'.  At m = 0, P_Lambda is P_lambda and (1, t, .., t^(N-1)) is the
  negative evaluation point of the empty staircase.
"""

import pytest

from bimac.evalsym import _P_at, eval_formula
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
