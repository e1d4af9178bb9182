"""Reference routes over Q(q,t) that the tests check the program against
and that the program itself does not run: no CLI request, verify suite
or benchmark workload calls them.

Each is written the plain way, on XPolynomial or on permutation tuples:
the exchange operator K_(i,j), the affine generator T_0 on its own, the
q-shift tau_J, the plain and t-deformed Vandermonde products, a
coefficient map, Phi(sigma) at a point, the t-bracket [k], and the
superevaluation test with the permutation product and action it reads.

The rest of the Q(q,t) reference operators the tests use (hecke's
apply_T, apply_T_inv, apply_omega, apply_Y, symmetrize and apply_e_of_Y,
xpoly's exact_div and divided_difference, pieri's coeff_C and coeff_D,
render's xpoly_from_json) stay in src while perfbench/spans.py wraps
them by name; they can move here once the benchmark no longer does.
"""

from itertools import combinations

from bimac.hecke import _QT, _t0
from bimac.pieri import SigmaSets, _phi_into, _shifted
from bimac.qt import QTScalar, _brackets, _Factored, qt_monomial
from bimac.sparts import SuperPartition
from bimac.xpoly import XPolynomial, _check_var, _xpoly, permute_vars


def apply_K(i: int, j: int, f: XPolynomial) -> XPolynomial:
    """Exchange x_i and x_j."""
    _check_var(i, f.nvars)
    _check_var(j, f.nvars)
    sigma = list(range(1, f.nvars + 1))
    sigma[i - 1], sigma[j - 1] = j, i
    return permute_vars(f, tuple(sigma))


def apply_T0(f: XPolynomial) -> XPolynomial:
    """T_0 f = t f + (q t x_N - x_1) (g - f)/(q x_N - x_1), g = s_0 f the
    image of f under x_1 -> q x_N, x_N -> x_1/q: t g + (t - 1) x_1 times
    the quotient, by _t0."""
    return _xpoly(f.nvars, _t0(f.terms, _QT))


def q_shift(f: XPolynomial, J) -> XPolynomial:
    """tau_J f: x_i -> q x_i for i in J (1-based set)."""
    for i in J:
        _check_var(i, f.nvars)
    idx = [i - 1 for i in J]
    out = {}
    for e, c in f.terms.items():
        k = sum(e[i] for i in idx)
        out[e] = c.mul_monomial(k, 0) if k else c
    return _xpoly(f.nvars, out)


def vandermonde(kind: str, I, nvars: int) -> XPolynomial:
    """prod over ordered pairs of I of (x_i - x_j) or (t x_i - x_j)."""
    if kind not in ("plain", "t_deformed"):
        raise ValueError(f"unknown Vandermonde kind {kind!r}")
    t = qt_monomial(0, 1)
    out = XPolynomial.one(nvars)
    for a, b in combinations(sorted(I), 2):
        xa = XPolynomial.variable(a, nvars)
        if kind == "t_deformed":
            xa = xa.scale(t)
        out = out * (xa - XPolynomial.variable(b, nvars))
    return out


def map_coeffs(f: XPolynomial, fn) -> XPolynomial:
    """f with fn applied to each coefficient."""
    return XPolynomial(f.nvars, {e: fn(c) for e, c in f.terms.items()})


def phi_at(sigma, m: int, point, shift_J=frozenset()) -> QTScalar:
    """The factor Phi(sigma) evaluated at the point, with coordinates in
    shift_J premultiplied by q (for use inside a q-shift)."""
    num, den = [], []
    _phi_into(num, den, SigmaSets.from_sigma(tuple(sigma), m),
              _shifted(point, shift_J))
    return _Factored.prod(num, den).expand()


def t_bracket(k: int, param: str = "t") -> QTScalar:
    """[k] = 1 + p + ... + p^(k-1) in the chosen parameter."""
    if k < 0:
        raise ValueError("bracket of a negative integer")
    return _Factored.prod(*_brackets((k,), param)).expand()


def perm_compose(p, q):
    """p after q: (p o q)(i) = p(q(i))."""
    return tuple(p[q[i] - 1] for i in range(len(p)))


def perm_act(w, v):
    """The vector w(v) with (w v)_i = v_(w^-1(i))."""
    out = [0] * len(v)
    for i, x in enumerate(v):
        out[w[i] - 1] = x
    return tuple(out)


def is_superevaluation(lam: SuperPartition, sigma) -> bool:
    comp = lam.as_composition()
    plus = tuple(x + 1 for x in comp[:lam.m]) + comp[lam.m:]
    return perm_act(sigma, comp) == lam.star() and \
        perm_act(sigma, plus) == lam.circled()
