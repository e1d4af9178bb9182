"""Compositions, partitions and superpartitions: diagrams, sorting
permutations, evaluation points (tuples of the (a_i, b_i) of
x_i -> q^(a_i) t^(b_i)), hook statistics and vertical-strip
enumeration with certificates.  An anti part is enumerated as a
partition plus the staircase (m - 1, .., 0).  A strip's row sets (filled,
circled square, new circle) come from the move chosen for each row as
the strip is grown.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ConsistencyError
from .qt import QTScalar, qt_monomial


# ---------------------------------------------------------------------------
# permutations (one-line notation, 1-based values in tuples)
# ---------------------------------------------------------------------------

def perm_inverse(p):
    out = [0] * len(p)
    for i, v in enumerate(p):
        out[v - 1] = i + 1
    return tuple(out)


def perm_compose(p, q):
    """p after q: (p o q)(i) = p(q(i))."""
    return tuple(p[q[i] - 1] for i in range(len(p)))


def perm_act(w, v):
    """The vector w(v) with (w v)_i = v_(w^-1(i))."""
    out = [0] * len(v)
    for i, x in enumerate(v):
        out[w[i] - 1] = x
    return tuple(out)


def sorting_permutation(v):
    """Minimal-length w with w(v) weakly decreasing.

    Stability of the sort (equal entries keep their relative order) is
    exactly minimality of the Coxeter length.
    """
    n = len(v)
    order = sorted(range(n), key=lambda p: (-v[p], p))
    w = [0] * n
    for row, pos in enumerate(order):
        w[pos] = row + 1
    return tuple(w)


# ---------------------------------------------------------------------------
# compositions and partitions
# ---------------------------------------------------------------------------

def is_partition(v):
    return all(v[i] >= v[i + 1] for i in range(len(v) - 1)) and \
        all(x >= 0 for x in v)


def conjugate_partition(v):
    if not v or v[0] == 0:
        return ()
    return tuple(sum(1 for x in v if x >= j) for j in range(1, v[0] + 1))


def n_statistic(v):
    """n(lambda) = sum (i-1) lambda_i."""
    return sum(i * x for i, x in enumerate(v))


def compositions_of(d, n):
    """All weak compositions of d into n parts, lexicographic order."""
    if n == 0:
        if d == 0:
            yield ()
        return
    for first in range(d, -1, -1):
        for rest in compositions_of(d - first, n - 1):
            yield (first,) + rest


def partitions_of(d, max_parts=None, max_part=None):
    """Partitions of d, optionally bounded in length and part size."""
    if max_parts is None:
        max_parts = d
    if max_part is None:
        max_part = d
    if d == 0:
        yield ()
        return
    if max_parts == 0:
        return
    for first in range(min(d, max_part), 0, -1):
        for rest in partitions_of(d - first, max_parts - 1, first):
            yield (first,) + rest


def row_of_circle(eta, i):
    """The row of the i-circle in the composition diagram of eta.

    Rows of the sorted diagram are labelled 1..N top to bottom; circles
    on rows of equal size are ordered top to bottom by increasing index.
    """
    w = sorting_permutation(eta)
    return w[i - 1]


def eigenvalue(eta, i) -> QTScalar:
    """The Cherednik eigenvalue q^(eta_i) t^(1 - r_eta(i))."""
    return qt_monomial(eta[i - 1], 1 - row_of_circle(eta, i))


# ---------------------------------------------------------------------------
# superpartitions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SuperPartition:
    """A pair (anti; sym) of fermionic degree m = len(anti) in N variables.

    anti is strictly decreasing (a zero entry is allowed); sym is a
    partition, stored zero-padded to exactly N - m parts.  Counting the
    padded zeros is deliberate: it is the reading of the normalization
    constant under which the dominant-monomial coefficient comes out 1.
    """

    anti: tuple
    sym: tuple
    N: int

    def __post_init__(self):
        anti = tuple(int(x) for x in self.anti)
        m = len(anti)
        if m > self.N:
            raise ValueError("fermionic degree exceeds variable count")
        if any(anti[i] <= anti[i + 1] for i in range(m - 1)) or \
                any(x < 0 for x in anti):
            raise ValueError(f"anti part {anti} is not strictly decreasing")
        sym = tuple(int(x) for x in self.sym)
        if not is_partition(sym):
            raise ValueError(f"sym part {sym} is not a partition")
        sym = tuple(x for x in sym if x)
        if len(sym) > self.N - m:
            raise ValueError("sym part is longer than N - m")
        sym = sym + (0,) * (self.N - m - len(sym))
        object.__setattr__(self, "anti", anti)
        object.__setattr__(self, "sym", sym)

    # -- basic data ----------------------------------------------------
    @property
    def m(self):
        return len(self.anti)

    def as_composition(self):
        return self.anti + self.sym

    def star(self):
        return tuple(sorted(self.anti + self.sym, reverse=True))

    def circled(self):
        shifted = tuple(x + 1 for x in self.anti)
        return tuple(sorted(shifted + self.sym, reverse=True))

    def eta(self):
        """(Lambda_1..Lambda_m, Lambda_N, Lambda_(N-1), .., Lambda_(m+1))."""
        return self.anti + self.sym[::-1]

    def degree(self):
        return sum(self.anti) + sum(self.sym)

    def __str__(self):
        return format_spart(self)


def parse_spart(text: str, N: int) -> SuperPartition:
    if ";" not in text:
        raise ValueError(f"superpartition text {text!r} needs a ';'")
    left, right = text.split(";", 1)

    def side(s):
        s = s.strip()
        if s in ("", "∅"):
            return ()
        try:
            return tuple(int(x) for x in s.split(","))
        except ValueError:
            raise ValueError(f"superpartition text {text!r} has a part that "
                             "is not an integer") from None
    return SuperPartition(side(left), side(right), N)


def format_spart(lam: SuperPartition) -> str:
    anti = ",".join(str(x) for x in lam.anti)
    sym = tuple(x for x in lam.sym if x)
    return f"{anti};{','.join(str(x) for x in sym)}"


def superpartitions(deg_star: int, m: int, N: int):
    """All superpartitions with |Lambda*| = deg_star and m anti parts, by
    ascending |anti|, then anti and sym descending lexicographically; anti
    is a partition of at most m parts plus the staircase (m - 1, .., 0)."""
    stair = m * (m - 1) // 2
    out = []
    for asum in range(stair, deg_star + 1):
        for mu in partitions_of(asum - stair, max_parts=m):
            mu += (0,) * (m - len(mu))
            anti = tuple(x + m - 1 - i for i, x in enumerate(mu))
            for nu in partitions_of(deg_star - asum, max_parts=N - m):
                out.append(SuperPartition(anti, nu, N))
    return out


def minimal_sorting_permutation(lam: SuperPartition):
    """Minimal-length w with w(Lambda) = Lambda*.

    Stability puts anti entries before equal sym entries, which is the
    choice that also sorts Lambda + (1^m) to the circled diagram.
    """
    return sorting_permutation(lam.as_composition())


def is_superevaluation(lam: SuperPartition, sigma) -> bool:
    comp = lam.as_composition()
    plus = tuple(x + 1 for x in comp[:lam.m]) + comp[lam.m:]
    return perm_act(sigma, comp) == lam.star() and \
        perm_act(sigma, plus) == lam.circled()


def eval_point(lam: SuperPartition, sign: str) -> tuple:
    """The substitution point of the positive or negative evaluation:
    the (a_i, b_i) of x_i -> q^(a_i) t^(b_i), i = 1..N."""
    w = minimal_sorting_permutation(lam)
    star, circ = lam.star(), lam.circled()
    if sign == "plus":
        return tuple((circ[w[i] - 1], 1 - w[i]) for i in range(lam.N))
    if sign == "minus":
        return tuple((-star[w[i] - 1], w[i] - 1) for i in range(lam.N))
    raise ValueError(f"unknown sign {sign!r}")


def lambda_naught(m: int, N: int) -> SuperPartition:
    """The staircase superpartition (delta_m; empty)."""
    return SuperPartition(tuple(range(m - 1, -1, -1)), (), N)


# ---------------------------------------------------------------------------
# hook statistics for the evaluation formulas
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HookData:
    b_cells: tuple          # cells (i,j) of Lambda*, 1-based
    s_cells: tuple          # cells (i,j) of the circled diagram above delta
    n_s: int                # sum of (i-1) over s_cells
    anti_skew_size: int     # |anti/delta_m|
    n_anti_skew: int        # n(anti) - n(delta_m)
    n_conj_anti_skew: int   # same statistic for the conjugate diagram


def conjugate_anti(star, circ):
    """Anti part of the conjugate superpartition of the diagram pair
    (star, circ), via diagram transpose."""
    star_c = conjugate_partition(star)
    circ_c = conjugate_partition(circ)
    rows = max(len(circ_c), len(star_c))
    star_c = star_c + (0,) * (rows - len(star_c))
    circ_c = circ_c + (0,) * (rows - len(circ_c))
    anti = [star_c[i] for i in range(rows) if circ_c[i] == star_c[i] + 1]
    if sorted(anti, reverse=True) != anti or len(set(anti)) != len(anti):
        raise ConsistencyError("conjugate diagram is not a superpartition")
    return tuple(anti)


def hook_data(lam: SuperPartition) -> HookData:
    m, N = lam.m, lam.N
    star, circ = lam.star(), lam.circled()
    circled_rows = {i + 1 for i in range(N) if circ[i] == star[i] + 1}
    circled_cols = {star[i - 1] + 1 for i in circled_rows}
    b_cells = tuple((i, j)
                    for i in range(1, N + 1)
                    for j in range(1, star[i - 1] + 1)
                    if not (i in circled_rows and j in circled_cols))
    s_cells = tuple((i, j)
                    for i in range(1, N + 1)
                    for j in range(max(m + 1 - i, 0) + 1, circ[i - 1] + 1))
    delta = tuple(range(m - 1, -1, -1))
    return HookData(
        b_cells=b_cells,
        s_cells=s_cells,
        n_s=sum(i - 1 for i, _ in s_cells),
        anti_skew_size=sum(lam.anti) - m * (m - 1) // 2,
        n_anti_skew=n_statistic(lam.anti) - n_statistic(delta),
        n_conj_anti_skew=(n_statistic(conjugate_anti(star, circ))
                          - n_statistic(delta)),
    )


# ---------------------------------------------------------------------------
# vertical strips
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StripCertificate:
    """A vertical strip Omega/Lambda together with the permutation data
    that feeds a Pieri coefficient.

    Row sets are 1-based diagram rows; a row may carry both a circled
    square and a new circle only in type II strips.
    """

    lam: SuperPartition
    omg: SuperPartition
    rows_circled_square: frozenset
    rows_new_circle: frozenset
    w: tuple
    sigma_tilde: tuple
    sigma: tuple
    J_tilde: frozenset
    J: frozenset
    L: frozenset
    strip_type: str
    r: int


def _blockwise_sorting(vec, m):
    """Permutation s with s^-1(vec) blockwise sorted (stable)."""
    n = len(vec)
    order = list(sorted(range(m), key=lambda p: (-vec[p], p))) + \
        list(sorted(range(m, n), key=lambda p: (-vec[p], p)))
    # s(i) = order[i-1] + 1 gives v_(s(i)) sorted within blocks
    return tuple(p + 1 for p in order)


def _certificate(lam, omg, rows, strip_type, r, w, w_inv):
    filled, circled_square, new_circle = rows
    m, N = lam.m, lam.N
    pure_cs = sorted(circled_square - new_circle)
    pure_nc = sorted(new_circle - circled_square)
    if len(pure_cs) != len(pure_nc):
        raise ConsistencyError("unbalanced circle movement in strip")
    st = list(range(1, N + 1))
    for a, b in zip(pure_cs, pure_nc):
        st[a - 1], st[b - 1] = st[b - 1], st[a - 1]
    sigma_tilde = tuple(st)
    if strip_type == "I":
        J_tilde = frozenset(circled_square | filled)
    else:
        J_tilde = frozenset(circled_square)
    sigma0 = perm_compose(w_inv, perm_compose(sigma_tilde, w))
    J = frozenset(w_inv[sigma_tilde[j - 1] - 1] for j in J_tilde)
    if len(J) != r:
        raise ConsistencyError("certificate J has the wrong size")
    # adjust sigma within its coset so the Pieri-rule conditions hold
    # verbatim for the superpartition ordering of Omega
    comp_plus = tuple(x + 1 for x in lam.anti) + lam.sym
    target = tuple(v + (1 if i + 1 in J else 0)
                   for i, v in enumerate(comp_plus))
    raw = perm_act(perm_inverse(sigma0), target)
    omg_plus = tuple(x + 1 for x in omg.anti) + omg.sym
    if raw == omg_plus:
        sigma = sigma0
    else:
        s = _blockwise_sorting(raw, m)
        sigma = perm_compose(sigma0, s)
        if perm_act(perm_inverse(sigma), target) != omg_plus:
            raise ConsistencyError("could not align certificate permutation")
    L = frozenset(range(m + 1, N + 1)) - J
    if set(sigma[i] for i in range(m)) & L:
        raise ConsistencyError("sigma([m]) meets L")
    if not is_superevaluation(omg, perm_compose(w, sigma)):
        raise ConsistencyError("certificate fails the superevaluation check")
    return StripCertificate(
        lam=lam, omg=omg,
        rows_circled_square=frozenset(circled_square),
        rows_new_circle=frozenset(new_circle),
        w=w, sigma_tilde=sigma_tilde, sigma=sigma,
        J_tilde=J_tilde, J=J, L=L, strip_type=strip_type, r=r)


def enumerate_strips(lam: SuperPartition, r: int, strip_type: str):
    """All Omega with Omega/Lambda a vertical r-strip of the given type,
    each with its certificate.  Out-of-range r yields the empty list.
    """
    if strip_type not in ("I", "II"):
        raise ValueError(f"unknown strip type {strip_type!r}")
    m, N = lam.m, lam.N
    rmax = N - m if strip_type == "I" else m
    if r < 1 or r > rmax:
        return []
    star = lam.star()
    circ = lam.circled()
    w = minimal_sorting_permutation(lam)
    w_inv = perm_inverse(w)
    out = []

    # per-row growth (a_i, b_i) of (star, circled), with the row sets
    # (0 filled, 1 circled square, 2 new circle) the move puts row i in; a
    # row of Lambda with a circle may take (1,0) "square over circle" or,
    # in type II, (1,1) adding a square over the circle and a circle one
    # column further; a row without a circle may take (1,1) "filled"
    # (type I only) or (0,1) "new circle"
    def options(i):
        opts = [(0, 0, ())]
        if circ[i] == star[i] + 1:
            opts.append((1, 0, (1,)))
            if strip_type == "II":
                opts.append((1, 1, (1, 2)))
        else:
            if strip_type == "I":
                opts.append((1, 1, (0,)))
            opts.append((0, 1, (2,)))
        return opts

    row_options = [options(i) for i in range(N)]

    def leaf(rows):
        omg = SuperPartition(tuple(s for s, c, _ in rows if c > s),
                             tuple(s for s, c, _ in rows if c == s), N)
        if omg.star() != tuple(s for s, _, _ in rows) or \
                omg.circled() != tuple(c for _, c, _ in rows):
            raise ConsistencyError("grown strip rows do not round-trip")
        sets = (set(), set(), set())
        for i, (_, _, joins) in enumerate(rows, 1):
            for k in joins:
                sets[k].add(i)
        out.append(_certificate(lam, omg, sets, strip_type, r, w, w_inv))

    def rec(i, asum, bsum, prev, rows):
        # each of the N - i rows left adds at most one to asum and bsum
        if asum > r or bsum > r or min(asum, bsum) + N - i < r:
            return
        if i == N:
            leaf(rows)
            return
        for a, b, joins in row_options[i]:
            row = (star[i] + a, circ[i] + b)
            # rows stay weakly decreasing, and a circled row may not
            # repeat the row above: two circles in one column
            if row[0] > prev[0] or row[1] > prev[1] or \
                    (row == prev and row[1] > row[0]):
                continue
            rows.append(row + (joins,))
            rec(i + 1, asum + a, bsum + b, row, rows)
            rows.pop()

    rec(0, 0, 0, (10 ** 9, 10 ** 9), [])
    out.sort(key=lambda c: (c.omg.anti, c.omg.sym))
    return out
