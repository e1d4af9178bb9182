"""Compositions, partitions and superpartitions: diagrams, sorting
permutations, evaluation points (tuples of the (a_i, b_i) of
x_i -> q^(a_i) t^(b_i)), hook statistics and vertical-strip
enumeration with certificates.  An anti part is enumerated as a
partition plus the staircase (m - 1, .., 0).  A strip is grown row by
row; each row's moves are precomputed with the moves of the row below
that fit under them and with the most that they and the rows below can
add to the star and to the circled diagram, so the search takes a move
only while both totals can still reach r.  A strip's row lists (filled,
circled square, new circle, both) come from the move chosen for each
row.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import ge, gt

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

def _integral(parts, name):
    """parts as a tuple of ints, which 2, 2.0, Fraction(2) and "2" give;
    a part that is not an integer raises ValueError naming parts.  A
    tuple of ints costs one comparison."""
    try:
        out = tuple(map(int, parts))
        if out == parts or out == tuple(map(Fraction, parts)):
            return out
    except (TypeError, ValueError, OverflowError):
        pass
    raise ValueError(f"{name} part {parts!r} has a part that is not an "
                     "integer")


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
        # parts of a weakly decreasing tuple are nonnegative when its
        # last part is, and its zero parts are a suffix
        anti = _integral(self.anti, "anti")
        m = len(anti)
        if m > self.N:
            raise ValueError("fermionic degree exceeds variable count")
        if any(map(ge, anti[1:], anti)) or (anti and anti[-1] < 0):
            raise ValueError(f"anti part {anti} is not strictly decreasing")
        sym = _integral(self.sym, "sym")
        if any(map(gt, sym[1:], sym)) or (sym and sym[-1] < 0):
            raise ValueError(f"sym part {sym} is not a partition")
        n = self.N - m
        if len(sym) > n:
            if sym[n]:
                raise ValueError("sym part is longer than N - m")
            sym = sym[:n]
        elif len(sym) < n:
            sym += (0,) * (n - len(sym))
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


# The moves of one row of Lambda as (a, b, kind), keyed by whether the
# row has a circle and by the strip type: the growth (a, b) of the row in
# (star, circled) and the list of _certificate's `moved` that the move
# puts the row in (None: no move).  A row with a circle may take (1,0)
# "square over circle" or, in type II, (1,1) adding a square over the
# circle and a circle one column further; a row without a circle may
# take (0,1) "new circle" or, in type I only, (1,1) "filled".  Each
# row's moves are listed in increasing order of the grown row.
_MOVES = {
    (True, "I"): ((0, 0, None), (1, 0, 1)),
    (True, "II"): ((0, 0, None), (1, 0, 1), (1, 1, 3)),
    (False, "I"): ((0, 0, None), (0, 1, 2), (1, 1, 0)),
    (False, "II"): ((0, 0, None), (0, 1, 2)),
}


def _certificate(lam, omg, moved, diagrams, strip_type, r, w, w_inv):
    """The certificate of the strip Omega/Lambda, given Omega's (star,
    circled) diagrams and the rows the strip moved, as four increasing
    lists of 1-based rows: filled, given a circled square only, given a
    new circle only, given both.  Each permutation is formed in one
    indexing pass: p o q is [p[x - 1] for x in q], and the vector u^-1(v)
    is [v[x - 1] for x in u]."""
    filled, pure_cs, pure_nc, both = moved
    m, N = lam.m, lam.N
    if len(pure_cs) != len(pure_nc):
        raise ConsistencyError("unbalanced circle movement in strip")
    st = list(range(1, N + 1))
    for a, b in zip(pure_cs, pure_nc):
        st[a - 1], st[b - 1] = st[b - 1], st[a - 1]
    circled_square = frozenset(pure_cs + both)
    if strip_type == "I":
        J_tilde = circled_square.union(filled)
    else:
        J_tilde = circled_square
    # back = w^-1 o sigma_tilde: sigma0 = back o w and J = back(J_tilde)
    back = [w_inv[x - 1] for x in st]
    sigma0 = tuple([back[x - 1] for x in w])
    J = frozenset([back[j - 1] for j in J_tilde])
    if len(J) != r:
        raise ConsistencyError("certificate J has the wrong size")
    # adjust sigma within its coset so the Pieri-rule conditions hold
    # verbatim for the superpartition ordering of Omega
    target = [x + 1 for x in lam.anti] + list(lam.sym)
    for j in J:
        target[j - 1] += 1
    raw = tuple([target[x - 1] for x in sigma0])
    omg_plus = tuple([x + 1 for x in omg.anti]) + omg.sym
    if raw == omg_plus:
        sigma = sigma0
    else:
        s = _blockwise_sorting(raw, m)
        sigma = tuple([sigma0[x - 1] for x in s])
        if tuple([target[x - 1] for x in sigma]) != omg_plus:
            raise ConsistencyError("could not align certificate permutation")
    L = frozenset(range(m + 1, N + 1)) - J
    if L.intersection(sigma[:m]):
        raise ConsistencyError("sigma([m]) meets L")
    # the superevaluation check of omg at w o sigma, read on Omega's
    # diagrams
    star, circ = diagrams
    tau = [w[x - 1] for x in sigma]
    if tuple([star[x - 1] for x in tau]) != omg.anti + omg.sym or \
            tuple([circ[x - 1] for x in tau]) != omg_plus:
        raise ConsistencyError("certificate fails the superevaluation check")
    return StripCertificate(
        lam=lam, omg=omg, rows_circled_square=circled_square,
        rows_new_circle=frozenset(pure_nc + both), w=w,
        sigma_tilde=tuple(st), sigma=sigma, J_tilde=J_tilde, J=J, L=L,
        strip_type=strip_type, r=r)


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

    # One node per move of each row, built from the last row up:
    # (star row, circled row, kind, a, b, most a, most b, next), where
    # next holds the moves of the row below that fit under this one (rows
    # stay weakly decreasing, and a circled row may not repeat the row
    # above: two circles in one column) and "most" is the largest total
    # of a, and of b, that this move and the rows below it can add.  The
    # zero move always fits, so a is the least.  A move grows its row in
    # both diagrams at least as much as the moves listed before it, so
    # it has at least their "most": the last move in next has the largest
    below = ()
    for i in range(N - 1, -1, -1):
        nodes = []
        for a, b, kind in _MOVES[circ[i] > star[i], strip_type]:
            s, c = star[i] + a, circ[i] + b
            nxt = [n for n in below if n[0] <= s and n[1] <= c
                   and (n[0] < s or n[1] < c or c == s)]
            most_a, most_b = nxt[-1][5:7] if nxt else (0, 0)
            nodes.append((s, c, kind, a, b, a + most_a, b + most_b, nxt))
        below = nodes

    path = []

    def leaf():
        srows = tuple([n[0] for n in path])
        crows = tuple([n[1] for n in path])
        omg = SuperPartition(
            tuple([s for s, c in zip(srows, crows) if c > s]),
            tuple([s for s, c in zip(srows, crows) if c == s]), N)
        if omg.star() != srows or omg.circled() != crows:
            raise ConsistencyError("grown strip rows do not round-trip")
        moved = ([], [], [], [])
        for i, n in enumerate(path, 1):
            if n[2] is not None:
                moved[n[2]].append(i)
        out.append(_certificate(lam, omg, moved, (srows, crows), strip_type,
                                r, w, w_inv))

    def rec(nodes, need_a, need_b):
        # take a move only if both totals can still reach r
        for node in nodes:
            _, _, _, a, b, most_a, most_b, nxt = node
            if a <= need_a <= most_a and b <= need_b <= most_b:
                path.append(node)
                if nxt:
                    rec(nxt, need_a - a, need_b - b)
                else:
                    leaf()
                path.pop()

    rec(below, r, r)
    out.sort(key=lambda c: (c.omg.anti, c.omg.sym))
    return out
