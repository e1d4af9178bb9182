"""Text, LaTeX and JSON rendering of polynomials and expansions, and
the JSON grammar of a Z[q,t] term dict {x-exponent: QTPoly}, in which
the cache file holds E's integral multiple K."""

from __future__ import annotations

from .qt import QTPoly, QTScalar, _powers, format_scalar
from .xpoly import XPolynomial, _xpoly


def format_xpoly(f: XPolynomial, latex: bool = False) -> str:
    """f as text or LaTeX, each coefficient object formatted once: a P or
    an E shares one object among its equal coefficients, and f holds
    every coefficient for the whole call, so no id is reused within it."""
    if f.is_zero():
        return "0"
    chunks = []
    texts = {}  # id of a coefficient -> (its text unsigned, sign, grouped)
    for e, c in f.sorted_terms():
        mono = _powers(((("x_{%d}" if latex else "x%d") % (i + 1), k)
                        for i, k in enumerate(e) if k), latex)
        known = texts.get(id(c))
        if known is None:
            cs = format_scalar(c, latex)
            known = texts[id(c)] = (cs.removeprefix("-"), cs.startswith("-"),
                                    len(c.num.terms) > 1 or not c.den.is_one())
        cs, neg, group = known
        # text groups a sum or a quotient; LaTeX only a sum beside a
        # monomial, since \frac groups itself
        if group and not (latex and (not mono or cs.startswith("\\frac"))):
            cs = f"({cs})"
        body = cs if not mono else mono if cs == "1" else \
            cs + (" " if latex else "*") + mono
        if not chunks:
            chunks.append(("-" if neg else "") + body)
        else:
            chunks.append(("- " if neg else "+ ") + body)
    return " ".join(chunks)


def diagram_latex(lam) -> str:
    """The diagram of a superpartition with square and circle marks."""
    star = lam.star()
    circ = lam.circled()
    rows = []
    for i in range(lam.N):
        cells = ["\\square"] * star[i]
        if circ[i] == star[i] + 1:
            cells.append("\\bigcirc")
        if cells:
            rows.append(" & ".join(cells))
    body = " \\\\\n".join(rows)
    return "\\begin{matrix}\n%s\n\\end{matrix}" % body


def xpoly_to_json(f: XPolynomial) -> dict:
    """{"N": N, "terms": [{"x": exponent, "coeff": JSON}, ..]} in graded
    order, each coefficient object's JSON formed once, as format_xpoly
    formats it once: equal coefficients that are one object share one
    JSON value."""
    rows = {}  # id of a coefficient -> its JSON
    terms = []
    for e, c in f.sorted_terms():
        coeff = rows.get(id(c))
        if coeff is None:
            coeff = rows[id(c)] = c.to_json()
        terms.append({"x": list(e), "coeff": coeff})
    return {"N": f.nvars, "terms": terms}


def _json_int(value, what):
    """value if it is a JSON integer; a float, a string or a bool raises
    ValueError naming what it is."""
    if type(value) is not int:
        raise ValueError(f"{what} {value!r} is not an integer")
    return value


def xpoly_from_json(obj) -> XPolynomial:
    terms = {}
    for item in obj["terms"]:
        terms[tuple(int(v) for v in item["x"])] = QTScalar.from_json(item["coeff"])
    return XPolynomial(_json_int(obj["N"], "polynomial N"), terms)


# the den rows of a coefficient in Z[q,t], as terms_to_json writes them
_DEN_ONE = [["1", 0, 0]]


def terms_to_json(N, f) -> dict:
    """The JSON of a Z[q,t] term dict in N variables: what xpoly_to_json
    writes for the same polynomial over Q(q,t), each coefficient's num
    rows [integer text, q-degree, t-degree] over the den row 1."""
    return {"N": N,
            "terms": [{"x": list(e),
                       "coeff": {"num": [[str(v), a, b] for (a, b), v
                                         in c.sorted_terms()],
                                 "den": _DEN_ONE}}
                      for e, c in _xpoly(N, f).sorted_terms()]}


def _integral_rows(num, den):
    """Whether num and den are the rows of a coefficient in Z[q,t] as
    terms_to_json writes it: each num row [integer text, q-degree,
    t-degree] with the degrees nonnegative JSON integers, and den the
    row 1.  A row with a negative exponent raises ValueError, and one
    that does not unpack into three raises what unpacking raises."""
    for c, a, b in num:
        if not (type(c) is str and type(a) is int and type(b) is int
                and a >= 0 <= b and c.removeprefix("-").isdecimal()):
            break
    else:
        if den == _DEN_ONE:
            return True
    if any((type(a) is int and a < 0) or (type(b) is int and b < 0)
           for rows in (num, den) for _, a, b in rows):
        raise ValueError("K record row exponents must be nonnegative")
    return False


def _rows_poly(rows) -> QTPoly:
    """The QTPoly of num rows that passed _integral_rows."""
    return QTPoly({(a, b): int(c) for c, a, b in rows})


def terms_from_json(obj) -> dict:
    """The Z[q,t] term dict of JSON whose rows passed _integral_rows,
    zero coefficients dropped."""
    terms = {tuple(map(int, item["x"])): _rows_poly(item["coeff"]["num"])
             for item in obj["terms"]}
    return {e: c for e, c in terms.items() if c}
