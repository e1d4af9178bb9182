"""Text, LaTeX and JSON rendering of polynomials and expansions."""

from __future__ import annotations

from .qt import QTScalar, _powers, format_scalar
from .xpoly import XPolynomial


def format_xpoly(f: XPolynomial, latex: bool = False) -> str:
    if f.is_zero():
        return "0"
    chunks = []
    for e, c in f.sorted_terms():
        mono = _powers(((("x_{%d}" if latex else "x%d") % (i + 1), k)
                        for i, k in enumerate(e) if k), latex)
        cs = format_scalar(c, latex)
        neg = cs.startswith("-")
        if neg:
            cs = cs[1:]
        # text groups a sum or a quotient; LaTeX only a sum beside a
        # monomial, since \frac groups itself
        group = len(c.num.terms) > 1 or not c.den.is_one()
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
    return {"N": f.nvars,
            "terms": [{"x": list(e), "coeff": c.to_json()}
                      for e, c in f.sorted_terms()]}


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
