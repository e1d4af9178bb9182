"""Golden output: the exact standard output of the CLI and the exact
text of scalar rendering, pinned so that changes to the arithmetic core
cannot alter a single byte of what users see.

The expected strings live in ``golden_cli.json`` next to this file.
Regenerate them (only when an output change is intended) with

    PYTHONPATH=src python tests/test_golden_cli.py
"""

import json
from fractions import Fraction
from pathlib import Path

import pytest

from bimac import macdonald
from bimac.cli import main
from bimac.qt import QTPoly, QTScalar, format_poly, format_scalar, qt_monomial

GOLDEN = Path(__file__).with_name("golden_cli.json")

FORMATS = ("text", "latex", "json")
COMMANDS = (
    [["E", "--eta", eta, "--format", f] for eta in
     ("0,1", "1,0", "2,0,1", "1,0,1,0", "0,2,1,1") for f in FORMATS]
    + [["P", "--spart", spart, "--N", N, "--format", f] for spart, N in
       (("1;1", "3"), ("1;", "3"), ("2,0;1", "4"), ("1,0;2", "4"),
        ("2;1,1", "4")) for f in FORMATS]
    + [["eval", "--spart", spart, "--N", N, "--sign", sign, "--route", "both"]
       for spart, N in (("1;1", "3"), ("2,0;1", "4")) for sign in
       ("plus", "minus")]
    + [["pieri", "--spart", spart, "--N", N, "--r", r, "--variant", v,
        "--format", f] for spart, N, r, v in
       (("1;1", "4", "2", "upper"), ("2,0;1", "4", "1", "lower"),
        ("1,0;", "4", "1", "upper")) for f in FORMATS]
    + [["pieri", "--spart", "2,0;1", "--N", "4", "--r", "1", "--variant",
        "lower", "--check"]]
    + [["verify", "--suite", suite, "--N", N, "--deg", deg]
       for suite, N, deg in (("all", "3", "2"), ("hecke", "5", "1"),
                             ("symmetry", "5", "3"), ("pieri", "4", "3"),
                             ("eigen", "5", "3"), ("pieri", "5", "3"),
                             ("evaluation", "5", "3"))]
)

# the shapes of perfbench's cache_session workload, at N = 5
WARM_SHAPES = (";2", "1;1", "0;1,1", "1,0;1", ";2,1", "1;2", "0;2,1", "2,0;1")


def _scalars():
    """Scalars whose rational content is not an integer."""
    one = QTScalar.one()
    q, t = qt_monomial(1, 0), qt_monomial(0, 1)
    half = QTScalar.from_fraction(Fraction(1, 2))
    return {
        "half*(1+q)/t": half * (one + q) / t,
        "-3/4*q": QTScalar.from_fraction(Fraction(-3, 4)) * q,
        "(2/3 - q*t)/(1 - q)": (QTScalar.from_fraction(Fraction(2, 3)) - q * t)
        / (one - q),
        "5/(6*(t - q^2))": QTScalar.from_fraction(Fraction(5, 6)) / (t - q * q),
        "-7/3*(1+t)/(1-q*t)": QTScalar.from_fraction(Fraction(-7, 3))
        * (one + t) / (one - q * t),
    }


def _key(argv):
    return " ".join(argv)


def _run(argv, capsys):
    macdonald.clear_caches()
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def _render_scalar(s):
    return {"text": format_scalar(s),
            "latex": format_scalar(s, latex=True),
            "json": json.dumps(s.to_json(), sort_keys=True)}


POLYS = {
    "1": {(0, 0): 1},
    "-q": {(1, 0): -1},
    "3 - 2*q*t + t^5": {(0, 0): 3, (1, 1): -2, (0, 5): 1},
    "-4*q^2 + q^2*t^3": {(2, 0): -4, (2, 3): 1},
}


def _render_poly(terms):
    p = QTPoly(terms)
    return {"text": format_poly(p), "latex": format_poly(p, latex=True)}


def _load():
    with open(GOLDEN, encoding="utf-8") as fh:
        return json.load(fh)


@pytest.mark.parametrize("argv", COMMANDS, ids=_key)
def test_cli_stdout(argv, capsys):
    want = _load()["cli"][_key(argv)]
    code, out = _run(argv, capsys)
    assert code == 0
    assert out == want


@pytest.mark.parametrize("spart", WARM_SHAPES)
def test_warm_cache_stdout(spart, tmp_path, capsys):
    """P served through a filled cache file prints the cold run's bytes,
    and the file holds only K records."""
    path = tmp_path / "cache.jsonl"
    argv = ["--cache", str(path), "P", "--spart", spart, "--N", "5",
            "--format", "json"]
    cold = _run(argv, capsys)
    written = path.read_text()
    assert cold[0] == 0 and written
    assert _run(argv, capsys) == cold
    assert path.read_text() == written
    assert all(json.loads(line)["kind"] == "K" for line in written.splitlines())
    macdonald.clear_caches()


@pytest.mark.parametrize("name", sorted(_scalars()))
def test_scalar_rendering(name):
    s = _scalars()[name]
    want = _load()["scalars"][name]
    assert _render_scalar(s) == want
    assert QTScalar.from_json(s.to_json()) == s


@pytest.mark.parametrize("name", sorted(POLYS))
def test_poly_rendering(name):
    assert _render_poly(POLYS[name]) == _load()["polys"][name]


if __name__ == "__main__":
    import contextlib
    import io

    cli = {}
    for argv in COMMANDS:
        macdonald.clear_caches()
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            assert main(list(argv)) == 0, argv
        cli[_key(argv)] = buf.getvalue()
    scalars = {name: _render_scalar(s) for name, s in _scalars().items()}
    polys = {name: _render_poly(terms) for name, terms in POLYS.items()}
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        json.dump({"cli": cli, "scalars": scalars, "polys": polys}, fh,
                  indent=1, sort_keys=True, ensure_ascii=False)
        fh.write("\n")
    print(f"wrote {GOLDEN}: {len(cli)} commands, {len(scalars)} scalars")
