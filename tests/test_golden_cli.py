"""Golden output, pinned byte for byte so that changes to the
arithmetic core cannot alter what users see: the CLI's standard output
and the text of scalar and polynomial rendering.

``GOLDEN_SETS`` maps each golden file next to this module to its
command table, and each file maps a command line to its stdout.
``golden_cli.json`` (under "cli", beside the rendering pins) is checked
here, ``golden_n56.json`` and ``golden_p_n5.json`` by the test modules
of those names.  Every command runs with cold E/P caches.  Regenerate
all three files (only when an output change is intended) with

    PYTHONPATH=src python tests/test_golden_cli.py
"""

import contextlib
import functools
import io
import json
from fractions import Fraction
from pathlib import Path

import pytest

from bimac import macdonald
from bimac.cli import main
from bimac.qt import QTPoly, QTScalar, format_poly, format_scalar, qt_monomial
from bimac.sparts import format_spart, superpartitions

HERE = Path(__file__).parent

FORMATS = ("text", "latex", "json")
N56_SHAPES = (
    [(spart, N) for N in ("5", "6")
     for spart in ("2,0;1", "1;1,1", "3,1,0;2", "1,0;2", "2,1;1")]
    + [("3,1,0;2,1", "6")]
)
GOLDEN_SETS = {
    "golden_cli.json": (
        [["E", "--eta", eta, "--format", f] for eta in
         ("0,1", "1,0", "2,0,1", "1,0,1,0", "0,2,1,1") for f in FORMATS]
        + [["P", "--spart", spart, "--N", N, "--format", f] for spart, N in
           (("1;1", "3"), ("1;", "3"), ("2,0;1", "4"), ("1,0;2", "4"),
            ("2;1,1", "4")) for f in FORMATS]
        + [["eval", "--spart", spart, "--N", N, "--sign", sign, "--route",
            "both"] for spart, N in (("1;1", "3"), ("2,0;1", "4"))
           for sign in ("plus", "minus")]
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
                                 ("evaluation", "5", "3"),
                                 ("hecke", "5", "3"))]
    ),
    "golden_n56.json": (
        [["pieri", "--spart", spart, "--N", N, "--r", r, "--variant", v,
          "--format", "json"]
         for spart, N in N56_SHAPES for v in ("upper", "lower") for r in "123"]
        + [["eval", "--spart", spart, "--N", N, "--sign", sign,
            "--route", "formula"]
           for spart, N in N56_SHAPES for sign in ("plus", "minus")]
    ),
    "golden_p_n5.json": [
        ["P", "--spart", format_spart(sp), "--N", "5", "--format", "json"]
        for d in (3, 4) for m in range(4) for sp in superpartitions(d, m, 5)],
}

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


POLYS = {
    "1": {(0, 0): 1},
    "-q": {(1, 0): -1},
    "3 - 2*q*t + t^5": {(0, 0): 3, (1, 1): -2, (0, 5): 1},
    "-4*q^2 + q^2*t^3": {(2, 0): -4, (2, 3): 1},
}


def key(argv):
    return " ".join(argv)


def _run(argv):
    """(exit code, stdout) of one CLI run, started with cold E/P caches."""
    macdonald.clear_caches()
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(list(argv))
    return code, buf.getvalue()


def _render_scalar(s):
    return {"text": format_scalar(s),
            "latex": format_scalar(s, latex=True),
            "json": json.dumps(s.to_json(), sort_keys=True)}


def _render_poly(terms):
    p = QTPoly(terms)
    return {"text": format_poly(p), "latex": format_poly(p, latex=True)}


@functools.cache
def _load(name="golden_cli.json"):
    with open(HERE / name, encoding="utf-8") as fh:
        return json.load(fh)


def check_stdout(name, argv):
    """The command exits 0 and prints the bytes pinned in file name."""
    want = _load(name)
    want = want["cli"] if name == "golden_cli.json" else want
    assert _run(argv) == (0, want[key(argv)])


@pytest.mark.parametrize("argv", GOLDEN_SETS["golden_cli.json"], ids=key)
def test_cli_stdout(argv):
    check_stdout("golden_cli.json", argv)


@pytest.mark.parametrize("spart", WARM_SHAPES)
def test_warm_cache_stdout(spart, tmp_path):
    """P served through a filled cache file prints the cold run's bytes,
    and the file holds only K records."""
    path = tmp_path / "cache.jsonl"
    argv = ["--cache", str(path), "P", "--spart", spart, "--N", "5",
            "--format", "json"]
    cold = _run(argv)
    written = path.read_text()
    assert cold[0] == 0 and written
    assert _run(argv) == cold
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
    for name, commands in GOLDEN_SETS.items():
        out = {}
        for argv in commands:
            code, out[key(argv)] = _run(argv)
            assert code == 0, argv
        if name == "golden_cli.json":
            out = {"cli": out,
                   "scalars": {n: _render_scalar(s)
                               for n, s in _scalars().items()},
                   "polys": {n: _render_poly(t) for n, t in POLYS.items()}}
        with open(HERE / name, "w", encoding="utf-8") as fh:
            json.dump(out, fh, indent=1, sort_keys=True, ensure_ascii=False)
            fh.write("\n")
        print(f"wrote {HERE / name}: {len(commands)} commands")
