"""Golden output at N = 5 and 6: the exact standard output of
``bimac pieri --format json`` (both variants, r = 1..3) and of
``bimac eval --route formula`` (both signs), pinned byte for byte.

``test_golden_cli.py`` stops at N <= 4; these pins cover the Pieri
coefficients and staircase evaluations on the larger shapes.  The
expected strings live in ``golden_n56.json`` next to this file.
Regenerate them (only when an output change is intended) with

    PYTHONPATH=src python tests/test_golden_n56.py
"""

import json
from pathlib import Path

import pytest

from bimac.cli import main

GOLDEN = Path(__file__).with_name("golden_n56.json")

SHAPES = (
    [(spart, N) for N in ("5", "6")
     for spart in ("2,0;1", "1;1,1", "3,1,0;2", "1,0;2", "2,1;1")]
    + [("3,1,0;2,1", "6")]
)
COMMANDS = (
    [["pieri", "--spart", spart, "--N", N, "--r", r, "--variant", v,
      "--format", "json"]
     for spart, N in SHAPES for v in ("upper", "lower") for r in "123"]
    + [["eval", "--spart", spart, "--N", N, "--sign", sign,
        "--route", "formula"]
       for spart, N in SHAPES for sign in ("plus", "minus")]
)


def _key(argv):
    return " ".join(argv)


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN, encoding="utf-8") as fh:
        return json.load(fh)


@pytest.mark.parametrize("argv", COMMANDS, ids=_key)
def test_cli_stdout(argv, golden, capsys, monkeypatch):
    monkeypatch.delenv("BIMAC_CACHE", raising=False)
    assert main(list(argv)) == 0
    assert capsys.readouterr().out == golden[_key(argv)]


if __name__ == "__main__":
    import contextlib
    import io
    import os

    os.environ.pop("BIMAC_CACHE", None)
    out = {}
    for argv in COMMANDS:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            assert main(list(argv)) == 0, argv
        out[_key(argv)] = buf.getvalue()
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=1, sort_keys=True, ensure_ascii=False)
        fh.write("\n")
    print(f"wrote {GOLDEN}: {len(out)} commands")
