"""Golden output of P at N = 5: the exact standard output of
``bimac P --spart LAMBDA --N 5 --format json`` for every LAMBDA in
``superpartitions(d, m, 5)`` with d = 3, 4 and m = 0..3, pinned byte
for byte.

``test_golden_cli.py`` pins P only up to N = 4 and m = 2; these pins
cover the symmetrizers, both Vandermonde divisions and the plain
cross-check on the N = 5 shapes, m = 3 included.  The expected strings
live in ``golden_p_n5.json`` next to this file.  Regenerate them (only
when an output change is intended) with

    PYTHONPATH=src python tests/test_golden_p_n5.py
"""

import json
from pathlib import Path

import pytest

from bimac.cli import main
from bimac.sparts import format_spart, superpartitions

GOLDEN = Path(__file__).with_name("golden_p_n5.json")

COMMANDS = [["P", "--spart", format_spart(sp), "--N", "5", "--format", "json"]
            for d in (3, 4) for m in range(4)
            for sp in superpartitions(d, m, 5)]


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
