"""The combinatorics layer stands below the polynomial layer.

``sparts`` (superpartitions, evaluation points, strips) imports nothing
from the package but ``errors`` and ``qt``, so that ``xpoly``, ``hecke``
and everything built on them may use it without a cycle, and an
evaluation point stays a plain tuple rather than a polynomial-layer
object.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "bimac"


def _package_imports(path):
    """The bimac modules a source file imports, relatively or by name."""
    out = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom):
            if node.level and node.module is None:
                out.update(alias.name for alias in node.names)
            elif node.level:
                out.add(node.module.split(".")[0])
            elif node.module.split(".")[0] == "bimac":
                parts = node.module.split(".")
                out.update([parts[1]] if len(parts) > 1 else
                           (alias.name for alias in node.names))
        elif isinstance(node, ast.Import):
            out.update(alias.name.split(".")[1] for alias in node.names
                       if alias.name.startswith("bimac."))
    return out


def test_sparts_imports_only_errors_and_qt():
    assert _package_imports(SRC / "sparts.py") <= {"errors", "qt"}


def test_the_import_reader_sees_every_form(tmp_path):
    # the reader is what the layering test rests on: each import form
    # of a package module is reported, and outside packages are not
    src = tmp_path / "m.py"
    src.write_text("import os\nimport bimac.hecke\nfrom . import cache\n"
                   "from .xpoly import XPolynomial\nfrom bimac import pieri\n"
                   "from bimac.render import format_xpoly\n"
                   "from fractions import Fraction\n", encoding="utf-8")
    assert _package_imports(src) == {"hecke", "cache", "xpoly", "pieri",
                                     "render"}
