"""The combinatorics layer stands below the polynomial layer, qt owns
the factored denominator, and the gcd serves caller-supplied values
only.

``sparts`` (superpartitions, evaluation points, strips) imports nothing
from the package but ``errors`` and ``qt``, so that ``xpoly``, ``hecke``
and everything built on them may use it without a cycle, and an
evaluation point stays a plain tuple rather than a polynomial-layer
object.  No module but ``qt`` names the Phi polynomials of
``_Factored`` or their products, no module but ``qt`` and ``xpoly``
names the gcd or the reductions built on it, and ``evalsym`` reaches
``macdonald`` through its public names only.
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


def _names(path):
    """Every name a source file binds, reads or imports, attributes
    included."""
    out = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.add(node.asname or node.name)
            out.add(node.name)
    return out


def test_only_qt_names_the_phi_polynomials():
    # the factored denominator is qt's: its p's and their products are
    # reached through _Factored and qt's helpers only
    private = {"_cyclotomic_at", "_phi_div", "_phi_product", "_phi_terms"}
    for path in SRC.glob("*.py"):
        if path.name != "qt.py":
            assert not _names(path) & private, path.name


def test_only_qt_and_xpoly_name_the_gcd_route():
    # every construction forms its values over factored denominators;
    # the gcd and the reductions built on it serve caller-supplied
    # values only, in qt's scalar arithmetic and xpoly's integral form
    gcd_route = {"poly_gcd", "_gcd_terms", "_cancel", "_reduce", "_poly_lcm",
                 "_laurent_scalar"}
    for path in SRC.glob("*.py"):
        if path.name not in ("qt.py", "xpoly.py"):
            assert not _names(path) & gcd_route, path.name


def _private_imports(path, module):
    """The private names a source file imports from a bimac module, or
    reads off it as an attribute."""
    out = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and node.module and \
                node.module.split(".")[-1] == module:
            out.update(a.name for a in node.names if a.name.startswith("_"))
        elif isinstance(node, ast.Attribute) and \
                isinstance(node.value, ast.Name) and \
                node.value.id == module and node.attr.startswith("_"):
            out.add(node.attr)
    return out


def test_evalsym_imports_nothing_private_from_macdonald():
    assert _private_imports(SRC / "evalsym.py", "macdonald") == set()


def test_the_private_import_reader_sees_both_forms(tmp_path):
    src = tmp_path / "m.py"
    src.write_text("from .macdonald import bisym_P, _peel\n"
                   "from bimac.macdonald import _is_rep\n"
                   "from . import macdonald\nx = macdonald._K_CACHE\n"
                   "from .qt import _coprime\n", encoding="utf-8")
    assert _private_imports(src, "macdonald") == {"_peel", "_is_rep",
                                                  "_K_CACHE"}
