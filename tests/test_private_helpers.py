"""Every private module-level helper in src/bimac has a caller in src.

Tests and the benchmark reach only public names, so a private def or
class that no other src code names is dead: a helper left behind when
its last caller was rewritten.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "bimac"


def _names(node):
    """Every identifier node uses: names, attributes and imports."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
        elif isinstance(sub, ast.alias):
            out.add(sub.name)
    return out


def test_every_private_helper_is_used_elsewhere_in_src():
    modules = {path.name: ast.parse(path.read_text(encoding="utf-8"))
               for path in sorted(SRC.glob("*.py"))}
    # (file, index of the top-level statement) -> the names it uses
    uses = {(name, k): _names(stmt) for name, tree in modules.items()
            for k, stmt in enumerate(tree.body)}
    orphans = []
    for name, tree in modules.items():
        for k, stmt in enumerate(tree.body):
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)) and \
                    stmt.name.startswith("_") and \
                    not any(stmt.name in used for where, used in uses.items()
                            if where != (name, k)):
                orphans.append(f"{name}: {stmt.name}")
    assert orphans == []
