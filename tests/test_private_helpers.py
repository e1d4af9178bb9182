"""Every module-level function in src/bimac is run by the program.

Tests and the benchmark reach only public names, so a private def or
class that no other src code names is dead: a helper left behind when
its last caller was rewritten.  A public function must be called by
other src code, or be an entry the benchmark wraps, or be one of a few
named exceptions; a reference route that only the tests call lives in
tests/reference.py.
"""

import ast
import importlib
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "bimac"
PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

# public functions that neither other src code nor the benchmark's
# targets name, each with the reason it stays in src
KEPT = {
    ("macdonald", "clear_caches"):
        "the benchmark and the tests reset state with it",
}


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


def test_every_public_function_is_run_by_src_or_the_benchmark(monkeypatch):
    # __init__.py re-exports every public name, so it is left out as a
    # caller; the benchmark's targets are read as
    # test_perfbench_targets.py reads them
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spans = importlib.import_module("spans")
    entries = set(spans.TARGETS) | {("verify", "run_suite")} | set(KEPT)
    modules = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
               for path in sorted(SRC.glob("*.py"))
               if path.name != "__init__.py"}
    uses = {(name, k): _names(stmt) for name, tree in modules.items()
            for k, stmt in enumerate(tree.body)}
    unrun = [f"{name}.{stmt.name}" for name, tree in modules.items()
             for k, stmt in enumerate(tree.body)
             if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
             and not stmt.name.startswith("_")
             and (name, stmt.name) not in entries
             and not any(stmt.name in used for where, used in uses.items()
                         if where != (name, k))]
    assert unrun == []
