"""The benchmark's traced run finds every function it wraps."""

import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_every_traced_target_resolves(monkeypatch):
    # perfbench/spans.py wraps each TARGETS (module, function) of bimac by
    # name, and verify.run_suite besides; a function renamed or deleted
    # here would fail the traced run with AttributeError
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spans = importlib.import_module("spans")
    for mod, fn in spans.TARGETS + (("verify", "run_suite"),):
        module = importlib.import_module(f"bimac.{mod}")
        assert callable(getattr(module, fn, None)), f"bimac.{mod}.{fn}"
