"""Tests of the benchmark itself (not part of the repository's suite):

    python3 -m pytest -q perfbench/test_perfbench.py

They take about three minutes: each workload runs its first pass three
times, once untraced and twice traced.
"""

from __future__ import annotations

import shutil
import subprocess
import sys

import pytest

import run
import spans
import workloads as wl

SEED = 7


@pytest.fixture(scope="module")
def bimac():
    return run.import_bimac()


@pytest.fixture(scope="module")
def refs():
    return wl.load_refs()


@pytest.fixture(scope="module")
def first_passes(bimac, refs):
    """workload -> (untraced pass, [traced pass, tracer] x 2)."""
    out = {}
    for workload in wl.WORKLOADS:
        session = wl.Session(workload, bimac)
        ops = wl.make_pass(workload, refs, SEED, 0, bimac)
        try:
            plain = run.run_pass(session, ops, refs)
            traced = []
            for _ in range(2):
                tracer = spans.Tracer()
                traced.append((run.run_pass(session, ops, refs, tracer),
                               tracer))
        finally:
            session.close()
        out[workload] = (plain, traced)
    return out


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_traced_outputs_are_byte_identical(first_passes, workload):
    plain, traced = first_passes[workload]
    assert plain.unexpected == 0
    for p, _ in traced:
        assert p.texts == plain.texts


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_call_counts_repeat_exactly(first_passes, workload):
    _, [(_, a), (_, b)] = first_passes[workload]
    ma, mb = a.metrics(), b.metrics()
    counts = [n for n in spans.metric_names()
              if not (n.endswith("_s") or n.endswith(".s"))]
    assert {n: ma[n] for n in counts} == {n: mb[n] for n in counts}
    assert any(ma[n] for n in counts if n.endswith(".calls"))


def test_pieri_formula_bypasses_construction(first_passes):
    _, [(_, tracer), _] = first_passes["pieri_formula"]
    m = tracer.metrics()
    idle = [n for n in m if n.endswith(".calls")
            and n.split(".")[0] in ("hecke", "macdonald", "xpoly")]
    assert idle and all(m[n] == 0 for n in idle)
    assert m["pieri.pieri_expand.calls"] > 0
    assert m["sparts.strips"] > 0


def test_r0_pieri_ops_fail_as_documented(bimac, refs):
    session = wl.Session("pieri_formula", bimac)
    ops = [wl.make_op(k, bimac) for k in refs["pools"]["pieri_formula"]
           if k.startswith("pieri ") and k.split(" ")[3] == "0"][:4]
    result = run.run_pass(session, ops, refs)
    assert result.failed == len(ops) and result.unexpected == 0


def test_cache_file_grows(first_passes):
    _, [(_, tracer), _] = first_passes["cache_session"]
    m = tracer.metrics()
    assert m["cache.records_appended"] > m["cache.dump_all.calls"]
    assert m["cache.records_loaded"] > 0


@pytest.mark.parametrize("workload", [w for w in wl.WORKLOADS
                                      if w != "verify_session"])
def test_seed_changes_ops_but_not_size(refs, workload):
    a = wl.pass_keys(workload, refs, 1, 0)
    b = wl.pass_keys(workload, refs, 2, 0)
    assert a != b and len(a) == len(b)
    assert a == wl.pass_keys(workload, refs, 1, 0)


def test_verify_session_ignores_the_seed(refs):
    assert wl.pass_keys("verify_session", refs, 1, 0) == \
        wl.pass_keys("verify_session", refs, 2, 3)


def test_tail_leaves_ten_samples_beyond():
    value, pct, n = run.tail([float(i) for i in range(100)])
    assert (value, n) == (89.0, 100) and pct == 90.0
    assert run.tail([1.0, 2.0])[0] == 2.0
    assert run.tail([float(i) for i in range(20)]) == (19.0, 100.0, 20)
    assert run.tail([float(i) for i in range(21)])[0] == 10.0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(wl.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(wl.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "pieri_formula",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
