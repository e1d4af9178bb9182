import contextlib
import errno
import io
import itertools
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import bimac
from bimac import cache as cachemod
from bimac import cli
from bimac import hecke, macdonald, qt, render
from bimac.cli import main
from bimac.errors import ConsistencyError
from bimac.macdonald import bisym_P, nonsym_E
from bimac.qt import QTPoly, QTScalar
from bimac.render import xpoly_to_json
from bimac.sparts import SuperPartition
from bimac.verify import SUITES, Report
from bimac.xpoly import XPolynomial


def run(capsys, *argv):
    """(exit code, stdout, stderr) of one CLI run; a usage error leaves
    main by SystemExit, and its code is returned."""
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    out = capsys.readouterr()
    return code, out.out, out.err


class TestCommandE:
    def test_high_degree(self, capsys):
        # the raising steps run in a loop, not one stack frame each
        code, out, _ = run(capsys, "E", "--eta", "1200")
        assert code == 0
        assert out == "x1^1200\n"

    def test_text(self, capsys):
        code, out, _ = run(capsys, "E", "--eta", "0,1", "--N", "2")
        assert code == 0
        assert out.strip() == "x2"

    def test_latex(self, capsys):
        code, out, _ = run(capsys, "E", "--eta", "0,1", "--N", "2",
                           "--format", "latex")
        assert code == 0
        assert out.strip() == "x_{2}"

    def test_constant(self, capsys):
        code, out, _ = run(capsys, "E", "--eta", "0,0", "--N", "2")
        assert code == 0
        assert out.strip() == "1"

    def test_lower_triangular_term(self, capsys):
        code, out, _ = run(capsys, "E", "--eta", "1,0")
        assert code == 0
        assert "x1" in out and "x2" in out and "q" in out

    def test_json(self, capsys):
        code, out, _ = run(capsys, "E", "--eta", "1,0", "--format", "json")
        assert code == 0
        obj = json.loads(out)
        assert obj["N"] == 2 and len(obj["terms"]) == 2

    def test_bad_eta_exits_2(self, capsys):
        with pytest.raises(SystemExit):
            main(["E", "--eta", "zebra"])

    @pytest.mark.parametrize("eta", ["1,x", "-1,0"])
    def test_bad_eta_message(self, capsys, eta):
        with pytest.raises(SystemExit) as exc:
            main(["E", f"--eta={eta}"])
        assert exc.value.code == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_mismatched_N(self, capsys):
        code, _, err = run(capsys, "E", "--eta", "1,0", "--N", "3")
        assert code == 2


class TestCommandP:
    def test_text(self, capsys):
        code, out, _ = run(capsys, "P", "--spart", "0;", "--N", "3")
        assert code == 0
        assert out.strip() == "1"

    def test_bad_spart(self, capsys):
        code, _, err = run(capsys, "P", "--spart", "1,2;0", "--N", "4")
        assert code == 2

    DIAGRAM = ("\\begin{matrix}\n\\square & \\square & \\bigcirc \\\\\n"
               "\\square \\\\\n\\bigcirc\n\\end{matrix}\n")

    def test_diagram(self, capsys, monkeypatch):
        # the diagram is Lambda's alone: P is never built
        def refuse(*args):
            raise AssertionError("bisym_P called for a diagram")

        monkeypatch.setattr(macdonald, "bisym_P", refuse)
        monkeypatch.setattr(cli, "bisym_P", refuse)
        code, out, _ = run(capsys, "P", "--spart", "2,0;1", "--N", "4",
                           "--format", "diagram")
        assert code == 0
        assert "\\bigcirc" in out and "\\square" in out
        assert out == self.DIAGRAM

    def test_diagram_appends_no_cache_record(self, tmp_path, capsys):
        path = tmp_path / "c.jsonl"
        path.write_text("")
        macdonald.clear_caches()
        code, out, _ = run(capsys, "--cache", str(path), "P", "--spart",
                           "2,0;1", "--N", "4", "--format", "diagram")
        assert (code, out) == (0, self.DIAGRAM)
        assert path.read_text() == ""


class TestCommandEval:
    def test_routes_agree(self, capsys):
        code, out, _ = run(capsys, "eval", "--spart", "1,0;1", "--N", "4",
                           "--sign", "minus", "--route", "both")
        assert code == 0
        assert "formula" in out and "substitution" in out

    def test_formula_only(self, capsys):
        code, out, _ = run(capsys, "eval", "--spart", "0;", "--N", "3",
                           "--route", "formula")
        assert code == 0
        assert out.strip() == "1"

    def test_substitution_matches_formula(self, capsys):
        args = ("eval", "--spart", "1,0;1", "--N", "4", "--sign", "minus")
        code, formula, _ = run(capsys, *args, "--route", "formula")
        assert code == 0
        code, subst, _ = run(capsys, *args, "--route", "substitution")
        assert code == 0
        assert subst == formula and formula.strip() not in ("", "0")

    def test_routes_disagreeing_exit_1(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "eval_formula",
                            lambda lam, sign: qt.QTScalar.zero())
        code, out, err = run(capsys, "eval", "--spart", "1,0;1", "--N", "4",
                             "--sign", "minus", "--route", "both")
        assert code == 1
        assert "MISMATCH between evaluation routes" in err
        assert "formula:      0\n" in out


@pytest.mark.parametrize("argv, message", [
    (("P", "--spart", ";", "--N", "0"), "--N 0 must be at least 1"),
    (("eval", "--spart", ";", "--N", "0"), "--N 0 must be at least 1"),
    (("pieri", "--spart", ";", "--N", "0", "--r", "1"),
     "--N 0 must be at least 1"),
    (("pieri", "--spart", "1;1", "--N", "3", "--r", "-1"),
     "--r -1 is negative"),
    (("E", "--eta", ""), "--eta '' is not a composition"),
    (("E", "--eta", "1,,2"), "--eta '1,,2' is not a composition"),
    (("E", "--eta", "1,0", "--N", "3"), "--N disagrees"),
    (("verify", "--N", "1"), "--N 1 must be at least 2"),
    (("verify", "--deg", "-1"), "--deg -1 must be at least 0"),
    (("P", "--spart", "a;1", "--N", "3"),
     "superpartition text 'a;1' has a part that is not an integer"),
    (("--cache", "{cache}", "P", "--spart", "1;1", "--N", "3"),
     "cache file {cache}: "),
], ids=["P-N0", "eval-N0", "pieri-N0", "pieri-negative-r", "E-empty",
        "E-empty-part", "E-wrong-N", "verify-N1", "verify-negative-deg",
        "P-non-integer-part", "bad-cache-line"])
def test_bad_input_exits_2(tmp_path, capsys, argv, message):
    # main lets out nothing but SystemExit(2), after one error line
    cache = tmp_path / "c.jsonl"
    cache.write_text("not json\nnot json either\n")
    with pytest.raises(SystemExit) as exc:
        main([a.format(cache=cache) for a in argv])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith("error: " + message.format(cache=cache))


@pytest.mark.parametrize("command, extra", [
    ("eval", ()), ("pieri", ("--r", "1")),
], ids=["eval", "pieri"])
def test_bad_spart_exits_2(capsys, command, extra):
    code, out, err = run(capsys, command, "--spart", "1,2;0", "--N", "4",
                         *extra)
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error:")


class TestCommandPieri:
    def test_known_expansion_table(self, capsys):
        code, out, _ = run(capsys, "pieri", "--spart", "2,0;1", "--N", "5",
                           "--r", "2", "--variant", "upper")
        assert code == 0
        lines = [l for l in out.splitlines() if l.strip()]
        assert len(lines) == 4
        assert any("P_(1,0;3,1)" in l and "(q - q*t)/(1 - q*t)" in l
                   for l in lines)

    def test_check_passes(self, capsys):
        code, out, _ = run(capsys, "pieri", "--spart", "1,0;", "--N", "4",
                           "--r", "1", "--variant", "lower", "--check")
        assert code == 0
        assert "check passed" in out

    def test_empty_expansion(self, capsys):
        code, out, _ = run(capsys, "pieri", "--spart", "2,0;1", "--N", "5",
                           "--r", "9", "--variant", "upper")
        assert code == 0
        assert out == "0\n"

    @pytest.mark.parametrize("fmt, zero", [("text", "0"), ("latex", "0"),
                                           ("json", "[]")])
    def test_zero_expansion_prints_zero(self, capsys, fmt, zero):
        # e_1 P_(;) at N = 1, lower variant, has no term: the expansion
        # is printed as zero in every format, and the oracle agrees
        code, out, _ = run(capsys, "pieri", "--spart", ";", "--N", "1",
                           "--r", "1", "--variant", "lower", "--format", fmt,
                           "--check")
        assert code == 0
        assert out.splitlines() == [zero,
                                    "# brute-force check passed (0 terms)"]

    @pytest.mark.parametrize("variant", ["upper", "lower"])
    def test_r0_check_passes(self, capsys, variant):
        code, out, _ = run(capsys, "pieri", "--spart", "1;1", "--N", "3",
                           "--r", "0", "--variant", variant, "--check")
        assert code == 0
        assert out.splitlines() == ["P_(1;1)  *  1",
                                    "# brute-force check passed (1 terms)"]

    def test_negative_r_exits_2(self, capsys):
        code, _, err = run(capsys, "pieri", "--spart", "1;1", "--N", "3",
                           "--r", "-1", "--check")
        assert code == 2
        assert err.startswith("error:")

    def test_check_against_a_wrong_oracle_exits_1(self, capsys,
                                                  monkeypatch):
        monkeypatch.setattr(cli, "pieri_bruteforce",
                            lambda lam, r, variant: [])
        code, out, err = run(capsys, "pieri", "--spart", "1,0;", "--N", "4",
                             "--r", "1", "--variant", "lower", "--check")
        assert code == 1
        assert "MISMATCH" in err
        assert "check passed" not in out

    def test_deterministic_output(self, capsys):
        args = ("pieri", "--spart", "2,0;1", "--N", "5", "--r", "2",
                "--variant", "lower", "--format", "json")
        _, first, _ = run(capsys, *args)
        _, second, _ = run(capsys, *args)
        assert first == second


class TestCommandVerify:
    @pytest.mark.parametrize("suite", ["hecke", "eigen", "evaluation", "all"])
    def test_suite_passes(self, capsys, suite):
        code, out, _ = run(capsys, "verify", "--suite", suite,
                           "--N", "3", "--deg", "2")
        assert code == 0
        assert "FAIL" not in out

    @pytest.mark.parametrize("argv", [
        ("--N", "0", "--suite", "hecke"),
        ("--N", "1", "--suite", "all"),
        ("--N", "3", "--deg", "-1"),
    ], ids=["N0-hecke", "N1-all", "negative-deg"])
    def test_bad_arguments_exit_2(self, capsys, argv):
        code, out, err = run(capsys, "verify", *argv)
        assert code == 2
        assert out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error: --")

    def test_N2_has_no_braid_cases(self, capsys):
        # affine type A_1 has no braid relation between T_0 and T_1
        code, out, _ = run(capsys, "verify", "--suite", "all",
                           "--N", "2", "--deg", "2")
        assert code == 0
        assert "FAIL" not in out
        assert "[pass] hecke: braid relations (affine indices included)\n" \
            in out

    def test_symmetry_suite(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "symmetry",
                           "--N", "3", "--deg", "2")
        assert code == 0

    def test_normalization_suite_fails_on_the_closed_formula(self, capsys):
        # opt-in: the dominant coefficient is 1, the recorded constant is
        # the corrected one, and the printed closed normalization formula
        # is the known discrepancy
        code, out, _ = run(capsys, "verify", "--suite", "normalization",
                           "--N", "3", "--deg", "2")
        assert code == 1
        assert out.splitlines() == [
            "[pass] dominant monomial coefficient is 1 on 10 P's",
            "[pass] recorded constants equal c_lambda_corrected on 10 P's",
            "[FAIL] recorded constants equal the closed formula: "
            "3 mismatches, first ['1,0;', '1,0;1', '2,0;']"]

    def test_unknown_suite_exits_2(self):
        with pytest.raises(SystemExit):
            main(["verify", "--suite", "nonsense"])


class TestCache:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        lam = SuperPartition((1,), (1,), 3)
        saved_p = dict(macdonald._P_CACHE)
        macdonald.clear_caches()
        try:
            p = bisym_P(lam)
            e = nonsym_E((1, 0, 1))
            K = macdonald._K_CACHE[(1, 0, 1)]
            # only K is written: P is rebuilt from it, and E is K over
            # its coefficient at x^eta
            assert cachemod.dump_all(str(path)) == 1
            assert [json.loads(l)["kind"] for l in
                    path.read_text().splitlines()] == ["K"]
            macdonald.clear_caches()
            assert cachemod.load(str(path)) == 1
            # the K record waits unchecked, as the JSON written for K, the
            # same as xpoly_to_json of K over Q(q,t), until it is first
            # served
            assert macdonald._P_CACHE == {}
            assert macdonald._K_UNCHECKED[(1, 0, 1)][0] == \
                render.terms_to_json(3, K) == xpoly_to_json(XPolynomial(
                    3, {e: QTScalar(c) for e, c in K.items()}))
            again_p = bisym_P(lam)
            assert again_p.poly == p.poly and again_p.c_lam == p.c_lam
            assert macdonald._K_UNCHECKED == {}
            # the served K is the built one, a Z[q,t] term dict as well
            served = macdonald._K_CACHE[(1, 0, 1)]
            assert served == K and type(served) is type(K) is dict
            assert all(type(c) is QTPoly for c in served.values())
            assert nonsym_E((1, 0, 1)).poly == e.poly
        finally:
            macdonald.clear_caches()
            macdonald._P_CACHE.update(saved_p)

    def test_K_record_matches_the_Q_qt_writer(self):
        # the K record, written from the Z[q,t] term dict, is byte for
        # byte the one written from K over Q(q,t) by xpoly_to_json, for
        # the 246 E's with N = 2..5 and |eta| <= 4
        macdonald.clear_caches()
        etas = [eta for N in range(2, 6)
                for eta in itertools.product(range(5), repeat=N)
                if sum(eta) <= 4]
        assert len(etas) == 246
        for eta in etas:
            K = macdonald._integral_E(eta)
            old = {"kind": "K", "key": ",".join(map(str, eta)),
                   "N": len(eta), "value": xpoly_to_json(XPolynomial(
                       len(eta), {e: QTScalar(c) for e, c in K.items()}))}
            assert json.dumps(cachemod._record(eta, K), sort_keys=True) == \
                json.dumps(old, sort_keys=True), eta
        macdonald.clear_caches()

    def test_dump_makes_no_gcd_call(self, tmp_path, capsys, monkeypatch):
        # a cold P leaves only K, which is written as it stands
        macdonald.clear_caches()
        assert run(capsys, "P", "--spart", "2,0;1", "--N", "4")[0] == 0
        calls = []
        real = qt.poly_gcd
        monkeypatch.setattr(qt, "poly_gcd",
                            lambda f, g: calls.append(1) or real(f, g))
        assert cachemod.dump_all(str(tmp_path / "c.jsonl")) == 1
        assert calls == []
        macdonald.clear_caches()

    def test_cli_cache_file(self, tmp_path, capsys):
        path = tmp_path / "c.jsonl"
        code, _, _ = run(capsys, "--cache", str(path),
                         "E", "--eta", "0,1,0")
        assert code == 0
        lines = path.read_text().strip().splitlines()
        assert any(json.loads(l)["kind"] == "K" for l in lines)

    def test_repeated_runs_do_not_grow_the_file(self, tmp_path, capsys):
        path = tmp_path / "c.jsonl"
        sizes = []
        for _ in range(3):
            macdonald.clear_caches()
            code, _, _ = run(capsys, "--cache", str(path),
                             "P", "--spart", "1;1", "--N", "3")
            assert code == 0
            sizes.append(len(path.read_text().splitlines()))
        assert sizes == [1, 1, 1]

    def test_torn_last_line(self, tmp_path, capsys):
        path = tmp_path / "c.jsonl"
        macdonald.clear_caches()
        run(capsys, "--cache", str(path), "E", "--eta", "0,1")
        whole = path.read_text()
        path.write_text(whole + whole[:25])
        macdonald.clear_caches()
        assert cachemod.load(str(path)) == 1
        # the next append cuts the torn line off before writing
        code, out, _ = run(capsys, "--cache", str(path), "E", "--eta", "1,0")
        assert code == 0
        lines = path.read_text().splitlines()
        assert len(lines) == 2
        assert [json.loads(l)["key"] for l in lines] == ["0,1", "1,0"]
        macdonald.clear_caches()

    def test_whole_bad_final_line_is_refused(self, tmp_path, capsys):
        # a whole final line that does not parse is not a torn append:
        # it was once skipped on load but never cut, so the next append
        # wrote after it and every request after that exited 2
        path = tmp_path / "c.jsonl"
        macdonald.clear_caches()
        assert run(capsys, "--cache", str(path), "E", "--eta", "0,1")[0] == 0
        path.write_text(path.read_text() + "not json\n")
        written = path.read_text()
        for eta in ("1,0", "1,1"):
            macdonald.clear_caches()
            code, out, err = run(capsys, "--cache", str(path), "E",
                                 "--eta", eta)
            assert (code, out) == (2, "")
            assert err == (f"error: cache file {path}: line 2: "
                           "Expecting value\n")
            assert path.read_text() == written
        macdonald.clear_caches()

    def test_bad_middle_line_raises(self, tmp_path, capsys):
        path = tmp_path / "c.jsonl"
        macdonald.clear_caches()
        run(capsys, "--cache", str(path), "E", "--eta", "0,1")
        whole = path.read_text()
        path.write_text(whole[:25] + "\n" + whole)
        macdonald.clear_caches()
        with pytest.raises(ValueError, match=r"^line 1: "):
            cachemod.load(str(path))

    def test_eval_formula_skips_the_cache(self, tmp_path, capsys):
        path = tmp_path / "c.jsonl"
        path.write_text("not json\nnot json either\n")
        code, out, _ = run(capsys, "--cache", str(path), "eval",
                           "--spart", "0;", "--N", "3", "--route", "formula")
        assert code == 0
        assert out.strip() == "1"

    def test_pieri_without_check_skips_the_cache(self, tmp_path, capsys):
        path = tmp_path / "c.jsonl"
        path.write_text("not json\nnot json either\n")
        argv = ("pieri", "--spart", "1;1", "--N", "3", "--r", "1")
        code, out, _ = run(capsys, "--cache", str(path), *argv)
        assert code == 0
        assert out == run(capsys, *argv)[1] != ""
        assert path.read_text() == "not json\nnot json either\n"
        # --check runs the oracle, which does read the cache
        with pytest.raises(SystemExit) as exc:
            main(["--cache", str(path), *argv, "--check"])
        assert exc.value.code == 2

    def test_environment_names_no_cache_file(self, tmp_path, capsys,
                                             monkeypatch):
        # only --cache names a cache file: a malformed file named by the
        # variable earlier versions read is neither read nor written
        path = tmp_path / "c.jsonl"
        path.write_text("not json\nnot json either\n")
        for argv in (("P", "--spart", "1;1", "--N", "3"),
                     ("E", "--eta", "0,1")):
            macdonald.clear_caches()
            monkeypatch.delenv("BIMAC_CACHE", raising=False)
            want = run(capsys, *argv)
            assert want[0] == 0 and want[1] != ""
            macdonald.clear_caches()
            monkeypatch.setenv("BIMAC_CACHE", str(path))
            assert run(capsys, *argv) == want
        assert path.read_text() == "not json\nnot json either\n"

    def test_empty_cache_path(self, tmp_path, capsys, monkeypatch):
        # an empty --cache was once ignored: E printed x2 and exited 0
        monkeypatch.chdir(tmp_path)
        macdonald.clear_caches()
        code, out, err = run(capsys, "--cache", "", "E", "--eta", "0,1")
        assert (code, out) == (2, "")
        assert err == "error: --cache names no file: the path is empty\n"
        assert list(tmp_path.iterdir()) == []
        # a request that does not use the cache still ignores --cache
        code, out, err = run(capsys, "--cache", "", "eval", "--spart", "0;",
                             "--N", "3")
        assert (code, out, err) == (0, "1\n", "")
        macdonald.clear_caches()

    def test_unserved_records_end_with_the_request(self, tmp_path, capsys):
        # E --eta 0,1 sets aside the file's edited (1,0,1) record without
        # serving it; a later request with no --cache must not see it
        path, recs = _cache_file(tmp_path, capsys, "E", "--eta", "1,0,1")
        k = next(r for r in recs if r["key"] == "1,0,1")
        next(t for t in k["value"]["terms"] if t["x"] == [0, 1, 1])["coeff"] = \
            {"num": [["7", 0, 0]], "den": [["1", 0, 0]]}
        _write(path, recs)
        assert run(capsys, "--cache", str(path), "E", "--eta", "0,1")[0] == 0
        code, out, err = run(capsys, "E", "--eta", "1,0,1")
        assert (code, err) == (0, "")
        macdonald.clear_caches()
        assert out == run(capsys, "E", "--eta", "1,0,1")[1] != ""
        macdonald.clear_caches()


def _cache_file(tmp_path, capsys, *argv):
    """A cache file written by one CLI run, and its records."""
    path = tmp_path / "c.jsonl"
    macdonald.clear_caches()
    assert run(capsys, "--cache", str(path), *argv)[0] == 0
    macdonald.clear_caches()
    return path, [json.loads(line) for line in path.read_text().splitlines()]


def _rejected(capsys, path, lineno):
    """The P run on a bad cache file prints one error line naming the
    file and the line, and exits 2."""
    with pytest.raises(SystemExit) as exc:
        main(["--cache", str(path), "P", "--spart", "1;1", "--N", "3"])
    assert exc.value.code == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: cache file {path}: ")
    assert f"line {lineno}" in err[0]
    macdonald.clear_caches()
    return err[0]


def _write(path, records, tail=""):
    path.write_text("".join(json.dumps(r) + "\n" for r in records) + tail)


class TestBadCacheFile:
    def test_bad_line_before_the_last(self, tmp_path, capsys):
        path, recs = _cache_file(tmp_path, capsys, "E", "--eta", "0,1")
        _write(path, recs, '{"kind":"P"\nnot json\n')
        _rejected(capsys, path, 2)

    @pytest.mark.parametrize("field", ["key", "N", "value"])
    def test_record_lacks_a_field(self, tmp_path, capsys, field):
        path, recs = _cache_file(tmp_path, capsys, "E", "--eta", "0,1")
        del recs[0][field]
        _write(path, recs)
        assert f"lacks field '{field}'" in _rejected(capsys, path, 1)

    @pytest.mark.parametrize("key", ["0,1,0", "0,-1", "0,x", ""])
    def test_K_record_key_not_a_composition(self, tmp_path, capsys, key):
        path, recs = _cache_file(tmp_path, capsys, "E", "--eta", "0,1")
        recs[0]["key"] = key
        _write(path, recs)
        assert _rejected(capsys, path, 1).endswith(
            f": line 1: K record key {key!r} is not a composition with "
            "N = 2 nonnegative parts")

    @pytest.mark.parametrize("edit", [
        # K of (0,1) is x2 alone, so under the key 1,0 its lead is zero
        lambda rec: rec.update(key="1,0"),
        # K = 0 would pass every eigenvalue equation
        lambda rec: rec["value"].update(terms=[]),
    ], ids=["other-key", "zero-K"])
    def test_K_record_with_zero_lead(self, tmp_path, capsys, edit):
        path, recs = _cache_file(tmp_path, capsys, "E", "--eta", "0,1")
        edit(recs[0])
        _write(path, recs)
        assert _rejected(capsys, path, 1).endswith(
            f": line 1: K record {recs[0]['key']!r} has coefficient 0 at "
            "x^eta")

    @pytest.mark.parametrize("side, rows", [
        ("den", [["2", 0, 0]]), ("den", [["1", 0, 0], ["-1", 1, 0]]),
        # rows that read as an integer, but not as the writer writes one
        ("num", [["+3", 0, 0]]), ("num", [["6/2", 0, 0]]),
        ("num", [[3, 0, 0]]), ("num", [["3", 0.0, 0]]),
        ("den", [["1/1", 0, 0]]),
    ], ids=["fraction", "den-1-q", "num-plus-sign", "num-fraction",
            "num-json-number", "float-degree", "den-1/1"])
    def test_K_record_not_integral(self, tmp_path, capsys, side, rows):
        # a K record holds only the rows render.terms_to_json writes
        path, recs = _cache_file(tmp_path, capsys, "E", "--eta", "1,0")
        recs[0]["value"]["terms"][-1]["coeff"][side] = rows
        _write(path, recs)
        assert _rejected(capsys, path, 1).endswith(
            ": line 1: K record '1,0' has a coefficient not in Z[q,t]")

    def test_K_record_den_that_cancels(self, tmp_path, capsys):
        # load reads a coefficient's rows without reducing them, so a den
        # that cancels against num (2 x / 2) is refused: xpoly_to_json
        # writes every coefficient in Z[q,t] over the den row 1
        path, recs = _cache_file(tmp_path, capsys, "E", "--eta", "1,0")
        coeff = recs[0]["value"]["terms"][-1]["coeff"]
        coeff["num"] = [[str(2 * int(c)), a, b] for c, a, b in coeff["num"]]
        coeff["den"] = [["2", 0, 0]]
        _write(path, recs)
        assert _rejected(capsys, path, 1).endswith(
            ": line 1: K record '1,0' has a coefficient not in Z[q,t]")

    @pytest.mark.parametrize("where", ["record", "value"])
    @pytest.mark.parametrize("N", [2.7, 2.0, "2", True, None],
                             ids=["float", "integral-float", "string", "bool",
                                  "null"])
    def test_K_record_N_not_an_integer(self, tmp_path, capsys, where, N):
        # int() once read 2.7 and "2" as 2, and the record was served
        path, recs = _cache_file(tmp_path, capsys, "E", "--eta", "0,1")
        (recs[0] if where == "record" else recs[0]["value"])["N"] = N
        _write(path, recs)
        what = "K record N" if where == "record" else "polynomial N"
        assert _rejected(capsys, path, 1).endswith(
            f": line 1: {what} {N!r} is not an integer")

    def test_K_record_value_in_other_N(self, tmp_path, capsys):
        # a value with N = 3 under a key with N = 2 would be served as E
        # in 3 variables and appended again under a second key
        path, recs = _cache_file(tmp_path, capsys, "E", "--eta", "1,0")
        recs[0]["value"]["N"] = 3
        _write(path, recs)
        assert _rejected(capsys, path, 1).endswith(
            ": line 1: K record '1,0' holds a polynomial in 3 variables, "
            "not N = 2")

    @pytest.mark.parametrize("field, value, message", [
        # the coefficient of x2 x3 set to 7
        ("coeff", {"num": [["7", 0, 0]], "den": [["1", 0, 0]]},
         "eigenvalue equation Y_1 E = ebar_1 E failed for E_(1, 0, 1)"),
        # an exponent that is not a composition of |eta|
        ("x", [0, 0, -1],
         "E_(1, 0, 1) has support at (0, 0, -1), not Bruhat-below"),
    ], ids=["coefficient", "exponent"])
    def test_K_record_edited_term(self, tmp_path, capsys, field, value,
                                  message):
        # an edited term below x^eta passes the checks on load; the record
        # goes through E's full check when it is first served
        path, recs = _cache_file(tmp_path, capsys,
                                 "P", "--spart", "1;1", "--N", "3")
        k = next(r for r in recs if r["kind"] == "K")
        next(t for t in k["value"]["terms"] if t["x"] == [0, 1, 1])[field] = value
        _write(path, [k])
        assert cachemod.load(str(path)) == 1
        macdonald.clear_caches()
        assert _rejected(capsys, path, 1).endswith(f": line 1: {message}")
        assert macdonald._K_CACHE == {}

    @pytest.mark.parametrize("factor, served", [
        (QTPoly({(0, 0): 1, (1, 0): 1}), False),
        (QTPoly({(1, 0): -1}), True),
    ], ids=["one-plus-q", "minus-q"])
    def test_K_record_times_a_factor(self, tmp_path, capsys, factor, served):
        # E is formed over the factors of K's coefficient at x^eta, so a
        # record holds K up to +-q^a t^b: K (1 + q) is refused when it is
        # served, though it is a multiple of E, and K (-q) serves the
        # same P
        argv = ("P", "--spart", "1;1", "--N", "3")
        path, recs = _cache_file(tmp_path, capsys, *argv)
        K = render.terms_from_json(recs[0]["value"])
        recs[0]["value"] = render.terms_to_json(
            3, {e: c * factor for e, c in K.items()})
        _write(path, recs)
        if served:
            want = run(capsys, *argv)
            macdonald.clear_caches()
            assert run(capsys, "--cache", str(path), *argv) == want
            macdonald.clear_caches()
        else:
            assert _rejected(capsys, path, 1).endswith(
                ": line 1: K's coefficient at x^(1, 0, 1) is not +-q^a t^b "
                "times a divisor of d_eta")
            assert macdonald._K_CACHE == {}

    @pytest.mark.parametrize("side", ["num", "den"])
    @pytest.mark.parametrize("row", [["1", -1, 0], ["1", 0, -1]],
                             ids=["q", "t"])
    def test_K_record_negative_exponent(self, tmp_path, capsys, side, row):
        # a num row q^-1 once passed the load checks, and serving the
        # record died in E's integer packing with a traceback
        path, recs = _cache_file(tmp_path, capsys, "E", "--eta", "1,0")
        recs[0]["value"]["terms"][-1]["coeff"][side] = [row]
        _write(path, recs)
        assert _rejected(capsys, path, 1).endswith(
            ": line 1: K record row exponents must be nonnegative")

    @pytest.mark.parametrize("line", ["[1, 2]", '"str"', "3"])
    def test_record_not_an_object(self, tmp_path, capsys, line):
        path, recs = _cache_file(tmp_path, capsys, "E", "--eta", "0,1")
        _write(path, recs, line + "\n" + json.dumps(recs[0]) + "\n")
        assert _rejected(capsys, path, 2).endswith(
            ": line 2: record is not a JSON object")

    @pytest.mark.parametrize("kind", ["X", "e"])
    def test_unknown_record_kind(self, tmp_path, capsys, kind):
        path, recs = _cache_file(tmp_path, capsys, "E", "--eta", "0,1")
        _write(path, recs + [{"kind": kind, "key": "junk", "N": 3,
                              "value": None}])
        assert _rejected(capsys, path, 2).endswith(
            f": line 2: unknown record kind {kind!r}")

    def test_legacy_P_record_is_never_served(self, tmp_path, capsys):
        # earlier versions also wrote P records; load skips them unread,
        # so an edited one cannot reach the output
        argv = ("P", "--spart", "1;1", "--N", "3")
        path, recs = _cache_file(tmp_path, capsys, *argv)
        assert [r["kind"] for r in recs] == ["K"]
        p = bisym_P(SuperPartition((1,), (1,), 3))
        poly = xpoly_to_json(p.poly)
        # the dominant term x1 x2 dropped, the x2 x3 coefficient set to 7
        poly["terms"] = [t for t in poly["terms"] if t["x"] != [1, 1, 0]]
        assert poly["terms"][0]["x"] == [0, 1, 1]
        poly["terms"][0]["coeff"] = {"num": [["7", 0, 0]], "den": [["1", 0, 0]]}
        _write(path, [{"kind": "P", "key": "1;1", "N": 3,
                       "value": {"poly": poly, "c": p.c_lam.to_json()}}] + recs)
        written = path.read_text()
        macdonald.clear_caches()
        assert cachemod.load(str(path)) == 1
        assert macdonald._P_CACHE == {}
        macdonald.clear_caches()
        code, out, _ = run(capsys, "--cache", str(path), *argv)
        assert code == 0
        macdonald.clear_caches()
        assert out == run(capsys, *argv)[1] != ""
        # the append keys on (kind, key, N): the P line stays, nothing is added
        assert path.read_text() == written
        macdonald.clear_caches()


    def test_legacy_E_record_is_never_served(self, tmp_path, capsys):
        # earlier versions wrote the monic E; load skips it unread, so an
        # edited one cannot reach the output, and the K is appended
        argv = ("E", "--eta", "1,0,1")
        macdonald.clear_caches()
        e = xpoly_to_json(nonsym_E((1, 0, 1)).poly)
        next(t for t in e["terms"] if t["x"] == [0, 1, 1])["coeff"] = \
            {"num": [["7", 0, 0]], "den": [["1", 0, 0]]}
        path = tmp_path / "c.jsonl"
        _write(path, [{"kind": "E", "key": "1,0,1", "N": 3, "value": e}])
        legacy = path.read_text()
        macdonald.clear_caches()
        assert cachemod.load(str(path)) == 0
        assert macdonald._K_UNCHECKED == {}
        macdonald.clear_caches()
        code, out, _ = run(capsys, "--cache", str(path), *argv)
        assert code == 0
        macdonald.clear_caches()
        assert out == run(capsys, *argv)[1] != ""
        lines = path.read_text().splitlines()
        assert path.read_text().startswith(legacy)
        assert [json.loads(l)["kind"] for l in lines] == ["E", "K"]
        macdonald.clear_caches()

    @pytest.mark.parametrize("legacy", [{"kind": "E"},
                                        {"kind": "E", "key": "1,0", "N": "x"}],
                             ids=["no-fields", "N-not-an-integer"])
    def test_legacy_record_without_K_fields(self, tmp_path, capsys, legacy):
        # load skips a legacy record unread, and so does the append's
        # scan for the keys the file already holds
        path = tmp_path / "c.jsonl"
        _write(path, [legacy])
        macdonald.clear_caches()
        code, out, err = run(capsys, "--cache", str(path),
                             "P", "--spart", "1,0;", "--N", "2")
        assert code == 0 and out != ""
        assert "Traceback" not in err
        lines = path.read_text().splitlines()
        assert [json.loads(l) for l in lines[:1]] == [legacy]
        assert [json.loads(l)["kind"] for l in lines[1:]] == ["K"]
        macdonald.clear_caches()

    @pytest.mark.parametrize("case", ["directory", "missing-directory",
                                      "unwritable"])
    def test_unusable_path(self, tmp_path, capsys, monkeypatch, case):
        # the file is opened for appending before any work, so a path that
        # cannot be read or written stops the run with nothing printed
        if case == "directory":
            path, code = tmp_path, errno.EISDIR
        elif case == "missing-directory":
            path, code = tmp_path / "missing" / "c.jsonl", errno.ENOENT
        else:
            path, code = tmp_path / "c.jsonl", errno.EACCES
            path.write_text("")
            path.chmod(0o444)
            if os.access(path, os.W_OK):
                # a privileged user writes past the mode bits: stand in
                # the refusal any other user gets
                def refuse(file, mode="r", *args, **kwargs):
                    if file == str(path) and mode != "r":
                        raise PermissionError(code, os.strerror(code), file)
                    return open(file, mode, *args, **kwargs)
                monkeypatch.setattr(cachemod, "open", refuse, raising=False)
        macdonald.clear_caches()
        with pytest.raises(SystemExit) as exc:
            main(["--cache", str(path), "P", "--spart", "1;1", "--N", "3"])
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: cache file {path}: {os.strerror(code)}\n"


class _LoggedReads:
    """A file that logs how many bytes each read returns."""

    def __init__(self, fh, log):
        self.fh, self.log = fh, log

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def read(self):
        data = self.fh.read()
        self.log.append(len(data))
        return data

    def __getattr__(self, name):
        return getattr(self.fh, name)


def _log_reads(monkeypatch):
    """The bytes each read of a file opened by bimac.cache returns, one
    entry per read."""
    log = []
    monkeypatch.setattr(cachemod, "open", lambda *args, **kwargs:
                        _LoggedReads(open(*args, **kwargs), log),
                        raising=False)
    return log


def _load_then(monkeypatch, write):
    """Make cache.load call write(path) once it has read the file, as a
    writer running beside the request could."""
    real = cachemod.load

    def load(path):
        seen = real(path)
        write(path)
        return seen
    monkeypatch.setattr(cachemod, "load", load)


class TestCacheAfterLoad:
    def test_warm_request_decodes_only_what_it_serves(self, tmp_path, capsys,
                                                      monkeypatch):
        # the 20 K's of N = 3, |eta| <= 3; P of 1;1 serves only (1,0,1)
        path = tmp_path / "c.jsonl"
        macdonald.clear_caches()
        etas = [e for e in itertools.product(range(4), repeat=3)
                if sum(e) <= 3]
        for eta in etas:
            macdonald._integral_E(eta)
        assert cachemod.dump_all(str(path)) == len(etas) == 20
        served = next(json.loads(line)["value"]
                      for line in path.read_text().splitlines()
                      if json.loads(line)["key"] == "1,0,1")
        argv = ("P", "--spart", "1;1", "--N", "3")
        macdonald.clear_caches()
        want = run(capsys, *argv)
        decoded = []
        real = render.terms_from_json
        for mod in list(sys.modules.values()):
            if mod is not None and mod.__name__.startswith("bimac") and \
                    getattr(mod, "terms_from_json", None) is real:
                monkeypatch.setattr(mod, "terms_from_json", lambda value:
                                    decoded.append(value) or real(value))
        reads = _log_reads(monkeypatch)
        macdonald.clear_caches()
        assert run(capsys, "--cache", str(path), *argv) == want
        assert list(macdonald._K_CACHE) == [(1, 0, 1)]
        assert decoded == [served]
        # load read the file once; the request built nothing new, so the
        # append did not open it
        assert reads == [path.stat().st_size]
        # a request that builds a K the file lacks reads only what was
        # appended after load: nothing
        macdonald.clear_caches()
        size = path.stat().st_size
        assert run(capsys, "--cache", str(path), "E", "--eta", "4,0,0")[0] == 0
        assert reads[1:] == [size, 0]
        macdonald.clear_caches()

    @pytest.mark.parametrize("other_writer", [True, False],
                             ids=["other-writer", "alone"])
    def test_append_after_another_writer(self, tmp_path, capsys, monkeypatch,
                                         other_writer):
        # pieri --check builds the K's of (0,1,2), (1,0,1), (1,0,2) and
        # (1,1,1); the file holds (1,1,1) and a torn final line
        argv = ("pieri", "--spart", "1;1", "--N", "3", "--r", "1", "--check")
        macdonald.clear_caches()
        want = run(capsys, *argv)
        assert want[0] == 0
        path, _ = _cache_file(tmp_path, capsys, "E", "--eta", "1,1,1")
        path.write_text(path.read_text() + '{"kind": "K", "key": "0,1')
        macdonald.clear_caches()
        theirs = {eta: macdonald._integral_E(eta) for eta in ((1, 0, 1),
                                                              (2, 0, 0))}

        def append(p):
            # another process's append: it reads the whole file, cuts the
            # torn line and writes (1,0,1), which this request also
            # builds, and (2,0,0), which it does not
            ours = dict(macdonald._K_CACHE)
            macdonald._K_CACHE.clear()
            macdonald._K_CACHE.update(theirs)
            try:
                assert cachemod.dump_all(p) == 2
            finally:
                macdonald._K_CACHE.clear()
                macdonald._K_CACHE.update(ours)
        macdonald.clear_caches()
        if other_writer:
            _load_then(monkeypatch, append)
        assert run(capsys, "--cache", str(path), *argv) == want
        keys = [json.loads(line)["key"]
                for line in path.read_text().splitlines()]
        # each K once, in the order written, this request's in the order
        # it built them
        theirs = ["1,0,1", "2,0,0"] if other_writer else []
        assert keys[:len(theirs) + 1] == ["1,1,1", *theirs]
        assert sorted(keys) == sorted({"1,1,1", "0,1,2", "1,0,1", "1,0,2",
                                       *theirs})
        monkeypatch.undo()
        macdonald.clear_caches()
        assert cachemod.load(str(path)) == len(keys)
        macdonald.clear_caches()

    def test_record_without_its_newline_is_written_again(self, tmp_path,
                                                         capsys):
        # a final record that parses but lacks its newline is served, then
        # cut with the torn tail before the append, which writes it again
        path, _ = _cache_file(tmp_path, capsys, "E", "--eta", "1,1,1")
        path.write_text(path.read_text().rstrip("\n"))
        assert run(capsys, "--cache", str(path), "pieri", "--spart", "1;1",
                   "--N", "3", "--r", "1", "--check")[0] == 0
        keys = [json.loads(line)["key"]
                for line in path.read_text().splitlines()]
        assert sorted(keys) == ["0,1,2", "1,0,1", "1,0,2", "1,1,1"]
        macdonald.clear_caches()

    @pytest.mark.parametrize("tail, message", [
        ('not json\n{"kind": "K"}\n', "line 2: Expecting value"),
        ('{"kind": "K"}\n', "line 2: record lacks field 'N'"),
        ('{"kind": "K", "key": "1,0,1", "N": 3, "value": {"N": 3, '
         '"terms": []}}\n',
         "line 2: K record '1,0,1' has coefficient 0 at x^eta"),
    ], ids=["not-json", "no-N", "zero-K"])
    def test_bad_line_appended_after_load(self, tmp_path, capsys, monkeypatch,
                                          tail, message):
        # the append reads what other writers added after load and checks
        # it as load does; a bad line once ended the request in a
        # traceback
        path, _ = _cache_file(tmp_path, capsys, "E", "--eta", "0,1")
        before = path.read_text()

        def append(p):
            with open(p, "a", encoding="utf-8") as fh:
                fh.write(tail)
        _load_then(monkeypatch, append)
        code, out, err = run(capsys, "--cache", str(path),
                             "P", "--spart", "1;1", "--N", "3")
        assert code == 2 and out != ""
        assert err == f"error: cache file {path}: {message}\n"
        assert path.read_text() == before + tail
        macdonald.clear_caches()


def _declared_console_script(name):
    """Return (module, func) of console script `name` in pyproject.toml."""
    if sys.version_info >= (3, 11):
        import tomllib
    else:
        tomllib = pytest.importorskip("tomli")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with pyproject.open("rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"][name]
    module, func = target.split(":")
    return module, func


def test_console_script_subprocess():
    """The declared entry point runs as pip's generated wrapper would,
    with no install needed; an installed `bimac` on PATH runs too."""
    import subprocess
    module, func = _declared_console_script("bimac")
    # The child imports the same bimac as this process, whatever the cwd.
    src = str(Path(bimac.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    wrapper = f"import sys; from {module} import {func}; sys.exit({func}())"
    runs = [([sys.executable, "-c", wrapper], env)]
    installed = shutil.which("bimac")
    if installed:
        runs.append(([installed], None))
    for cmd, cmd_env in runs:
        res = subprocess.run([*cmd, "E", "--eta", "0,1", "--N", "2"],
                             capture_output=True, text=True,
                             timeout=120, env=cmd_env)
        assert res.returncode == 0
        assert res.stdout.strip() == "x2"
        # a usage error exits 2 after one error line
        res = subprocess.run([*cmd, "E", "--eta", "x"],
                             capture_output=True, text=True,
                             timeout=120, env=cmd_env)
        assert res.returncode == 2
        assert res.stdout == ""
        assert len(res.stderr.splitlines()) == 1
        assert res.stderr.startswith("error:")


class TestVerifyPieriSuite:
    def test_pieri_suite_small_bounds(self, capsys):
        code = main(["verify", "--suite", "pieri", "--N", "3", "--deg", "1"])
        out = capsys.readouterr().out
        assert code == 0
        assert "FAIL" not in out


def test_consistency_error_exits_1(capsys, monkeypatch):
    def broken(lam):
        raise ConsistencyError("planted failure")
    monkeypatch.setattr(cli, "bisym_P", broken)
    code, out, err = run(capsys, "P", "--spart", "1;1", "--N", "3")
    assert code == 1
    assert out == ""
    assert err == "consistency failure: planted failure\n"


@pytest.mark.parametrize("kind, name", [
    ("t_deformed", "t-Vandermonde"), ("plain", "plain Vandermonde")])
def test_failed_vandermonde_division_exits_1(capsys, monkeypatch, kind, name):
    # either of bisym_P's two exact divisions failing is one consistency
    # failure naming the shape, not a traceback: a unit planted at x^0 in
    # the dividend of the packed division of that kind leaves a nonzero
    # packed remainder
    divide = hecke._divide

    def plant(f, a, b, alpha, beta, mul):
        if beta == (kind == "t_deformed"):
            zero = (0,) * len(next(iter(f)))
            f = {**f, zero: f.get(zero, 0) + 1}
        return divide(f, a, b, alpha, beta, mul)
    monkeypatch.setattr(hecke, "_divide", plant)
    monkeypatch.setattr(macdonald, "_P_CACHE", {})
    code, out, err = run(capsys, "P", "--spart", "1,0;", "--N", "3")
    assert code == 1
    assert out == ""
    assert err == ("consistency failure: antisymmetrization of 1,0; is not "
                   f"divisible by the {name}\n")


def test_P_json_format(capsys):
    code = main(["P", "--spart", "1;", "--N", "2", "--format", "json"])
    out = capsys.readouterr().out
    assert code == 0
    obj = json.loads(out)
    assert obj["spart"] == "1;" and "poly" in obj and "c" in obj


def _cli_process(*argv, buffered=None, **kwargs):
    """A CLI run in a child interpreter that imports this bimac, with
    standard output buffered or not as the environment has it, or as
    buffered says."""
    env = dict(os.environ, PYTHONPATH=str(
        Path(bimac.__file__).resolve().parents[1]))
    if buffered is not None:
        env.pop("PYTHONUNBUFFERED", None)
        if not buffered:
            env["PYTHONUNBUFFERED"] = "1"
    return subprocess.Popen(
        [sys.executable, "-c",
         "import sys; from bimac.cli import main; sys.exit(main())", *argv],
        env=env, stderr=subprocess.PIPE, **kwargs)


class TestOutputErrors:
    """A write to standard output that fails ends the run with exit 3,
    one error line and no traceback, and appends nothing to the cache."""

    def test_broken_pipe(self, tmp_path):
        # the reader takes one byte of the 180 KB output and goes away
        path = tmp_path / "c.jsonl"
        proc = _cli_process("--cache", str(path), "E", "--eta", "4,0,2,1,0",
                            "--format", "json", stdout=subprocess.PIPE)
        assert proc.stdout.read(1) == b"{"
        proc.stdout.close()
        err = proc.stderr.read().decode()
        proc.stderr.close()
        assert proc.wait(timeout=120) == 3
        assert err == "error: the output could not be written: Broken pipe\n"
        assert path.read_text() == ""

    @pytest.mark.skipif(not os.path.exists("/dev/full"),
                        reason="needs the full device")
    def test_full_device(self, tmp_path):
        path = tmp_path / "c.jsonl"
        with open("/dev/full", "wb") as full:
            proc = _cli_process("--cache", str(path),
                                "P", "--spart", "1;1", "--N", "3",
                                stdout=full)
            err = proc.communicate(timeout=120)[1].decode()
        assert proc.returncode == 3
        assert "Traceback" not in err
        assert err == ("error: the output could not be written: No space "
                       "left on device\n")
        assert path.read_text() == ""

    @pytest.mark.skipif(not os.path.exists("/dev/full"),
                        reason="needs the full device")
    @pytest.mark.parametrize("buffered", [True, False],
                             ids=["buffered", "unbuffered"])
    @pytest.mark.parametrize("argv", [("--help",), ("P", "--help")],
                             ids=["help", "subcommand-help"])
    def test_help_to_full_device(self, argv, buffered):
        # unbuffered, the write of the help fails where argparse would
        # drop the error; buffered, the flush before argparse's exit
        # fails, where the interpreter's own flush at exit would
        with open("/dev/full", "wb") as full:
            proc = _cli_process(*argv, stdout=full, buffered=buffered)
            err = proc.communicate(timeout=120)[1].decode()
        assert proc.returncode == 3
        assert err == ("error: the output could not be written: No space "
                       "left on device\n")

    @pytest.mark.parametrize("buffered", [True, False],
                             ids=["buffered", "unbuffered"])
    def test_help_to_closed_pipe(self, buffered):
        read, write = os.pipe()
        os.close(read)
        try:
            proc = _cli_process("--help", stdout=write, buffered=buffered)
        finally:
            os.close(write)
        err = proc.communicate(timeout=120)[1].decode()
        assert proc.returncode == 3
        assert err == "error: the output could not be written: Broken pipe\n"


class TestSharedParser:
    """main parses with one argparse tree per process; no call sees what
    an earlier call parsed."""

    def test_built_once(self, capsys, monkeypatch):
        built = []
        real = cli.build_parser
        monkeypatch.setattr(cli, "build_parser",
                            lambda: built.append(1) or real())
        cli._parser.cache_clear()
        try:
            for argv in (("E", "--eta", "0,1"),
                         ("P", "--spart", "1;1", "--N", "3"),
                         ("eval", "--spart", "1;1", "--N", "3"),
                         ("E", "--eta", "x")):
                run(capsys, *argv)
            assert built == [1]
        finally:
            cli._parser.cache_clear()

    def test_cache_then_no_cache(self, tmp_path, capsys):
        # the second call builds a K the file lacks, so a cache path
        # carried over would append it
        path = tmp_path / "c.jsonl"
        macdonald.clear_caches()
        assert run(capsys, "--cache", str(path),
                   "P", "--spart", "1;1", "--N", "3")[0] == 0
        written = path.read_bytes()
        assert written
        assert run(capsys, "P", "--spart", "2;1", "--N", "3")[0] == 0
        assert path.read_bytes() == written
        macdonald.clear_caches()

    @pytest.mark.parametrize("first, code", [
        (("P", "--spart", "1;1"), 2),
        (("P", "--spart", "1;1", "--N", "3", "--format", "bogus"), 2),
        (("--help",), 0),
        (("pieri", "--help"), 0),
    ], ids=["missing-option", "bad-choice", "help", "subcommand-help"])
    def test_exit_then_a_call(self, capsys, first, code):
        argv = ("P", "--spart", "1;1", "--N", "3")
        want = run(capsys, *argv)
        assert run(capsys, *first)[0] == code
        assert run(capsys, *argv) == want

    @pytest.mark.parametrize("first, then", [
        (("P", "--spart", "1;1", "--N", "3", "--format", "json"),
         ("P", "--spart", "1;1", "--N", "3")),
        (("pieri", "--spart", "1;1", "--N", "3", "--r", "1", "--variant",
          "lower", "--format", "latex", "--check"),
         ("pieri", "--spart", "1;1", "--N", "3", "--r", "1")),
        (("eval", "--spart", "1;1", "--N", "3", "--sign", "plus",
          "--route", "both"),
         ("eval", "--spart", "1;1", "--N", "3")),
    ], ids=["P-format", "pieri-variant", "eval-sign-route"])
    def test_non_default_then_default(self, capsys, first, then):
        cli._parser.cache_clear()
        want = run(capsys, *then)
        assert run(capsys, *first)[0] == 0
        got = run(capsys, *then)
        assert got == want and got[0] == 0


# -- a fuzz test over the whole command line, in process.  Every value is
# small, so that each example runs in well under a second.

def _ints(lo, hi):
    return st.integers(lo, hi).map(str)


def _parts(most, least=-1, descending=False, unique=False):
    """Up to `most` comma-separated parts in [least, 3]."""
    parts = st.lists(st.integers(least, 3), max_size=most, unique=unique)
    if descending:
        parts = parts.map(lambda xs: sorted(xs, reverse=True))
    return parts.map(lambda xs: ",".join(map(str, xs)))


_JUNK = st.sampled_from(["", " ", "x", "-", ",", ";", "1,,2", ";;", "1.5",
                         "0x1", "1e3", "٣", "--N", "-0"])
_SPART = st.tuples(_parts(2, 0, True, True), _parts(2, 1, True)).map(
    ";".join)
_FORMAT = st.sampled_from(["text", "latex", "json"])
# command -> flag -> (required, a well-formed value, any value); a value
# of None is a flag with no value
_FLAGS = {
    "E": {"--eta": (True, _parts(4, 0), st.one_of(_JUNK, _parts(4))),
          "--N": (False, _ints(1, 4), st.one_of(_JUNK, _ints(-1, 4))),
          "--format": (False, _FORMAT, st.sampled_from(["diagram", "xml"]))},
    "P": {"--spart": (True, _SPART, st.one_of(_JUNK, _parts(3))),
          "--N": (True, _ints(1, 4), st.one_of(_JUNK, _ints(-1, 0))),
          "--format": (False, st.one_of(_FORMAT, st.just("diagram")),
                       st.just("xml"))},
    "eval": {"--spart": (True, _SPART, st.one_of(_JUNK, _parts(3))),
             "--N": (True, _ints(1, 4), st.one_of(_JUNK, _ints(-1, 0))),
             "--sign": (False, st.sampled_from(["plus", "minus"]),
                        st.just("zero")),
             "--route": (False, st.sampled_from(["formula", "substitution",
                                                 "both"]), st.just("none"))},
    "pieri": {"--spart": (True, _SPART, st.one_of(_JUNK, _parts(3))),
              "--N": (True, _ints(1, 4), st.one_of(_JUNK, _ints(-1, 0))),
              "--r": (True, _ints(0, 3), st.one_of(_JUNK, _ints(-1, -1))),
              "--variant": (False, st.sampled_from(["upper", "lower"]),
                            st.just("middle")),
              "--check": (False, st.none(), st.none()),
              "--format": (False, _FORMAT, st.just("diagram"))},
    "verify": {"--suite": (False, st.sampled_from([*SUITES, "all"]),
                           st.just("none")),
               "--N": (False, _ints(2, 3), st.one_of(_JUNK, _ints(-1, 1))),
               "--deg": (False, _ints(0, 2), st.one_of(_JUNK, _ints(-1, -1)))},
}


# values of E's, P's, eval's, pieri's and verify's inputs over their
# limits (cli._bounded, cli._MAX_VERIFY_N): huge parts, more parts than
# the limit, huge N, huge --r and huge --deg
_HUGE = st.integers(cli._MAX_DEGREE_1 + 1, 10 ** 30)
_WIDE = st.integers(cli._MAX_SIZE + 1, 10 ** 30)
_OVER = {
    ("E", "--eta"): st.one_of(
        st.tuples(_HUGE, _parts(3, 0)).map(
            lambda v: ",".join(filter(None, (str(v[0]), v[1])))),
        st.integers(cli._MAX_SIZE + 1, 10 ** 4).map(
            lambda n: ",".join("0" * n))),
    ("E", "--N"): _WIDE.map(str),
    ("P", "--spart"): st.one_of(_HUGE.map("{};".format),
                                _HUGE.map(";{}".format)),
    ("P", "--N"): _WIDE.map(str),
    ("eval", "--spart"): st.one_of(_HUGE.map("{};".format),
                                   _HUGE.map(";{}".format)),
    ("eval", "--N"): _WIDE.map(str),
    ("pieri", "--spart"): st.one_of(_HUGE.map("{};".format),
                                    _HUGE.map(";{}".format)),
    ("pieri", "--N"): _WIDE.map(str),
    ("pieri", "--r"): _HUGE.map(str),
    ("verify", "--N"): st.integers(cli._MAX_VERIFY_N + 1, 10 ** 30).map(str),
    ("verify", "--deg"): st.integers(cli._MAX_SIZE // 2, 10 ** 30).map(str),
}


def _no_work(*args):
    raise AssertionError("a request over the size limit started its work")


@pytest.fixture(scope="module")
def cache_paths(tmp_path_factory):
    """A file that starts empty, then a file in a missing directory, a
    directory and a file of junk."""
    root = tmp_path_factory.mktemp("fuzz")
    junk = root / "junk.jsonl"
    junk.write_bytes(b'{"kind": "K", "key": "1,0", "N": 2}\n\xff\xfe[\n')
    return (str(root / "fresh.jsonl"), str(root / "missing" / "c.jsonl"),
            str(root), str(junk))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_fuzz_command_line(cache_paths, data):
    # whatever the arguments: exit 0, 1 or 2, no traceback, and a usage
    # error (exit 2) is one error line.  Each flag is left out, or takes
    # a well-formed value or any value, or for E, P, eval and verify a
    # value over the size limit, which is refused before E, P, the
    # formula, a Pieri expansion or a suite is begun; the deadline
    # fixture bounds the whole run
    command = data.draw(st.sampled_from(sorted(_FLAGS)), "command")
    argv, over = [command], False
    for flag, (required, good, bad) in _FLAGS[command].items():
        kinds = {"good": good, "bad": bad, "over": _OVER.get((command, flag))}
        how = data.draw(st.sampled_from(
            ["good", "good", "bad", "absent"]
            + ["over"] * ((command, flag) in _OVER)), flag)
        if how == "absent" and required and data.draw(st.booleans()):
            how = "good"
        if how != "absent":
            value = data.draw(kinds[how], flag)
            argv += [flag] if value is None else [flag, value]
            over = over or how == "over"
    cache = data.draw(st.sampled_from((None,) * 3 + cache_paths), "cache")
    if cache is not None:
        argv = ["--cache", cache] + argv
    out, err = io.StringIO(), io.StringIO()
    refuse = mock.patch.multiple(cli, nonsym_E=_no_work, bisym_P=_no_work,
                                 eval_formula=_no_work, run_suite=_no_work,
                                 pieri_expand=_no_work,
                                 pieri_bruteforce=_no_work) \
        if over else contextlib.nullcontext()
    with refuse, contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    err = err.getvalue()
    assert code in (0, 1, 2), (argv, code, err)
    assert code == 2 or not over, (argv, code, err)
    assert "Traceback" not in err, argv
    if code == 2:
        assert sum("error:" in line for line in err.splitlines()) == 1, \
            (argv, err)


class TestLimits:
    @pytest.mark.parametrize("argv, message", [
        (["E", "--eta", "25,0"], "--eta asks for degree 25 in 2 variables, "
         "over the limit of 50 on (degree + 1) * N"),
        (["E", "--eta", ",".join("0" * 51)], "--eta asks for degree 0 in 51 "
         "variables, over the limit of 50 on (degree + 1) * N"),
        (["E", "--eta", "10001"], "--eta asks for degree 10001 in 1 "
         "variable, over the limit of 10000"),
        (["E", "--eta", "99999999999,0"], "--eta asks for degree 99999999999 "
         "in 2 variables, over the limit of 50 on (degree + 1) * N"),
        (["P", "--spart", "10;", "--N", "5"], "--spart asks for degree 10 in "
         "5 variables, over the limit of 50 on (degree + 1) * N"),
        (["P", "--spart", ";", "--N", "51"],
         "--N 51 is over the limit of 50 on (degree + 1) * N"),
        (["P", "--spart", "1;", "--N", "10" + "0" * 20], "--N 1" + "0" * 21
         + " is over the limit of 50 on (degree + 1) * N"),
        (["eval", "--spart", "1;", "--N", "10" + "0" * 11], "--N 1" + "0" * 12
         + " is over the limit of 50 on (degree + 1) * N"),
        (["pieri", "--spart", "1;", "--N", "10" + "0" * 11, "--r", "1"],
         "--N 1" + "0" * 12 + " is over the limit of 50 on (degree + 1) * N"),
        (["eval", "--spart", "30;", "--N", "2", "--route", "substitution"],
         "--spart asks for degree 30 in 2 variables, over the limit of 50 on "
         "(degree + 1) * N"),
        (["eval", "--spart", "10;", "--N", "5", "--route", "both"],
         "--spart asks for degree 10 in 5 variables, over the limit of 50 on "
         "(degree + 1) * N"),
        (["eval", "--spart", "75;", "--N", "2"], "--spart asks for degree 75 "
         "in 2 variables, over the limit of 150 on (degree + 1) * N"),
        (["eval", "--spart", ";10001", "--N", "1", "--route", "formula"],
         "--spart asks for degree 10001 in 1 variable, over the limit of "
         "10000"),
        (["pieri", "--spart", "24;", "--N", "2", "--r", "1", "--check"],
         "--check asks for degree 25 in 2 variables, over the limit of 50 on "
         "(degree + 1) * N"),
        (["pieri", "--spart", "2000;", "--N", "2", "--r", "1"],
         "--spart '2000;' with --r 1 asks for degree 2001 in 2 variables, "
         "over the limit of 4000 on (degree + 1) * N"),
        (["pieri", "--spart", "600;", "--N", "6", "--r", "66", "--variant",
          "lower"], "--spart '600;' with --r 66 asks for degree 666 in 6 "
         "variables, over the limit of 4000 on (degree + 1) * N"),
        (["pieri", "--spart", "1;1", "--N", "3", "--r", "10" + "0" * 20],
         "--spart '1;1' with --r 1" + "0" * 21 + " asks for degree 1"
         + "0" * 20 + "2 in 3 variables, over the limit of 4000 on "
         "(degree + 1) * N"),
        (["pieri", "--spart", ";10001", "--N", "1", "--r", "0"],
         "--spart ';10001' with --r 0 asks for degree 10001 in 1 variable, "
         "over the limit of 10000"),
        (["pieri", "--spart", "4;", "--N", "7", "--r", "3"],
         "--spart '4;' with --r 3 asks for degree 7 in 7 variables, over "
         "the limit of 50 on (degree + 1) * N"),
        (["verify", "--suite", "hecke", "--N", "7", "--deg", "0"],
         "--N 7 is over verify's limit of 6 variables"),
        (["verify", "--N", "10" + "0" * 20],
         "--N 1" + "0" * 21 + " is over verify's limit of 6 variables"),
        (["verify", "--suite", "eigen", "--N", "2", "--deg", "30"],
         "--deg 30 asks for degree 30 in 2 variables, over the limit of 50 "
         "on (degree + 1) * N"),
        (["verify", "--suite", "pieri", "--N", "2", "--deg", "23"],
         "--deg 23 asks for degree 25 in 2 variables, over the limit of 50 "
         "on (degree + 1) * N"),
        (["verify", "--N", "6", "--deg", "6"],
         "--deg 6 asks for degree 8 in 6 variables, over the limit of 50 on "
         "(degree + 1) * N"),
        (["verify", "--suite", "hecke", "--N", "3", "--deg", "10" + "0" * 20],
         "--deg 1" + "0" * 21 + " asks for degree 1" + "0" * 21 + " in 3 "
         "variables, over the limit of 50 on (degree + 1) * N"),
    ], ids=["degree", "variables", "one-variable", "huge-part", "P-degree",
            "P-variables", "huge-N", "eval-huge-N", "pieri-huge-N",
            "eval-substitution-degree", "eval-both-degree",
            "eval-formula-degree", "eval-formula-one-variable",
            "pieri-check-degree", "pieri-degree", "pieri-r-past-width",
            "pieri-huge-r", "pieri-one-variable", "pieri-N7-degree",
            "verify-N", "verify-huge-N",
            "verify-eigen-degree", "verify-pieri-degree", "verify-all-degree",
            "verify-huge-degree"])
    def test_over_a_limit_is_refused_up_front(self, capsys, monkeypatch,
                                              tmp_path, argv, message):
        # one error line naming the input and the limit, exit 2, no
        # output, nothing appended, and no E, P, evaluation or expansion
        # begun
        for name in ("nonsym_E", "bisym_P", "eval_formula", "_P_at",
                     "pieri_expand", "pieri_bruteforce", "run_suite"):
            monkeypatch.setattr(cli, name, _no_work)
        path = tmp_path / "c.jsonl"
        path.write_bytes(b"")
        code, out, err = run(capsys, "--cache", str(path), *argv)
        assert (code, out, err) == (2, "", f"error: {message}\n")
        assert path.read_bytes() == b""

    def test_at_the_limits(self, capsys):
        # the largest size at N = 50, and the limits themselves
        assert run(capsys, "E", "--eta", ",".join("0" * 50)) == (0, "1\n", "")
        assert run(capsys, "P", "--spart", ";", "--N", "50") == (0, "1\n", "")
        cli._bounded("eta", 24, 2)
        cli._bounded("spart", 9, 5)
        cli._bounded("eta", 10000, 1)
        cli._bounded("spart", 74, 2, cli._MAX_FORMULA_SIZE)
        cli._bounded("spart", 49, 3, cli._MAX_FORMULA_SIZE)
        cli._bounded("spart", 665, 6, cli._MAX_PIERI_SIZE)

    @pytest.mark.parametrize("argv, out", [
        (("1999;", "--N", "2", "--r", "0"), "P_(1999;)  *  1\n"),
        ((";", "--N", "6", "--r", "665"), "0\n"),
        ((";", "--N", "1", "--r", "10000"), "0\n"),
        ((";", "--N", "50", "--r", "0"), "P_(;)  *  1\n"),
    ], ids=["N2-degree", "N6-past-width", "one-variable", "N50-degree"])
    def test_pieri_at_its_limits(self, capsys, argv, out):
        # admitted at the largest size: e_0 P_Lambda, and an r past the
        # interval's width, which has no strip
        assert run(capsys, "pieri", "--spart", *argv) == (0, out, "")

    @pytest.mark.parametrize("argv", [
        ("--N", "6", "--deg", "3"), ("--N", "6", "--deg", "5"),
        ("--suite", "pieri", "--N", "2", "--deg", "22"),
        ("--suite", "eigen", "--N", "2", "--deg", "24"),
        ("--suite", "hecke", "--N", "6", "--deg", "7"),
    ], ids=["all-N6", "all-N6-top", "pieri-N2-top", "eigen-N2-top",
            "hecke-N6-top"])
    def test_verify_at_its_limits(self, capsys, monkeypatch, argv):
        # admitted: the suite is called, here a stand-in that runs none
        seen = []
        monkeypatch.setattr(cli, "run_suite",
                            lambda *a, **kw: seen.append(a) or Report())
        assert run(capsys, "verify", *argv) == (0, "", "")
        assert len(seen) == 1

    def test_readme_states_the_limits_cli_enforces(self):
        # README's limit prose, whitespace normalized, names each of cli's
        # size constants as it stands, so a changed limit fails here until
        # the prose follows it
        readme = " ".join((Path(__file__).resolve().parent.parent
                           / "README.md").read_text(encoding="utf-8").split())
        for phrase in (f"(d + 1)·N ≤ {cli._MAX_SIZE}",
                       f"d ≤ {cli._MAX_DEGREE_1}",
                       f"(d + 1)·N ≤ {cli._MAX_FORMULA_SIZE}",
                       f"at most {cli._MAX_VERIFY_N} variables",
                       f"(d + 1)·N ≤ {cli._MAX_PIERI_SIZE}",
                       f"2 to {cli._MAX_PIERI_N} variables"):
            assert phrase in readme, phrase
