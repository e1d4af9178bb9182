import pytest

from bimac.verify import Report, run_suite


def test_check_stops_at_the_first_failing_case():
    seen = []

    def holds(k, label):
        seen.append(k)
        return k not in (2, 3)
    rep = Report()
    rep.check("planted", [(k, f"case {k}") for k in range(1, 5)], holds)
    assert rep.results == [("planted", False, "(2, 'case 2')")]
    assert seen == [1, 2]
    assert rep.lines() == ["[FAIL] planted: (2, 'case 2')"]
    assert not rep.ok


def test_check_passes_on_no_cases():
    rep = Report()
    rep.check("empty", [], lambda: False)
    assert rep.ok and rep.lines() == ["[pass] empty"]


@pytest.mark.parametrize("N", [2, 4])
@pytest.mark.parametrize("deg", [0, 1])
def test_all_suites_pass(N, deg):
    rep = run_suite("all", N, deg)
    assert rep.ok, rep.lines()
