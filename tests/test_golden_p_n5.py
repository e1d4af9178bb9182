"""The pins of ``golden_p_n5.json``: P at N = 5 for every superpartition
of degree 3 and 4 with m = 0..3.  The command table, the runner and the
regeneration command are in ``test_golden_cli.py``."""

import pytest

from test_golden_cli import GOLDEN_SETS, check_stdout, key


@pytest.mark.parametrize("argv", GOLDEN_SETS["golden_p_n5.json"], ids=key)
def test_cli_stdout(argv):
    check_stdout("golden_p_n5.json", argv)
