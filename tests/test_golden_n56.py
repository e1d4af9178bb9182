"""The pins of ``golden_n56.json``: Pieri expansions and formula
evaluations at N = 5 and 6.  The command table, the runner and the
regeneration command are in ``test_golden_cli.py``."""

import pytest

from test_golden_cli import GOLDEN_SETS, check_stdout, key


@pytest.mark.parametrize("argv", GOLDEN_SETS["golden_n56.json"], ids=key)
def test_cli_stdout(argv):
    check_stdout("golden_n56.json", argv)
