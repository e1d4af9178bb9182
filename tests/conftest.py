"""Shared fixtures."""

import signal

import pytest

DEADLINE_S = 120


class DeadlineExceeded(BaseException):
    """Raised by the deadline alarm.  Not an Exception, so hypothesis does
    not take it for a failing example and replay that example."""


@pytest.fixture(autouse=True)
def deadline():
    """Fail any test once it has run for DEADLINE_S seconds.

    The heuristic gcd leaves its loop only through a passing trial
    division, so a wrong candidate would spin instead of failing.  Where
    SIGALRM does not exist the test runs without a deadline.
    """
    if not hasattr(signal, "SIGALRM"):
        yield
        return

    def expire(signum, frame):
        raise DeadlineExceeded(f"the test ran past {DEADLINE_S} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(DEADLINE_S)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
