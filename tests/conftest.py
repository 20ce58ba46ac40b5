import signal

import pytest


@pytest.fixture
def deadline():
    """Fails the test if it runs for more than 5 s: an input that must be
    refused before any large work starts cannot hang the suite instead."""

    def expire(signum, frame):
        raise TimeoutError("not refused within 5 s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, 5)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
