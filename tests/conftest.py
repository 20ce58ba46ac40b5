import signal

import pytest


class DeadlineExceeded(Exception):
    """Raised when a test outlives its deadline.  Not an OSError, as
    TimeoutError is: `sdlab.cli.main` turns an OSError into exit 2, which
    would report a hang as a refused input."""


@pytest.fixture
def deadline():
    """Fails the test if it runs for more than 5 s: an input that must be
    refused before any large work starts cannot hang the suite instead.
    Calling the fixture's value starts the 5 s again, so that each case of a
    property test gets its own."""

    def expire(signum, frame):
        raise DeadlineExceeded("not refused within 5 s")

    def restart():
        signal.setitimer(signal.ITIMER_REAL, 5)

    previous = signal.signal(signal.SIGALRM, expire)
    restart()
    try:
        yield restart
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
