import signal

import pytest

from bchbound.galois import build_field, nth_root, root_from_x

# a test that runs this long is hung, not slow: the slowest takes seconds
TEST_TIME_LIMIT_S = 120


class TimeLimitExceeded(BaseException):
    """Raised in a test that outruns TEST_TIME_LIMIT_S.

    Not an Exception: hypothesis catches those and replays the failing
    example with no alarm armed, so a hung loop would hang again.
    """


@pytest.fixture(autouse=True)
def _time_limit():
    """End a hung test as a named failure, where SIGALRM exists."""
    if not hasattr(signal, "SIGALRM"):
        yield
        return

    def expire(signum, frame):
        raise TimeLimitExceeded(f"test ran past {TEST_TIME_LIMIT_S} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(TEST_TIME_LIMIT_S)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture(scope="session")
def root15():
    return root_from_x(build_field(2, 4, (1, 1, 0, 0, 1)), 15)


@pytest.fixture(scope="session")
def root21():
    return root_from_x(build_field(2, 6, (1, 0, 1, 0, 1, 1, 1)), 21)


@pytest.fixture(scope="session")
def root17():
    return root_from_x(build_field(2, 8, (1, 1, 1, 0, 1, 0, 1, 1, 1)), 17)


@pytest.fixture(scope="session")
def root7():
    return nth_root(build_field(2, 3), 7)


@pytest.fixture(scope="session")
def root11_3():
    return nth_root(build_field(3, 5), 11)
