import pytest

from loglimit.grid import GridSpec


@pytest.fixture(scope="session")
def grid16():
    return GridSpec(16)


@pytest.fixture(scope="session")
def grid32():
    return GridSpec(32)


@pytest.fixture(scope="session")
def grid64():
    return GridSpec(64)
