import os

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


@pytest.fixture
def cpus(monkeypatch):
    """Sets the CPUs this process may run on, as a count: a pool map
    (grid._map_tasks) runs in-process on 1 and forks workers on 2."""
    return lambda k: monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(k)))
