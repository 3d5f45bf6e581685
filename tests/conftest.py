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
    """Sets the CPUs this process may run on, as a count: the parallel map
    (grid._map_tasks) runs every task in-process on 1, and on 2 runs them in
    this process and one forked child."""
    return lambda k: monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(k)))


def assert_no_child_left():
    """This process has no child, running or unreaped: a map that returned
    or raised reaped every process it forked."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
