import os

import pytest
from hypothesis import HealthCheck, settings

from jetmech import verify

settings.register_profile(
    "ci",
    derandomize=True,
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("ci")


@pytest.fixture(autouse=True)
def no_child_left():
    """Every test ends with no child process of this one, running or
    exited: ``verify`` and the CSV writer reap each child they fork."""
    yield
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def cpus(monkeypatch):
    """Set the number of CPUs ``forking.usable_cpus`` reads, which decides
    whether a command forks a child."""

    def use(count):
        mask = set(range(count))
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: mask, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: count)
        assert verify.usable_cpus() == count

    return use


@pytest.fixture
def forks(monkeypatch):
    """The pid ``os.fork`` returned to this process, one per fork."""
    pids = []
    real = os.fork

    def counted():
        pid = real()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counted)
    return pids
