"""How verify runs its suites, and its verdicts on non-finite values.

``run_builtin_suites`` forks one child for two suites where it may use
more than one CPU. Each test here sets the CPU count the runner reads
(the ``cpus`` fixture of conftest), so that it takes the forked or the
serial path whatever the machine; every test ends by checking that no
child process is left.
"""

import os
import signal
import time
import warnings

import numpy as np
import pytest

from jetmech import verify
from jetmech.cli import main
from jetmech.dynamics import OracleReport
from jetmech.verify import DEFAULT_SEED, FORKED_SUITES, run_builtin_suites


def serial(cpus, seed):
    cpus(1)
    results = run_builtin_suites(seed)
    cpus(2)
    return results


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def replace_suites(monkeypatch, **by_place):
    suites = list(verify.ALL_SUITES)
    for place, suite in by_place.items():
        suites[int(place[1:])] = suite
    monkeypatch.setattr(verify, "ALL_SUITES", tuple(suites))


class TestForkedSuites:
    def test_the_child_runs_the_two_symbolic_suites(self):
        names = [verify.ALL_SUITES[i].__name__ for i in FORKED_SUITES]
        assert names == ["check_cochain_contraction", "check_split_invariance"]

    @pytest.mark.parametrize("seed", sorted({7, 31, 12345, DEFAULT_SEED}))
    def test_forked_and_serial_results_are_equal(self, cpus, forks, seed):
        cpus(2)
        forked = run_builtin_suites(seed)
        assert len(forks) == 1
        assert forked == serial(cpus, seed)
        assert len(forks) == 1
        assert [r.seed for r in forked] == [seed] * 5

    def test_one_cpu_runs_the_suites_serially(self, cpus, forks, capsys):
        cpus(1)
        code, out, err = run(capsys, "verify", "--builtin-suite")
        assert (code, err) == (0, "")
        assert out.count("[PASS]") == 5
        assert forks == []

    def test_no_fork_runs_the_suites_serially(self, cpus, monkeypatch):
        cpus(2)
        expected = serial(cpus, 7)
        monkeypatch.delattr(os, "fork")
        assert run_builtin_suites(7) == expected

    def test_a_fork_that_fails_runs_the_suites_serially(self, cpus, monkeypatch):
        cpus(2)
        expected = serial(cpus, 7)

        def refused():
            raise BlockingIOError("Resource temporarily unavailable")

        monkeypatch.setattr(os, "fork", refused)
        assert run_builtin_suites(7) == expected

    def test_a_child_that_kills_itself_gives_the_serial_report(
        self, cpus, forks, capsys, monkeypatch
    ):
        cpus(1)
        expected = run(capsys, "verify", "--builtin-suite")
        parent = os.getpid()
        real = verify.ALL_SUITES[0]

        def killed_in_child(seed):
            if os.getpid() != parent:
                os.kill(os.getpid(), signal.SIGKILL)
            return real(seed)

        replace_suites(monkeypatch, s0=killed_in_child)
        cpus(2)
        assert run(capsys, "verify", "--builtin-suite") == expected
        assert len(forks) == 1

    def test_results_that_do_not_unpickle_give_the_serial_results(
        self, cpus, forks, monkeypatch
    ):
        cpus(2)
        expected = serial(cpus, 7)

        class Unreadable:
            dumps = staticmethod(verify.pickle.dumps)

            @staticmethod
            def loads(data):
                raise verify.pickle.UnpicklingError("truncated")

        monkeypatch.setattr(verify, "pickle", Unreadable)
        assert run_builtin_suites(7) == expected
        assert len(forks) == 1

    def test_a_raising_suite_surfaces_in_suite_order(self, cpus, forks, capsys, monkeypatch):
        # the child's first suite and the parent's first both raise; run
        # serially, the child's comes first and is the one reported
        def raising(message):
            def suite(seed):
                raise RuntimeError(message)

            return suite

        replace_suites(monkeypatch, s0=raising("in the child's suite"), s1=raising("in the parent's"))
        cpus(1)
        expected = run(capsys, "verify", "--builtin-suite")
        assert expected == (4, "", "internal error: RuntimeError: in the child's suite\n")
        cpus(2)
        assert run(capsys, "verify", "--builtin-suite") == expected
        assert len(forks) == 1

    def test_a_fork_that_warns_is_quiet_under_warnings_as_errors(
        self, cpus, forks, monkeypatch
    ):
        # Python 3.12+ warns on a fork in a process with threads
        cpus(2)
        expected = serial(cpus, 7)
        counted = os.fork

        def warning_fork():
            warnings.warn("this process is multi-threaded", DeprecationWarning)
            return counted()

        monkeypatch.setattr(os, "fork", warning_fork)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run_builtin_suites(7) == expected
        assert len(forks) == 1

    def test_the_child_is_killed_when_the_parent_raises(self, cpus, forks, monkeypatch):
        parent = os.getpid()

        def sleeps_in_child(seed):
            if os.getpid() != parent:
                time.sleep(30)

        def interrupted(seed):
            raise KeyboardInterrupt

        replace_suites(monkeypatch, s0=sleeps_in_child, s1=interrupted)
        cpus(2)
        start = time.monotonic()
        with pytest.raises(KeyboardInterrupt):
            run_builtin_suites(7)
        assert time.monotonic() - start < 10
        assert len(forks) == 1


class TestNaNVerdicts:
    """A comparison that decides a pass fails on NaN."""

    def test_a_nan_first_variation_fails(self, monkeypatch):
        monkeypatch.setattr(verify, "first_variation", lambda *args: float("nan"))
        result = verify.check_first_variation(7)
        assert not result.passed
        assert result.detail.startswith("|Sigma| = nan on a solution")

    @pytest.mark.parametrize(
        "on, detail",
        [
            ("every trajectory", "halving ratio nan < 3.5"),
            ("the broken section", "non-integrable section not flagged"),
        ],
    )
    def test_a_nan_spencer_residual_fails(self, monkeypatch, on, detail):
        real = verify.spencer_residual

        def nan_residual(traj):
            r = real(traj)
            return np.full_like(r, np.nan) if on == "every trajectory" or len(r) == 101 else r

        monkeypatch.setattr(verify, "spencer_residual", nan_residual)
        result = verify.check_spencer_residual(7)
        assert not result.passed
        assert result.detail == detail

    def test_a_nan_oracle_divergence_is_not_within_any_tolerance(self):
        assert OracleReport(0.0).within(0.0)
        assert not OracleReport(2e-8).within(1e-8)
        assert not OracleReport(float("nan")).within(float("inf"))
