"""One forked child that shares a command's work with this process.

``child_stream(fn, items)`` is a map run in a forked child: the child
computes ``fn(item)`` for each item in order and pickles each result into a
pipe as it finishes, while this process does its own share of the work and
takes the child's results in the same order. Two commands use it, each only
where ``os.fork`` exists and the process may use more than one CPU:

- ``verify.run_builtin_suites``: the child runs the two symbolic suites,
  pure-Python exact algebra, and sends each one's ``CheckResult``;
- ``dynamics.write_trajectory_csv``, for a table of at least
  ``dynamics.CSV_FORK_VALUES`` values: the child formats every odd block of
  rows and sends each one's bytes, using only numpy slicing and ``tolist``
  before ``%`` formats the Python floats.

A child may call nothing that needs another thread of this process:
numpy's OpenBLAS starts worker threads, which do not exist in a forked
child, so neither child calls a BLAS routine. The child leaves through
``os._exit``: it never returns into the caller, flushes none of the
buffers it shares with this process and runs no exit hook.
"""

from __future__ import annotations

import os
import pickle
import signal
import warnings
from contextlib import contextmanager
from typing import Callable, Iterable, Iterator


def usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the platform
    has one, else the machine's count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _start_child(fn: Callable, items: Iterable):
    """(pid, read end of its pipe) of a forked child that pickles
    ``fn(item)`` for each item into the pipe, flushing each, and exits 0
    once all are sent; None when no pipe or no child can be made.
    ``os.fork`` is looked up here, at each call."""
    try:
        read_fd, write_fd = os.pipe()
    except OSError:
        return None
    try:
        with warnings.catch_warnings():
            # Python 3.12+ warns on a fork in a process with threads, and
            # numpy's OpenBLAS starts one; no child calls BLAS (see above)
            warnings.simplefilter("ignore", DeprecationWarning)
            pid = os.fork()
    except OSError:
        os.close(read_fd)
        os.close(write_fd)
        return None
    if pid == 0:
        code = 1
        try:
            os.close(read_fd)
            with open(write_fd, "wb") as pipe:
                for item in items:
                    pickle.dump(fn(item), pipe)
                    pipe.flush()
            code = 0
        finally:
            os._exit(code)  # never return into the caller, nor flush its buffers
    os.close(write_fd)
    return pid, read_fd


def _received(pipe) -> Iterator:
    """The results the child sent whole, in order; a result cut short ends
    the stream."""
    while True:
        try:
            result = pickle.load(pipe)
        except (EOFError, pickle.UnpicklingError):
            return
        yield result


@contextmanager
def child_stream(fn: Callable, items: Iterable, fork: bool = True) -> Iterator[Iterator]:
    """An iterator over ``fn(item)`` for each of ``items``, in order, each
    computed in a forked child and sent as soon as it is done.

    What the iterator does not deliver, the caller does itself. It
    delivers nothing when no child runs: ``fork`` is false, ``os.fork`` is
    missing, ``usable_cpus()`` is 1, or the pipe or the fork fails. It
    ends early, after the last result sent whole, when the child raises,
    dies or is killed. The child is killed when the body of the ``with``
    raises, and is always reaped before the ``with`` ends.
    """
    child = None
    if fork and hasattr(os, "fork") and usable_cpus() > 1:
        child = _start_child(fn, items)
    if child is None:
        yield iter(())
        return
    pid, read_fd = child
    pipe = open(read_fd, "rb")
    try:
        yield _received(pipe)
    except BaseException:
        os.kill(pid, signal.SIGKILL)
        raise
    finally:
        pipe.close()  # a child still sending gets EPIPE and exits
        os.waitpid(pid, 0)
