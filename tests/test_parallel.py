"""The contract of `parallel.forked`, driven with cheap jobs."""

import multiprocessing
import os
import time

import numpy as np
import pytest

from diamondwave import parallel


class _Error(RuntimeError):
    """The caller's exception class."""


class _Unpicklable(Exception):
    def __reduce__(self):
        raise TypeError("not picklable")


def test_result_comes_back_whole(cpus, forks):
    # several arrays, one of them a strided view and one larger than a pipe
    # buffer, a scalar and rows of small dicts: every array arrives byte for
    # byte, writable and aligned
    rng = np.random.default_rng(7)
    grid = rng.normal(size=(60, 50))
    window = rng.normal(size=(3, 40000)) + 1j * rng.normal(size=(3, 40000))
    rows = [{"p_t": 0.1 * k, "flags": "ok" if k % 2 else "failed"}
            for k in range(5)]

    def job():
        return {"pid": os.getpid(), "grid": grid, "window": window,
                "strided": grid[::3, 1::7], "scale": 0.25, "rows": rows}
    cpus(2)
    with parallel.forked(job, _Error) as wait:
        result = wait()
    assert forks == [result["pid"]] and result["pid"] != os.getpid()
    assert (result["scale"], result["rows"]) == (0.25, rows)
    for name, expected in (("grid", grid), ("window", window),
                           ("strided", grid[::3, 1::7])):
        array = result[name]
        assert (array.dtype, array.shape) == (expected.dtype, expected.shape)
        assert array.tobytes() == expected.tobytes()
        assert array.flags.writeable and array.flags.aligned


@pytest.mark.parametrize("error, expected", [
    (ValueError, ValueError),
    (_Unpicklable, _Error)])
def test_child_error_is_raised_in_the_parent(cpus, forks, error, expected):
    # the child's exception reaches the parent with its type and message
    # (the message names the child's pid); one that does not pickle
    # arrives as the caller's error carrying its repr
    def job():
        raise error(f"job failed (pid {os.getpid()})")
    cpus(2)
    with pytest.raises(expected) as caught:
        with parallel.forked(job, _Error) as wait:
            wait()
    message = f"job failed (pid {forks[0]})"
    assert type(caught.value) is expected
    assert str(caught.value) == (message if error is expected
                                 else repr(error(message)))


class _CutPipe:
    """The child's end of the pipe, which ends the child with exit code 3
    once `limit` bytes have been written."""

    def __init__(self, fd, limit):
        self.fd, self.limit = fd, limit

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        os.close(self.fd)

    def write(self, data):
        data = memoryview(data).cast("B")
        os.write(self.fd, data[:self.limit])
        self.limit -= len(data)
        if self.limit <= 0:
            os._exit(3)


@pytest.mark.parametrize("cut", [None, 5, 500_000])
def test_child_that_ends_early_is_the_callers_error(monkeypatch, cpus,
                                                    cut):
    # the child ends before it writes (None), inside the pickled head, or
    # inside an array's bytes
    if cut is None:
        def job():
            os._exit(3)
    else:
        def job():
            return np.arange(2.0**17)

        def cutting(fd, mode):
            return _CutPipe(fd, cut) if mode == "wb" else open(fd, mode)
        monkeypatch.setattr(parallel, "open", cutting, raising=False)
    cpus(2)
    with pytest.raises(_Error) as caught:
        with parallel.forked(job, _Error) as wait:
            wait()
    assert str(caught.value) == "forked process ended early (exit code 3)"


@pytest.mark.parametrize("error", [ValueError, KeyboardInterrupt])
def test_failure_in_the_block_leaves_no_process(cpus, forks, error):
    # the caller fails while the child works: the child is ended and reaped
    cpus(2)
    with pytest.raises(error, match="caller failed"):
        with parallel.forked(lambda: time.sleep(60), _Error):
            raise error("caller failed")
    assert len(forks) == 1
    with pytest.raises(ProcessLookupError):
        os.kill(forks[0], 0)        # reaped: not even a zombie is left
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("host", ["one_cpu", "no_fork", "no_affinity"])
def test_serial_job_runs_at_wait_and_starts_no_process(monkeypatch, cpus,
                                                       host):
    def refuse(self):
        raise AssertionError("process started")
    monkeypatch.setattr(multiprocessing.context.ForkProcess, "start",
                        refuse)
    cpus(1 if host == "one_cpu" else 2)
    if host == "no_fork":
        monkeypatch.setattr(multiprocessing, "get_all_start_methods",
                            lambda: ["spawn"])
    elif host == "no_affinity":
        monkeypatch.delattr(os, "sched_getaffinity")
    ran = []

    def job():
        ran.append(os.getpid())
        return np.ones(3)
    with parallel.forked(job, _Error) as wait:
        assert ran == []
        result = wait()
    assert ran == [os.getpid()]
    assert np.array_equal(result, np.ones(3))
