"""Fixtures shared by the test modules."""

import multiprocessing
import os

import pytest


@pytest.fixture
def cpus(monkeypatch):
    """A function `cpus(count)` that makes the process see `count` CPUs."""
    def see(count):
        monkeypatch.setattr(os, "sched_getaffinity",
                            lambda pid: set(range(count)))
    return see


@pytest.fixture
def forks(monkeypatch):
    """The pids of the processes started by fork during the test."""
    pids = []
    start = multiprocessing.context.ForkProcess.start

    def recording(self):
        start(self)
        pids.append(self.pid)
    monkeypatch.setattr(multiprocessing.context.ForkProcess, "start",
                        recording)
    return pids
