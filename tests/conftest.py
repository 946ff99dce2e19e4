"""Fixtures shared by the test modules."""

import pytest

from uavtc import simulate


def _drop_kept_pool():
    if simulate._pool is not None:
        simulate._pool[1].shutdown()
        simulate._pool = None


@pytest.fixture
def pool_starts(monkeypatch):
    """Worker counts of the process pools started during the test.

    The test begins and ends with no pool kept, so a pool that an earlier
    test left running can neither hide a start nor be counted.
    """
    started = []

    class CountingPool(simulate.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            started.append(kwargs.get("max_workers"))
            super().__init__(*args, **kwargs)

    _drop_kept_pool()
    monkeypatch.setattr(simulate, "ProcessPoolExecutor", CountingPool)
    yield started
    _drop_kept_pool()


@pytest.fixture
def pool_tasks(monkeypatch):
    """The function of each task submitted to the kept process pool during the test."""
    submitted = []

    class CountingPool(simulate.ProcessPoolExecutor):
        def submit(self, fn, /, *args, **kwargs):
            submitted.append(fn.__name__)
            return super().submit(fn, *args, **kwargs)

    _drop_kept_pool()
    monkeypatch.setattr(simulate, "ProcessPoolExecutor", CountingPool)
    yield submitted
    _drop_kept_pool()
