"""The persistent simulation worker pool."""

import os
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro.obs import Telemetry, use_telemetry
from repro.runner import pool


def _worker_view():
    return pool.default_sim_workers(), pool.get_pool(None)


def test_workers_do_not_nest_pools():
    """A forked worker inherits the parent's ``--sim-workers`` default
    and its pool table; both are reset, so work a worker runs (a campaign
    cell's offline curve, for one) stays sequential inside it."""
    pool.configure_sim_workers(2)
    try:
        (default, nested), = pool.get_pool(None).map_traced(
            _worker_view, [()]
        )
    finally:
        pool.configure_sim_workers(None)
    assert default is None
    assert nested is None


def _exit_worker():
    os._exit(1)


def _square(value):
    return value * value


@pytest.mark.parametrize("method", ["map_traced", "imap_unordered"])
def test_broken_pool_is_replaced(method):
    """A worker that dies breaks its executor for good: that call fails,
    and the next ``get_pool`` hands out a fresh pool instead of one that
    would fail every later call."""
    broken = pool.get_pool(2)
    with pytest.raises(BrokenProcessPool):
        list(getattr(broken, method)(_exit_worker, [()]))
    assert broken.closed
    telemetry = Telemetry.in_memory()
    with use_telemetry(telemetry):
        fresh = pool.get_pool(2)
        assert fresh is not broken
        assert fresh.map_traced(_square, [(3,), (4,)]) == [9, 16]
    assert telemetry.registry.counter_total("pool.rebuilds") == 1
