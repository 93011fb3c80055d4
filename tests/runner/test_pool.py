"""The persistent simulation worker pool."""

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
