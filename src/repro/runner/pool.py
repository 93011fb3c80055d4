"""Persistent simulation worker pool with telemetry fold-back.

Every parallel path in the runners used to spin up its own ad-hoc
``ProcessPoolExecutor`` and hand-roll the ``call_traced`` /
``absorb_payload`` dance.  This module centralizes both halves:

- :class:`SimWorkerPool` wraps one executor and knows the telemetry
  contract: :meth:`map_traced` runs each task under a fresh per-worker
  telemetry and folds the metric/span payloads back into the parent's
  registry through the associative merge, so a pooled run's folded
  counters equal a sequential replay's by construction.
- :func:`get_pool` keeps pools *persistent* per worker count: the first
  caller pays the interpreter spawn + import + native-engine load, every
  later call (the next offline curve, the next campaign cell batch)
  reuses the warm workers.  Pools are closed once, at interpreter exit.
  A pool whose worker died (a crash or an OOM kill) breaks its executor
  for good: the failing call closes it and re-raises, and the next
  :func:`get_pool` builds a fresh one (counted as ``pool.rebuilds``).

The process-wide default count is set by the CLI's ``--sim-workers``
flag via :func:`configure_sim_workers`; call sites resolve their
explicit ``max_workers`` argument against it with
:func:`resolve_sim_workers` (explicit always wins).
"""

from __future__ import annotations

import atexit
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.obs import (
    absorb_payload,
    call_traced,
    get_telemetry,
    telemetry_enabled,
)

__all__ = [
    "SimWorkerPool",
    "configure_sim_workers",
    "default_sim_workers",
    "get_pool",
    "resolve_sim_workers",
]


class SimWorkerPool:
    """A process pool that preserves the sequential telemetry contract."""

    def __init__(self, max_workers: int):
        from concurrent.futures import ProcessPoolExecutor

        if max_workers < 2:
            raise ValueError("a worker pool needs at least 2 workers")
        self.max_workers = max_workers
        self._executor = ProcessPoolExecutor(
            max_workers=max_workers, initializer=_init_worker
        )
        self._closed = False

    @property
    def closed(self) -> bool:
        return self._closed

    def close(self) -> None:
        if not self._closed:
            self._closed = True
            self._executor.shutdown(wait=True)

    def _discard(self) -> None:
        """Close a pool whose executor broke, without waiting on it."""
        self._closed = True
        self._executor.shutdown(wait=False)

    def map_traced(
        self, fn: Callable, tasks: Sequence[Tuple]
    ) -> List[object]:
        """Run ``fn(*task)`` per task; results in task order.

        With telemetry enabled, each task runs under a fresh per-call
        registry in its worker and the resulting payload is absorbed
        here, so counters fold back exactly as a sequential run would
        have accumulated them.
        """
        if self._closed:
            raise RuntimeError("worker pool is closed")
        from concurrent.futures.process import BrokenProcessPool

        traced = telemetry_enabled()
        try:
            if traced:
                futures = [
                    self._executor.submit(call_traced, fn, *task)
                    for task in tasks
                ]
                results: List[object] = []
                for future in futures:
                    result, payload = future.result()
                    absorb_payload(payload)
                    results.append(result)
                return results
            futures = [self._executor.submit(fn, *task) for task in tasks]
            return [future.result() for future in futures]
        except BrokenProcessPool:
            self._discard()
            raise

    def imap_unordered(
        self, fn: Callable, tasks: Sequence[Tuple]
    ) -> Iterator[object]:
        """Yield ``fn(*task)`` results as they complete (no tracing
        wrapper -- for callables that already manage their own
        telemetry payloads, like the campaign's ``run_cell``)."""
        if self._closed:
            raise RuntimeError("worker pool is closed")
        from concurrent.futures import as_completed
        from concurrent.futures.process import BrokenProcessPool

        try:
            futures = [self._executor.submit(fn, *task) for task in tasks]
            for future in as_completed(futures):
                yield future.result()
        except BrokenProcessPool:
            self._discard()
            raise


# -- process-wide persistent pools ------------------------------------------

_configured_workers: Optional[int] = None
_pools: Dict[int, SimWorkerPool] = {}
_atexit_registered = False


def configure_sim_workers(count: Optional[int]) -> None:
    """Set the default worker count (the CLI's ``--sim-workers``)."""
    global _configured_workers
    if count is not None and count < 1:
        raise ValueError("--sim-workers must be >= 1")
    _configured_workers = count


def default_sim_workers() -> Optional[int]:
    return _configured_workers


def resolve_sim_workers(explicit: Optional[int]) -> Optional[int]:
    """An explicit ``max_workers`` argument wins over the configured
    default; ``None`` falls back to ``--sim-workers``."""
    return explicit if explicit is not None else _configured_workers


def _init_worker() -> None:
    """Workers run their tasks sequentially: a forked worker inherits
    the parent's ``--sim-workers`` default and pools, and must not nest
    pools of its own (a campaign cell's offline curve, for one)."""
    global _configured_workers
    _configured_workers = None
    _pools.clear()


def _close_pools() -> None:
    for pool in list(_pools.values()):
        pool.close()
    _pools.clear()


def get_pool(max_workers: Optional[int]) -> Optional[SimWorkerPool]:
    """The persistent pool for ``max_workers`` (resolved against the
    configured default), or ``None`` when the caller should stay on the
    sequential in-process path."""
    global _atexit_registered
    workers = resolve_sim_workers(max_workers)
    if workers is None or workers < 2:
        return None
    pool = _pools.get(workers)
    if pool is None or pool.closed:
        if pool is not None:
            get_telemetry().registry.counter("pool.rebuilds").inc()
        pool = SimWorkerPool(workers)
        _pools[workers] = pool
        if not _atexit_registered:
            _atexit_registered = True
            atexit.register(_close_pools)
    return pool
