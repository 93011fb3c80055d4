"""Batched simulation engine: the slab/kernel fast path for the runners.

:func:`drive_batch` is the batched sibling of
:func:`repro.runner.driver.drive`: same inputs, bit-identical outputs
(core counters, cache statistics, the PMU-visible event stream, cycle
clocks), selected via ``MachineConfig.sim_engine == "batch"``.  It
executes the access stream in array *slabs* instead of one Python-level
access at a time, picking the fastest covering strategy per call:

kernel path (prefetch off, LRU L1/L2, no per-access observer)
    Each slab is translated in one vectorized pass
    (:meth:`~repro.sim.memory.PageAllocator.translate_lines_batch`) and
    both LRU levels are simulated *in closed form*: a set-associative
    LRU access hits iff its per-set stack distance is at most the
    associativity, so per-slab hit masks come out of the same
    previous-occurrence + bounded-distance kernel that powers
    :mod:`repro.core.fastpath` -- run over a set-grouped reordering of
    the slab with the current cache state prepended as priming
    accesses.  Only the (rare) demand L2 misses are replayed through
    the real :class:`~repro.sim.victim.VictimCache`, whose
    consume-on-hit semantics break the stack property.

slab-scalar path (prefetching, observers, early stop)
    A per-access loop that is a hand-inlined twin of
    :meth:`Process.step` + :meth:`MemoryHierarchy.access`: slab arrays
    feed plain Python lists, hot attributes are bound once per slab,
    and the per-access :class:`AccessResult` is only materialized when
    a generic observer needs it (trace collectors instead receive the
    raw event tuple through their ``observe_event`` method).

fallback (non-LRU replacement)
    Delegates to the scalar :func:`~repro.runner.driver.drive`
    unchanged and counts a ``sim.batch_fallbacks`` telemetry event.

All three paths consume the process's one logical access stream through
a shared :class:`BatchAccessSource`, so batched drives, scalar
``step()`` calls and co-run interleaving can be mixed freely on the
same process without skipping or replaying accesses.

Bit-identity invariants the kernel path relies on (each is enforced by
the differential suite in ``tests/sim/test_fastsim.py``):

- equal line numbers always map to the same set, so a stable set-grouped
  reordering keeps every reuse pair adjacent in its own segment and the
  global dominance count of :func:`_distances_from_prev` equals the
  per-set count;
- the victim of the k-th *evicting* install in a set is the line of the
  k-th *terminal* occurrence in that set (an occurrence whose next
  occurrence is a miss, or a final occurrence that does not survive the
  slab), because LRU evicts set members in last-use order;
- ``numpy.cumsum`` accumulates float64 strictly sequentially, so the
  per-slab cycle reduction rounds exactly like the scalar ``+=`` chain
  (migration debt is spliced in as its own addend, matching the scalar
  path's separate ``+=``).
"""

from __future__ import annotations

import time
from collections import deque
from typing import Callable, Iterator, Optional, Tuple

import numpy as np

from repro.core.fastpath import _distances_from_prev, previous_occurrences
from repro.core.histogram import COLD_MISS
from repro.obs import get_telemetry
from repro.sim.hierarchy import AccessResult, MemoryHierarchy

__all__ = [
    "DEFAULT_SLAB",
    "BatchAccessSource",
    "CollectorStop",
    "FastStepper",
    "NativeCorun",
    "drive_batch",
    "kernel_eligible",
    "native_eligible",
    "slab_eligible",
]

#: Accesses simulated per slab.  Large enough to amortize the O(n log n)
#: kernel sorts and the per-slab attribute binding, small enough that the
#: working arrays stay cache-friendly.
DEFAULT_SLAB = 1 << 16


# ---------------------------------------------------------------------------
# Stream ownership
# ---------------------------------------------------------------------------

class BatchAccessSource:
    """Sole owner of one process's access stream, in array form.

    Created the first time the batch engine drives a process.  A stream
    that has never been pulled is regenerated through the workload's
    native array producers (:meth:`Workload.access_batches`); a live
    iterator (the process was already stepped scalar) is wrapped and
    buffered.  Either way ``process._stream`` is redirected through this
    source, so scalar ``step()`` calls interleaved with batched drives
    keep consuming one single stream in order.
    """

    __slots__ = ("_batches", "_pending")

    def __init__(self, process, slab_size: int = DEFAULT_SLAB):
        if process._stream is None:
            self._batches = process.workload.access_batches(
                process._seed_offset, batch_size=slab_size
            )
        else:
            self._batches = _buffer_stream(process._stream, slab_size)
        self._pending: deque = deque()
        process._stream = self._scalar_iter()
        process._fastsim_source = self

    def take(self, limit: int) -> Tuple[np.ndarray, np.ndarray]:
        """The next chunk of at most ``limit`` accesses as ``(vaddrs, stores)``."""
        if self._pending:
            vaddrs, stores, cursor = self._pending.popleft()
        else:
            vaddrs, stores = next(self._batches)
            cursor = 0
        end = cursor + limit
        if end < vaddrs.size:
            self._pending.appendleft((vaddrs, stores, end))
        else:
            end = vaddrs.size
        return vaddrs[cursor:end], stores[cursor:end]

    def push_back(self, vaddrs: np.ndarray, stores: np.ndarray) -> None:
        """Return an unconsumed chunk tail to the front of the stream."""
        if vaddrs.size:
            self._pending.appendleft((vaddrs, stores, 0))

    def _scalar_iter(self) -> Iterator:
        from repro.workloads.base import MemoryAccess

        while True:
            vaddrs, stores = self.take(1)
            yield MemoryAccess(vaddr=int(vaddrs[0]), is_store=bool(stores[0]))


def _buffer_stream(stream: Iterator, slab_size: int):
    while True:
        vaddrs = np.empty(slab_size, dtype=np.int64)
        stores = np.empty(slab_size, dtype=np.bool_)
        for i in range(slab_size):
            access = next(stream)
            vaddrs[i] = access.vaddr
            stores[i] = access.is_store
        yield vaddrs, stores


def _source_for(process, slab_size: int = DEFAULT_SLAB) -> BatchAccessSource:
    source = getattr(process, "_fastsim_source", None)
    if source is None:
        source = BatchAccessSource(process, slab_size)
    return source


class CollectorStop:
    """Early-stop predicate "the collector is done", in declarative form.

    Behaviourally identical to ``lambda: collector.done``, but the
    batched engines can *reason* about it: the predicate is a pure
    function of the named collector's state, which only changes through
    the events the drive itself feeds.  That is what lets the native
    engine run a chunk ahead of the observer and rewind to the exact
    access where ``done`` first turned true.  An opaque callable (plain
    lambda) is still honoured everywhere -- it simply keeps the drive on
    the per-access slab path.
    """

    __slots__ = ("collector",)

    def __init__(self, collector):
        self.collector = collector

    def __call__(self) -> bool:
        return bool(self.collector.done)


# ---------------------------------------------------------------------------
# Eligibility gates
# ---------------------------------------------------------------------------

def slab_eligible(process, hierarchy: MemoryHierarchy) -> bool:
    """True when the inlined slab-scalar loop covers this configuration.

    The loop hard-codes LRU promotion/eviction for the L1D and L2 (the
    paper's machine); any other policy falls back to the scalar driver.
    """
    return (
        hierarchy.l1d[process.core].config.replacement == "lru"
        and hierarchy.l2.config.replacement == "lru"
    )


def kernel_eligible(process, hierarchy: MemoryHierarchy) -> bool:
    """True when the closed-form stack-distance kernel covers this run.

    Prefetching must be off (prefetch fills perturb recency mid-slab and
    draw from the process RNG per miss) and no pre-existing prefetch
    provenance may remain on the core (the kernel never updates the
    tracked set).  Caller must additionally ensure no per-access
    observer or stop predicate is attached.
    """
    return (
        slab_eligible(process, hierarchy)
        and not process._pf_config.enabled
        and not hierarchy._prefetched_l1[process.core]
    )


def native_eligible(process, hierarchy: MemoryHierarchy) -> bool:
    """True when the compiled C engine covers this configuration.

    The C engine transliterates the slab-scalar loop, so it inherits the
    LRU-only gate and adds its own: the victim L3 must be LRU (or off),
    and the prefetcher geometry must fit the engine's fixed bounds.
    Returns False when the engine is disabled (``REPRO_NATIVE=0``) or no
    C compiler was available to build it.
    """
    if not slab_eligible(process, hierarchy):
        return False
    l3 = hierarchy.l3
    if l3.enabled and not (
        l3._cache is not None and l3._cache.config.replacement == "lru"
    ):
        return False
    config = process._pf_config
    if config.enabled and not (
        1 <= config.depth <= 64 and config.num_streams >= 1
    ):
        return False
    from repro.sim.native import native_available

    return native_available()


# ---------------------------------------------------------------------------
# Closed-form LRU slab kernel
# ---------------------------------------------------------------------------

def _snapshot_lru(cache) -> Tuple[np.ndarray, np.ndarray]:
    """Cache state as parallel (lines, set indices) arrays.

    Entries are emitted set by set in recency order (oldest first), the
    exact order the kernel needs for priming accesses.
    """
    total = cache.occupancy
    lines = np.empty(total, dtype=np.int64)
    sets = np.empty(total, dtype=np.int64)
    pos = 0
    for index, bucket in enumerate(cache._sets):
        for line in bucket:
            lines[pos] = line
            sets[pos] = index
            pos += 1
    return lines, sets


def _commit_lru(cache, lines: np.ndarray, sets: np.ndarray) -> None:
    """Write kernel state arrays back into the cache's OrderedDicts."""
    buckets = cache._sets
    for bucket in buckets:
        bucket.clear()
    for line, index in zip(lines.tolist(), sets.tolist()):
        buckets[index][line] = None


def _lru_slab(
    state: Tuple[np.ndarray, np.ndarray],
    ev_lines: np.ndarray,
    num_sets: int,
    assoc: int,
    want_victims: bool,
):
    """Simulate one slab of accesses against a set-associative LRU cache.

    Args:
        state: (lines, sets) priming arrays from :func:`_snapshot_lru`
            or the previous slab's survivors.
        ev_lines: the slab's line numbers in time order.
        want_victims: also compute, per event, the line evicted by that
            event (-1 when the event evicted nothing).

    Returns:
        ``(hits, new_state, fills, evictions, victims)`` where ``hits``
        is a bool mask over events, ``fills``/``evictions`` count only
        real events (priming never re-fills), and ``victims`` is None
        unless requested.
    """
    state_lines, state_sets = state
    p = state_lines.size
    n_ev = ev_lines.size
    if n_ev == 0:
        return np.zeros(0, dtype=np.bool_), state, 0, 0, None
    if p:
        comb_lines = np.concatenate((state_lines, ev_lines))
        comb_sets = np.concatenate((state_sets, ev_lines % num_sets))
    else:
        comb_lines = ev_lines
        comb_sets = ev_lines % num_sets
    m = comb_lines.size
    # Stable group-by-set (quicksort on a collision-free composite key):
    # within a set, priming entries precede events and time order holds.
    order = np.argsort(comb_sets * np.int64(m) + np.arange(m, dtype=np.int64))
    g_lines = comb_lines[order]
    g_sets = comb_sets[order]

    # Equal lines always share a set, so previous occurrences stay inside
    # their own set segment, and every cross-segment predecessor index is
    # smaller than every in-segment one -- the global dominance count of
    # the distance kernel therefore equals the per-set count.
    prev = previous_occurrences(g_lines)
    dist = _distances_from_prev(prev, assoc)
    miss_g = dist == COLD_MISS  # cold or deeper than the associativity

    hits = np.empty(m, dtype=np.bool_)
    hits[order] = ~miss_g
    hits = hits[p:]

    real_g = order >= p
    fills = int(np.count_nonzero(miss_g & real_g))

    # Segment bookkeeping (one segment per populated set).
    seg_start = np.empty(m, dtype=np.bool_)
    seg_start[0] = True
    np.not_equal(g_sets[1:], g_sets[:-1], out=seg_start[1:])
    seg_id = np.cumsum(seg_start) - 1
    starts = np.flatnonzero(seg_start)

    # k-th install in a set evicts iff k > assoc (priming counts toward
    # occupancy but can never itself evict: at most assoc per set).
    inst_cum = np.cumsum(miss_g)
    install_rank = inst_cum - (inst_cum - miss_g)[starts][seg_id]
    evicting_g = miss_g & (install_rank > assoc)
    evictions = int(np.count_nonzero(evicting_g))

    # Survivors: per set, the last occurrences ranked from the segment
    # end; the newest ``assoc`` stay resident.  Grouped position order is
    # recency order, so the survivor arrays double as the next priming.
    last_occ = np.ones(m, dtype=np.bool_)
    reuse_pos = np.flatnonzero(prev >= 0)
    last_occ[prev[reuse_pos]] = False
    locc_cum = np.cumsum(last_occ)
    locc_base = (locc_cum - last_occ)[starts]
    ends = np.append(starts[1:] - 1, m - 1)
    seg_locc_total = locc_cum[ends] - locc_base
    rank_from_end = seg_locc_total[seg_id] - (locc_cum - locc_base[seg_id]) + 1
    survivor_g = last_occ & (rank_from_end <= assoc)
    surv_pos = np.flatnonzero(survivor_g)
    new_state = (g_lines[surv_pos], g_sets[surv_pos])

    victims = None
    if want_victims and evictions:
        # LRU evicts set members in last-use order, so the victim of the
        # k-th evicting install in a set is the k-th *terminal*
        # occurrence of that set: a position whose next occurrence of
        # the same line is a miss (its residency ended before that
        # reuse), or a final occurrence that does not survive the slab.
        terminal = np.zeros(m, dtype=np.bool_)
        terminal[prev[reuse_pos]] = miss_g[reuse_pos]
        terminal |= last_occ & (rank_from_end > assoc)
        tpos = np.flatnonzero(terminal)
        epos = np.flatnonzero(evicting_g)
        if tpos.size != epos.size or not np.array_equal(
            g_sets[tpos], g_sets[epos]
        ):
            raise AssertionError(
                "fastsim victim pairing diverged (kernel bug)"
            )
        victims = np.full(n_ev, -1, dtype=np.int64)
        victims[order[epos] - p] = g_lines[tpos]
    return hits, new_state, fills, evictions, victims


def _drive_kernel(
    process,
    hierarchy: MemoryHierarchy,
    num_accesses: int,
    source: BatchAccessSource,
    slab_size: int,
) -> int:
    """Prefetch-off solo drive via the closed-form LRU kernel."""
    core = process.core
    machine = hierarchy.machine
    counters = hierarchy.counters[core]
    l1 = hierarchy.l1d[core]
    l2 = hierarchy.l2
    l3 = hierarchy.l3
    l1_stats, l2_stats = l1.stats, l2.stats
    l1_sets_n, l1_assoc = l1.config.num_sets, l1.config.associativity
    l2_sets_n, l2_assoc = l2.config.num_sets, l2.config.associativity
    l3_insert, l3_lookup = l3.insert_victim, l3.lookup
    # Inline the (always-LRU) victim-cache bucket operations in the
    # replay loop; fall back to the method calls for anything exotic.
    l3_fast = (
        l3.enabled
        and l3._cache is not None
        and l3._cache.config.replacement == "lru"
    )
    if l3_fast:
        l3_buckets = l3._cache._sets
        l3_nsets = l3._cache.config.num_sets
        l3_assoc = l3._cache.config.associativity
        l3_ratio = l3._ratio
        l3_stats = l3.stats
        l3_inner_stats = l3._cache.stats
    expose = process._expose
    pen_l2 = expose * machine.l2_latency
    pen_l3 = expose * machine.l3_latency
    pen_mem = expose * machine.memory_latency
    base_cost = process._base_cost
    ipa = process._ipa
    allocator = process.allocator
    pid = process.pid

    l1_state = _snapshot_lru(l1)
    l2_state = _snapshot_lru(l2)
    slabs = 0
    remaining = num_accesses
    try:
        while remaining > 0:
            vaddrs, stores = source.take(min(remaining, slab_size))
            n = vaddrs.size
            remaining -= n
            slabs += 1
            lines, debt = allocator.translate_lines_batch(pid, vaddrs)

            # L1D: every access, loads and stores alike (write-through).
            l1_hits, l1_state, l1_fills, l1_evicts, _ = _lru_slab(
                l1_state, lines, l1_sets_n, l1_assoc, want_victims=False
            )
            n_hits = int(np.count_nonzero(l1_hits))
            n_stores = int(np.count_nonzero(stores))
            counters.loads += n - n_stores
            counters.stores += n_stores
            counters.l1d_misses += n - n_hits
            l1_stats.accesses += n
            l1_stats.hits += n_hits
            l1_stats.fills += l1_fills
            l1_stats.evictions += l1_evicts

            # L2 recency stream: demand fetches (any L1 miss) plus
            # write-through store forwards (store that hit the L1).
            miss_mask = ~l1_hits
            ev_mask = miss_mask | (stores & l1_hits)
            ev_idx = np.flatnonzero(ev_mask)
            ev_lines = lines[ev_idx]
            demand_ev = miss_mask[ev_idx]
            l2_hits, l2_state, l2_fills, l2_evicts, victims = _lru_slab(
                l2_state,
                ev_lines,
                l2_sets_n,
                l2_assoc,
                want_victims=l3.enabled,
            )
            demand_count = int(np.count_nonzero(demand_ev))
            demand_hits = int(np.count_nonzero(l2_hits & demand_ev))
            counters.l2_demand_accesses += demand_count
            counters.l2_demand_misses += demand_count - demand_hits
            l2_stats.accesses += demand_count
            l2_stats.hits += demand_hits
            l2_stats.fills += l2_fills
            l2_stats.evictions += l2_evicts

            penalty = np.zeros(n, dtype=np.float64)
            penalty[ev_idx[demand_ev & l2_hits]] = pen_l2

            # Replay only the demand L2 misses through the victim L3
            # (consume-on-hit breaks the stack property).  Victims of
            # store-forward fills are dropped, exactly as the scalar
            # hierarchy does.
            dm_pos = np.flatnonzero(demand_ev & ~l2_hits)
            l3_hit_count = 0
            if dm_pos.size:
                if not l3.enabled:
                    penalty[ev_idx[dm_pos]] = pen_mem
                elif l3_fast:
                    dm_access = ev_idx[dm_pos].tolist()
                    dm_lines = ev_lines[dm_pos].tolist()
                    if victims is not None:
                        dm_victims = victims[dm_pos].tolist()
                        inserts = int(np.count_nonzero(victims[dm_pos] >= 0))
                    else:
                        dm_victims = None
                        inserts = 0
                    inner_fills = 0
                    inner_evicts = 0
                    for j, line in enumerate(dm_lines):
                        if dm_victims is not None:
                            victim = dm_victims[j]
                            if victim >= 0:
                                v3 = victim // l3_ratio
                                bucket = l3_buckets[v3 % l3_nsets]
                                if v3 in bucket:
                                    bucket.move_to_end(v3)
                                else:
                                    if len(bucket) >= l3_assoc:
                                        del bucket[next(iter(bucket))]
                                        inner_evicts += 1
                                    bucket[v3] = None
                                    inner_fills += 1
                        a3 = line // l3_ratio
                        bucket = l3_buckets[a3 % l3_nsets]
                        if a3 in bucket:
                            del bucket[a3]
                            l3_hit_count += 1
                            penalty[dm_access[j]] = pen_l3
                        else:
                            penalty[dm_access[j]] = pen_mem
                    l3_stats.accesses += dm_pos.size
                    l3_stats.hits += l3_hit_count
                    l3_stats.fills += inserts
                    l3_inner_stats.fills += inner_fills
                    l3_inner_stats.evictions += inner_evicts
                else:
                    dm_access = ev_idx[dm_pos].tolist()
                    dm_lines = ev_lines[dm_pos].tolist()
                    dm_victims = (
                        victims[dm_pos].tolist()
                        if victims is not None
                        else None
                    )
                    for j, line in enumerate(dm_lines):
                        if dm_victims is not None:
                            victim = dm_victims[j]
                            if victim >= 0:
                                l3_insert(victim)
                        if l3_lookup(line):
                            l3_hit_count += 1
                            penalty[dm_access[j]] = pen_l3
                        else:
                            penalty[dm_access[j]] = pen_mem
            counters.l3_hits += l3_hit_count
            counters.memory_accesses += dm_pos.size - l3_hit_count

            # Cycle clock: cumsum accumulates float64 sequentially, so
            # this rounds exactly like the scalar += chain; migration
            # debt is spliced in as its own addend right after the
            # access that incurred it (the scalar path's second +=).
            addends = penalty + base_cost
            if debt is not None:
                charged = np.flatnonzero(debt)
                addends = np.insert(
                    addends, charged + 1, debt[charged].astype(np.float64)
                )
            chain = np.empty(addends.size + 1, dtype=np.float64)
            chain[0] = process.cycles
            chain[1:] = addends
            process.cycles = float(np.cumsum(chain)[-1])

            counters.instructions += n * ipa
            process.instructions += n * ipa
            process.accesses += n
    finally:
        _commit_lru(l1, *l1_state)
        _commit_lru(l2, *l2_state)
    return num_accesses, slabs


# ---------------------------------------------------------------------------
# Slab-scalar path
# ---------------------------------------------------------------------------

def _build_step(process, hierarchy: MemoryHierarchy, source: BatchAccessSource,
                slab_size: int):
    """Build the inlined per-access step closure for one process.

    Returns ``(step, flush)``.  ``step()`` executes exactly one access --
    a hand-inlined, bit-identical twin of ``Process.step`` over an LRU
    L1D/L2 -- and returns the raw event tuple ``(line, l1_hit, l2_hit,
    l3_hit, memory_access, was_prefetched, prefetched_lines, is_store)``.
    ``flush()`` pushes any locally buffered accesses back to the source
    (call it when abandoning the stepper so the stream stays gapless).
    """
    core = process.core
    counters = hierarchy.counters[core]
    l1 = hierarchy.l1d[core]
    l1_sets = l1._sets
    l1_nsets = l1.config.num_sets
    l1_assoc = l1.config.associativity
    l1_stats = l1.stats
    l2 = hierarchy.l2
    l2_sets = l2._sets
    l2_nsets = l2.config.num_sets
    l2_assoc = l2.config.associativity
    l2_stats = l2.stats
    l3 = hierarchy.l3
    l3_insert = l3.insert_victim
    l3_lookup = l3.lookup
    l3_enabled = l3.enabled
    l3_fast = (
        l3_enabled
        and l3._cache is not None
        and l3._cache.config.replacement == "lru"
    )
    if l3_fast:
        l3_buckets = l3._cache._sets
        l3_nsets = l3._cache.config.num_sets
        l3_assoc = l3._cache.config.associativity
        l3_ratio = l3._ratio
        l3_stats = l3.stats
        l3_inner_stats = l3._cache.stats
    pf_set = hierarchy._prefetched_l1[core]
    machine = hierarchy.machine
    expose = process._expose
    pen_l2 = expose * machine.l2_latency
    pen_l3 = expose * machine.l3_latency
    pen_mem = expose * machine.memory_latency
    base_cost = process._base_cost
    ipa = process._ipa
    allocator = process.allocator
    pid = process.pid
    tlb_get = process._tlb.get
    translate_page = allocator.translate_page_lines
    take_debt = allocator.take_migration_debt
    lines_per_page = process._lines_per_page
    line_size = process._line_size
    pf_enabled = process._pf_config.enabled
    observe_miss = process.prefetcher.observe_miss
    prefetch_fill = hierarchy.prefetch_fill
    pf_random = process._pf_random
    pf_late = process._pf_late
    pf_install = process._pf_install
    take = source.take
    push_back = source.push_back

    vlist: list = []
    slist: list = []
    cursor = 0
    chunk_len = 0

    def step():
        nonlocal vlist, slist, cursor, chunk_len
        if cursor >= chunk_len:
            varr, sarr = take(slab_size)
            vlist = varr.tolist()
            slist = sarr.tolist()
            cursor = 0
            chunk_len = len(vlist)
        i = cursor
        cursor = i + 1
        vaddr = vlist[i]
        is_store = slist[i]

        vline = vaddr // line_size
        vpage = vline // lines_per_page
        base = tlb_get(vpage)
        translated = base is None
        if translated:
            base = translate_page(pid, vpage)
        line = base + (vline - vpage * lines_per_page)

        if is_store:
            counters.stores += 1
        else:
            counters.loads += 1
        l1_stats.accesses += 1
        bucket1 = l1_sets[line % l1_nsets]
        l2_hit = False
        l3_hit = False
        memory = False
        prefetched = ()
        penalty = 0.0
        if line in bucket1:
            l1_stats.hits += 1
            bucket1.move_to_end(line)
            l1_hit = True
            was_pf = line in pf_set
            if is_store:
                # Write-through forward; the victim, if any, is dropped.
                bucket2 = l2_sets[line % l2_nsets]
                if line in bucket2:
                    bucket2.move_to_end(line)
                else:
                    if len(bucket2) >= l2_assoc:
                        del bucket2[next(iter(bucket2))]
                        l2_stats.evictions += 1
                    bucket2[line] = None
                    l2_stats.fills += 1
        else:
            l1_hit = False
            was_pf = False
            if len(bucket1) >= l1_assoc:
                del bucket1[next(iter(bucket1))]
                l1_stats.evictions += 1
            bucket1[line] = None
            l1_stats.fills += 1
            counters.l1d_misses += 1
            pf_set.discard(line)
            counters.l2_demand_accesses += 1
            l2_stats.accesses += 1
            bucket2 = l2_sets[line % l2_nsets]
            if line in bucket2:
                l2_stats.hits += 1
                bucket2.move_to_end(line)
                l2_hit = True
                penalty = pen_l2
            else:
                counters.l2_demand_misses += 1
                victim = None
                if len(bucket2) >= l2_assoc:
                    victim = next(iter(bucket2))
                    del bucket2[victim]
                    l2_stats.evictions += 1
                bucket2[line] = None
                l2_stats.fills += 1
                if l3_fast:
                    if victim is not None:
                        v3 = victim // l3_ratio
                        bucket3 = l3_buckets[v3 % l3_nsets]
                        if v3 in bucket3:
                            bucket3.move_to_end(v3)
                        else:
                            if len(bucket3) >= l3_assoc:
                                del bucket3[next(iter(bucket3))]
                                l3_inner_stats.evictions += 1
                            bucket3[v3] = None
                            l3_inner_stats.fills += 1
                        l3_stats.fills += 1
                    a3 = line // l3_ratio
                    l3_stats.accesses += 1
                    bucket3 = l3_buckets[a3 % l3_nsets]
                    if a3 in bucket3:
                        l3_stats.hits += 1
                        del bucket3[a3]
                        l3_hit = True
                elif l3_enabled:
                    if victim is not None:
                        l3_insert(victim)
                    l3_hit = l3_lookup(line)
                if l3_hit:
                    counters.l3_hits += 1
                    penalty = pen_l3
                else:
                    counters.memory_accesses += 1
                    memory = True
                    penalty = pen_mem
            if pf_enabled:
                pf_vlines = observe_miss(vline)
                if pf_vlines:
                    prefetched = []
                    for pf_vline in pf_vlines:
                        pf_vpage = pf_vline // lines_per_page
                        pf_base = tlb_get(pf_vpage)
                        if pf_base is None:
                            pf_base = translate_page(pid, pf_vpage)
                            translated = True
                        pf_line = pf_base + (pf_vline - pf_vpage * lines_per_page)
                        prefetched.append(pf_line)
                        if pf_random() < pf_late:
                            continue
                        prefetch_fill(
                            core, pf_line, install_l1=pf_random() < pf_install
                        )
        counters.instructions += ipa
        process.instructions += ipa
        process.accesses += 1
        cycles = process.cycles + (base_cost + penalty)
        if translated:
            cycles += take_debt(pid)
        process.cycles = cycles
        return line, l1_hit, l2_hit, l3_hit, memory, was_pf, prefetched, is_store

    def flush():
        nonlocal vlist, slist, cursor, chunk_len
        if cursor < chunk_len:
            push_back(
                np.asarray(vlist[cursor:], dtype=np.int64),
                np.asarray(slist[cursor:], dtype=np.bool_),
            )
        vlist = []
        slist = []
        cursor = 0
        chunk_len = 0

    return step, flush


class FastStepper:
    """Inlined per-access executor for one (process, hierarchy) pair.

    Used by the co-run scheduler when ``sim_engine == "batch"``: each
    ``step()`` call executes one access bit-identically to
    ``Process.step(hierarchy)`` (including per-access ``cycles`` /
    ``instructions`` updates, so cycle-clock interleaving is unchanged)
    but without re-resolving any attribute on the hot path.  Call
    :meth:`flush` when done so buffered accesses return to the stream.
    """

    __slots__ = ("process", "step", "flush")

    def __init__(self, process, hierarchy: MemoryHierarchy,
                 slab_size: int = DEFAULT_SLAB):
        self.process = process
        source = _source_for(process, slab_size)
        self.step, self.flush = _build_step(
            process, hierarchy, source, slab_size
        )


def _drive_slab(
    process,
    hierarchy: MemoryHierarchy,
    num_accesses: int,
    observer: Optional[Callable[[AccessResult], None]],
    stop: Optional[Callable[[], bool]],
    source: BatchAccessSource,
    slab_size: int,
) -> int:
    """Slab-scalar drive: inlined per-access loop with observer support.

    A bound-method observer whose owner exposes ``observe_event`` (the
    trace collectors) receives raw ``(line, l1_hit, prefetched_lines)``
    events; any other observer gets a materialized
    :class:`AccessResult`, exactly as the scalar driver would produce.
    """
    step, flush = _build_step(process, hierarchy, source, slab_size)
    core = process.core
    executed = 0
    try:
        if observer is None and stop is None:
            for _ in range(num_accesses):
                step()
            return num_accesses
        event_observer = None
        if observer is not None:
            owner = getattr(observer, "__self__", None)
            event_observer = getattr(owner, "observe_event", None)
        while executed < num_accesses:
            (line, l1_hit, l2_hit, l3_hit, memory,
             was_pf, prefetched, is_store) = step()
            executed += 1
            if event_observer is not None:
                event_observer(line, l1_hit, prefetched)
            elif observer is not None:
                observer(
                    AccessResult(
                        core=core,
                        line=line,
                        is_store=is_store,
                        l1_hit=l1_hit,
                        l2_hit=l2_hit,
                        l3_hit=l3_hit,
                        memory_access=memory,
                        l1_fill_was_prefetched=was_pf,
                        prefetched_lines=list(prefetched),
                    )
                )
            if stop is not None and stop():
                break
    finally:
        flush()
    return executed


# ---------------------------------------------------------------------------
# Native (compiled) path
# ---------------------------------------------------------------------------

def _drive_native(
    process,
    hierarchy: MemoryHierarchy,
    num_accesses: int,
    events_fn,
    stop: Optional[Callable[[], bool]],
    source: BatchAccessSource,
    slab_size: int,
    channel=None,
) -> Tuple[int, int, bool]:
    """Solo drive on the compiled C engine.

    ``channel`` is a collector the C trace channel models exactly
    (:func:`repro.sim.native.channel_kind`): C applies every access to
    it and stops on the access that fills its log, so the drive needs
    no Python per-event work at all.  Otherwise ``events_fn`` is the
    collector's ``observe_events`` bound method (or None for an
    unobserved run): observed chunks run ahead of the collector and are
    rewound to the exact access on which the stop predicate first
    fired -- snapshot, simulate, feed the recorded events, and if the
    collector consumed fewer events than the engine produced, restore
    the snapshot and deterministically re-run exactly the consumed
    prefix.

    Returns ``(executed, chunks, finished)``.  ``finished`` False means
    the native path bailed (a chunk held negative virtual addresses,
    where C's truncating division diverges) and the caller must finish
    the remaining accesses on a Python path -- state is committed, so
    the hand-off is seamless.
    """
    from repro.sim import native as _native

    session = _native.NativeSession(
        hierarchy, [process], channel=channel,
        stop_on_full=channel is not None and stop is not None,
    )
    proc = session.procs[0]
    events = None
    if events_fn is not None:
        config = process._pf_config
        depth = config.depth if config.enabled else 0
        events = _native.EventBuffer(min(slab_size, 1 << 14), depth)

    executed = 0
    chunks = 0
    limit = num_accesses
    session.adopt()
    try:
        if (channel is None and events is None
                and stop is not None and stop()):
            # Scalar parity: the per-access loop executes one access and
            # only then consults the predicate, so a predicate that is
            # already true still consumes exactly one access.  (Without
            # an observer the predicate's state cannot change mid-run;
            # the C channel checks its own log after every access.)
            limit = 1
        while executed < limit:
            if session.chunk_remaining(0) == 0:
                vaddrs, stores = source.take(slab_size)
                chunks += 1
                try:
                    session.set_chunk(0, vaddrs, stores)
                except _native.NativeVaddrError:
                    source.push_back(vaddrs, stores)
                    return executed, chunks, False

            if events is None:
                quota = limit - executed
                ran = session.run_solo(0, quota)
                executed += ran
                if ran == quota:
                    break
                reason = proc.stop_reason
                if reason == _native.STOP_LOG_FULL:
                    break
                if reason != _native.STOP_REFILL:
                    session.grow(0, reason)
                continue

            quota = min(limit - executed, events.cap)
            snap = session.snapshot(0)
            events.reset()
            ran = session.run_solo(0, quota, events)
            lines, hits, prefetched = events.drain()
            consumed = events_fn(lines, hits, prefetched)
            while stop is None and consumed < ran:
                # No stop predicate: the scalar loop keeps feeding the
                # (now done) collector, so feed the tail through too.
                consumed += events_fn(
                    lines[consumed:],
                    hits[consumed:],
                    prefetched[consumed:] if prefetched is not None else None,
                )
            if consumed < ran:
                # The collector finished mid-chunk: rewind the engine
                # and replay exactly the consumed prefix (deterministic,
                # all prechecks already passed on the first run).
                session.restore(0, snap)
                rerun = session.run_solo(0, consumed)
                if rerun != consumed:
                    raise AssertionError(
                        "native replay diverged (engine bug)"
                    )
                executed += consumed
                return executed, chunks, True
            executed += ran
            if stop is not None and stop():
                return executed, chunks, True
            if ran < quota:
                reason = proc.stop_reason
                if reason != _native.STOP_REFILL:
                    session.grow(0, reason)
    finally:
        session.commit()
    return executed, chunks, True


class NativeCorun:
    """Compiled co-run scheduler: all cores interleave inside one C call.

    Replaces the per-access heap loop of ``runner.corun``'s quota legs
    with :func:`repro_corun`, which repeatedly steps the process with
    the lowest (cycles, index) key -- the exact argmin order the heap
    produces -- until some process completes its quota.  Legs commit on
    return, so warmup resets and scalar interleaving see live state.
    """

    def __init__(self, processes, hierarchy: MemoryHierarchy,
                 slab_size: int = DEFAULT_SLAB):
        from repro.sim import native as _native

        self._native = _native
        self.processes = list(processes)
        self.slab_size = slab_size
        self.sources = [_source_for(p, slab_size) for p in self.processes]
        self.session = _native.NativeSession(hierarchy, self.processes)

    def run_until(self, start, target_extra: int) -> bool:
        """Run every process until one has executed ``target_extra``
        accesses beyond its entry in ``start``.

        Returns False (with all state committed) when a chunk with
        negative virtual addresses forces the leg back onto the Python
        stepper path; no process has reached its quota at that point.
        """
        native = self._native
        session = self.session
        session.adopt()
        try:
            while True:
                finisher, reason, proc = session.run_corun(
                    start, target_extra
                )
                if finisher >= 0:
                    return True
                if reason == native.STOP_REFILL:
                    source = self.sources[proc]
                    vaddrs, stores = source.take(self.slab_size)
                    try:
                        session.set_chunk(proc, vaddrs, stores)
                    except native.NativeVaddrError:
                        source.push_back(vaddrs, stores)
                        return False
                else:
                    session.grow(proc, reason)
        finally:
            session.commit()


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def drive_batch(
    process,
    hierarchy: MemoryHierarchy,
    num_accesses: int,
    observer: Optional[Callable[[AccessResult], None]] = None,
    stop: Optional[Callable[[], bool]] = None,
    slab_size: int = DEFAULT_SLAB,
) -> int:
    """Batched twin of :func:`repro.runner.driver.drive` (bit-identical).

    Selects the closed-form kernel when the configuration allows it, the
    inlined slab-scalar loop otherwise, and falls back to the scalar
    driver (counting ``sim.batch_fallbacks``) for configurations neither
    fast path covers.  Returns the number of accesses executed.
    """
    if num_accesses <= 0:
        return 0
    telemetry = get_telemetry()
    if not slab_eligible(process, hierarchy):
        if telemetry.enabled:
            telemetry.registry.counter(
                "sim.batch_fallbacks", reason="replacement"
            ).inc()
        from repro.runner.driver import drive

        return drive(process, hierarchy, num_accesses,
                     observer=observer, stop=stop)
    started = time.perf_counter()
    source = _source_for(process, slab_size)

    # Native dispatch: an observer must be a collector, and the stop
    # predicate must be absent or a ``CollectorStop`` over that same
    # collector.  A stock collector runs its channel model inside C;
    # any other one must expose the batched ``observe_events`` protocol
    # (so the run-ahead engine can locate the exact stop access by
    # rewinding).
    use_native = False
    native_events = None
    channel = None
    if native_eligible(process, hierarchy):
        if observer is None:
            use_native = stop is None or isinstance(stop, CollectorStop)
        else:
            from repro.sim.native import channel_kind

            owner = getattr(observer, "__self__", None)
            use_native = stop is None or (
                isinstance(stop, CollectorStop) and stop.collector is owner
            )
            if (channel_kind(owner) is not None
                    and getattr(observer, "__func__", None)
                    is type(owner).observe):
                channel = owner
            else:
                native_events = getattr(owner, "observe_events", None)
                use_native = use_native and native_events is not None

    engine = None
    executed = 0
    slabs = 0
    finished = False
    if use_native:
        engine = "native"
        executed, slabs, finished = _drive_native(
            process, hierarchy, num_accesses, native_events, stop,
            source, slab_size, channel,
        )
    if not finished and executed < num_accesses:
        # Either native was ineligible, or it bailed mid-run (negative
        # vaddr chunk): finish the remainder on the Python paths.  State
        # was committed, so the hand-off is access-exact.
        remaining = num_accesses - executed
        if (observer is None and stop is None
                and kernel_eligible(process, hierarchy)):
            if engine is None:
                engine = "kernel"
            more, kslabs = _drive_kernel(
                process, hierarchy, remaining, source, slab_size
            )
            executed += more
            slabs += kslabs
        else:
            if engine is None:
                engine = "slab"
            more = _drive_slab(
                process, hierarchy, remaining, observer, stop, source,
                slab_size,
            )
            executed += more
            slabs += -(-more // slab_size) if more else 0
    if telemetry.enabled:
        registry = telemetry.registry
        registry.counter("sim.batch_accesses", engine=engine).inc(executed)
        if slabs:
            registry.counter("sim.batch_slabs", engine=engine).inc(slabs)
        elapsed = time.perf_counter() - started
        # Wall time as a counter so throughput survives worker fold-back
        # (a gauge would keep only one worker's last value; the report
        # layer derives accesses/sec from the two counter totals).
        registry.counter("sim.batch_ns", engine=engine).inc(
            max(1, int(elapsed * 1e9))
        )
    return executed
