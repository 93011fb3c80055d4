"""ctypes harness for the native C simulation engine (``_native.c``).

The C engine is an exact transliteration of the scalar hot path --
``Process.step`` + ``MemoryHierarchy.access`` + the stream prefetcher
and page allocator -- over flat state arrays.  This module owns the
other half of the contract:

- **build**: compile ``_native.c`` with the system C compiler on first
  use, keyed by a hash of the source (so edits invalidate the cache),
  and load it through ctypes.  No compiler, no native engine -- callers
  fall back to the scalar driver.
- **marshal**: :class:`NativeSession` adopts a machine's live Python
  objects (caches, counters, page tables, prefetcher streams, the
  CPython MT19937 state) into C-visible arrays on the machine's first
  native run and keeps them there for the machine's life.  Later
  drives and co-run legs reuse them and copy only a few dozen scalar
  fields (core counters, clocks) at each run boundary; a Python
  path that needs the rest calls :meth:`NativeSession.materialize`,
  which copies it back and drops the session.  A trace collector is
  bound per run (:class:`TraceChannel`): C appends to its int64 buffer
  in place, and commit only advances the log's length.  Adopting also
  hands C each cache's set-index reciprocal and the log2 of each
  power-of-two divisor (:func:`_recip`, :func:`_shift`), so the step
  reduces and floors without dividing.
- **generate**: :class:`MTStream` holds one workload stream's MT19937
  state in a C-visible buffer for the fill kernels (``random()``
  doubles and ``_randbelow``) behind
  :class:`repro.workloads.base.BatchRandom`.
- **stack distances**: :func:`stack_distances` runs the exact LRU
  stack-distance kernel (``repro_stack_distances``) that
  :mod:`repro.core.fastpath` selects whenever this library loads.
- **protocol**: the engine never calls back into Python and never
  allocates.  It has one run entry, ``repro_corun``
  (:meth:`NativeSession.run_corun`): a cycle-fair co-run of adopted
  processes, each optionally observed by a trace channel; a solo drive
  is the one-process case.  A run ends when a process reaches its stop
  target -- an absolute access count per process: a quota leg's end, or
  the dynamic manager's next hook access -- or stops with one reason:
  a chunk of accesses is exhausted
  (``STOP_REFILL``), a trace log filled (``STOP_LOG_FULL``), or a step
  *would* overflow the page table -- then it stops before mutating
  anything and reports ``STOP_GROW_PT``, the session grows the table in
  place and the run resumes, bit-identically either way.

Kill switch: set ``REPRO_NATIVE=0`` to disable the native engine
entirely (every drive then steps the scalar reference on the workloads'
scalar generators, and every stack histogram comes from the range-list
reference).  That is silent; a native engine that is wanted but cannot be built (no
compiler, failed compile) warns once per process and counts
``sim.native_unavailable{reason}`` on every lookup that falls back.
"""

from __future__ import annotations

import array
import ctypes
import hashlib
import os
import subprocess
import tempfile
import warnings
import weakref
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.obs import get_telemetry
from repro.sim.prefetcher import (
    CONFIRM_AFTER,
    DEPTH,
    L1_INSTALL_PROBABILITY,
    LATE_PROBABILITY,
    NUM_STREAMS,
    _Stream,
)

__all__ = [
    "MTStream",
    "NativeSession",
    "TraceChannel",
    "channel_kind",
    "enter",
    "native_lib",
    "native_available",
    "stack_distances",
    "STOP_NONE",
    "STOP_REFILL",
    "STOP_LOG_FULL",
]

i64 = ctypes.c_int64
u32 = ctypes.c_uint32
u8 = ctypes.c_uint8
f64 = ctypes.c_double
P_i64 = ctypes.POINTER(i64)
P_u32 = ctypes.POINTER(u32)
P_u8 = ctypes.POINTER(u8)

STOP_NONE = 0
STOP_REFILL = 1
STOP_GROW_PT = 2
STOP_LOG_FULL = 3

PMU_REAL = 1
PMU_IDEAL = 2

HT_EMPTY = -1
_M64 = (1 << 64) - 1
_HASH_MULT = 0x9E3779B97F4A7C15


# ---------------------------------------------------------------------------
# Struct mirrors (field order and widths must match _native.c exactly)
# ---------------------------------------------------------------------------

class _NCache(ctypes.Structure):
    _fields_ = [
        ("nsets", i64), ("assoc", i64), ("recip", i64),
        ("ways", P_i64), ("occ", P_i64),
    ]


class _NMap(ctypes.Structure):
    _fields_ = [
        ("cap", i64), ("count", i64),
        ("keys", P_i64), ("vals", P_i64),
    ]


class _NPf(ctypes.Structure):
    _fields_ = [
        ("enabled", i64), ("num_streams", i64), ("depth", i64),
        ("confirm_after", i64), ("late_p", f64), ("install_p", f64),
        ("count", i64), ("clock", i64),
        ("next_line", P_i64), ("hits", P_i64),
        ("confirmed", P_i64), ("last_use", P_i64),
    ]


class _NMt(ctypes.Structure):
    _fields_ = [("key", P_u32), ("pos", i64)]


class _NShared(ctypes.Structure):
    _fields_ = [
        ("l2", _NCache),
        ("l3_enabled", i64), ("l3_ratio", i64), ("l3_shift", i64),
        ("l3", _NCache),
        ("pages_per_group", i64), ("pages_per_color", i64),
        ("migration_cost", i64),
        ("next_frame_of_color", P_i64), ("lazy_migrations", i64),
        ("stop_reason", i64), ("stop_proc", i64),
    ]


class _NProc(ctypes.Structure):
    _fields_ = [
        ("vaddrs", P_i64), ("stores", P_u8), ("pos", i64), ("len", i64),
        ("line_size", i64), ("lines_per_page", i64),
        ("line_shift", i64), ("page_shift", i64),
        ("base_cost", f64), ("pen_l2", f64), ("pen_l3", f64),
        ("pen_mem", f64), ("ipa", i64),
        ("cycles", f64), ("instructions", i64), ("accesses", i64),
        ("debt_pending", i64),
        ("colors", P_i64), ("ncolors", i64), ("cursor", i64),
        ("page_table", _NMap),
        ("pf", _NPf), ("mt", _NMt),
        ("c_instructions", i64), ("c_loads", i64), ("c_stores", i64),
        ("c_l1d_misses", i64), ("c_l2da", i64), ("c_l2dm", i64),
        ("c_l3_hits", i64), ("c_mem", i64),
        ("l1", _NCache),
    ]


class _NPmu(ctypes.Structure):
    _fields_ = [
        ("kind", i64),
        ("log", P_i64), ("log_cap", i64), ("log_n", i64),
        ("since_miss", i64), ("inflight_window", i64),
        ("drop_p", f64), ("dual_lsu", i64), ("stale_on_prefetch", i64),
        ("mt", _NMt),
        ("buffer_entries", i64), ("buffered", i64),
        ("l1d_misses", i64), ("dropped", i64), ("stale", i64),
        ("exceptions", i64), ("exception_cost", i64),
    ]


# ---------------------------------------------------------------------------
# Build & load
# ---------------------------------------------------------------------------

_CFLAGS = ["-O2", "-shared", "-fPIC", "-fvisibility=hidden"]
_LIB: Optional[ctypes.CDLL] = None
_LIB_TRIED = False
#: Why the last build attempt produced no engine ("no_compiler" or
#: "build_failed"); None after a successful build.
_LIB_FAILURE: Optional[str] = None
_WARNED = False


def _enabled() -> bool:
    return os.environ.get("REPRO_NATIVE", "1") not in ("0", "off", "false")


def _find_cc() -> Optional[str]:
    for cc in (os.environ.get("CC"), "cc", "gcc", "clang"):
        if not cc:
            continue
        for root in os.environ.get("PATH", "").split(os.pathsep):
            cand = os.path.join(root, cc)
            if os.path.isfile(cand) and os.access(cand, os.X_OK):
                return cc
    return None


def _build_lib() -> Tuple[Optional[ctypes.CDLL], Optional[str]]:
    """``(lib, None)`` on success, ``(None, reason)`` otherwise."""
    source = os.path.join(os.path.dirname(__file__), "_native.c")
    try:
        with open(source, "rb") as src:
            blob = src.read()
    except OSError:
        return None, "build_failed"
    tag = hashlib.sha256(blob + " ".join(_CFLAGS).encode()).hexdigest()[:16]
    name = f"_repro_native_{tag}.so"
    package_dir = os.path.dirname(source)
    for cache_dir in (package_dir, tempfile.gettempdir()):
        so_path = os.path.join(cache_dir, name)
        if os.path.exists(so_path):
            try:
                return ctypes.CDLL(so_path), None
            except OSError:
                continue
        cc = _find_cc()
        if cc is None:
            return None, "no_compiler"
        tmp_path = so_path + f".tmp{os.getpid()}"
        try:
            subprocess.run(
                [cc, *_CFLAGS, "-o", tmp_path, source],
                check=True, capture_output=True, timeout=120,
            )
            os.replace(tmp_path, so_path)
            lib = ctypes.CDLL(so_path)
        except (OSError, subprocess.SubprocessError):
            try:
                os.unlink(tmp_path)
            except OSError:
                pass
            continue
        if cache_dir == package_dir:
            # Builds of older sources are never loaded again.  The shared
            # temp directory is left alone: another checkout's build may
            # live there.
            _remove_builds(package_dir, keep=name)
        return lib, None
    return None, "build_failed"


def _remove_builds(directory: str, keep: str) -> None:
    """Delete every ``_repro_native_*.so`` in ``directory`` but ``keep``."""
    for entry in os.listdir(directory):
        if (entry != keep and entry.startswith("_repro_native_")
                and entry.endswith(".so")):
            try:
                os.unlink(os.path.join(directory, entry))
            except OSError:
                pass


def _report_unavailable(reason: str) -> None:
    """Make a wanted-but-missing engine visible: a counter per lookup, a
    warning once per process."""
    global _WARNED
    get_telemetry().registry.counter(
        "sim.native_unavailable", reason=reason
    ).inc()
    if not _WARNED:
        _WARNED = True
        warnings.warn(
            f"native simulation engine unavailable ({reason}); drives "
            "and stack histograms fall back to the slower scalar "
            "references",
            RuntimeWarning,
            stacklevel=3,
        )


def native_lib() -> Optional[ctypes.CDLL]:
    """The loaded native engine, building it on first call (None when
    disabled via ``REPRO_NATIVE=0`` or when it cannot be built)."""
    global _LIB, _LIB_TRIED, _LIB_FAILURE
    if not _enabled():
        return None
    if not _LIB_TRIED:
        _LIB_TRIED = True
        lib, _LIB_FAILURE = _build_lib()
        if lib is not None:
            vp = ctypes.c_void_p
            lib.repro_mt_fill.argtypes = [vp, vp, vp, i64]
            lib.repro_mt_fill.restype = None
            lib.repro_mt_randbelow.argtypes = [vp, vp, i64, vp, i64]
            lib.repro_mt_randbelow.restype = None
            lib.repro_stack_distances.argtypes = [vp, i64, i64, vp, vp, i64, vp]
            lib.repro_stack_distances.restype = i64
            lib.repro_corun.argtypes = [
                ctypes.POINTER(_NShared),
                ctypes.POINTER(ctypes.POINTER(_NProc)),
                ctypes.POINTER(vp), i64, P_i64,
            ]
            lib.repro_corun.restype = i64
        _LIB = lib
    if _LIB is None:
        _report_unavailable(_LIB_FAILURE)
    return _LIB


def native_available() -> bool:
    return native_lib() is not None


def channel_kind(collector) -> Optional[int]:
    """``PMU_REAL`` / ``PMU_IDEAL`` when the C trace channel models
    ``collector`` exactly, else None.

    Only the two stock collectors qualify: a subclass or wrapper may
    override any per-event hook.
    """
    from repro.pmu.ideal import IdealTraceCollector
    from repro.pmu.sampling import TraceCollector

    kind = type(collector)
    if kind is TraceCollector:
        return PMU_REAL
    if kind is IdealTraceCollector:
        return PMU_IDEAL
    return None


class MTStream:
    """One ``random.Random``'s MT19937 state in a C-visible buffer.

    The workload fill kernels (``repro_mt_fill``, ``repro_mt_randbelow``)
    advance it in place, so a stream's RNG stays in C between chunks;
    :meth:`store` writes it back to a Python RNG, which then continues
    exactly where the kernels stopped.  The key words live in an
    ``array('I')``: it converts to and from the state tuple several
    times faster than a numpy array does.
    """

    __slots__ = ("_lib", "_key", "_pos", "_key_addr", "_pos_addr",
                 "_version", "_gauss")

    def __init__(self, lib: ctypes.CDLL, rng):
        version, internal, gauss_next = rng.getstate()
        self._lib = lib
        self._key = array.array("I", internal[:624])
        self._pos = i64(internal[624])
        self._key_addr = self._key.buffer_info()[0]
        self._pos_addr = ctypes.addressof(self._pos)
        self._version = version
        self._gauss = gauss_next

    def random(self, count: int) -> np.ndarray:
        """``count`` consecutive ``random()`` draws."""
        out = np.empty(count, dtype=np.float64)
        self._lib.repro_mt_fill(
            self._key_addr, self._pos_addr, out.ctypes.data, count
        )
        return out

    def randbelow(self, bound: int, count: int) -> np.ndarray:
        """``count`` consecutive ``randrange(bound)`` draws, for
        ``1 <= bound < 2**32``."""
        out = np.empty(count, dtype=np.int64)
        self._lib.repro_mt_randbelow(
            self._key_addr, self._pos_addr, bound, out.ctypes.data, count
        )
        return out

    def store(self, rng) -> None:
        """Write the advanced state back into ``rng``."""
        rng.setstate(
            (self._version, (*self._key, self._pos.value), self._gauss)
        )


def stack_distances(
    lib: ctypes.CDLL, trace: np.ndarray, max_depth: int
) -> Tuple[np.ndarray, int]:
    """Exact bounded LRU stack distances of ``trace`` in one C pass.

    ``trace`` is a contiguous int64 array.  Returns the distances --
    1-based for reuses within ``max_depth``,
    :data:`~repro.core.histogram.COLD_MISS` for first touches and deeper
    reuses, element for element what
    :class:`~repro.core.stack.NaiveLRUStack` returns -- and the index of
    the access that fills a ``max_depth``-line stack, or ``len(trace)``
    when it never fills.  The kernel's scratch -- a
    (line, position) map at most 0.7 full and a Fenwick tree over time
    positions -- lives in arrays freed when this returns.
    """
    if (trace.dtype != np.int64 or trace.ndim != 1
            or not trace.flags.c_contiguous):
        raise ValueError("stack_distances needs a contiguous 1-D int64 array")
    n = int(trace.size)
    cap = _ht_cap_for(n, 0)
    slots = np.empty(2 * cap, dtype=np.int64)
    tree = np.empty(n + 1, dtype=np.int64)
    distances = np.empty(n, dtype=np.int64)
    fill = lib.repro_stack_distances(
        trace.ctypes.data, n, max_depth, distances.ctypes.data,
        slots.ctypes.data, cap, tree.ctypes.data,
    )
    return distances, int(fill)


# ---------------------------------------------------------------------------
# Hash-table marshalling (must reproduce _native.c's probe sequence)
# ---------------------------------------------------------------------------

def _zigzag(vpage: int) -> int:
    """The non-negative key C stores for a (possibly negative) vpage."""
    return (vpage << 1) ^ (vpage >> 63)


def _ht_cap_for(count: int, extra: int) -> int:
    cap = 64
    while (count + extra) * 10 > cap * 7:
        cap <<= 1
    return cap


def _ht_fill(
    keys: Sequence[int], vals: Sequence[int], cap: int,
) -> Tuple[np.ndarray, np.ndarray]:
    """Open-addressing table layout identical to C inserting ``keys`` in
    order (``map_slot``'s linear probe).

    The hashes are computed as one array; only the linear-probe walk
    runs per key, so an empty table costs two array fills.
    """
    keys_arr = np.full(cap, HT_EMPTY, dtype=np.int64)
    vals_arr = np.zeros(cap, dtype=np.int64)
    if len(keys):
        mask = cap - 1
        h = np.asarray(keys, dtype=np.int64).view(np.uint64)
        h = h * np.uint64(_HASH_MULT)
        h ^= h >> np.uint64(29)
        slots: List[int] = []
        taken = set()
        for slot in (h & np.uint64(mask)).tolist():
            while slot in taken:
                slot = (slot + 1) & mask
            taken.add(slot)
            slots.append(slot)
        keys_arr[slots] = keys
        vals_arr[slots] = vals
    return keys_arr, vals_arr


def _bind_map(
    struct: _NMap, keys: Sequence[int], vals: Sequence[int], extra: int,
) -> Dict[str, np.ndarray]:
    cap = _ht_cap_for(len(keys), extra)
    keys_arr, vals_arr = _ht_fill(keys, vals, cap)
    struct.cap = cap
    struct.count = len(keys)
    struct.keys = keys_arr.ctypes.data_as(P_i64)
    struct.vals = vals_arr.ctypes.data_as(P_i64)
    return {"keys": keys_arr, "vals": vals_arr}


# ---------------------------------------------------------------------------
# RNG marshalling (CPython random.Random <-> C MT19937)
# ---------------------------------------------------------------------------

def _bind_mt(struct: _NMt, rng) -> Tuple[array.array, tuple]:
    """Adopt ``rng``'s key words and position; returns the key array and
    the ``(version, gauss_next)`` pair :func:`_commit_mt` needs back."""
    version, internal, gauss_next = rng.getstate()
    key = array.array("I", internal[:624])
    struct.key = ctypes.cast(key.buffer_info()[0], P_u32)
    struct.pos = internal[624]
    return key, (version, gauss_next)


def _commit_mt(struct: _NMt, key: array.array, extra: tuple, rng) -> None:
    version, gauss_next = extra
    rng.setstate((version, (*key, int(struct.pos)), gauss_next))


# ---------------------------------------------------------------------------
# Geometry: the divisors C shifts by and the set-index reciprocal
# ---------------------------------------------------------------------------

def _shift(divisor: int) -> int:
    """``log2(divisor)`` for a power of two, else -1: C shifts by the
    former and divides by anything else."""
    return divisor.bit_length() - 1 if divisor & (divisor - 1) == 0 else -1


def _recip(nsets: int) -> int:
    """Lemire's fastmod multiplier ``UINT64_MAX // nsets + 1`` (mod
    2**64), as the int64 the C field holds."""
    recip = (_M64 // nsets + 1) & _M64
    return recip - (1 << 64) if recip >> 63 else recip


# ---------------------------------------------------------------------------
# LRU cache marshalling
# ---------------------------------------------------------------------------

def _bind_cache(struct: _NCache, cache) -> Dict[str, np.ndarray]:
    """Adopt a SetAssociativeCache's sets: per-set way arrays in recency
    order (oldest first), matching OrderedDict iteration order.  An
    empty cache -- every fresh machine -- is two zero arrays; one Python
    never touched has no sets to read."""
    nsets = cache.config.num_sets
    assoc = cache.config.associativity
    if cache.touched and any(cache._sets):
        ways = [0] * (nsets * assoc)
        occ = [0] * nsets
        for index, bucket in enumerate(cache._sets):
            if bucket:
                base = index * assoc
                ways[base:base + len(bucket)] = bucket
                occ[index] = len(bucket)
        ways_arr = np.array(ways, dtype=np.int64)
        occ_arr = np.array(occ, dtype=np.int64)
    else:
        ways_arr = np.zeros(nsets * assoc, dtype=np.int64)
        occ_arr = np.zeros(nsets, dtype=np.int64)
    struct.nsets = nsets
    struct.assoc = assoc
    struct.recip = _recip(nsets)
    struct.ways = ways_arr.ctypes.data_as(P_i64)
    struct.occ = occ_arr.ctypes.data_as(P_i64)
    return {"ways": ways_arr, "occ": occ_arr}


def _commit_cache(arrs: Dict[str, np.ndarray], cache) -> None:
    assoc = cache.config.associativity
    ways = arrs["ways"].tolist()
    occ = arrs["occ"].tolist()
    for index, bucket in enumerate(cache._sets):
        bucket.clear()
        base = index * assoc
        for j in range(occ[index]):
            bucket[ways[base + j]] = None


# ---------------------------------------------------------------------------
# The trace channel: adopted and committed per observed drive
# ---------------------------------------------------------------------------

class TraceChannel:
    """A stock collector's PMU model bound to C for one run.

    C applies every access of the observed process to it, appending to
    the log's int64 buffer in place, and stops right after the access
    that fills the log (``STOP_LOG_FULL``).  Each exception taken adds
    ``exception_cost`` cycles to the process clock, inside the step (the
    dynamic manager's charge; a plain probe passes 0).  :meth:`commit`
    advances the log's length and folds back the collector's counters,
    its accesses since the last miss and its drop RNG.
    """

    def __init__(self, collector, exception_cost: int = 0):
        kind = channel_kind(collector)
        if kind is None:
            raise ValueError(
                f"{type(collector).__name__} has no native trace channel"
            )
        self.collector = collector
        u = self.pmu = _NPmu()
        u.kind = kind
        log = collector.log
        # C appends right after the entries already logged.
        u.log = log.buffer[len(log):].ctypes.data_as(P_i64)
        u.log_cap = log.capacity - len(log)
        u.log_n = 0
        u.l1d_misses = collector.l1d_misses
        u.dropped = collector.dropped_events
        u.stale = collector.stale_entries
        u.exceptions = collector.exceptions
        u.exception_cost = exception_cost
        if kind == PMU_IDEAL:
            u.buffer_entries = collector.buffer_entries
            u.buffered = collector._buffered
            return
        from repro.pmu.sampling import INFLIGHT_WINDOW

        u.since_miss = collector._accesses_since_miss
        u.inflight_window = INFLIGHT_WINDOW
        u.drop_p = collector.drop_probability
        u.dual_lsu = 1 if collector.issue_mode.dual_lsu else 0
        u.stale_on_prefetch = (
            1 if collector.pmu_model.prefetch_raises_stale_entry else 0
        )
        self._mt, self._gauss = _bind_mt(u.mt, collector._rng)

    def commit(self) -> None:
        collector = self.collector
        u = self.pmu
        collector.log._length += u.log_n
        collector.l1d_misses = u.l1d_misses
        collector.dropped_events = u.dropped
        collector.stale_entries = u.stale
        collector.exceptions = u.exceptions
        collector.channel_engine = "native"
        if u.kind == PMU_IDEAL:
            collector._buffered = u.buffered
            return
        collector._accesses_since_miss = u.since_miss
        _commit_mt(u.mt, self._mt, self._gauss, collector._rng)


# ---------------------------------------------------------------------------
# The session: one per machine, alive until Python needs the state back
# ---------------------------------------------------------------------------

class _Slot:
    """One adopted process: who it is, its C state, the arrays that state
    lives in, and the Python objects it is copied back into -- the
    prefetcher and its RNG, none of which refers back to the process.
    The process's page table belongs to the allocator."""

    __slots__ = ("process", "pid", "core", "proc", "arrs", "chunk",
                 "gauss", "prefetcher", "rng")

    def __init__(self, process):
        self.process = weakref.ref(process)
        self.proc = _NProc()
        self.pid = process.pid
        self.core = process.core
        self.arrs: Dict[str, object] = {}
        self.chunk: Optional[Tuple[np.ndarray, np.ndarray]] = None
        self.gauss: tuple = ()
        self.prefetcher = process.prefetcher
        self.rng = process._pf_rng


def enter(hierarchy, processes: Sequence) -> Tuple["NativeSession", List[int]]:
    """The machine's live session with every process in ``processes``
    adopted, and their scalar state copied in.

    Returns ``(session, slots)``: ``slots[i]`` is the session's index
    for ``processes[i]``.  Reuses the hierarchy's session, adopting the
    machine first when it has none.  A process adopted by another
    machine's session, or one that clashes with this one (another
    allocator, or a pid or core an adopted process holds), first has
    the old state handed back (``rebind``).  Pair every call with
    :meth:`NativeSession.leave`.
    """
    session = hierarchy._native
    for process in processes:
        for owner in (process, process.allocator):
            other = owner._native
            if other is not None and other is not session:
                other.materialize("rebind")
        if session is not None and session._clashes(process):
            session.materialize("rebind")
            session = None
    if session is None:
        session = NativeSession(hierarchy, processes[0].allocator)
    slots = [session._slot_of(process) for process in processes]
    session._load_scalars(hierarchy, processes, slots)
    return session, slots


class NativeSession:
    """One machine's (hierarchy, allocator, processes) state in C.

    Created by :func:`enter` on the machine's first native run and kept
    on ``hierarchy._native`` for as long as the machine lives; each
    process is adopted the first time it runs natively.  While the
    session is live, C arrays are the only copy of the *heavy* state:
    L1D, L2 and L3 sets, each process's page table (a zigzag-keyed
    hash map), prefetcher streams and RNGs, allocator frame counters,
    cursors and migration debt, and the bound chunk tail.  *Scalar*
    state -- core counters, process clocks, lazy migrations -- is copied
    in by :func:`enter` and out by :meth:`leave`, so Python may read and
    reset it between runs.

    Every Python path that touches heavy state (``Process.step``,
    ``MemoryHierarchy.access``/``prefetch_fill``, the allocator's
    page-table and colour methods, a scalar fallback) first calls
    :meth:`materialize`, which copies it back and drops the session.
    The session holds only weak references to the hierarchy, allocator
    and processes, which hold it: dropping the machine frees its C
    arrays with no garbage collection.
    """

    def __init__(self, hierarchy, allocator):
        self.lib = native_lib()
        if self.lib is None:
            raise RuntimeError("native engine unavailable")
        self._hierarchy = weakref.ref(hierarchy)
        self._allocator = weakref.ref(allocator)
        self.sh = _NShared()
        self._slots: List[_Slot] = []
        self._sh_arrs: Dict[str, np.ndarray] = {}
        self._run_args: Dict[Tuple[int, ...], tuple] = {}
        self._adopt_shared(hierarchy, allocator)
        hierarchy._native = self
        allocator._native = self
        telemetry = get_telemetry()
        if telemetry.enabled:
            telemetry.registry.counter("sim.native_adopts").inc()

    # -- adopt --------------------------------------------------------------

    def _adopt_shared(self, hierarchy, allocator) -> None:
        machine = hierarchy.machine
        sh = self.sh
        self._sh_arrs["l2"] = _bind_cache(sh.l2, hierarchy.l2)
        l3 = hierarchy.l3
        sh.l3_enabled = 1 if (l3.enabled and l3._cache is not None) else 0
        sh.l3_ratio = l3._ratio
        sh.l3_shift = _shift(l3._ratio)
        if sh.l3_enabled:
            self._sh_arrs["l3"] = _bind_cache(sh.l3, l3._cache)
        else:
            sh.l3.nsets = 1
            sh.l3.assoc = 0

        mapper = allocator.mapper
        sh.pages_per_group = mapper._pages_per_group
        sh.pages_per_color = mapper._pages_per_color
        sh.migration_cost = allocator.migration_cost_cycles
        nfoc = np.fromiter(
            (allocator._next_frame_of_color[c]
             for c in range(machine.num_colors)),
            dtype=np.int64, count=machine.num_colors,
        )
        sh.next_frame_of_color = nfoc.ctypes.data_as(P_i64)
        self._sh_arrs["nfoc"] = nfoc
        sh.stop_reason = STOP_NONE
        sh.stop_proc = -1

    def _clashes(self, process) -> bool:
        """Whether ``process`` cannot join: it is not adopted, and it uses
        another allocator or a pid or core an adopted process holds."""
        if any(slot.process() is process for slot in self._slots):
            return False
        return (process.allocator is not self._allocator()
                or any(slot.pid == process.pid or slot.core == process.core
                       for slot in self._slots))

    def _slot_of(self, process) -> int:
        for index, slot in enumerate(self._slots):
            if slot.process() is process:
                return index
        slot = _Slot(process)
        self._adopt_proc(slot, process)
        self._slots.append(slot)
        process._native = self
        return len(self._slots) - 1

    def proc(self, index: int) -> _NProc:
        """The C state of the process in slot ``index``."""
        return self._slots[index].proc

    def _adopt_proc(self, slot: _Slot, process) -> None:
        hierarchy = self._hierarchy()
        allocator = process.allocator
        machine = hierarchy.machine
        p = slot.proc
        arrs = slot.arrs
        core = process.core
        pid = process.pid

        p.vaddrs = P_i64()
        p.stores = P_u8()
        p.pos = 0
        p.len = 0

        p.line_size = process._line_size
        p.lines_per_page = process._lines_per_page
        p.line_shift = _shift(process._line_size)
        p.page_shift = _shift(process._lines_per_page)
        p.base_cost = process._base_cost
        expose = process._expose
        p.pen_l2 = expose * machine.l2_latency
        p.pen_l3 = expose * machine.l3_latency
        p.pen_mem = expose * machine.memory_latency
        p.ipa = process._ipa
        p.debt_pending = allocator._migration_debt.pop(pid, 0)

        colors = np.array(allocator.colors_of(pid), dtype=np.int64)
        p.colors = colors.ctypes.data_as(P_i64)
        p.ncolors = colors.size
        p.cursor = allocator._cursor.get(pid, 0)
        arrs["colors"] = colors

        table = allocator._table(pid)
        arrs["pt"] = _bind_map(
            p.page_table, [_zigzag(vpage) for vpage in table],
            list(table.values()), max(4096, len(table)),
        )

        prefetcher = slot.prefetcher
        pf = p.pf
        pf.enabled = 1 if prefetcher.config.enabled else 0
        pf.num_streams = NUM_STREAMS
        pf.depth = DEPTH
        pf.confirm_after = CONFIRM_AFTER
        pf.late_p = LATE_PROBABILITY
        pf.install_p = L1_INSTALL_PROBABILITY
        streams = prefetcher._streams
        pf.count = len(streams)
        pf.clock = prefetcher._clock
        pf_arrs = np.zeros((4, NUM_STREAMS), dtype=np.int64)
        for j, stream in enumerate(streams):
            pf_arrs[:, j] = (stream.next_line, stream.hits,
                             1 if stream.confirmed else 0, stream.last_use)
        pf_next, pf_hits, pf_conf, pf_last = pf_arrs
        pf.next_line = pf_next.ctypes.data_as(P_i64)
        pf.hits = pf_hits.ctypes.data_as(P_i64)
        pf.confirmed = pf_conf.ctypes.data_as(P_i64)
        pf.last_use = pf_last.ctypes.data_as(P_i64)
        arrs["pf"] = pf_arrs

        arrs["mt"], slot.gauss = _bind_mt(p.mt, slot.rng)

        arrs["l1"] = _bind_cache(p.l1, hierarchy.l1d[core])

    # -- scalar state: copied at every run boundary -------------------------

    def _load_scalars(self, hierarchy, processes, slots) -> None:
        self.sh.lazy_migrations = processes[0].allocator.lazy_migrations
        for process, index in zip(processes, slots):
            p = self._slots[index].proc
            p.cycles = process.cycles
            p.instructions = process.instructions
            p.accesses = process.accesses
            counters = hierarchy.counters[process.core]
            p.c_instructions = counters.instructions
            p.c_loads = counters.loads
            p.c_stores = counters.stores
            p.c_l1d_misses = counters.l1d_misses
            p.c_l2da = counters.l2_demand_accesses
            p.c_l2dm = counters.l2_demand_misses
            p.c_l3_hits = counters.l3_hits
            p.c_mem = counters.memory_accesses

    def leave(self, hierarchy, processes: Sequence,
              slots: Sequence[int]) -> None:
        """Copy the scalar state of a finished run back to Python."""
        processes[0].allocator.lazy_migrations = self.sh.lazy_migrations
        for process, index in zip(processes, slots):
            p = self._slots[index].proc
            process.cycles = p.cycles
            process.instructions = p.instructions
            process.accesses = p.accesses
            counters = hierarchy.counters[process.core]
            counters.instructions = p.c_instructions
            counters.loads = p.c_loads
            counters.stores = p.c_stores
            counters.l1d_misses = p.c_l1d_misses
            counters.l2_demand_accesses = p.c_l2da
            counters.l2_demand_misses = p.c_l2dm
            counters.l3_hits = p.c_l3_hits
            counters.memory_accesses = p.c_mem

    # -- materialize --------------------------------------------------------

    def materialize(self, reason: str) -> None:
        """Copy the heavy state back into the Python objects and drop the
        session (counted as ``sim.native_copybacks{reason}``).

        Scalar state is already current in Python and is left alone.  The
        next native run adopts the machine afresh.
        """
        telemetry = get_telemetry()
        if telemetry.enabled:
            telemetry.registry.counter(
                "sim.native_copybacks", reason=reason
            ).inc()
        hierarchy = self._hierarchy()
        allocator = self._allocator()
        if hierarchy is not None:
            _commit_cache(self._sh_arrs["l2"], hierarchy.l2)
            if self.sh.l3_enabled:
                _commit_cache(self._sh_arrs["l3"], hierarchy.l3._cache)
            if hierarchy._native is self:
                hierarchy._native = None
        if allocator is not None:
            nfoc = self._sh_arrs["nfoc"].tolist()
            for color, count in enumerate(nfoc):
                allocator._next_frame_of_color[color] = count
            if allocator._native is self:
                allocator._native = None
        for slot in self._slots:
            self._commit_proc(slot, hierarchy, allocator)
        self._slots = []
        self._sh_arrs = {}
        self._run_args = {}

    def _commit_proc(self, slot: _Slot, hierarchy, allocator) -> None:
        p = slot.proc
        arrs = slot.arrs
        pid = slot.pid
        process = slot.process()
        if process is not None:
            if slot.chunk is not None and p.pos < p.len:
                # The bound chunk tail goes back to the front of the
                # stream, for the scalar steps that follow.
                vaddrs, stores = slot.chunk
                process._fastsim_source.push_back(
                    vaddrs[p.pos:], stores[p.pos:]
                )
            if process._native is self:
                process._native = None

        if allocator is not None:
            if p.debt_pending:
                allocator._migration_debt[pid] = p.debt_pending
            allocator._cursor[pid] = p.cursor
            # Every live slot, zigzag-decoded, into the dict the process
            # holds (so in place).  C never deletes, so each of the
            # dict's keys is among them; new ones land in slot order.
            pt = arrs["pt"]
            live = pt["keys"] >= 0
            zig = pt["keys"][live]
            allocator._table(pid).update(zip(
                ((zig >> 1) ^ -(zig & 1)).tolist(), pt["vals"][live].tolist()
            ))

        prefetcher = slot.prefetcher
        prefetcher._streams = [
            _Stream(next_line=next_line, hits=hits,
                    confirmed=bool(confirmed), last_use=last_use)
            for next_line, hits, confirmed, last_use in
            arrs["pf"][:, : p.pf.count].T.tolist()
        ]
        prefetcher._clock = p.pf.clock
        _commit_mt(p.mt, arrs["mt"], slot.gauss, slot.rng)

        if hierarchy is not None:
            _commit_cache(arrs["l1"], hierarchy.l1d[slot.core])

    # -- stream buffers -----------------------------------------------------

    def set_chunk(self, index: int, vaddrs: np.ndarray,
                  stores: np.ndarray) -> None:
        """Point a process at a fresh chunk of its access stream.  Its
        unconsumed tail stays bound across runs until
        :meth:`materialize` returns it to the stream."""
        vaddrs = np.ascontiguousarray(vaddrs, dtype=np.int64)
        stores = np.ascontiguousarray(stores)
        p = self._slots[index].proc
        p.vaddrs = vaddrs.ctypes.data_as(P_i64)
        p.stores = stores.view(np.uint8).ctypes.data_as(P_u8)
        p.pos = 0
        p.len = vaddrs.size
        self._slots[index].chunk = (vaddrs, stores)

    def chunk_remaining(self, index: int) -> int:
        p = self._slots[index].proc
        return p.len - p.pos

    # -- growth -------------------------------------------------------------

    def grow(self, index: int, reason: int) -> None:
        p = self._slots[index].proc
        arrs = self._slots[index].arrs
        if reason != STOP_GROW_PT:
            raise AssertionError(f"unexpected grow reason {reason}")
        # Rebuild with room for as many entries again.
        table = arrs["pt"]
        live = table["keys"] >= 0
        keys = table["keys"][live].tolist()
        arrs["pt"] = _bind_map(p.page_table, keys,
                               table["vals"][live].tolist(),
                               max(256, len(keys)))

    # -- running ------------------------------------------------------------

    def run_corun(self, slots: Sequence[int], stop_at: Sequence[int],
                  channels: Optional[Sequence[Optional[TraceChannel]]] = None,
                  ) -> Tuple[int, int, int]:
        """One native run over ``slots`` (in scheduling order) until one
        process reaches its stop target: ``stop_at[i]`` is an absolute
        access count for ``slots[i]``.  ``channels[i]`` observes
        ``slots[i]`` (None, or no ``channels`` at all, observes nothing).
        Returns ``(finisher, stop_reason, stop_proc)``, both indices into
        ``slots`` -- ``finisher`` is -1 when the engine stopped for a
        refill, a growth or a full trace log instead of reaching a
        target."""
        key = tuple(slots)
        args = self._run_args.get(key)
        if args is None:
            # Argument arrays cached per slot tuple: filling a ctypes
            # array costs less than building one per call.
            count = len(key)
            args = self._run_args[key] = (
                (ctypes.POINTER(_NProc) * count)(
                    *[ctypes.pointer(self._slots[index].proc) for index in key]
                ),
                (ctypes.c_void_p * count)(),
                (i64 * count)(),
            )
        procs, pmus, stops = args
        for i, entry in enumerate(stop_at):
            stops[i] = entry
            channel = channels[i] if channels is not None else None
            pmus[i] = (
                None if channel is None else ctypes.addressof(channel.pmu)
            )
        finisher = int(self.lib.repro_corun(
            ctypes.byref(self.sh), procs, pmus, len(key), stops,
        ))
        return finisher, int(self.sh.stop_reason), int(self.sh.stop_proc)
