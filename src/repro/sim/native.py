"""ctypes harness for the native C simulation engine (``_native.c``).

The C engine is an exact transliteration of the scalar hot path --
``Process.step`` + ``MemoryHierarchy.access`` + the stream prefetcher
and page allocator -- over flat state arrays.  This module owns the
other half of the contract:

- **build**: compile ``_native.c`` with the system C compiler on first
  use, keyed by a hash of the source (so edits invalidate the cache),
  and load it through ctypes.  No compiler, no native engine -- callers
  fall back to the scalar driver.
- **marshal**: :class:`NativeSession` adopts the live Python objects
  (caches, counters, allocator slices, prefetcher streams, the CPython
  MT19937 state) into C-visible arrays, and commits the advanced state
  back so scalar and batched execution interleave seamlessly.  A trace
  collector's log is the exception: C appends to its int64 buffer in
  place, and commit only advances the log's length.
- **generate**: :class:`MTStream` holds one workload stream's MT19937
  state in a C-visible buffer for the fill kernels (``random()``
  doubles and ``_randbelow``) behind
  :class:`repro.workloads.base.BatchRandom`.
- **protocol**: the engine never calls back into Python and never
  allocates.  A run stops with one reason: its chunk of accesses is
  exhausted (``STOP_REFILL``), the trace log filled (``STOP_LOG_FULL``),
  or a step *would* overflow a map -- then it stops before mutating
  anything and reports a ``STOP_GROW_*`` reason, the session grows the
  buffer in place and the run resumes, bit-identically either way.

Kill switch: set ``REPRO_NATIVE=0`` to disable the native engine
entirely (every drive then runs the scalar reference, every generator
its Python draws).  That is silent;
a native engine that is wanted but cannot be
built (no compiler, failed compile) warns once per process and counts
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
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.obs import get_telemetry

__all__ = [
    "MTStream",
    "NativeSession",
    "channel_kind",
    "native_lib",
    "native_available",
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
STOP_GROW_TLB = 2
STOP_GROW_PT = 3
STOP_GROW_PFSET = 4
STOP_GROW_NEWPAGES = 5
STOP_LOG_FULL = 6

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
        ("nsets", i64), ("assoc", i64),
        ("ways", P_i64), ("occ", P_i64),
        ("accesses", i64), ("hits", i64), ("evictions", i64), ("fills", i64),
    ]


class _NMap(ctypes.Structure):
    _fields_ = [
        ("cap", i64), ("count", i64), ("tombs", i64),
        ("keys", P_i64), ("vals", P_i64),
    ]


class _NPf(ctypes.Structure):
    _fields_ = [
        ("enabled", i64), ("num_streams", i64), ("depth", i64),
        ("confirm_after", i64), ("late_p", f64), ("install_p", f64),
        ("count", i64), ("clock", i64), ("issued", i64),
        ("next_line", P_i64), ("hits", P_i64),
        ("confirmed", P_i64), ("last_use", P_i64),
    ]


class _NMt(ctypes.Structure):
    _fields_ = [("key", P_u32), ("pos", i64)]


class _NShared(ctypes.Structure):
    _fields_ = [
        ("l2", _NCache),
        ("l3_enabled", i64), ("l3_ratio", i64), ("l3", _NCache),
        ("l3_accesses", i64), ("l3_hits", i64), ("l3_fills", i64),
        ("pages_per_group", i64), ("pages_per_color", i64),
        ("migration_cost", i64),
        ("next_frame_of_color", P_i64), ("lazy_migrations", i64),
        ("stop_reason", i64), ("stop_proc", i64),
    ]


class _NProc(ctypes.Structure):
    _fields_ = [
        ("vaddrs", P_i64), ("stores", P_u8), ("pos", i64), ("len", i64),
        ("line_size", i64), ("lines_per_page", i64),
        ("base_cost", f64), ("pen_l2", f64), ("pen_l3", f64),
        ("pen_mem", f64), ("ipa", i64),
        ("cycles", f64), ("instructions", i64), ("accesses", i64),
        ("debt_pending", i64),
        ("colors", P_i64), ("ncolors", i64), ("cursor", i64),
        ("tlb", _NMap), ("page_table", _NMap), ("stale", _NMap),
        ("newpages", P_i64), ("newpages_len", i64), ("newpages_cap", i64),
        ("pf", _NPf), ("mt", _NMt),
        ("c_instructions", i64), ("c_loads", i64), ("c_stores", i64),
        ("c_l1d_misses", i64), ("c_l2da", i64), ("c_l2dm", i64),
        ("c_l3_hits", i64), ("c_mem", i64),
        ("l1", _NCache),
        ("pf_set", _NMap), ("pf_trim_bound", i64),
        ("stop_reason", i64),
    ]


class _NPmu(ctypes.Structure):
    _fields_ = [
        ("kind", i64), ("stop_on_full", i64),
        ("log", P_i64), ("log_cap", i64), ("log_n", i64),
        ("sdar_valid", i64), ("sdar_value", i64), ("sdar_updates", i64),
        ("pmc_total", i64), ("since_miss", i64), ("inflight_window", i64),
        ("drop_p", f64), ("dual_lsu", i64), ("stale_on_prefetch", i64),
        ("mt", _NMt),
        ("buffer_entries", i64), ("record_prefetches", i64),
        ("buffered", i64),
        ("l1d_misses", i64), ("dropped", i64), ("stale", i64),
        ("exceptions", i64),
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
    for cache_dir in (os.path.dirname(source), tempfile.gettempdir()):
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
            return ctypes.CDLL(so_path), None
        except (OSError, subprocess.SubprocessError):
            try:
                os.unlink(tmp_path)
            except OSError:
                pass
            continue
    return None, "build_failed"


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
            "fall back to the slower scalar reference",
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
            lib.repro_solo.argtypes = [
                ctypes.POINTER(_NShared), ctypes.POINTER(_NProc), i64,
                ctypes.POINTER(_NPmu),
            ]
            lib.repro_solo.restype = i64
            lib.repro_corun.argtypes = [
                ctypes.POINTER(_NShared),
                ctypes.POINTER(ctypes.POINTER(_NProc)), i64, P_i64, i64,
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

    Only the two stock collectors qualify (a subclass or wrapper may
    override any per-event hook), and the real one only with the
    paper's overflow threshold of one.
    """
    from repro.pmu.ideal import IdealTraceCollector
    from repro.pmu.sampling import TraceCollector

    kind = type(collector)
    if kind is TraceCollector and collector.pmc.threshold == 1:
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


# ---------------------------------------------------------------------------
# Hash-table marshalling (must reproduce _native.c's probe sequence)
# ---------------------------------------------------------------------------

def _zigzag(vpage: int) -> int:
    """The non-negative key C stores for a (possibly negative) vpage."""
    return (vpage << 1) ^ (vpage >> 63)


def _unzigzag(keys: np.ndarray) -> np.ndarray:
    return (keys >> 1) ^ -(keys & 1)


def _ht_cap_for(count: int, extra: int) -> int:
    cap = 64
    while (count + extra) * 10 > cap * 7:
        cap <<= 1
    return cap


def _ht_fill(
    keys: Sequence[int],
    vals: Optional[Sequence[int]],
    cap: int,
) -> Tuple[np.ndarray, Optional[np.ndarray]]:
    """Open-addressing table layout identical to C ``map_put`` order."""
    mask = cap - 1
    tk = [HT_EMPTY] * cap
    tv = [0] * cap if vals is not None else None
    for index, key in enumerate(keys):
        h = (key * _HASH_MULT) & _M64
        h ^= h >> 29
        slot = h & mask
        while tk[slot] != HT_EMPTY:
            slot = (slot + 1) & mask
        tk[slot] = key
        if tv is not None:
            tv[slot] = vals[index]
    keys_arr = np.array(tk, dtype=np.int64)
    vals_arr = np.array(tv, dtype=np.int64) if tv is not None else None
    return keys_arr, vals_arr


def _map_live(keys_arr: np.ndarray, vals_arr: Optional[np.ndarray]):
    mask = keys_arr >= 0
    live_keys = keys_arr[mask].tolist()
    live_vals = vals_arr[mask].tolist() if vals_arr is not None else None
    return live_keys, live_vals


def _bind_map(
    struct: _NMap,
    keys: Sequence[int],
    vals: Optional[Sequence[int]],
    extra: int,
) -> Dict[str, Optional[np.ndarray]]:
    cap = _ht_cap_for(len(keys), extra)
    keys_arr, vals_arr = _ht_fill(keys, vals, cap)
    struct.cap = cap
    struct.count = len(keys)
    struct.tombs = 0
    struct.keys = keys_arr.ctypes.data_as(P_i64)
    struct.vals = (
        vals_arr.ctypes.data_as(P_i64) if vals_arr is not None else P_i64()
    )
    return {"keys": keys_arr, "vals": vals_arr}


# ---------------------------------------------------------------------------
# RNG marshalling (CPython random.Random <-> C MT19937)
# ---------------------------------------------------------------------------

def _bind_mt(struct: _NMt, rng) -> Tuple[np.ndarray, tuple]:
    """Adopt ``rng``'s key words and position; returns the key array and
    the ``(version, gauss_next)`` pair :func:`_commit_mt` needs back."""
    version, internal, gauss_next = rng.getstate()
    key = np.array(internal[:624], dtype=np.uint32)
    struct.key = key.ctypes.data_as(P_u32)
    struct.pos = internal[624]
    return key, (version, gauss_next)


def _commit_mt(struct: _NMt, key: np.ndarray, extra: tuple, rng) -> None:
    version, gauss_next = extra
    rng.setstate((version, tuple(key.tolist()) + (int(struct.pos),),
                  gauss_next))


# ---------------------------------------------------------------------------
# LRU cache marshalling
# ---------------------------------------------------------------------------

def _bind_cache(struct: _NCache, cache) -> Dict[str, np.ndarray]:
    """Adopt a SetAssociativeCache: per-set way arrays in recency order
    (oldest first), matching OrderedDict iteration order."""
    nsets = cache.config.num_sets
    assoc = cache.config.associativity
    ways = [0] * (nsets * assoc)
    occ = [0] * nsets
    for index, bucket in enumerate(cache._sets):
        base = index * assoc
        j = 0
        for line in bucket:
            ways[base + j] = line
            j += 1
        occ[index] = j
    ways_arr = np.array(ways, dtype=np.int64)
    occ_arr = np.array(occ, dtype=np.int64)
    stats = cache.stats
    struct.nsets = nsets
    struct.assoc = assoc
    struct.ways = ways_arr.ctypes.data_as(P_i64)
    struct.occ = occ_arr.ctypes.data_as(P_i64)
    struct.accesses = stats.accesses
    struct.hits = stats.hits
    struct.evictions = stats.evictions
    struct.fills = stats.fills
    return {"ways": ways_arr, "occ": occ_arr}


def _commit_cache(struct: _NCache, arrs: Dict[str, np.ndarray], cache) -> None:
    assoc = struct.assoc
    ways = arrs["ways"].tolist()
    occ = arrs["occ"].tolist()
    for index, bucket in enumerate(cache._sets):
        bucket.clear()
        base = index * assoc
        for j in range(occ[index]):
            bucket[ways[base + j]] = None
    stats = cache.stats
    stats.accesses = struct.accesses
    stats.hits = struct.hits
    stats.evictions = struct.evictions
    stats.fills = struct.fills


# ---------------------------------------------------------------------------
# The session: adopt / run / grow / commit
# ---------------------------------------------------------------------------

class NativeSession:
    """One adopted (hierarchy, allocator, processes) triple.

    Lifecycle: construct, :meth:`adopt`, feed chunks + run, then
    :meth:`commit`.  Between adopt and commit the C-side arrays are the
    single source of truth for everything they cover; nothing else may
    touch the hierarchy, allocator, prefetchers or RNGs.

    ``channel`` optionally binds a trace collector accepted by
    :func:`channel_kind` to solo runs: C applies every access to it,
    appending to its log's buffer in place, and, with ``stop_on_full``,
    stops right after the access that fills the log (``STOP_LOG_FULL``).
    The collector is adopted and committed with the rest of the state.
    """

    def __init__(self, hierarchy, processes: Sequence, lib=None,
                 channel=None, stop_on_full: bool = False):
        self.lib = lib if lib is not None else native_lib()
        if self.lib is None:
            raise RuntimeError("native engine unavailable")
        self.hierarchy = hierarchy
        self.processes = list(processes)
        self.allocator = self.processes[0].allocator
        self.sh = _NShared()
        self.procs = [_NProc() for _ in self.processes]
        self._proc_ptrs = (ctypes.POINTER(_NProc) * len(self.procs))(
            *[ctypes.pointer(p) for p in self.procs]
        )
        self._sh_arrs: Dict[str, np.ndarray] = {}
        self._proc_arrs: List[Dict[str, object]] = [
            {} for _ in self.processes
        ]
        self._chunks: List[Optional[Tuple[np.ndarray, np.ndarray]]] = [
            None for _ in self.processes
        ]
        self._gauss: List[object] = [None for _ in self.processes]
        self.channel = channel
        self.pmu: Optional[_NPmu] = None
        if channel is not None:
            kind = channel_kind(channel)
            if kind is None:
                raise ValueError(
                    f"{type(channel).__name__} has no native trace channel"
                )
            self.pmu = _NPmu()
            self.pmu.kind = kind
            self.pmu.stop_on_full = 1 if stop_on_full else 0
        self._pmu_arrs: Dict[str, object] = {}
        self._channel_steps = 0   # accesses the C channel observed
        self._adopted = False

    # -- adopt --------------------------------------------------------------

    def adopt(self) -> None:
        hierarchy = self.hierarchy
        allocator = self.allocator
        machine = hierarchy.machine
        sh = self.sh

        self._sh_arrs["l2"] = _bind_cache(sh.l2, hierarchy.l2)
        l3 = hierarchy.l3
        sh.l3_enabled = 1 if (l3.enabled and l3._cache is not None) else 0
        sh.l3_ratio = l3._ratio
        if sh.l3_enabled:
            self._sh_arrs["l3"] = _bind_cache(sh.l3, l3._cache)
        else:
            sh.l3.nsets = 1
            sh.l3.assoc = 0
        sh.l3_accesses = l3.stats.accesses
        sh.l3_hits = l3.stats.hits
        sh.l3_fills = l3.stats.fills

        mapper = allocator.mapper
        sh.pages_per_group = mapper._pages_per_group
        sh.pages_per_color = mapper._pages_per_color
        sh.migration_cost = allocator.migration_cost_cycles
        nfoc = np.array(
            [allocator._next_frame_of_color[c]
             for c in range(machine.num_colors)],
            dtype=np.int64,
        )
        sh.next_frame_of_color = nfoc.ctypes.data_as(P_i64)
        self._sh_arrs["nfoc"] = nfoc
        sh.lazy_migrations = allocator.lazy_migrations
        sh.stop_reason = STOP_NONE
        sh.stop_proc = -1

        for index, process in enumerate(self.processes):
            self._adopt_proc(index, process)
        if self.pmu is not None:
            self._adopt_channel()
        self._adopted = True

    def _adopt_proc(self, index: int, process) -> None:
        hierarchy = self.hierarchy
        allocator = self.allocator
        machine = hierarchy.machine
        p = self.procs[index]
        arrs = self._proc_arrs[index]
        core = process.core
        pid = process.pid

        p.vaddrs = P_i64()
        p.stores = P_u8()
        p.pos = 0
        p.len = 0
        self._chunks[index] = None

        p.line_size = process._line_size
        p.lines_per_page = process._lines_per_page
        p.base_cost = process._base_cost
        expose = process._expose
        p.pen_l2 = expose * machine.l2_latency
        p.pen_l3 = expose * machine.l3_latency
        p.pen_mem = expose * machine.memory_latency
        p.ipa = process._ipa

        p.cycles = process.cycles
        p.instructions = process.instructions
        p.accesses = process.accesses
        p.debt_pending = allocator._migration_debt.pop(pid, 0)

        colors = np.array(allocator.colors_of(pid), dtype=np.int64)
        p.colors = colors.ctypes.data_as(P_i64)
        p.ncolors = colors.size
        p.cursor = allocator._cursor.get(pid, 0)
        arrs["colors"] = colors

        tlb = process._tlb
        arrs["tlb"] = _bind_map(
            p.tlb, [_zigzag(vpage) for vpage in tlb], list(tlb.values()),
            max(4096, len(tlb)),
        )
        pt_keys: List[int] = []
        pt_vals: List[int] = []
        for (owner, vpage), frame in allocator._page_table.items():
            if owner == pid:
                pt_keys.append(_zigzag(vpage))
                pt_vals.append(frame)
        arrs["pt"] = _bind_map(
            p.page_table, pt_keys, pt_vals, max(4096, len(pt_keys))
        )
        stale = [_zigzag(vpage) for (owner, vpage) in allocator._stale
                 if owner == pid]
        arrs["stale"] = _bind_map(p.stale, stale, None, 64)

        newpages = np.empty(1 << 15, dtype=np.int64)
        p.newpages = newpages.ctypes.data_as(P_i64)
        p.newpages_len = 0
        p.newpages_cap = newpages.size
        arrs["newpages"] = newpages

        config = process._pf_config
        pf = p.pf
        pf.enabled = 1 if config.enabled else 0
        pf.num_streams = config.num_streams
        pf.depth = config.depth
        pf.confirm_after = config.confirm_after
        pf.late_p = process._pf_late
        pf.install_p = process._pf_install
        streams = process.prefetcher._streams
        pf.count = len(streams)
        pf.clock = process.prefetcher._clock
        pf.issued = process.prefetcher.issued
        size = max(config.num_streams, 1)
        pf_next = np.zeros(size, dtype=np.int64)
        pf_hits = np.zeros(size, dtype=np.int64)
        pf_conf = np.zeros(size, dtype=np.int64)
        pf_last = np.zeros(size, dtype=np.int64)
        for j, stream in enumerate(streams):
            pf_next[j] = stream.next_line
            pf_hits[j] = stream.hits
            pf_conf[j] = 1 if stream.confirmed else 0
            pf_last[j] = stream.last_use
        pf.next_line = pf_next.ctypes.data_as(P_i64)
        pf.hits = pf_hits.ctypes.data_as(P_i64)
        pf.confirmed = pf_conf.ctypes.data_as(P_i64)
        pf.last_use = pf_last.ctypes.data_as(P_i64)
        arrs["pf"] = (pf_next, pf_hits, pf_conf, pf_last)

        arrs["mt"], self._gauss[index] = _bind_mt(p.mt, process._pf_rng)

        counters = hierarchy.counters[core]
        p.c_instructions = counters.instructions
        p.c_loads = counters.loads
        p.c_stores = counters.stores
        p.c_l1d_misses = counters.l1d_misses
        p.c_l2da = counters.l2_demand_accesses
        p.c_l2dm = counters.l2_demand_misses
        p.c_l3_hits = counters.l3_hits
        p.c_mem = counters.memory_accesses

        arrs["l1"] = _bind_cache(p.l1, hierarchy.l1d[core])

        p.pf_trim_bound = 4 * machine.l1d_lines
        tracked = sorted(hierarchy._prefetched_l1[core])
        arrs["pf_set"] = _bind_map(
            p.pf_set, tracked, None,
            p.pf_trim_bound + max(config.depth, 1) + 64,
        )
        p.stop_reason = STOP_NONE

    # -- commit -------------------------------------------------------------

    def commit(self) -> None:
        if not self._adopted:
            return
        hierarchy = self.hierarchy
        allocator = self.allocator
        machine = hierarchy.machine
        sh = self.sh

        _commit_cache(sh.l2, self._sh_arrs["l2"], hierarchy.l2)
        l3 = hierarchy.l3
        if sh.l3_enabled:
            _commit_cache(sh.l3, self._sh_arrs["l3"], l3._cache)
        l3.stats.accesses = sh.l3_accesses
        l3.stats.hits = sh.l3_hits
        l3.stats.fills = sh.l3_fills

        nfoc = self._sh_arrs["nfoc"].tolist()
        for color in range(machine.num_colors):
            allocator._next_frame_of_color[color] = nfoc[color]
        allocator.lazy_migrations = sh.lazy_migrations

        for index, process in enumerate(self.processes):
            self._commit_proc(index, process)
        if self.pmu is not None:
            self._commit_channel()
        self._adopted = False

    # -- trace channel ------------------------------------------------------

    def _adopt_channel(self) -> None:
        collector = self.channel
        u = self.pmu
        log = collector.log
        # C appends right after the entries already logged.
        u.log = log.buffer[len(log):].ctypes.data_as(P_i64)
        u.log_cap = log.capacity - len(log)
        u.log_n = 0
        u.l1d_misses = collector.l1d_misses
        u.dropped = collector.dropped_events
        u.stale = collector.stale_entries
        u.exceptions = collector.exceptions
        if u.kind == PMU_IDEAL:
            u.since_miss = -1
            u.buffer_entries = collector.buffer_entries
            u.record_prefetches = 1 if collector.record_prefetches else 0
            u.buffered = collector._buffered
            return
        value = collector.sdar.read()
        u.sdar_valid = 0 if value is None else 1
        u.sdar_value = 0 if value is None else value
        u.sdar_updates = collector.sdar.updates
        u.pmc_total = collector.pmc.total
        since = collector._accesses_since_miss
        u.since_miss = -1 if since is None else since
        u.inflight_window = collector.inflight_window
        u.drop_p = collector.drop_probability
        u.dual_lsu = 1 if collector.issue_mode.dual_lsu else 0
        u.stale_on_prefetch = (
            1 if collector.pmu_model.prefetch_raises_stale_entry else 0
        )
        self._pmu_arrs["mt"], self._pmu_arrs["gauss"] = _bind_mt(
            u.mt, collector._rng
        )

    def _commit_channel(self) -> None:
        collector = self.channel
        u = self.pmu
        collector.log._length += u.log_n
        collector.l1d_misses = u.l1d_misses
        collector.dropped_events = u.dropped
        collector.stale_entries = u.stale
        collector.exceptions = u.exceptions
        if self._channel_steps:
            collector.channel_engine = "native"
        if u.kind == PMU_IDEAL:
            collector._buffered = u.buffered
            return
        sdar = collector.sdar
        sdar._value = u.sdar_value if u.sdar_valid else None
        sdar.updates = u.sdar_updates
        pmc = collector.pmc
        if u.pmc_total != pmc.total:
            # Threshold one: every count overflowed and was taken at once.
            pmc.total = u.pmc_total
            pmc._since_overflow = 0
            pmc._pending = False
        collector._accesses_since_miss = (
            None if u.since_miss < 0 else u.since_miss
        )
        arrs = self._pmu_arrs
        _commit_mt(u.mt, arrs["mt"], arrs["gauss"], collector._rng)

    def _commit_proc(self, index: int, process) -> None:
        from repro.sim.prefetcher import _Stream

        hierarchy = self.hierarchy
        allocator = self.allocator
        p = self.procs[index]
        arrs = self._proc_arrs[index]
        core = process.core
        pid = process.pid

        self.push_back_chunk(index)

        process.cycles = p.cycles
        process.instructions = p.instructions
        process.accesses = p.accesses
        if p.debt_pending:
            allocator._migration_debt[pid] = p.debt_pending
        allocator._cursor[pid] = p.cursor

        # New page-table entries and lazy migrations, in allocation
        # order (dict insertion order matters for eager resize's
        # round-robin walk).
        log = arrs["newpages"][: p.newpages_len].tolist()
        for at in range(0, len(log), 3):
            vpage, frame, was_migration = log[at], log[at + 1], log[at + 2]
            if was_migration:
                allocator._stale.discard((pid, vpage))
            allocator._page_table[(pid, vpage)] = frame

        # The line cache can hold entries for pages that were already
        # allocated before this run (fresh cache after an epoch bump),
        # which the newpages log does not cover: sync the whole table.
        live = arrs["tlb"]["keys"] >= 0
        tlb_keys = _unzigzag(arrs["tlb"]["keys"][live]).tolist()
        tlb_vals = arrs["tlb"]["vals"][live].tolist()
        cache = process._tlb
        cache.clear()
        cache.update(zip(tlb_keys, tlb_vals))

        streams = []
        pf_next, pf_hits, pf_conf, pf_last = arrs["pf"]
        for j in range(p.pf.count):
            streams.append(_Stream(
                next_line=int(pf_next[j]),
                hits=int(pf_hits[j]),
                confirmed=bool(pf_conf[j]),
                last_use=int(pf_last[j]),
            ))
        process.prefetcher._streams = streams
        process.prefetcher._clock = p.pf.clock
        process.prefetcher.issued = p.pf.issued

        _commit_mt(p.mt, arrs["mt"], self._gauss[index], process._pf_rng)

        counters = hierarchy.counters[core]
        counters.instructions = p.c_instructions
        counters.loads = p.c_loads
        counters.stores = p.c_stores
        counters.l1d_misses = p.c_l1d_misses
        counters.l2_demand_accesses = p.c_l2da
        counters.l2_demand_misses = p.c_l2dm
        counters.l3_hits = p.c_l3_hits
        counters.memory_accesses = p.c_mem

        _commit_cache(p.l1, arrs["l1"], hierarchy.l1d[core])

        tracked = hierarchy._prefetched_l1[core]
        live, _ = _map_live(arrs["pf_set"]["keys"], None)
        tracked.clear()
        tracked.update(live)

    # -- stream buffers -----------------------------------------------------

    def set_chunk(self, index: int, vaddrs: np.ndarray,
                  stores: np.ndarray) -> None:
        """Point the process at a fresh chunk of its access stream."""
        vaddrs = np.ascontiguousarray(vaddrs, dtype=np.int64)
        stores_u8 = np.ascontiguousarray(stores).view(np.uint8)
        p = self.procs[index]
        p.vaddrs = vaddrs.ctypes.data_as(P_i64)
        p.stores = stores_u8.ctypes.data_as(P_u8)
        p.pos = 0
        p.len = vaddrs.size
        self._chunks[index] = (vaddrs, stores)

    def chunk_remaining(self, index: int) -> int:
        p = self.procs[index]
        return p.len - p.pos

    def push_back_chunk(self, index: int) -> None:
        """Return this process's unconsumed chunk tail to its source."""
        chunk = self._chunks[index]
        if chunk is None:
            return
        p = self.procs[index]
        if p.pos < p.len:
            vaddrs, stores = chunk
            source = getattr(self.processes[index], "_fastsim_source", None)
            if source is not None:
                source.push_back(vaddrs[p.pos:], stores[p.pos:])
        p.pos = 0
        p.len = 0
        p.vaddrs = P_i64()
        p.stores = P_u8()
        self._chunks[index] = None

    # -- growth -------------------------------------------------------------

    def grow(self, index: int, reason: int) -> None:
        p = self.procs[index]
        arrs = self._proc_arrs[index]
        if reason == STOP_GROW_TLB:
            self._rehash(p.tlb, arrs, "tlb")
        elif reason == STOP_GROW_PT:
            self._rehash(p.page_table, arrs, "pt")
        elif reason == STOP_GROW_PFSET:
            self._rehash(p.pf_set, arrs, "pf_set")
        elif reason == STOP_GROW_NEWPAGES:
            old = arrs["newpages"]
            bigger = np.empty(old.size * 2, dtype=np.int64)
            bigger[: p.newpages_len] = old[: p.newpages_len]
            p.newpages = bigger.ctypes.data_as(P_i64)
            p.newpages_cap = bigger.size
            arrs["newpages"] = bigger
        else:
            raise AssertionError(f"unexpected grow reason {reason}")

    def _rehash(self, struct: _NMap, arrs: Dict[str, object],
                name: str) -> None:
        slot = arrs[name]
        keys, vals = _map_live(
            slot["keys"], slot["vals"] if struct.vals else None
        )
        # Rebuilding drops tombstones; double when the live count alone
        # still crowds the table.
        extra = max(256, len(keys))
        arrs[name] = _bind_map(struct, keys, vals, extra)

    # -- running ------------------------------------------------------------

    def run_solo(self, index: int, n: int) -> int:
        pmu = ctypes.byref(self.pmu) if self.pmu is not None else None
        ran = int(self.lib.repro_solo(
            ctypes.byref(self.sh), ctypes.byref(self.procs[index]), n, pmu,
        ))
        if pmu is not None:
            self._channel_steps += ran
        return ran

    def run_corun(self, start: Sequence[int],
                  target_extra: int) -> Tuple[int, int, int]:
        """One native co-run leg.  Returns ``(finisher, stop_reason,
        stop_proc)`` -- ``finisher`` is -1 when the engine stopped for a
        refill or growth instead of finishing."""
        start_arr = np.array(start, dtype=np.int64)
        finisher = int(self.lib.repro_corun(
            ctypes.byref(self.sh), self._proc_ptrs, len(self.procs),
            start_arr.ctypes.data_as(P_i64), target_extra,
        ))
        return finisher, int(self.sh.stop_reason), int(self.sh.stop_proc)

    def accesses(self, index: int) -> int:
        return int(self.procs[index].accesses)
