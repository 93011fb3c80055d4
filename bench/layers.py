"""Outside-in per-layer tracer for the benchmark's traced pass.

The program itself is not instrumented for this: the benchmark patches
the public entry point of each layer with a wrapper that only times and
counts.  Arguments and return values pass through unchanged, so traced
and untraced runs produce identical outputs (``run.py`` checks this).

Layers are named after the ``repro`` modules they wrap.  A layer's self
time is the time inside its spans minus the part covered by nested spans
of any layer; time inside a round that no layer covers is reported as
``unattributed``.  Work counts are read from arguments and return values
(never from the program's own telemetry), so they repeat exactly.

Where a caller bound a function at import time (``from x import f``),
the wrapper is also installed in that caller's namespace: every loaded
``repro`` module holding the original object is patched.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Sequence, Tuple

__all__ = [
    "LAYERS",
    "LayerTracer",
    "TracePatch",
    "attribution_gap",
    "layer_metrics",
    "required_layers_missing",
]

_now = time.perf_counter

#: Layer -> its public entry points, as ``(module, attribute path)``.
LAYERS: Dict[str, Tuple[Tuple[str, str], ...]] = {
    "workloads": (("repro.workloads.base", "Workload.access_batches"),),
    "sim": (
        ("repro.sim.fastsim", "drive_batch"),
        ("repro.sim.fastsim", "NativeCorun.run_until"),
        ("repro.runner.driver", "Process.step"),
    ),
    "pmu": (
        ("repro.pmu.sampling", "BatchEventConsumer.observe_events"),
        ("repro.pmu.sampling", "TraceCollector.observe"),
        ("repro.pmu.sampling", "TraceCollector.finish"),
    ),
    "core.correction": (
        ("repro.core.correction", "correct_stale_repetitions"),
        ("repro.core.fastpath", "correct_stale_repetitions"),
    ),
    "core.stack": (("repro.core.stack", "LRUStackSimulator.process"),),
    "core.calibration": (("repro.core.mrc", "MissRateCurve.v_offset_matched"),),
    "core.partition": (
        ("repro.core.partition", "choose_partition_sizes"),
        ("repro.core.partition", "choose_partition_sizes_multi"),
    ),
    "runner.online": (("repro.runner.online", "collect_trace"),),
    "runner.offline": (("repro.runner.offline", "measure_mpki"),),
    "runner.corun": (("repro.runner.corun", "corun"),),
    "runner.dynamic": (
        ("repro.runner.dynamic", "DynamicPartitionManager.step_accesses"),
    ),
    "fleet": (("repro.fleet.service", "FleetService.run"),),
}

#: Layers whose self time is trace logging (paper Table 2 column a) or
#: MRC calculation (column b) when spent inside an online probe.
LOGGING_LAYERS = ("workloads", "sim", "pmu")
CALCULATION_LAYERS = ("core.correction", "core.stack")


# ---------------------------------------------------------------------------
# Work counts read from arguments and return values.  A count hook runs
# after each call with ``(counts, args, kwargs, result, before)``, where
# ``before`` is what the entry point's pre-call hook returned (or None).
# ---------------------------------------------------------------------------

def _count_drive(counts, args, kwargs, result, before):
    counts["sim.accesses"] += result


def _corun_accesses(args, kwargs):
    return sum(p.accesses for p in args[0].processes)


def _count_corun(counts, args, kwargs, result, before):
    counts["sim.accesses"] += _corun_accesses(args, kwargs) - before
    if not result:
        counts["sim.corun_bails"] += 1


def _count_step(counts, args, kwargs, result, before):
    counts["sim.accesses"] += 1


def _count_events(counts, args, kwargs, result, before):
    counts["pmu.events"] += result


def _count_observe(counts, args, kwargs, result, before):
    counts["pmu.events"] += 1


def _count_finish(counts, args, kwargs, result, before):
    counts["pmu.log_entries"] += len(result.entries)
    counts["pmu.stale_entries"] += result.stale_entries
    counts["pmu.dropped_events"] += result.dropped_events
    counts["pmu.l1d_misses"] += result.l1d_misses


def _count_correction(counts, args, kwargs, result, before):
    counts["core.correction.entries"] += len(result.trace)
    counts["core.correction.converted"] += result.converted


def _count_stack(counts, args, kwargs, result, before):
    trace = args[1] if len(args) > 1 else kwargs["trace"]
    counts["core.stack.entries"] += len(trace)
    counts["core.stack.recorded"] += result.total_accesses
    counts["core.stack.hits"] += result.finite_accesses


def _count_dynamic(counts, args, kwargs, result, before):
    target = args[1] if len(args) > 1 else kwargs["target_extra"]
    counts["runner.dynamic.steps"] += target


_COUNT_HOOKS: Dict[str, Callable] = {
    "drive_batch": _count_drive,
    "NativeCorun.run_until": _count_corun,
    "Process.step": _count_step,
    "BatchEventConsumer.observe_events": _count_events,
    "TraceCollector.observe": _count_observe,
    "TraceCollector.finish": _count_finish,
    "correct_stale_repetitions": _count_correction,
    "LRUStackSimulator.process": _count_stack,
    "DynamicPartitionManager.step_accesses": _count_dynamic,
}
_BEFORE_HOOKS: Dict[str, Callable] = {
    "NativeCorun.run_until": _corun_accesses,
}


# ---------------------------------------------------------------------------
# The tracer
# ---------------------------------------------------------------------------

class _Frame:
    __slots__ = ("layer", "start", "child", "span_id", "parent_id")

    def __init__(self, layer: str, start: float, span_id: int, parent_id: int):
        self.layer = layer
        self.start = start
        self.child = 0.0
        self.span_id = span_id
        self.parent_id = parent_id


class LayerTracer:
    """Span stack plus per-layer aggregates, all in memory.

    Spans are ``(name, start, end, parent, op)`` records; at most
    ``max_spans`` are kept (per-access layers such as ``Process.step``
    would otherwise fill memory), the rest only feed the aggregates and
    are counted in ``spans_dropped``.
    """

    def __init__(self, max_spans: int = 20000):
        self.max_spans = max_spans
        self.self_s: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.counts: Dict[str, float] = defaultdict(int)
        #: Self time per layer spent inside ``runner.online`` spans.
        self.in_probe_s: Dict[str, float] = defaultdict(float)
        self.probe_s = 0.0
        self.unattributed_s = 0.0
        self.rounds_s = 0.0
        self.spans: List[Tuple[str, float, float, int, int, str]] = []
        self.spans_dropped = 0
        self.op = ""
        self._stack: List[_Frame] = []
        self._next_id = 1
        self._probe_depth = 0

    # -- spans ---------------------------------------------------------------

    def enter(self, layer: str) -> _Frame:
        parent = self._stack[-1].span_id if self._stack else 0
        frame = _Frame(layer, 0.0, self._next_id, parent)
        self._next_id += 1
        if layer == "runner.online":
            self._probe_depth += 1
        self._stack.append(frame)
        frame.start = _now()
        return frame

    def exit(self, frame: _Frame) -> None:
        end = _now()
        stack = self._stack
        while stack and stack[-1] is not frame:
            stack.pop()  # a frame abandoned by an exception below us
        if stack:
            stack.pop()
        duration = end - frame.start
        if stack:
            stack[-1].child += duration
        own = duration - frame.child
        layer = frame.layer
        if layer == "round":
            self.unattributed_s += own
            self.rounds_s += duration
        else:
            self.self_s[layer] += own
            self.calls[layer] += 1
            if self._probe_depth:
                self.in_probe_s[layer] += own
            if layer == "runner.online":
                self._probe_depth -= 1
                self.probe_s += duration
        if len(self.spans) < self.max_spans:
            self.spans.append(
                (layer, frame.start, end, frame.parent_id, frame.span_id,
                 self.op)
            )
        else:
            self.spans_dropped += 1

    def snapshot(self) -> Dict[str, Any]:
        """The aggregates so far, as plain dictionaries."""
        return {
            "self_s": dict(self.self_s),
            "calls": dict(self.calls),
            "counts": dict(self.counts),
            "in_probe_s": dict(self.in_probe_s),
            "probe_s": self.probe_s,
            "unattributed_s": self.unattributed_s,
            "rounds_s": self.rounds_s,
        }

    def write_spans(self, path: str) -> None:
        """Write the kept spans as JSONL (one header line, then spans)."""
        with open(path, "w", encoding="utf-8") as out:
            out.write(json.dumps({
                "type": "header", "spans": len(self.spans),
                "spans_dropped": self.spans_dropped,
            }) + "\n")
            for name, start, end, parent, span_id, op in self.spans:
                out.write(json.dumps({
                    "name": name, "id": span_id, "parent": parent,
                    "op": op, "start": start, "end": end,
                }) + "\n")


# ---------------------------------------------------------------------------
# Installing the wrappers
# ---------------------------------------------------------------------------

def _wrap_call(tracer: LayerTracer, layer: str, fn, after, before):
    enter, exit_ = tracer.enter, tracer.exit
    counts = tracer.counts

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        state = before(args, kwargs) if before is not None else None
        frame = enter(layer)
        try:
            result = fn(*args, **kwargs)
        finally:
            exit_(frame)
        if after is not None:
            after(counts, args, kwargs, result, state)
        return result

    return wrapper


def _wrap_generator(tracer: LayerTracer, layer: str, fn):
    """Time each ``next()`` of the generator ``fn`` returns (one slab)."""
    enter, exit_ = tracer.enter, tracer.exit
    counts = tracer.counts

    def slabs(inner):
        while True:
            frame = enter(layer)
            try:
                item = next(inner)
            except StopIteration:
                exit_(frame)
                return
            except BaseException:
                exit_(frame)
                raise
            exit_(frame)
            counts["workloads.accesses"] += len(item[0])
            yield item

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        return slabs(fn(*args, **kwargs))

    return wrapper


@dataclass
class _Patched:
    owner: Any
    name: str
    original: Any


class TracePatch:
    """Install every layer wrapper on enter, restore the originals on exit.

    Raises ``AttributeError`` when a wrapped entry point no longer
    exists: a renamed layer must fail the traced pass loudly, never
    report zero time.
    """

    def __init__(self, tracer: LayerTracer):
        self.tracer = tracer
        self._patched: List[_Patched] = []

    def __enter__(self) -> "TracePatch":
        try:
            for layer, targets in LAYERS.items():
                for module_name, path in targets:
                    self._install(layer, module_name, path)
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc) -> bool:
        self._restore()
        return False

    def _install(self, layer: str, module_name: str, path: str) -> None:
        module = importlib.import_module(module_name)
        owner_name, _, attr = path.rpartition(".")
        owner = getattr(module, owner_name) if owner_name else module
        if attr not in vars(owner):
            raise AttributeError(f"{module_name}.{path} no longer exists")
        original = vars(owner)[attr]
        if layer == "workloads":
            wrapper = _wrap_generator(self.tracer, layer, original)
        else:
            wrapper = _wrap_call(
                self.tracer, layer, original,
                _COUNT_HOOKS.get(path), _BEFORE_HOOKS.get(path),
            )
        self._set(owner, attr, original, wrapper)
        if not owner_name:
            # Callers that bound the function at import time look it up
            # in their own namespace: patch it there too.
            for name, other in list(sys.modules.items()):
                if (other is None or other is module
                        or not name.startswith("repro")):
                    continue
                for key, value in list(vars(other).items()):
                    if value is original:
                        self._set(other, key, original, wrapper)

    def _set(self, owner, name: str, original, wrapper) -> None:
        self._patched.append(_Patched(owner, name, original))
        setattr(owner, name, wrapper)

    def _restore(self) -> None:
        while self._patched:
            entry = self._patched.pop()
            setattr(entry.owner, entry.name, entry.original)


# ---------------------------------------------------------------------------
# Per-layer metrics
# ---------------------------------------------------------------------------

def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(
    snap: Dict[str, Any],
    rounds: int,
    time_scale: float,
    native_accesses: int,
    batch_accesses: int,
    batch_fallbacks: int,
) -> Dict[str, float]:
    """Flatten a tracer snapshot into the benchmark's per-layer metrics.

    Times and counts are per round (the snapshot covers ``rounds``
    identical rounds); times are multiplied by ``time_scale``, the
    host-speed normalization of those rounds.  ``native_accesses``,
    ``batch_accesses`` and ``batch_fallbacks`` come from the program's
    in-memory telemetry of the same rounds.
    """
    self_s, calls, counts = snap["self_s"], snap["calls"], snap["counts"]
    per_round = time_scale / rounds
    out: Dict[str, float] = {}
    for layer in LAYERS:
        out[f"{layer}.self_s"] = self_s.get(layer, 0.0) * per_round
        out[f"{layer}.calls"] = calls.get(layer, 0) / rounds
    for name in ("sim.accesses", "pmu.events", "pmu.log_entries",
                 "core.stack.entries", "runner.dynamic.steps",
                 "workloads.accesses"):
        out[name] = counts.get(name, 0) / rounds
    ns = 1e9 * time_scale
    out["sim.ns_per_access"] = ns * _ratio(
        self_s.get("sim", 0.0), counts.get("sim.accesses", 0))
    out["pmu.ns_per_event"] = ns * _ratio(
        self_s.get("pmu", 0.0), counts.get("pmu.events", 0))
    out["core.stack.ns_per_entry"] = ns * _ratio(
        self_s.get("core.stack", 0.0), counts.get("core.stack.entries", 0))
    out["workloads.ns_per_access"] = ns * _ratio(
        self_s.get("workloads", 0.0), counts.get("workloads.accesses", 0))
    out["pmu.stale_share"] = _ratio(
        counts.get("pmu.stale_entries", 0), counts.get("pmu.log_entries", 0))
    out["pmu.drop_share"] = _ratio(
        counts.get("pmu.dropped_events", 0), counts.get("pmu.l1d_misses", 0))
    out["core.correction.converted_share"] = _ratio(
        counts.get("core.correction.converted", 0),
        counts.get("core.correction.entries", 0))
    out["core.stack.hit_rate"] = _ratio(
        counts.get("core.stack.hits", 0), counts.get("core.stack.recorded", 0))
    out["sim.native_share"] = _ratio(native_accesses, batch_accesses)
    out["sim.fallbacks"] = batch_fallbacks + counts.get("sim.corun_bails", 0)
    in_probe, probe_s = snap["in_probe_s"], snap["probe_s"]
    out["probe.logging_share"] = _ratio(
        sum(in_probe.get(layer, 0.0) for layer in LOGGING_LAYERS), probe_s)
    out["probe.calculation_share"] = _ratio(
        sum(in_probe.get(layer, 0.0) for layer in CALCULATION_LAYERS), probe_s)
    out["unattributed_s"] = snap["unattributed_s"] * per_round
    # The benchmark's host-speed reference loop is not program time.
    out["traced_wall_s"] = (
        snap["rounds_s"] - self_s.get("reference", 0.0)) * per_round
    return out


def required_layers_missing(
    snap: Dict[str, Any], required: Sequence[str]
) -> List[str]:
    """The coverage guard: required layers that recorded no calls."""
    calls = snap["calls"]
    return [layer for layer in required if not calls.get(layer)]


def attribution_gap(snap: Dict[str, Any], wall_s: float) -> float:
    """How far per-layer self times plus ``unattributed`` miss the traced
    wall time the round loop measured, as a share of that wall time."""
    total = sum(snap["self_s"].values()) + snap["unattributed_s"]
    return abs(total - wall_s) / wall_s if wall_s else 1.0
