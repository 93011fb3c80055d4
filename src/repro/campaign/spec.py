"""Declarative campaign specs: the matrix, validated and serializable.

A spec names *what* to run -- targets x machines x engines x seeds --
without saying anything about *how* (pooling, resume, output layout are
the runner's business).  Specs round-trip losslessly through
``to_dict``/``from_dict`` and JSON files, which is what makes campaign
outputs reproducible from their recorded spec alone.
"""

from __future__ import annotations

import json
import os
import re
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.core.estimators import ESTIMATORS
from repro.io.perf_script import parse_perf_script, split_by_pid
from repro.workloads import WORKLOAD_NAMES

__all__ = [
    "EXACT_ENGINES",
    "CampaignSpec",
    "MachineSpec",
    "TraceFileTarget",
    "WorkloadTarget",
    "cell_id",
]

#: Exact stack engines (estimator names come from the estimator registry).
EXACT_ENGINES: Tuple[str, ...] = ("batch",)

_ID_SANITIZE_RE = re.compile(r"[^A-Za-z0-9._-]+")


def _sanitize(fragment: str) -> str:
    return _ID_SANITIZE_RE.sub("-", fragment).strip("-")


@dataclass(frozen=True)
class MachineSpec:
    """One machine configuration axis entry."""

    scale: int = 16

    def __post_init__(self) -> None:
        if self.scale < 1:
            raise ValueError(f"machine scale must be >= 1, got {self.scale!r}")

    @property
    def ident(self) -> str:
        return f"s{self.scale}"

    def build(self):
        from repro.sim.machine import MachineConfig

        return (
            MachineConfig.scaled(self.scale)
            if self.scale > 1 else MachineConfig()
        )

    def to_dict(self) -> Dict[str, object]:
        return {"scale": self.scale}

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "MachineSpec":
        # Specs written before the simulation engine was chosen
        # automatically name one per machine; that key is ignored.
        return cls(scale=int(payload.get("scale", 16)))


@dataclass(frozen=True)
class WorkloadTarget:
    """A synthetic workload model target."""

    name: str

    kind = "workload"

    def __post_init__(self) -> None:
        if self.name not in WORKLOAD_NAMES:
            raise ValueError(f"unknown workload {self.name!r}")

    @property
    def label(self) -> str:
        return self.name

    def to_dict(self) -> Dict[str, object]:
        return {"kind": self.kind, "name": self.name}


@dataclass(frozen=True)
class TraceFileTarget:
    """A real ``perf script`` capture target.

    With ``split_pids`` (the default) expansion parses the capture once
    and turns every pid found into its own campaign target, so a single
    machine-wide capture contributes one matrix row per process.
    """

    path: str
    events: Optional[Tuple[str, ...]] = None
    split_pids: bool = True
    instructions_per_access: int = 48
    label_override: Optional[str] = None

    kind = "trace"

    def __post_init__(self) -> None:
        if not self.path:
            raise ValueError("trace target needs a path")
        if self.instructions_per_access < 1:
            raise ValueError("instructions_per_access must be >= 1")
        if self.events is not None:
            object.__setattr__(
                self, "events", tuple(str(event) for event in self.events)
            )

    @property
    def label(self) -> str:
        if self.label_override:
            return self.label_override
        stem = os.path.basename(self.path)
        return stem.rsplit(".", 1)[0] if "." in stem else stem

    def to_dict(self) -> Dict[str, object]:
        payload: Dict[str, object] = {
            "kind": self.kind,
            "path": self.path,
            "split_pids": self.split_pids,
            "instructions_per_access": self.instructions_per_access,
        }
        if self.events is not None:
            payload["events"] = list(self.events)
        if self.label_override is not None:
            payload["label"] = self.label_override
        return payload

    def resolve_pids(self) -> List[Optional[int]]:
        """The per-pid split of this capture (``[None]`` when not split).

        Parsing here (at expansion time) is what lets one capture fan
        out into several cells before any worker starts.
        """
        if not self.split_pids:
            return [None]
        report = parse_perf_script(self.path, events=self.events)
        groups = split_by_pid(report.samples)
        if not groups:
            raise ValueError(
                f"{self.path}: no parseable samples "
                f"({report.skipped_lines}/{report.total_lines} lines skipped)"
            )
        return sorted(groups, key=lambda pid: (pid is None, pid))


Target = Union[WorkloadTarget, TraceFileTarget]


def _target_from_dict(payload: Dict[str, object]) -> Target:
    kind = payload.get("kind", "workload")
    if kind == "workload":
        return WorkloadTarget(name=str(payload["name"]))
    if kind == "trace":
        events = payload.get("events")
        return TraceFileTarget(
            path=str(payload["path"]),
            events=tuple(events) if events is not None else None,
            split_pids=bool(payload.get("split_pids", True)),
            instructions_per_access=int(
                payload.get("instructions_per_access", 48)
            ),
            label_override=(
                str(payload["label"]) if payload.get("label") else None
            ),
        )
    raise ValueError(f"unknown target kind {kind!r}")


def cell_id(
    target_label: str, machine: MachineSpec, engine: str, seed: int
) -> str:
    """Deterministic, filesystem-safe identity of one matrix cell."""
    return "__".join(
        (_sanitize(target_label), machine.ident, _sanitize(engine),
         f"seed{seed}")
    )


@dataclass(frozen=True)
class CampaignSpec:
    """The full experiment matrix.

    Args:
        name: campaign identity (used in output naming).
        targets: workload models and/or trace captures.
        machines: machine-config axis.
        engines: stack engines / estimators axis (``batch``,
            ``shards``, ``aet``).
        seeds: PMU-channel seeds; each seed is an independent probe
            realization of the same cell.
        log_entries: probe trace-log length override (``None`` derives
            the machine default).
        sampling_rate: spatial sampling rate applied to estimator
            engines (exact engines ignore it).
        measure_real: also measure the exhaustive offline real MRC per
            cell and record the calibrated MPKI error against it.
        real_workers: parallelize each cell's real-MRC measurement over
            this many worker processes (the per-size offline runs are
            independent; folded telemetry and the curve are identical
            to the sequential measurement).  ``None`` follows the
            process-wide ``--sim-workers`` default.
    """

    name: str
    targets: Tuple[Target, ...]
    machines: Tuple[MachineSpec, ...] = (MachineSpec(),)
    engines: Tuple[str, ...] = EXACT_ENGINES
    seeds: Tuple[int, ...] = (0,)
    log_entries: Optional[int] = None
    sampling_rate: Optional[float] = None
    measure_real: bool = False
    real_workers: Optional[int] = None

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("campaign needs a name")
        object.__setattr__(self, "targets", tuple(self.targets))
        object.__setattr__(self, "machines", tuple(self.machines))
        object.__setattr__(self, "engines", tuple(self.engines))
        object.__setattr__(self, "seeds", tuple(int(s) for s in self.seeds))
        if not self.targets:
            raise ValueError("campaign needs at least one target")
        if not self.machines:
            raise ValueError("campaign needs at least one machine config")
        if not self.engines:
            raise ValueError("campaign needs at least one engine")
        if not self.seeds:
            raise ValueError("campaign needs at least one seed")
        if len(set(self.seeds)) != len(self.seeds):
            raise ValueError("seeds must be unique")
        known = set(EXACT_ENGINES) | set(ESTIMATORS)
        for engine in self.engines:
            if engine not in known:
                raise ValueError(
                    f"unknown engine {engine!r}; options: "
                    f"{', '.join(sorted(known))}"
                )
        if len(set(self.engines)) != len(self.engines):
            raise ValueError("engines must be unique")
        if self.log_entries is not None and self.log_entries <= 0:
            raise ValueError("log_entries must be positive")
        if self.sampling_rate is not None:
            if not 0.0 < self.sampling_rate <= 1.0:
                raise ValueError("sampling_rate must be in (0, 1]")
        if self.real_workers is not None and self.real_workers < 1:
            raise ValueError("real_workers must be >= 1")

    # -- serialization ------------------------------------------------------

    def to_dict(self) -> Dict[str, object]:
        payload: Dict[str, object] = {
            "name": self.name,
            "targets": [target.to_dict() for target in self.targets],
            "machines": [machine.to_dict() for machine in self.machines],
            "engines": list(self.engines),
            "seeds": list(self.seeds),
            "measure_real": self.measure_real,
        }
        if self.log_entries is not None:
            payload["log_entries"] = self.log_entries
        if self.sampling_rate is not None:
            payload["sampling_rate"] = self.sampling_rate
        if self.real_workers is not None:
            payload["real_workers"] = self.real_workers
        return payload

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "CampaignSpec":
        if "name" not in payload:
            raise ValueError("campaign spec needs a 'name'")
        if "targets" not in payload:
            raise ValueError("campaign spec needs a 'targets' list")
        log_entries = payload.get("log_entries")
        sampling_rate = payload.get("sampling_rate")
        real_workers = payload.get("real_workers")
        return cls(
            name=str(payload["name"]),
            targets=tuple(
                _target_from_dict(entry) for entry in payload["targets"]
            ),
            machines=tuple(
                MachineSpec.from_dict(entry)
                for entry in payload.get("machines", [{}])
            ),
            engines=tuple(payload.get("engines", EXACT_ENGINES)),
            seeds=tuple(int(seed) for seed in payload.get("seeds", [0])),
            log_entries=int(log_entries) if log_entries is not None else None,
            sampling_rate=(
                float(sampling_rate) if sampling_rate is not None else None
            ),
            measure_real=bool(payload.get("measure_real", False)),
            real_workers=(
                int(real_workers) if real_workers is not None else None
            ),
        )

    @classmethod
    def from_json_file(cls, path: str) -> "CampaignSpec":
        """Load a spec, resolving trace paths relative to the file."""
        with open(path, encoding="utf-8") as source:
            try:
                payload = json.load(source)
            except json.JSONDecodeError as error:
                raise ValueError(f"{path}: not valid JSON: {error}") from None
        spec = cls.from_dict(payload)
        base = os.path.dirname(os.path.abspath(path))
        targets = tuple(
            target if not isinstance(target, TraceFileTarget)
            or os.path.isabs(target.path)
            else TraceFileTarget(
                path=os.path.join(base, target.path),
                events=target.events,
                split_pids=target.split_pids,
                instructions_per_access=target.instructions_per_access,
                label_override=target.label_override or target.label,
            )
            for target in spec.targets
        )
        return cls(
            name=spec.name,
            targets=targets,
            machines=spec.machines,
            engines=spec.engines,
            seeds=spec.seeds,
            log_entries=spec.log_entries,
            sampling_rate=spec.sampling_rate,
            measure_real=spec.measure_real,
            real_workers=spec.real_workers,
        )

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"

    # -- expansion ----------------------------------------------------------

    def expand(self) -> List[Dict[str, object]]:
        """The concrete cell list: one dict per matrix cell.

        Cells are plain picklable dicts (what crosses the process-pool
        boundary); trace targets are parsed here so per-pid splitting
        happens exactly once, before any worker starts.
        """
        resolved: List[Tuple[str, Dict[str, object]]] = []
        for target in self.targets:
            if isinstance(target, WorkloadTarget):
                resolved.append((target.label, target.to_dict()))
                continue
            for pid in target.resolve_pids():
                payload = target.to_dict()
                payload["pid"] = pid
                label = target.label if pid is None else (
                    f"{target.label}-pid{pid}"
                )
                resolved.append((label, payload))
        cells: List[Dict[str, object]] = []
        for label, target_payload in resolved:
            for machine in self.machines:
                for engine in self.engines:
                    for seed in self.seeds:
                        cells.append({
                            "id": cell_id(label, machine, engine, seed),
                            "label": label,
                            "target": dict(target_payload),
                            "machine": machine.to_dict(),
                            "engine": engine,
                            "seed": seed,
                            "log_entries": self.log_entries,
                            "sampling_rate": self.sampling_rate,
                            "measure_real": self.measure_real,
                            "real_workers": self.real_workers,
                        })
        seen: Dict[str, str] = {}
        for cell in cells:
            if cell["id"] in seen:
                raise ValueError(
                    f"duplicate cell id {cell['id']!r} "
                    f"(labels {seen[cell['id']]!r} and {cell['label']!r} "
                    "collide after sanitizing)"
                )
            seen[cell["id"]] = cell["label"]
        return cells

    @property
    def size(self) -> int:
        """Matrix size before per-pid splitting of trace targets."""
        return (
            len(self.targets) * len(self.machines)
            * len(self.engines) * len(self.seeds)
        )
