"""A bounded LRU store of admitted miss-rate curves, keyed by phase.

The store holds *raw* (uncalibrated) curves: reuse always re-anchors a
cached curve at the currently measured MPKI point via v-offset matching
(paper Section 3.2), so the stored level is irrelevant -- only the
shape is reused.  Alongside each curve the store keeps the quality
metadata of the probe that produced it (stack hit rate, warmup
fraction, trace length), so reuse decisions can be audited.

Policies:

- **bounded LRU** -- ``capacity`` entries; a ``get`` hit refreshes
  recency, a ``put`` past capacity evicts the least recently used
  entry;
- **staleness TTL** -- entries older than ``ttl_instructions`` (in the
  caller's instruction clock) are expired at lookup time: phase shape
  does recur, but a curve probed long ago may describe a working set
  that has since drifted;
- **tolerant lookup** -- an exact signature miss falls back to a scan
  for the nearest signature within the configured MPKI tolerance
  (recurring phases straddling a quantization-bucket edge);
- **JSON persistence** -- ``save``/``load`` round-trip the whole store
  so repeated runs warm-start from disk (entry ages restart with the
  run's instruction clock).

Every decision increments a ``store.*`` counter on the ambient
telemetry registry (no-op by default, see :mod:`repro.obs`).
"""

from __future__ import annotations

import json
import warnings
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.core.mrc import MissRateCurve
from repro.core.rapidmrc import RapidMRCResult
from repro.obs import get_telemetry
from repro.store.signature import PhaseSignature, SignatureConfig

__all__ = ["StoreConfig", "StoredCurve", "MRCStore"]

_FORMAT = "rapidmrc-store-v1"


@dataclass(frozen=True)
class StoreConfig:
    """Store policy knobs.

    Args:
        capacity: maximum number of cached curves (LRU beyond it).
        ttl_instructions: entry lifetime in instructions of the caller's
            clock; ``None`` disables expiry (one-shot CLI runs have no
            meaningful instruction clock across invocations).
        signature: fingerprint quantization/matching parameters.
    """

    capacity: int = 32
    ttl_instructions: Optional[int] = None
    signature: SignatureConfig = SignatureConfig()

    def __post_init__(self) -> None:
        if self.capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {self.capacity!r}")
        if self.ttl_instructions is not None and self.ttl_instructions <= 0:
            raise ValueError(
                f"ttl_instructions must be positive, "
                f"got {self.ttl_instructions!r}"
            )


@dataclass
class StoredCurve:
    """One cached curve plus the metadata of the probe behind it."""

    signature: PhaseSignature
    mrc: MissRateCurve
    stored_at_instructions: int = 0
    stack_hit_rate: float = 0.0
    warmup_fraction: float = 0.0
    trace_length: int = 0
    reuses: int = 0

    def age(self, now_instructions: int) -> int:
        return now_instructions - self.stored_at_instructions

    def to_dict(self) -> dict:
        return {
            "signature": self.signature.to_dict(),
            "label": self.mrc.label,
            "mpki": {str(size): value for size, value in self.mrc},
            "stored_at_instructions": self.stored_at_instructions,
            "stack_hit_rate": self.stack_hit_rate,
            "warmup_fraction": self.warmup_fraction,
            "trace_length": self.trace_length,
            "reuses": self.reuses,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "StoredCurve":
        return cls(
            signature=PhaseSignature.from_dict(payload["signature"]),
            mrc=MissRateCurve(
                {int(s): float(v) for s, v in payload["mpki"].items()},
                label=str(payload.get("label", "")),
            ),
            stored_at_instructions=int(
                payload.get("stored_at_instructions", 0)
            ),
            stack_hit_rate=float(payload.get("stack_hit_rate", 0.0)),
            warmup_fraction=float(payload.get("warmup_fraction", 0.0)),
            trace_length=int(payload.get("trace_length", 0)),
            reuses=int(payload.get("reuses", 0)),
        )


class MRCStore:
    """The bounded LRU phase-signature -> curve cache."""

    def __init__(self, config: StoreConfig = StoreConfig()):
        self.config = config
        self._entries: "OrderedDict[PhaseSignature, StoredCurve]" = (
            OrderedDict()
        )
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.expirations = 0

    # -- core operations ----------------------------------------------------

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, signature: PhaseSignature) -> bool:
        return signature in self._entries

    def get(
        self,
        signature: PhaseSignature,
        now_instructions: int = 0,
    ) -> Optional[StoredCurve]:
        """Look up a phase; ``None`` on miss (or on an expired entry).

        An exact signature hit is preferred; otherwise the store scans
        for the nearest signature within the configured MPKI tolerance
        (same workload, same drift bucket).  A hit refreshes LRU
        recency.
        """
        registry = get_telemetry().registry
        entry = self._entries.get(signature)
        if entry is None:
            entry = self._tolerant_lookup(signature)
        if entry is not None and self._expired(entry, now_instructions):
            del self._entries[entry.signature]
            self.expirations += 1
            registry.counter("store.expired").inc()
            entry = None
        if entry is None:
            self.misses += 1
            registry.counter("store.misses").inc()
            return None
        self._entries.move_to_end(entry.signature)
        entry.reuses += 1
        self.hits += 1
        registry.counter("store.hits").inc()
        return entry

    def put(
        self,
        signature: PhaseSignature,
        mrc: MissRateCurve,
        now_instructions: int = 0,
        stack_hit_rate: float = 0.0,
        warmup_fraction: float = 0.0,
        trace_length: int = 0,
    ) -> StoredCurve:
        """Admit one curve; evicts the LRU entry past capacity.

        Re-putting an existing signature replaces the entry (the newer
        probe describes the phase better) and refreshes recency.
        """
        entry = StoredCurve(
            signature=signature,
            mrc=mrc,
            stored_at_instructions=now_instructions,
            stack_hit_rate=stack_hit_rate,
            warmup_fraction=warmup_fraction,
            trace_length=trace_length,
        )
        registry = get_telemetry().registry
        if signature in self._entries:
            del self._entries[signature]
        self._entries[signature] = entry
        registry.counter("store.puts").inc()
        while len(self._entries) > self.config.capacity:
            victim, _ = self._entries.popitem(last=False)
            self.evictions += 1
            registry.counter("store.evictions").inc()
        return entry

    def put_result(
        self,
        signature: PhaseSignature,
        result: RapidMRCResult,
        now_instructions: int = 0,
    ) -> StoredCurve:
        """Admit a fresh probe's *raw* curve with its quality metadata."""
        return self.put(
            signature,
            result.mrc,
            now_instructions=now_instructions,
            stack_hit_rate=result.stack_hit_rate,
            warmup_fraction=result.warmup_fraction,
            trace_length=result.trace_length,
        )

    def evict(self, signature: PhaseSignature) -> bool:
        """Explicitly drop one entry; ``True`` if it existed."""
        if signature not in self._entries:
            return False
        del self._entries[signature]
        self.evictions += 1
        get_telemetry().registry.counter("store.evictions").inc()
        return True

    def clear(self) -> None:
        self._entries.clear()

    # -- internals ----------------------------------------------------------

    def _expired(self, entry: StoredCurve, now_instructions: int) -> bool:
        ttl = self.config.ttl_instructions
        if ttl is None:
            return False
        return entry.age(now_instructions) > ttl

    def _tolerant_lookup(
        self, signature: PhaseSignature
    ) -> Optional[StoredCurve]:
        tolerance = self.config.signature.match_tolerance_mpki
        best: Optional[StoredCurve] = None
        best_distance = float("inf")
        for candidate, entry in self._entries.items():
            if not candidate.matches(signature, tolerance):
                continue
            distance = abs(candidate.level_mpki - signature.level_mpki)
            if distance < best_distance:
                best_distance = distance
                best = entry
        return best

    # -- reporting ----------------------------------------------------------

    def stats(self) -> Dict[str, int]:
        return {
            "entries": len(self._entries),
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "expirations": self.expirations,
        }

    # -- persistence --------------------------------------------------------

    def save(self, path: str) -> None:
        """Write the store (config + entries, LRU order) as JSON."""
        payload = {
            "format": _FORMAT,
            "config": {
                "capacity": self.config.capacity,
                "ttl_instructions": self.config.ttl_instructions,
                "signature": {
                    "level_quantum_mpki":
                        self.config.signature.level_quantum_mpki,
                    "slope_quantum_mpki":
                        self.config.signature.slope_quantum_mpki,
                    "history": self.config.signature.history,
                    "match_tolerance_mpki":
                        self.config.signature.match_tolerance_mpki,
                },
            },
            "entries": [entry.to_dict() for entry in self._entries.values()],
        }
        with open(path, "w", encoding="utf-8") as out:
            json.dump(payload, out, indent=2, sort_keys=True)
            out.write("\n")

    @classmethod
    def load(
        cls, path: str, config: Optional[StoreConfig] = None
    ) -> "MRCStore":
        """Read a store written by :meth:`save`.

        The file's own config is used unless ``config`` overrides it.
        Entry ages restart at zero: the instruction clock of the run
        that wrote the file is meaningless in this one.

        A warm-start file is an optimization, never a dependency: a
        corrupt, truncated, or wrong-format file degrades to an empty
        (cold) store with a :class:`UserWarning` and a
        ``store.load_failed`` counter instead of killing the run that
        asked for it.  Only a missing path still raises (that is a
        configuration error, not bit rot).
        """
        with open(path, encoding="utf-8") as source:
            text = source.read()
        try:
            return cls._load_payload(path, text, config)
        except (ValueError, KeyError, TypeError) as error:
            # json.JSONDecodeError is a ValueError; shape errors from
            # from_dict / config coercion land in KeyError / TypeError /
            # ValueError.
            warnings.warn(
                f"{path}: unusable MRC store ({error}); starting cold",
                stacklevel=2,
            )
            get_telemetry().registry.counter("store.load_failed").inc()
            return cls(config if config is not None else StoreConfig())

    @classmethod
    def _load_payload(
        cls, path: str, text: str, config: Optional[StoreConfig]
    ) -> "MRCStore":
        payload = json.loads(text)
        if not isinstance(payload, dict) or payload.get("format") != _FORMAT:
            format_seen = (
                payload.get("format") if isinstance(payload, dict) else None
            )
            raise ValueError(
                f"not a {_FORMAT} file (format={format_seen!r})"
            )
        if config is None:
            saved = payload.get("config", {})
            sig = saved.get("signature", {})
            config = StoreConfig(
                capacity=int(saved.get("capacity", 32)),
                ttl_instructions=saved.get("ttl_instructions"),
                signature=SignatureConfig(
                    level_quantum_mpki=float(
                        sig.get("level_quantum_mpki", 2.0)
                    ),
                    slope_quantum_mpki=float(
                        sig.get("slope_quantum_mpki", 1.5)
                    ),
                    history=int(sig.get("history", 3)),
                    match_tolerance_mpki=float(
                        sig.get("match_tolerance_mpki", 2.5)
                    ),
                ),
            )
        store = cls(config)
        for entry_payload in payload.get("entries", []):
            entry = StoredCurve.from_dict(entry_payload)
            entry.stored_at_instructions = 0
            store._entries[entry.signature] = entry
        while len(store._entries) > config.capacity:
            store._entries.popitem(last=False)
        return store
