"""Persistence of autotuning decisions.

A tuning decision is tiny — the winning ``(kernel, partition_size,
buffer_bytes, workers)`` tuple plus its predicted/measured scores — so
records are stored as one JSON file per key under ``<plan cache
root>/tuning/``, right next to the operator plans they configure.  The
key is a SHA-256 fingerprint of everything the *search* depends on
(geometry, ordering scheme, compute dtype, record schema version) and
deliberately excludes the kernel configuration itself: that is the
output of the search, not an input.

Warm lookups are free: a valid record short-circuits the search
entirely.  A corrupt, schema-incompatible, or stale record (recorded on
a machine with a different CPU count) is *degraded*, never trusted: the
loader warns with :class:`TuningIntegrityWarning`, discards the file,
and reports a miss so the caller re-tunes from defaults.
"""

from __future__ import annotations

import hashlib
import json
import os
import warnings
from dataclasses import asdict, dataclass
from pathlib import Path

from ..core import KERNELS, OperatorConfig
from ..persist import atomic_write_text

__all__ = [
    "RECORD_VERSION",
    "TuningRecord",
    "TuningRecordError",
    "TuningIntegrityWarning",
    "TuneStore",
    "tune_fingerprint",
]

#: Schema version of persisted tuning records; bumping it invalidates
#: every existing record (they degrade to a re-tune, never misparse).
RECORD_VERSION = 1


class TuningRecordError(ValueError):
    """A persisted tuning record failed validation."""


class TuningIntegrityWarning(UserWarning):
    """A tuning record was corrupt or stale and has been discarded."""


def tune_fingerprint(
    geometry,
    ordering: str = "pseudo-hilbert",
    min_tiles: int = 16,
    tile_size: int | None = None,
    dtype: str | None = None,
) -> str:
    """SHA-256 key of a tuning request.

    Hashes the plan-fingerprint document minus its config section
    (the config is what tuning *produces*), plus the compute dtype
    (fp32 halves the vector traffic, so fp32 and fp64 tune separately)
    and the record schema version.
    """
    # Lazy: repro.cache imports repro.io which imports repro.core.
    from ..cache import fingerprint_inputs

    doc = fingerprint_inputs(
        geometry, None, ordering=ordering, min_tiles=min_tiles, tile_size=tile_size
    )
    del doc["config"]
    doc["tune"] = {"record_version": RECORD_VERSION, "dtype": dtype}
    canon = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()


@dataclass
class TuningRecord:
    """One persisted tuning decision."""

    key: str
    kernel: str
    partition_size: int
    buffer_bytes: int
    workers: int
    dtype: str | None
    mode: str
    predicted_seconds: float
    measured_seconds: float | None
    candidates_considered: int
    trials: int
    cpu_count: int
    record_version: int = RECORD_VERSION

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, doc: dict) -> "TuningRecord":
        """Validated deserialization; raises :class:`TuningRecordError`."""
        if not isinstance(doc, dict):
            raise TuningRecordError(f"tuning record must be an object, got {type(doc)}")
        if doc.get("record_version") != RECORD_VERSION:
            raise TuningRecordError(
                f"tuning record version {doc.get('record_version')!r} does not "
                f"match current schema {RECORD_VERSION}"
            )
        try:
            record = cls(
                key=str(doc["key"]),
                kernel=str(doc["kernel"]),
                partition_size=int(doc["partition_size"]),
                buffer_bytes=int(doc["buffer_bytes"]),
                workers=int(doc["workers"]),
                dtype=doc.get("dtype"),
                mode=str(doc.get("mode", "auto")),
                predicted_seconds=float(doc["predicted_seconds"]),
                measured_seconds=(
                    None
                    if doc.get("measured_seconds") is None
                    else float(doc["measured_seconds"])
                ),
                candidates_considered=int(doc.get("candidates_considered", 0)),
                trials=int(doc.get("trials", 0)),
                cpu_count=int(doc.get("cpu_count", 0)),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise TuningRecordError(f"malformed tuning record: {exc}") from exc
        if record.kernel not in KERNELS:
            raise TuningRecordError(f"tuning record names unknown kernel {record.kernel!r}")
        if record.partition_size < 1 or record.buffer_bytes < 4 or record.workers < 1:
            raise TuningRecordError(
                "tuning record holds out-of-range configuration "
                f"(partition_size={record.partition_size}, "
                f"buffer_bytes={record.buffer_bytes}, workers={record.workers})"
            )
        return record

    def is_stale(self) -> bool:
        """True when the record was tuned on observably different hardware."""
        return self.cpu_count not in (0, os.cpu_count() or 0)

    def apply(self, config: OperatorConfig) -> OperatorConfig:
        """The tuned configuration derived from ``config``.

        Replaces the layout knobs with the record's winners and clears
        the ``tune`` request (it is now resolved).  An explicit
        ``config.workers`` always wins over the tuned worker count —
        the user's execution choice is respected; a tuned count of 1
        leaves ``workers=None`` so the ``REPRO_WORKERS`` environment
        fallback keeps working.
        """
        from dataclasses import replace

        workers = config.workers
        if workers is None and self.workers > 1:
            workers = self.workers
        return replace(
            config,
            kernel=self.kernel,
            partition_size=self.partition_size,
            buffer_bytes=self.buffer_bytes,
            workers=workers,
            tune=None,
        )


class TuneStore:
    """Directory of ``<key>.json`` tuning records."""

    def __init__(self, root: str | Path):
        self.root = Path(root)

    @classmethod
    def resolve(cls, cache) -> "TuneStore | None":
        """Store co-located with the given plan-cache spec.

        Accepts everything :meth:`repro.cache.PlanCache.resolve` does,
        plus a ready ``TuneStore``.  Returns ``None`` when caching is
        off — tuning then runs but is not persisted.
        """
        if isinstance(cache, TuneStore):
            return cache
        from ..cache import PlanCache

        plan_cache = PlanCache.resolve(cache)
        if plan_cache is None:
            return None
        return cls(plan_cache.root / "tuning")

    def path_for(self, key: str) -> Path:
        return self.root / f"{key}.json"

    def load(self, key: str) -> TuningRecord | None:
        """Load a record, degrading corrupt/stale entries to a miss."""
        path = self.path_for(key)
        try:
            doc = json.loads(path.read_text())
        except FileNotFoundError:
            return None
        except (OSError, json.JSONDecodeError) as exc:
            self._discard(path, f"unreadable tuning record {path.name}: {exc}")
            return None
        try:
            record = TuningRecord.from_dict(doc)
        except TuningRecordError as exc:
            self._discard(path, str(exc))
            return None
        if record.key != key:
            self._discard(path, f"tuning record key mismatch in {path.name}")
            return None
        if record.is_stale():
            self._discard(
                path,
                f"tuning record {path.name} was tuned with {record.cpu_count} "
                f"CPUs but this machine has {os.cpu_count()}",
            )
            return None
        return record

    def save(self, key: str, record: TuningRecord) -> Path:
        """Atomically persist a record (write temp, fsync, rename)."""
        self.root.mkdir(parents=True, exist_ok=True)
        path = self.path_for(key)
        atomic_write_text(path, json.dumps(record.to_dict(), indent=2, sort_keys=True))
        return path

    def entries(self) -> list[tuple[str, TuningRecord]]:
        """All valid records, sorted by key (invalid files skipped)."""
        if not self.root.is_dir():
            return []
        out = []
        for path in sorted(self.root.glob("*.json")):
            record = self.load(path.stem)
            if record is not None:
                out.append((path.stem, record))
        return out

    def clear(self) -> int:
        """Delete every record file; returns the number removed."""
        if not self.root.is_dir():
            return 0
        removed = 0
        for path in self.root.glob("*.json"):
            try:
                path.unlink()
                removed += 1
            except OSError:
                pass
        return removed

    def _discard(self, path: Path, reason: str) -> None:
        warnings.warn(
            f"{reason}; re-tuning from defaults", TuningIntegrityWarning, stacklevel=3
        )
        try:
            path.unlink()
        except OSError:
            pass
