"""The on-disk operator-plan cache.

One directory of content-addressed entries: ``<fingerprint>.npz`` (the
full operator archive written by :func:`repro.io.save_operator`)
plus a ``<fingerprint>.json`` sidecar with human-readable metadata for
``repro cache list`` / ``info``.

Robustness properties:

* **Crash-safe writes** — entries are written through the atomic
  temp-file + rename path of :mod:`repro.persist`; a killed writer
  leaves at most a stray ``*.tmp-<pid>`` file, never a truncated entry,
  and the next eviction pass removes the strays of dead writers.
* **Built where it is stored** — ``preprocess`` reserves the entry
  before it traces (:meth:`PlanCache.reserve`), assembles the ordered
  pair in the entry's own pages, and :meth:`PlanCache.store` seals it
  and returns it loaded: a cold build hands out the read-only,
  CRC-verified mapped operator a hit hands out.  A full disk raises
  ``OSError`` at the reservation and leaves nothing behind.
* **Graceful degradation** — a corrupt, truncated, or version-stale
  entry is *discarded with a warning* and reported as a miss, so the
  caller re-traces instead of crashing (the checksum embedded in every
  archive is what catches silent bit corruption).
* **Size-capped eviction** — after each store the cache evicts
  least-recently-used entries (hits bump an entry's mtime) until it is
  back under ``max_bytes``.
* **Shared, not copied** — a hit is read-only views of one map of the
  entry's file (:mod:`repro.persist`): operators of one entry, in one
  process or many, share its page-cache pages.  An entry is only ever
  replaced by rename or removed by unlink, never rewritten in place,
  so evicting or discarding a mapped entry — from this process or
  another one sharing the directory — leaves live operators usable.

Hits, misses, and byte traffic are reported through ``repro.obs``
(``cache.hits`` / ``cache.misses`` / ``cache.bytes_read`` /
``cache.bytes_written`` / ``cache.evictions`` counters and a
``cache.load`` span), so ``--trace`` / ``--metrics`` show exactly what
was reused.
"""

from __future__ import annotations

import json
import os
import time
import warnings
from dataclasses import dataclass
from pathlib import Path

from ..io import (
    OperatorArchive,
    OperatorFormatError,
    OperatorIntegrityError,
    load_operator,
    save_operator,
)
from ..obs import (
    CACHE_BYTES_READ,
    CACHE_BYTES_WRITTEN,
    CACHE_EVICTIONS,
    CACHE_HITS,
    CACHE_MISSES,
    add_count,
    span,
)
from ..persist import atomic_write_text

__all__ = [
    "PlanCache",
    "CacheEntry",
    "CacheIntegrityWarning",
    "default_cache_dir",
    "DEFAULT_MAX_BYTES",
]

#: Default size cap of the plan cache (overridable per instance or via
#: the ``REPRO_CACHE_MAX_BYTES`` environment variable).
DEFAULT_MAX_BYTES = 2 << 30  # 2 GiB


class CacheIntegrityWarning(UserWarning):
    """A cache entry was unusable and has been discarded."""


def default_cache_dir() -> Path:
    """Resolve the default cache directory.

    ``REPRO_CACHE_DIR`` wins when set; otherwise the XDG cache home
    (``~/.cache``) is used, under ``repro/plans``.
    """
    env = os.environ.get("REPRO_CACHE_DIR")
    if env:
        return Path(env)
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = Path(xdg) if xdg else Path.home() / ".cache"
    return base / "repro" / "plans"


def _process_exists(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:  # it exists, under another user
        pass
    return True


@dataclass(frozen=True)
class CacheEntry:
    """One cached plan: its key, size, recency, and sidecar metadata."""

    key: str
    path: Path
    nbytes: int
    mtime: float
    meta: dict

    @property
    def age_seconds(self) -> float:
        return max(0.0, time.time() - self.mtime)


class PlanCache:
    """Content-addressed store of preprocessed operator plans."""

    def __init__(
        self, root: str | Path | None = None, max_bytes: int | None = None
    ) -> None:
        self.root = Path(root) if root is not None else default_cache_dir()
        if max_bytes is None:
            env = os.environ.get("REPRO_CACHE_MAX_BYTES")
            max_bytes = int(env) if env else DEFAULT_MAX_BYTES
        if max_bytes <= 0:
            raise ValueError(f"max_bytes must be positive, got {max_bytes}")
        self.max_bytes = int(max_bytes)

    @classmethod
    def resolve(cls, spec) -> "PlanCache | None":
        """Interpret a user-facing cache spec.

        ``None`` / ``False`` / ``"off"`` / ``"none"`` disable caching;
        ``True`` / ``"auto"`` use the default directory; a path string,
        :class:`~pathlib.Path`, or :class:`PlanCache` select an
        explicit cache.
        """
        if spec is None or spec is False:
            return None
        if isinstance(spec, PlanCache):
            return spec
        if spec is True:
            return cls()
        if isinstance(spec, Path):
            return cls(spec)
        if isinstance(spec, str):
            lowered = spec.strip().lower()
            if lowered in ("", "off", "none", "disabled", "0"):
                return None
            if lowered == "auto":
                return cls()
            return cls(Path(spec))
        raise TypeError(f"cannot interpret cache spec {spec!r}")

    # -- paths ---------------------------------------------------------

    def plan_path(self, key: str) -> Path:
        return self.root / f"{key}.npz"

    def meta_path(self, key: str) -> Path:
        return self.root / f"{key}.json"

    # -- load / store --------------------------------------------------

    def load(self, key: str):
        """Operator for ``key``, or ``None`` on miss.

        A present-but-unusable entry (corrupt archive, checksum
        failure, stale format version) is discarded with a
        :class:`CacheIntegrityWarning` and counted as a miss — the
        caller falls back to re-tracing, never crashes.
        """
        path = self.plan_path(key)
        if not path.exists():
            add_count(CACHE_MISSES, 1)
            return None
        with span("cache.load", key=key):
            try:
                nbytes = path.stat().st_size
                operator = load_operator(path)
            except FileNotFoundError:
                add_count(CACHE_MISSES, 1)
                return None
            except (OperatorFormatError, OperatorIntegrityError, ValueError, OSError) as exc:
                warnings.warn(
                    f"plan cache entry {key[:12]} is unusable ({exc}); "
                    "discarding it and re-tracing",
                    CacheIntegrityWarning,
                    stacklevel=2,
                )
                self.discard(key)
                add_count(CACHE_MISSES, 1)
                return None
        try:
            os.utime(path)  # recency bump for LRU eviction
        except FileNotFoundError:
            # Another process sharing the directory evicted or discarded
            # the entry since the load.  The load is still good: the
            # operator's map keeps the unlinked file's pages alive.
            pass
        add_count(CACHE_HITS, 1)
        add_count(CACHE_BYTES_READ, nbytes)
        return operator

    def reserve(self, key: str, geometry, tomo_ordering, sino_ordering, value_dtype):
        """Open the entry for ``key`` as an archive to be assembled in
        place (:class:`repro.io.OperatorArchive`) and sealed by
        :meth:`store`; nothing is visible under the key until then."""
        self.root.mkdir(parents=True, exist_ok=True)
        return OperatorArchive(
            self.plan_path(key), geometry, tomo_ordering, sino_ordering, value_dtype
        )

    def store(self, key: str, operator, extra_meta: dict | None = None, archive=None):
        """Persist ``operator`` under ``key`` (atomic), then evict.

        With the ``archive`` that :meth:`reserve` opened and the
        operator's pair was built in, the store is that archive's seal;
        without one the operator is written by copy.  Either way the
        entry is then loaded — mapped and CRC-verified like any hit,
        but counted as none — and that operator is returned: a cold
        build hands out what a warm load hands out.
        """
        self.root.mkdir(parents=True, exist_ok=True)
        with span("cache.store", key=key):
            # Uncompressed: cache entries exist to be loaded fast, and
            # zlib would dominate both the store and the hit path.
            if archive is not None:
                path = archive.seal(operator)
            else:
                path = save_operator(self.plan_path(key), operator, compress=False)
            nbytes = path.stat().st_size
            meta = {
                "key": key,
                "created": time.time(),
                "nbytes": nbytes,
                "geometry": operator.geometry.archive_fields(),
                "config": {
                    "kernel": operator.config.kernel,
                    "partition_size": operator.config.partition_size,
                    "buffer_bytes": operator.config.buffer_bytes,
                },
                "nnz": operator.nnz,
            }
            if extra_meta:
                meta.update(extra_meta)
            self._write_meta(key, meta)
            stored = load_operator(path)
        add_count(CACHE_BYTES_WRITTEN, nbytes)
        self.evict()
        return stored

    def _write_meta(self, key: str, meta: dict) -> None:
        atomic_write_text(
            self.meta_path(key), json.dumps(meta, indent=2, sort_keys=True) + "\n"
        )

    # -- inspection / maintenance --------------------------------------

    def entries(self) -> list[CacheEntry]:
        """All entries, most recently used first."""
        if not self.root.is_dir():
            return []
        found = []
        for path in self.root.glob("*.npz"):
            try:
                stat = path.stat()
            except OSError:
                continue  # raced with a concurrent discard
            meta: dict = {}
            meta_path = self.meta_path(path.stem)
            if meta_path.exists():
                try:
                    meta = json.loads(meta_path.read_text())
                except (OSError, json.JSONDecodeError):
                    meta = {}
            found.append(
                CacheEntry(
                    key=path.stem,
                    path=path,
                    nbytes=stat.st_size,
                    mtime=stat.st_mtime,
                    meta=meta,
                )
            )
        found.sort(key=lambda e: e.mtime, reverse=True)
        return found

    def entry(self, key: str) -> CacheEntry | None:
        """The entry for ``key`` (prefix match allowed), or ``None``."""
        for candidate in self.entries():
            if candidate.key == key or candidate.key.startswith(key):
                return candidate
        return None

    def total_bytes(self) -> int:
        return sum(e.nbytes for e in self.entries())

    def discard(self, key: str) -> bool:
        """Remove one entry; returns whether the plan file existed."""
        existed = self.plan_path(key).exists()
        self.plan_path(key).unlink(missing_ok=True)
        self.meta_path(key).unlink(missing_ok=True)
        return existed

    def clear(self) -> int:
        """Remove every entry, returning how many plans were deleted."""
        removed = 0
        for e in self.entries():
            removed += bool(self.discard(e.key))
        return removed

    def evict(self, max_bytes: int | None = None) -> list[CacheEntry]:
        """Drop least-recently-used entries until under the size cap.

        The most recent entry is always kept, even when it alone
        exceeds the cap — evicting the plan that was just stored would
        make an oversized geometry uncacheable *and* pay the write cost
        every run.

        Also removes the ``*.tmp-<pid>`` files of writers that no
        longer exist: an entry assembled in place is plan-sized from
        its first second, so a killed cold build must not leave it
        behind.  A live writer's file — any process's — is never
        touched.
        """
        for stray in self.root.glob("*.tmp-*"):
            pid = stray.name.rpartition(".tmp-")[2]
            if pid.isdigit() and not _process_exists(int(pid)):
                stray.unlink(missing_ok=True)
        cap = self.max_bytes if max_bytes is None else max_bytes
        entries = self.entries()  # most recent first
        total = sum(e.nbytes for e in entries)
        evicted: list[CacheEntry] = []
        while total > cap and len(entries) > 1:
            victim = entries.pop()  # least recently used
            self.discard(victim.key)
            total -= victim.nbytes
            evicted.append(victim)
            add_count(CACHE_EVICTIONS, 1)
        return evicted
