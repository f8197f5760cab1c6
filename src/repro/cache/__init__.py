"""repro.cache — the persistent, content-addressed operator-plan cache.

MemXCT's thesis is memoization: trace once, reuse the matrix every
iteration.  This package extends that economy across *processes*: a
plan (the full product of the three preprocessing stages — orderings
and traced matrix) is stored on disk under a stable
fingerprint of its inputs, so a beamline workflow
preprocesses once per scan geometry and every later run — more slices,
another solver, a different process — skips preprocessing entirely.

    from repro.core import preprocess
    operator, report = preprocess(geometry, cache="auto")
    report.cache_hit   # True on every run after the first

Entries are crash-safe (temp-file + atomic rename, checksum verified
on load), degrade gracefully (a corrupt or version-stale entry warns
and re-traces instead of crashing), and are evicted least-recently-used
once the cache exceeds its size cap.  See ``docs/persistence.md``.
"""

from .fingerprint import fingerprint_inputs, plan_fingerprint
from .store import (
    DEFAULT_MAX_BYTES,
    CacheEntry,
    CacheIntegrityWarning,
    PlanCache,
    default_cache_dir,
)

__all__ = [
    "fingerprint_inputs",
    "plan_fingerprint",
    "DEFAULT_MAX_BYTES",
    "CacheEntry",
    "CacheIntegrityWarning",
    "PlanCache",
    "default_cache_dir",
]
