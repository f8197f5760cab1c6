"""Content-addressed fingerprints of operator plans.

A plan is fully determined by the scan geometry (which writes its own
section, ``geometry.fingerprint_fields()``), the domain-ordering
scheme (and its two-level granularity parameters), the kernel
configuration, and the on-disk format version.  Hashing a canonical
JSON rendering of exactly those inputs gives a stable key: the same
preprocessing request always maps to the same cache entry, across
processes and machines, and *any* change to an input (including a
format bump) maps to a fresh key instead of a stale hit.

Floats are rendered with ``float.hex`` so the fingerprint is exact —
two geometries differing in the last ulp of ``angle_range`` are
different plans.
"""

from __future__ import annotations

import hashlib
import json

from ..core import OperatorConfig
from ..geometry import ScanGeometry
from ..io import FORMAT_VERSION

__all__ = ["plan_fingerprint", "fingerprint_inputs"]


def fingerprint_inputs(
    geometry: ScanGeometry,
    config: OperatorConfig | None = None,
    ordering: str = "pseudo-hilbert",
    min_tiles: int = 16,
    tile_size: int | None = None,
) -> dict:
    """The canonical (JSON-ready) document a fingerprint hashes.

    The config section carries the compute ``dtype`` only when one is
    explicitly set: fp32 and fp64 plans therefore hash to different
    keys and never collide, while the default mixed-precision
    fingerprints (and every cache written before the dtype path
    existed) remain unchanged.  The ``workers`` execution knob is
    deliberately excluded — workers never change the numbers.
    """
    config = config or OperatorConfig()
    doc = {
        "format_version": FORMAT_VERSION,
        "geometry": geometry.fingerprint_fields(),
        "ordering": {
            "name": str(ordering),
            "min_tiles": int(min_tiles),
            "tile_size": None if tile_size is None else int(tile_size),
        },
        "config": {
            "kernel": config.kernel,
            "partition_size": int(config.partition_size),
            "buffer_bytes": int(config.buffer_bytes),
        },
    }
    if config.dtype is not None:
        doc["config"]["dtype"] = config.dtype
    return doc


def plan_fingerprint(
    geometry: ScanGeometry,
    config: OperatorConfig | None = None,
    ordering: str = "pseudo-hilbert",
    min_tiles: int = 16,
    tile_size: int | None = None,
) -> str:
    """SHA-256 hex fingerprint of a preprocessing request."""
    doc = fingerprint_inputs(geometry, config, ordering, min_tiles, tile_size)
    canon = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()
