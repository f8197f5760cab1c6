"""Cache simulation substrate: LRU model, SpMV address traces, analyses."""

from .analysis import (
    cold_misses_for_footprint,
    miss_rate_buffered,
    miss_rate_csr,
    sample_rows,
)
from .cache import Cache, CacheStats
from .trace import (
    ELEMENT_BYTES,
    combined_trace_csr,
    ell_lockstep_spmv,
    footprint_coordinates,
    irregular_trace_buffered,
    irregular_trace_csr,
    listing3_spmv,
)

__all__ = [
    "cold_misses_for_footprint",
    "miss_rate_buffered",
    "miss_rate_csr",
    "sample_rows",
    "Cache",
    "CacheStats",
    "ELEMENT_BYTES",
    "combined_trace_csr",
    "ell_lockstep_spmv",
    "footprint_coordinates",
    "irregular_trace_buffered",
    "irregular_trace_csr",
    "listing3_spmv",
]
