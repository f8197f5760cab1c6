"""repro.parallel — thread-parallel execution backend.

Reproduces the intra-node parallelism of the paper (OpenMP threads
over contiguous Hilbert-ordered partition ranges, Section 4.1) on top
of two interchangeable backends:

* ``serial`` — inline execution, the bit-identity reference;
* ``thread`` — a shared thread pool; fans out tracing and partitions
  SpMV (:mod:`repro.parallel.spmv`).

Because every worker owns a contiguous partition range and writes its
own output rows, parallel results are **bit-identical** to serial
results — the backends change wall time, never numerics.  Only the
plan's CSR pair is partitioned; a handed-in buffered or ELL layout runs
serially.

Worker counts resolve from ``workers=`` arguments / ``--workers``
flags, then the ``REPRO_WORKERS`` environment variable, then serial.
See ``docs/parallel.md`` for the full guide.
"""

from .backend import (
    ENV_WORKERS,
    ExecutionBackend,
    SerialBackend,
    ThreadBackend,
    make_backend,
    parse_workers,
    shutdown_shared_pools,
)
from .spmv import ParallelSpmvEngine, partition_ranges

__all__ = [
    "ENV_WORKERS",
    "ExecutionBackend",
    "SerialBackend",
    "ThreadBackend",
    "make_backend",
    "parse_workers",
    "shutdown_shared_pools",
    "ParallelSpmvEngine",
    "partition_ranges",
]
