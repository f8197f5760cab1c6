"""repro.parallel — shared-memory parallel execution backend.

Reproduces the intra-node parallelism of the paper (OpenMP threads
over contiguous Hilbert-ordered partition ranges, Section 4.1) on top
of three interchangeable backends:

* ``serial`` — inline execution, the bit-identity reference;
* ``thread`` — a shared thread pool; fans out tracing, not SpMV
  (scipy's loops hold the GIL; the compiled row loops release it but
  have no thread dispatch yet);
* ``process`` — a fork-context process pool whose workers attach the
  operator's arrays from POSIX shared memory; partitions SpMV.

Because every worker owns a contiguous partition range and reductions
concatenate in fixed partition-major order, parallel results are
**bit-identical** to serial results on all three matrix layouts — the
backends change wall time, never numerics.

Worker counts resolve from ``workers=`` arguments / ``--workers``
flags, then the ``REPRO_WORKERS`` environment variable, then serial.
See ``docs/parallel.md`` for the full guide.
"""

from .backend import (
    ENV_WORKERS,
    ExecutionBackend,
    ProcessBackend,
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
    "ProcessBackend",
    "SerialBackend",
    "ThreadBackend",
    "make_backend",
    "parse_workers",
    "shutdown_shared_pools",
    "ParallelSpmvEngine",
    "partition_ranges",
]
